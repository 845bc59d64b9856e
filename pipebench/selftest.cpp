// The benchmark's own tests, run after every measured run and by
// `pipebench --self-test`:
//   * reference parity — one tiny seeded fleet fed through the wire and
//     the sharded service must give bit-identical rounds (suspects and
//     pair distances) and fused epochs as the same beacons fed straight
//     into standalone per-observer StreamEngines and a FusionEngine (with
//     and without conditioning, damage and a mid-run checkpoint failover);
//   * generator pin — the same seed gives byte-identical frames, another
//     seed gives different frames, and every observer hears exactly its
//     planned identity count.
#include <bit>
#include <cstdio>
#include <map>
#include <memory>
#include <string>

#include "pipeline.h"
#include "service/checkpoint.h"
#include "stream/engine.h"
#include "wire/transport.h"

namespace pipebench {

namespace {

struct Fused {
  // (session, round id) -> round, as delivered to fusion.
  std::map<std::pair<std::uint64_t, std::uint64_t>, vp::stream::StreamRound>
      rounds;
  std::vector<vp::fusion::FusedEpoch> epochs;
  std::map<std::uint64_t, double> identity_trust;
};

bool same_double(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_round(const vp::stream::StreamRound& x,
                const vp::stream::StreamRound& y) {
  bool ok = same_double(x.time_s, y.time_s) &&
            x.identities_heard == y.identities_heard &&
            same_double(x.density_per_km, y.density_per_km) &&
            x.suspects == y.suspects && x.pairs.size() == y.pairs.size();
  for (std::size_t i = 0; ok && i < x.pairs.size(); ++i) {
    const vp::core::PairDistance& p = x.pairs[i];
    const vp::core::PairDistance& q = y.pairs[i];
    ok = p.a == q.a && p.b == q.b && p.comparable == q.comparable &&
         same_double(p.normalized, q.normalized) && same_double(p.raw, q.raw);
  }
  return ok;
}

bool same(const Fused& a, const Fused& b, std::string* why) {
  if (a.rounds.size() != b.rounds.size()) {
    *why = "round count " + std::to_string(a.rounds.size()) + " vs " +
           std::to_string(b.rounds.size());
    return false;
  }
  for (const auto& [key, round] : a.rounds) {
    const auto it = b.rounds.find(key);
    if (it == b.rounds.end() || !same_round(round, it->second)) {
      *why = "round " + std::to_string(key.second) + " of session " +
             std::to_string(key.first) + " differs";
      return false;
    }
  }
  if (a.epochs.size() != b.epochs.size()) {
    *why = "epoch count " + std::to_string(a.epochs.size()) + " vs " +
           std::to_string(b.epochs.size());
    return false;
  }
  for (std::size_t e = 0; e < a.epochs.size(); ++e) {
    const vp::fusion::FusedEpoch& x = a.epochs[e];
    const vp::fusion::FusedEpoch& y = b.epochs[e];
    bool ok = x.index == y.index && same_double(x.start_s, y.start_s) &&
              same_double(x.end_s, y.end_s) && x.rounds == y.rounds &&
              x.max_round_id == y.max_round_id &&
              x.verdicts.size() == y.verdicts.size();
    for (std::size_t v = 0; ok && v < x.verdicts.size(); ++v) {
      const vp::fusion::FusedVerdict& p = x.verdicts[v];
      const vp::fusion::FusedVerdict& q = y.verdicts[v];
      ok = p.id == q.id && p.accused == q.accused &&
           same_double(p.accuse_weight, q.accuse_weight) &&
           same_double(p.total_weight, q.total_weight) &&
           p.voters == q.voters && p.accusations == q.accusations;
    }
    if (!ok) {
      *why = "epoch " + std::to_string(x.index) + " differs";
      return false;
    }
  }
  if (a.identity_trust.size() != b.identity_trust.size()) {
    *why = "trust table size differs";
    return false;
  }
  for (const auto& [id, score] : a.identity_trust) {
    const auto it = b.identity_trust.find(id);
    if (it == b.identity_trust.end() || !same_double(score, it->second)) {
      *why = "trust of identity " + std::to_string(id) + " differs";
      return false;
    }
  }
  return true;
}

// Wire path: VPWB over in-memory pipes -> IngestServer -> sharded
// DetectionService (pool width 3) -> FusionEngine, optionally failing
// over through the VPSC codec halfway through.
Fused via_wire(const Workload& w, std::uint64_t seed, std::uint64_t ticks,
               bool failover) {
  const FleetPlan plan = FleetPlan::build(w.shape, seed);
  const vp::service::ServiceConfig config = service_config(w);
  Fused fused;
  vp::fusion::FusionEngine fusion(fusion_config(w));
  fusion.set_epoch_callback([&](const vp::fusion::FusedEpoch& epoch) {
    fused.epochs.push_back(epoch);
  });
  auto listener = [&](const vp::service::SessionRound& round) {
    fused.rounds[{round.session, round.round.round_id}] = round.round;
    fusion.observe(round);
  };
  std::vector<std::unique_ptr<vp::service::DetectionService>> owned;
  owned.push_back(std::make_unique<vp::service::DetectionService>(config));
  owned.back()->add_round_listener(listener);
  vp::wire::IngestServer server(vp::wire::IngestServerConfig{},
                                {owned.back().get()});

  const std::size_t n = kConnections;
  std::vector<std::vector<std::uint8_t>> streams(n);
  std::vector<std::unique_ptr<vp::wire::Connection>> clients;
  for (std::size_t c = 0; c < n; ++c) {
    FrameSource source(plan, c, seed, w.damage);
    for (std::uint64_t k = 0; k < ticks; ++k) source.append_tick(k, streams[c]);
    source.append_close(static_cast<double>(ticks) * kTickS, streams[c]);
    vp::wire::PipePair pipe = vp::wire::make_pipe(1 << 16);
    server.add_connection(std::move(pipe.server));
    clients.push_back(std::move(pipe.client));
  }

  std::size_t total = 0;
  for (const auto& s : streams) total += s.size();
  std::vector<std::size_t> cursors(n, 0);
  std::size_t sent = 0;
  bool failed_over = !failover;
  for (std::size_t step = 0; sent < total || server.connections_active() > 0;
       ++step) {
    for (std::size_t c = 0; c < n; ++c) {
      if (cursors[c] >= streams[c].size()) continue;
      // Uneven chunks so frame boundaries land everywhere.
      const std::size_t chunk = std::min<std::size_t>(
          streams[c].size() - cursors[c], 1000 + (step * 997 + c * 331) % 4000);
      const std::size_t accepted = clients[c]->send(
          std::span<const std::uint8_t>(streams[c].data() + cursors[c], chunk));
      cursors[c] += accepted;
      sent += accepted;
      if (cursors[c] == streams[c].size()) clients[c]->close();
    }
    server.poll();
    server.drain();
    fusion.advance(server.watermark());
    if (!failed_over && sent >= total / 2) {
      const std::vector<std::uint8_t> bytes =
          vp::service::encode_checkpoint(owned.back()->checkpoint());
      vp::service::ServiceCheckpoint decoded;
      std::string error;
      if (!vp::service::decode_checkpoint(bytes, &decoded, &error)) {
        throw std::runtime_error("VPSC decode: " + error);
      }
      owned.push_back(
          std::make_unique<vp::service::DetectionService>(config, decoded));
      owned.back()->add_round_listener(listener);
      server.replace_backend(0, owned.back().get());
      failed_over = true;
    }
  }
  fusion.advance(server.watermark());
  fusion.finish();
  fused.identity_trust = fusion.identity_trust().scores();
  return fused;
}

// Reference path: the same intact beacons straight into one standalone
// StreamEngine per observer, rounds straight into a FusionEngine.
Fused direct(const Workload& w, std::uint64_t seed, std::uint64_t ticks) {
  const FleetPlan plan = FleetPlan::build(w.shape, seed);
  const vp::service::ServiceConfig config = service_config(w);
  Fused fused;
  vp::fusion::FusionEngine fusion(fusion_config(w));
  fusion.set_epoch_callback([&](const vp::fusion::FusedEpoch& epoch) {
    fused.epochs.push_back(epoch);
  });
  std::map<std::uint64_t, vp::stream::StreamEngine> engines;
  for (const ObserverPlan& o : plan.observers) {
    auto [it, inserted] = engines.try_emplace(o.id, config.engine);
    const std::uint64_t id = o.id;
    it->second.set_round_callback(
        [&fused, &fusion, id](const vp::stream::StreamRound& r) {
          fused.rounds[{id, r.round_id}] = r;
          fusion.observe(vp::service::SessionRound{id, r});
        });
  }
  std::vector<FrameSource> sources;
  for (std::size_t c = 0; c < kConnections; ++c) {
    sources.emplace_back(plan, c, seed, w.damage);
  }
  std::vector<std::uint8_t> bytes;
  std::vector<vp::sim::FleetBeacon> beacons;
  for (std::uint64_t k = 0; k < ticks; ++k) {
    for (FrameSource& source : sources) {
      bytes.clear();
      beacons.clear();
      source.append_tick(k, bytes, &beacons);
      for (const vp::sim::FleetBeacon& b : beacons) {
        vp::stream::StreamEngine& engine = engines.at(b.observer);
        if (b.id == 0) {
          engine.advance_to(b.time_s);  // heartbeat
        } else {
          engine.ingest(b.id, b.time_s, b.rssi_dbm);
        }
      }
    }
    fusion.advance(static_cast<double>(k) * kTickS);
  }
  const double end_s = static_cast<double>(ticks) * kTickS;
  for (auto& [id, engine] : engines) engine.advance_to(end_s);
  fusion.advance(end_s);
  fusion.finish();
  fused.identity_trust = fusion.identity_trust().scores();
  return fused;
}

std::vector<std::uint8_t> frames_for(const Workload& w, std::uint64_t seed,
                                     std::uint64_t ticks) {
  const FleetPlan plan = FleetPlan::build(w.shape, seed);
  std::vector<std::uint8_t> bytes;
  for (std::size_t c = 0; c < kConnections; ++c) {
    FrameSource source(plan, c, seed, w.damage);
    for (std::uint64_t k = 0; k < ticks; ++k) source.append_tick(k, bytes);
  }
  return bytes;
}

bool check(bool ok, const std::string& name, const std::string& detail) {
  std::printf("selftest: %-40s %s%s%s\n", name.c_str(), ok ? "OK" : "FAILED",
              detail.empty() ? "" : " - ", detail.c_str());
  return ok;
}

}  // namespace

bool self_test() {
  Workload plain;
  plain.shape = FleetShape{.observers = 4,
                           .identities_per_observer = 12,
                           .pool_identities = 30};
  Workload damaged = plain;
  damaged.round_period_s = 10.0;
  damaged.condition = true;
  damaged.damage = Damage{.corrupt_share = 0.01, .spike_share = 0.01};
  constexpr std::uint64_t kSeed = 7;
  constexpr std::uint64_t kTicks = 600;  // 60 s of stream time

  bool ok = true;
  try {
    const std::vector<std::uint8_t> a = frames_for(damaged, kSeed, 50);
    ok &= check(a == frames_for(damaged, kSeed, 50),
                "generator: same seed, same bytes", "");
    ok &= check(a != frames_for(damaged, kSeed + 1, 50),
                "generator: other seed, other bytes", "");
    const FleetPlan plan = FleetPlan::build(plain.shape, kSeed);
    bool exact = plan.positives() > 0;
    for (const ObserverPlan& o : plan.observers) {
      std::size_t heard = 0;
      for (const LinkPlan& l : o.links) {
        heard += plan.radios[l.radio].identities.size();
      }
      exact &= heard == plain.shape.identities_per_observer;
    }
    ok &= check(exact, "generator: exact shape, planted Sybils", "");

    struct Case {
      const char* name;
      const Workload* workload;
      bool failover;
    };
    for (const Case& c : {Case{"parity: wire vs standalone", &plain, false},
                          Case{"parity: cond+damage+failover", &damaged, true}}) {
      const Fused wire = via_wire(*c.workload, kSeed, kTicks, c.failover);
      const Fused reference = direct(*c.workload, kSeed, kTicks);
      std::string why;
      const bool equal = same(wire, reference, &why);
      ok &= check(equal && !wire.epochs.empty(), c.name,
                  equal ? std::to_string(wire.rounds.size()) + " rounds, " +
                              std::to_string(wire.epochs.size()) + " epochs"
                        : why);
    }
  } catch (const std::exception& e) {
    ok = check(false, "selftest", e.what());
  }
  return ok;
}

}  // namespace pipebench
