// Fleet mode demo (DESIGN.md §9): many observers' beacon streams
// multiplexed through one sharded service::DetectionService.
//
// Builds and runs the simulated VANET, then replays N observers'
// receptions — merged into a single arrival-ordered fleet stream — through
// the service, which hosts one stream::StreamEngine per observer session
// and batches due confirmation rounds across sessions onto the thread
// pool. Every session's rounds are cross-checked against a standalone
// StreamEngine fed the same per-observer stream: suspect sets, pair
// distances and densities must match bit for bit, for every combination
// of shards ∈ {1, 4} × threads ∈ {0, 1, 4}. Exit status is non-zero on
// any divergence.
//
//   ./build/examples/fleet_detection --density 15 --sessions 6
//   ./build/examples/fleet_detection --density 12 --sim-time 40 --sessions 3
//
// Pass --metrics-out / --trace-out for a run report with the service.*
// metrics (admission, round scheduling, pump latency), and
// --telemetry-out for the continuous frame stream with per-shard round
// latency and live conservation-law checks (DESIGN.md §12).
#include <algorithm>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/table.h"
#include "core/detector.h"
#include "fusion/engine.h"
#include "obs/report.h"
#include "obs/telemetry.h"
#include "service/service.h"
#include "sim/replay_source.h"
#include "sim/runner.h"
#include "sim/world.h"
#include "stream/engine.h"

namespace {

using namespace vp;

// Everything the fusion layer produces for one run: the closed epochs in
// order plus the end-of-run trust scores and counters. Compared bitwise
// (no epsilon) across the shard/thread grid — the fusion determinism
// claim is exactly that these are invariant under delivery interleaving.
struct FusionOutcome {
  std::vector<fusion::FusedEpoch> epochs;
  std::map<std::uint64_t, double> identity_trust;
  std::map<std::uint64_t, double> observer_trust;
  fusion::FusionEngine::Stats stats;
};

bool verdicts_identical(const fusion::FusedVerdict& a,
                        const fusion::FusedVerdict& b) {
  return a.id == b.id && a.accused == b.accused &&
         a.accuse_weight == b.accuse_weight &&    // bitwise, no epsilon
         a.total_weight == b.total_weight && a.voters == b.voters &&
         a.accusations == b.accusations;
}

bool outcomes_identical(const FusionOutcome& a, const FusionOutcome& b) {
  if (a.epochs.size() != b.epochs.size()) return false;
  for (std::size_t i = 0; i < a.epochs.size(); ++i) {
    const fusion::FusedEpoch& ea = a.epochs[i];
    const fusion::FusedEpoch& eb = b.epochs[i];
    if (ea.index != eb.index || ea.start_s != eb.start_s ||
        ea.end_s != eb.end_s || ea.rounds != eb.rounds ||
        ea.max_round_id != eb.max_round_id ||
        ea.verdicts.size() != eb.verdicts.size()) {
      return false;
    }
    for (std::size_t v = 0; v < ea.verdicts.size(); ++v) {
      if (!verdicts_identical(ea.verdicts[v], eb.verdicts[v])) return false;
    }
  }
  const fusion::FusionEngine::Stats& sa = a.stats;
  const fusion::FusionEngine::Stats& sb = b.stats;
  return a.identity_trust == b.identity_trust &&
         a.observer_trust == b.observer_trust &&
         sa.rounds_delivered == sb.rounds_delivered &&
         sa.rounds_fused == sb.rounds_fused &&
         sa.rounds_expired == sb.rounds_expired &&
         sa.epochs_closed == sb.epochs_closed &&
         sa.votes_cast == sb.votes_cast &&
         sa.verdicts_fused == sb.verdicts_fused &&
         sa.accusations_fused == sb.accusations_fused;
}

bool rounds_identical(const stream::StreamRound& a,
                      const stream::StreamRound& b) {
  if (a.round_id != b.round_id || a.time_s != b.time_s ||
      a.density_per_km != b.density_per_km ||
      a.identities_heard != b.identities_heard || a.suspects != b.suspects ||
      a.pairs.size() != b.pairs.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.pairs.size(); ++i) {
    if (a.pairs[i].a != b.pairs[i].a || a.pairs[i].b != b.pairs[i].b ||
        a.pairs[i].comparable != b.pairs[i].comparable ||
        a.pairs[i].raw != b.pairs[i].raw ||              // bitwise, no epsilon
        a.pairs[i].normalized != b.pairs[i].normalized) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const RunFlags run_flags = parse_run_flags(args);
  obs::RunSession session(args.program_name(), run_flags.metrics_out,
                          run_flags.trace_out);
  obs::HealthMonitor monitor = obs::HealthMonitor::with_default_invariants();
  obs::TelemetryExporter telemetry(obs::telemetry_config_from_flags(run_flags));
  if (telemetry.active()) telemetry.set_monitor(&monitor);

  sim::ScenarioConfig config;
  config.density_per_km = args.get_double("density", 15.0);
  config.seed = args.get_seed("seed", 5);
  config.sim_time_s = args.get_double("sim-time", 60.0);

  std::cout << config.describe() << "\nrunning...\n";
  sim::World world(config);
  world.run();

  const std::vector<NodeId> normals = world.normal_node_ids();
  const std::size_t session_count = std::min<std::size_t>(
      static_cast<std::size_t>(args.get_int("sessions", 6)), normals.size());
  const std::vector<NodeId> observers(normals.begin(),
                                      normals.begin() + session_count);
  const double horizon = config.sim_time_s + 1.0;

  // The fleet's receptions in arrival order: every observer's log merged
  // into one stream keyed (time, observer, identity) — the interleaving a
  // shared ingestion front-end would see. sim::replay_from_world is the
  // single source of this stream for the example, the benches and the
  // wire client, so all paths replay identical sequences.
  const std::vector<sim::FleetBeacon> fleet =
      sim::replay_from_world(world, observers, horizon, 1);

  stream::StreamEngineConfig engine_config;
  engine_config.observation_time_s = config.observation_time_s;
  engine_config.round_period_s = config.detection_period_s;
  engine_config.density_estimation_period_s =
      config.density_estimation_period_s;
  engine_config.max_transmission_range_m = config.max_transmission_range_m;
  engine_config.min_samples = 4;  // World::observe's default
  engine_config.condition_ingest = run_flags.cond;
  engine_config.detector = core::tuned_simulation_options(1);
  const double end_time = world.detection_times().back();

  // Reference: each observer through its own standalone StreamEngine
  // (PR 3's engine, untouched). The service must reproduce these rounds
  // bit for bit at every shard/thread count.
  std::map<NodeId, std::vector<stream::StreamRound>> reference;
  for (NodeId observer : observers) {
    stream::StreamEngine engine(engine_config);
    engine.set_round_callback([&, observer](const stream::StreamRound& round) {
      reference[observer].push_back(round);
    });
    for (const sim::FleetBeacon& rx : fleet) {
      if (rx.observer != observer) continue;
      engine.ingest(rx.id, rx.time_s, rx.rssi_dbm);
    }
    engine.advance_to(end_time);
  }
  std::size_t reference_rounds = 0;
  for (const auto& [observer, rounds] : reference) {
    reference_rounds += rounds.size();
  }

  std::cout << "\nfleet of " << observers.size() << " observers, "
            << fleet.size() << " beacons, " << reference_rounds
            << " reference rounds\n\n";

  // --fuse: additionally attach a fusion::FusionEngine to every config
  // and require its entire output — fused epochs, trust scores, counters
  // — to be bit-identical across the grid (DESIGN.md §13).
  const bool fuse = args.get_bool("fuse", false);
  fusion::FusionConfig fusion_config;
  fusion_config.epoch_period_s = config.detection_period_s;

  const std::vector<std::size_t> shard_counts = {1, 4};
  const std::vector<std::size_t> thread_counts = {0, 1, 4};
  bool all_ok = true;
  bool fusion_ok = true;
  std::optional<FusionOutcome> fusion_reference;
  std::size_t total_checked = 0;
  std::size_t total_matched = 0;
  Table table(fuse ? std::vector<std::string>{"shards", "threads", "rounds",
                                              "matched", "parity", "fusion"}
                   : std::vector<std::string>{"shards", "threads", "rounds",
                                              "matched", "parity"});

  for (std::size_t shards : shard_counts) {
    for (std::size_t threads : thread_counts) {
      service::ServiceConfig service_config;
      service_config.shards = shards;
      service_config.threads = threads;
      service_config.max_sessions = observers.size() + 4;
      service_config.engine = engine_config;

      service::DetectionService fleet_service(service_config);
      std::map<NodeId, std::vector<stream::StreamRound>> streamed;
      fleet_service.set_round_callback(
          [&](const service::SessionRound& round) {
            telemetry.on_round(round.round.time_s);
            streamed[static_cast<NodeId>(round.session)].push_back(
                round.round);
          });

      std::optional<fusion::FusionEngine> fusion_engine;
      FusionOutcome outcome;
      if (fuse) {
        fusion_engine.emplace(fusion_config);
        fusion_engine->set_epoch_callback(
            [&](const fusion::FusedEpoch& epoch) {
              outcome.epochs.push_back(epoch);
            });
        fleet_service.add_round_listener(
            [&](const service::SessionRound& round) {
              fusion_engine->observe(round);
            });
      }

      for (const sim::FleetBeacon& rx : fleet) {
        fleet_service.ingest(static_cast<service::SessionId>(rx.observer),
                             rx.id, rx.time_s, rx.rssi_dbm);
        if (fusion_engine) fusion_engine->advance(rx.time_s);
        telemetry.sample(rx.time_s);
      }
      fleet_service.advance_all_to(end_time);
      if (fusion_engine) {
        fusion_engine->advance(end_time);
        fusion_engine->finish();
        outcome.identity_trust = fusion_engine->identity_trust().scores();
        outcome.observer_trust = fusion_engine->observer_trust().scores();
        outcome.stats = fusion_engine->stats();
      }
      telemetry.sample(end_time);

      std::size_t checked = 0;
      std::size_t matched = 0;
      bool counts_ok = true;
      for (NodeId observer : observers) {
        const std::vector<stream::StreamRound>& expected =
            reference[observer];
        const std::vector<stream::StreamRound>& got = streamed[observer];
        counts_ok = counts_ok && got.size() == expected.size();
        for (std::size_t i = 0; i < expected.size(); ++i) {
          ++checked;
          if (i < got.size() && rounds_identical(got[i], expected[i])) {
            ++matched;
          }
        }
      }
      // Graceful shutdown: close every session so the cumulative session
      // accounting (opened = closed + evicted + active) stays exact
      // across the shard/thread configs sharing one registry.
      for (NodeId observer : observers) {
        fleet_service.close(static_cast<service::SessionId>(observer));
      }
      const bool ok =
          counts_ok && checked == matched && checked == reference_rounds;
      all_ok = all_ok && ok;
      total_checked += checked;
      total_matched += matched;
      std::vector<std::string> row{std::to_string(shards),
                                   std::to_string(threads),
                                   std::to_string(checked),
                                   std::to_string(matched),
                                   ok ? "ok" : "MISMATCH"};
      if (fuse) {
        bool config_fusion_ok = true;
        if (!fusion_reference.has_value()) {
          fusion_reference = std::move(outcome);
        } else {
          config_fusion_ok = outcomes_identical(*fusion_reference, outcome);
        }
        fusion_ok = fusion_ok && config_fusion_ok;
        row.push_back(config_fusion_ok ? "ok" : "MISMATCH");
      }
      table.add_row(std::move(row));
    }
  }
  table.print(std::cout);
  telemetry.finish(end_time);

  if (all_ok) {
    std::cout << "\nfleet parity: OK — every session bit-identical to its "
              << "standalone engine across " << shard_counts.size() << "x"
              << thread_counts.size() << " shard/thread configs\n";
  } else {
    std::cout << "\nfleet parity: MISMATCH — " << total_matched << "/"
              << total_checked << " rounds matched\n";
  }
  if (fuse) {
    if (fusion_ok && fusion_reference.has_value()) {
      std::cout << "fusion parity: OK — " << fusion_reference->epochs.size()
                << " fused epochs, " << fusion_reference->identity_trust.size()
                << " identity and " << fusion_reference->observer_trust.size()
                << " observer trust scores bit-identical across all configs\n";
    } else {
      std::cout << "fusion parity: MISMATCH\n";
    }
  }

  if (session.active()) {
    obs::json::Object extra;
    extra.emplace("sessions", obs::json::Value(observers.size()));
    extra.emplace("beacons", obs::json::Value(fleet.size()));
    extra.emplace("reference_rounds", obs::json::Value(reference_rounds));
    extra.emplace("parity_rounds_checked", obs::json::Value(total_checked));
    extra.emplace("parity_rounds_matched", obs::json::Value(total_matched));
    if (fuse && fusion_reference.has_value()) {
      extra.emplace("fused_epochs",
                    obs::json::Value(fusion_reference->epochs.size()));
      extra.emplace("fusion_parity_ok", obs::json::Value(fusion_ok));
    }
    session.set_extra(obs::json::Value(std::move(extra)));
    if (telemetry.active()) session.merge_extra("health", monitor.summary());
  }
  return all_ok && fusion_ok ? 0 : 1;
}
