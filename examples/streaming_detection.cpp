// Online streaming detection demo (DESIGN.md §8): the Table V highway
// scenario served beacon-by-beacon instead of as an offline batch.
//
// Builds and runs the simulated VANET, then replays one observer's
// receptions in arrival order through stream::StreamEngine — bounded
// per-identity ring buffers, staleness expiry, explicit load shedding —
// which runs a confirmation round every detection period. Each round is
// checked against core::VoiceprintDetector on the batch-cut window: the
// suspect sets and pair distances must match bit for bit.
//
//   ./build/examples/streaming_detection --density 30 --seed 5
//   ./build/examples/streaming_detection --rate-cap 50 --ring 64   # overload
//   ./build/examples/streaming_detection --kill-at 30               # restart
//
// --kill-at T simulates an OBU reboot: at the first beacon at or past
// stream time T the engine is checkpointed through the wire format
// (encode + decode), destroyed, and restored (DESIGN.md §10). Parity
// against the batch detector must still hold — restore is bit-exact.
//
// --cond turns on the §15 fixed-point conditioning front. The batch
// detector reads the raw log, so batch parity is replaced by conditioned
// parity: the rounds must match an uninterrupted conditioned engine
// bit for bit (combine with --kill-at to prove the VPCK v3 checkpoint
// restores the filter state mid-stream).
//
// Pass --metrics-out / --trace-out for a run report with the stream.*
// metrics (ingest and shed counters, ring evictions, round latency), and
// --telemetry-out for the continuous frame stream (DESIGN.md §12) with
// the HealthMonitor's conservation-law checks on every frame. Across a
// --kill-at reboot the same exporter keeps running, so frame sequence
// numbers stay continuous — check_run_report --telemetry verifies it.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <optional>
#include <set>
#include <vector>

#include "common/cli.h"
#include "common/table.h"
#include "core/detector.h"
#include "obs/report.h"
#include "obs/telemetry.h"
#include "sim/runner.h"
#include "sim/world.h"
#include "stream/checkpoint.h"
#include "stream/engine.h"

int main(int argc, char** argv) {
  using namespace vp;
  const CliArgs args(argc, argv);
  const RunFlags run_flags = parse_run_flags(args);
  obs::RunSession session(args.program_name(), run_flags.metrics_out,
                          run_flags.trace_out);
  obs::HealthMonitor monitor = obs::HealthMonitor::with_default_invariants();
  obs::TelemetryExporter telemetry(obs::telemetry_config_from_flags(run_flags));
  if (telemetry.active()) telemetry.set_monitor(&monitor);

  sim::ScenarioConfig config;
  config.density_per_km = args.get_double("density", 30.0);
  config.seed = args.get_seed("seed", 5);
  config.sim_time_s = args.get_double("sim-time", 60.0);

  std::cout << config.describe() << "\nrunning...\n";
  sim::World world(config);
  world.run();

  const NodeId observer = world.normal_node_ids().front();
  const sim::RssiLog& log = world.node(observer).log();
  const double horizon = config.sim_time_s + 1.0;

  // The observer's receptions in arrival order: merge the per-identity
  // logs by (time, id) — exactly the beacon stream its radio delivered.
  struct Rx {
    double time_s;
    IdentityId id;
    double rssi_dbm;
  };
  std::vector<Rx> beacons;
  for (IdentityId id : log.identities_heard(0.0, horizon, 1)) {
    for (const sim::BeaconRecord& r : log.records(id, 0.0, horizon)) {
      beacons.push_back({r.time_s, id, r.rssi_dbm});
    }
  }
  std::sort(beacons.begin(), beacons.end(), [](const Rx& a, const Rx& b) {
    return a.time_s != b.time_s ? a.time_s < b.time_s : a.id < b.id;
  });

  stream::StreamEngineConfig engine_config;
  engine_config.observation_time_s = config.observation_time_s;
  engine_config.round_period_s = config.detection_period_s;
  engine_config.density_estimation_period_s =
      config.density_estimation_period_s;
  engine_config.max_transmission_range_m = config.max_transmission_range_m;
  engine_config.min_samples = 4;  // World::observe's default
  engine_config.ring_capacity =
      static_cast<std::size_t>(args.get_int("ring", 256));
  engine_config.max_identities =
      static_cast<std::size_t>(args.get_int("max-identities", 512));
  engine_config.max_ingest_rate_hz = args.get_double("rate-cap", 0.0);
  engine_config.condition_ingest = run_flags.cond;
  engine_config.detector = core::tuned_simulation_options(run_flags.threads);

  const double kill_at = args.get_double("kill-at", -1.0);

  std::optional<stream::StreamEngine> engine;
  engine.emplace(engine_config);
  core::VoiceprintDetector batch(
      core::tuned_simulation_options(run_flags.threads));

  // Check every round against the batch detector on the same window as it
  // completes. Shedding (a rate cap, a small ring) breaks parity by
  // design — the engine then sees less than the unbounded log did. The
  // conditioning front breaks batch parity too (the batch detector reads
  // the raw log); --cond runs its own restore-parity check below instead.
  const bool shedding_configured =
      engine_config.max_ingest_rate_hz > 0.0 || args.has("ring") ||
      args.has("max-identities");
  const bool batch_parity = !shedding_configured && !run_flags.cond;
  std::size_t rounds_checked = 0;
  std::size_t rounds_matched = 0;
  std::vector<stream::StreamRound> rounds;
  const auto on_round = [&](const stream::StreamRound& round) {
    telemetry.on_round(round.time_s);
    rounds.push_back(round);
    if (!batch_parity) return;
    const sim::ObservationWindow window =
        world.observe(observer, round.time_s, engine_config.min_samples);
    const std::vector<IdentityId> expected = batch.detect_window(window);
    ++rounds_checked;
    if (expected == round.suspects &&
        window.estimated_density_per_km == round.density_per_km) {
      ++rounds_matched;
    }
  };
  engine->set_round_callback(on_round);

  bool killed = false;
  for (const Rx& rx : beacons) {
    engine->ingest(rx.id, rx.time_s, rx.rssi_dbm);
    telemetry.sample(rx.time_s);
    if (kill_at >= 0.0 && !killed && rx.time_s >= kill_at) {
      // Reboot: checkpoint through the wire format, destroy, restore.
      const std::vector<std::uint8_t> bytes =
          stream::encode_checkpoint(engine->checkpoint());
      engine.reset();
      stream::EngineCheckpoint restored;
      std::string error;
      if (!stream::decode_checkpoint(bytes, &restored, &error)) {
        std::cerr << "checkpoint decode failed: " << error << "\n";
        return 1;
      }
      engine.emplace(engine_config, restored);
      engine->set_round_callback(on_round);
      killed = true;
      std::cout << "killed and restored engine at t=" << rx.time_s << " ("
                << bytes.size() << "-byte checkpoint)\n";
    }
  }
  engine->advance_to(world.detection_times().back());
  telemetry.finish(world.detection_times().back());

  // --cond parity: the batch detector reads the raw log, so it cannot be
  // the reference for a conditioned stream. Instead an uninterrupted
  // conditioned engine replays the same beacons — its rounds must be
  // bit-identical to the served engine's, which with --kill-at proves
  // the VPCK v3 checkpoint restores the Hampel/EMA state mid-filter.
  std::size_t cond_checked = 0;
  std::size_t cond_matched = 0;
  if (run_flags.cond) {
    stream::StreamEngine reference(engine_config);
    std::vector<stream::StreamRound> reference_rounds;
    reference.set_round_callback(
        [&reference_rounds](const stream::StreamRound& round) {
          reference_rounds.push_back(round);
        });
    for (const Rx& rx : beacons) {
      reference.ingest(rx.id, rx.time_s, rx.rssi_dbm);
    }
    reference.advance_to(world.detection_times().back());
    cond_checked = std::max(reference_rounds.size(), rounds.size());
    for (std::size_t i = 0;
         i < std::min(reference_rounds.size(), rounds.size()); ++i) {
      const stream::StreamRound& a = reference_rounds[i];
      const stream::StreamRound& b = rounds[i];
      bool pairs_equal = a.pairs.size() == b.pairs.size();
      for (std::size_t j = 0; pairs_equal && j < a.pairs.size(); ++j) {
        pairs_equal = a.pairs[j].raw == b.pairs[j].raw;
      }
      if (a.time_s == b.time_s && a.suspects == b.suspects && pairs_equal) {
        ++cond_matched;
      }
    }
  }

  std::cout << "\nstreamed " << beacons.size() << " beacons through observer "
            << observer << "; " << engine->stats().rounds
            << " confirmation rounds\n\n";
  Table table({"round t", "heard", "density", "suspects"});
  for (const stream::StreamRound& round : rounds) {
    std::string ids;
    for (IdentityId id : round.suspects) {
      if (!ids.empty()) ids += " ";
      ids += std::to_string(id);
    }
    table.add_row({Table::num(round.time_s, 0), std::to_string(
                       round.identities_heard),
                   Table::num(round.density_per_km, 1),
                   ids.empty() ? "-" : ids});
  }
  table.print(std::cout);

  if (engine->last_round()) {
    const stream::StreamRound& last = *engine->last_round();
    const std::set<IdentityId> flagged(last.suspects.begin(),
                                       last.suspects.end());
    std::cout << "\nlast round verdicts vs ground truth:\n";
    Table verdicts({"identity", "truth", "verdict"});
    const sim::ObservationWindow window =
        world.observe(observer, last.time_s, engine_config.min_samples);
    for (const sim::NeighborObservation& n : window.neighbors) {
      const auto& info = world.truth().info(n.id);
      const std::string truth = info.sybil ? "SYBIL"
                                : info.owner_malicious ? "malicious sender"
                                                       : "normal";
      verdicts.add_row({std::to_string(n.id), truth,
                        flagged.count(n.id) ? "flagged" : "-"});
    }
    verdicts.print(std::cout);
  }

  const stream::StreamEngine::Stats& stats = engine->stats();
  std::cout << "\nstream engine: ingested " << stats.beacons_ingested << "/"
            << stats.beacons_offered << " beacons (shed "
            << stats.beacons_shed_rate_limited << " rate-limited, "
            << stats.beacons_shed_identity_cap << " identity-cap, "
            << stats.beacons_shed_out_of_order << " out-of-order; "
            << stats.ring_evictions << " ring evictions), tracking "
            << engine->identities_tracked() << " identities\n";

  if (run_flags.cond) {
    if (cond_checked > 0 && cond_matched == cond_checked) {
      std::cout << "conditioned parity: OK — " << cond_matched << "/"
                << cond_checked << " rounds bit-identical to an "
                << "uninterrupted conditioned engine\n";
    } else {
      std::cout << "conditioned parity: MISMATCH — " << cond_matched << "/"
                << cond_checked << " rounds matched\n";
    }
  } else if (shedding_configured) {
    std::cout << "streaming parity: skipped (load shedding configured)\n";
  } else if (rounds_checked > 0 && rounds_matched == rounds_checked) {
    std::cout << "streaming parity: OK — " << rounds_matched << "/"
              << rounds_checked << " rounds bit-identical to the batch "
              << "detector\n";
  } else {
    std::cout << "streaming parity: MISMATCH — " << rounds_matched << "/"
              << rounds_checked << " rounds matched\n";
  }

  if (session.active()) {
    obs::json::Object extra;
    extra.emplace("beacons_offered", obs::json::Value(stats.beacons_offered));
    extra.emplace("beacons_ingested",
                  obs::json::Value(stats.beacons_ingested));
    extra.emplace("rounds", obs::json::Value(stats.rounds));
    extra.emplace("parity_rounds_checked", obs::json::Value(rounds_checked));
    extra.emplace("parity_rounds_matched", obs::json::Value(rounds_matched));
    session.set_extra(obs::json::Value(std::move(extra)));
    if (telemetry.active()) session.merge_extra("health", monitor.summary());
  }
  if (run_flags.cond) {
    return cond_checked > 0 && cond_matched == cond_checked ? 0 : 1;
  }
  return (shedding_configured || rounds_matched == rounds_checked) ? 0 : 1;
}
