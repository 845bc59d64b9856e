// Sharded detection-service throughput sweep (DESIGN.md §9): how fast
// can service::DetectionService multiplex whole fleets of observers —
// ingest across N concurrent sessions and batch their confirmation
// rounds onto the thread pool — as a function of session count × beacon
// rate, plus one deliberately overloaded configuration (session cap
// below the offered fleet, per-session admission caps, a tiny round
// queue with manual pumping) to show every shedding path staying bounded
// and counted instead of stalling.
//
// Beacon traces are synthesised up front (AR(1) shadowing shapes at
// jittered beacon instants, merged into one fleet-wide arrival-ordered
// stream), so the timed region is exactly ingest + round scheduling +
// pumps. Pump and round latencies flow through the obs registry
// ("service.pump_ns", "stream.round_ns"), and BENCH_service.json is
// built from the same HistogramSnapshot aggregation as a --metrics-out
// run report (schema voiceprint.service_bench/v1, self-validated before
// writing).
//
//   ./build/bench/service_throughput                  # full sweep
//   ./build/bench/service_throughput --quick          # smoke-sized sweep
//   ./build/bench/service_throughput --shards 8 --threads 0 --duration 60
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/rng.h"
#include "core/detector.h"
#include "obs/report.h"
#include "obs/runtime.h"
#include "obs/telemetry.h"
#include "service/report.h"
#include "service/service.h"
#include "sim/replay_source.h"

namespace {

using namespace vp;

service::ServiceBenchConfigResult run_config(
    const std::string& label, std::size_t sessions, std::size_t identities,
    double rate_hz, double duration_s, std::size_t shards,
    std::size_t threads, bool overload, const vp::RunFlags& run_flags,
    obs::TelemetryExporter& telemetry) {
  // Shared with bench/wire_throughput: both synthesise the same fleet
  // (same seeds, same arrival order), so BENCH_service and BENCH_wire
  // rows at matching parameters measure the same workload.
  const std::vector<sim::FleetBeacon> beacons =
      sim::synthesize_fleet(sessions, identities, rate_hz, duration_s);

  service::ServiceConfig config;
  config.shards = shards;
  config.threads = threads;
  config.engine.condition_ingest = run_flags.cond;
  config.engine.detector = core::tuned_simulation_options(1);
  if (overload) {
    // The fleet is twice the session cap, each session's offered load is
    // 10× its admission cap, rings are a fraction of a window, and the
    // round queue is one entry pumped only at the end: every shedding
    // path — session cap, rate cap, identity cap, queue-full — must
    // engage, stay bounded, and account for every unit it dropped.
    config.max_sessions = std::max<std::size_t>(sessions / 2, 1);
    config.max_queued_rounds = 1;
    config.pump_batch_rounds = 0;  // manual pump only: force queue pressure
    config.engine.max_ingest_rate_hz =
        static_cast<double>(identities) * rate_hz / 10.0;
    config.engine.ring_capacity = 32;
    config.engine.max_identities = std::max<std::size_t>(identities / 2, 1);
  } else {
    config.max_sessions = sessions + 8;
    config.pump_batch_rounds = shards * 2;
    config.engine.ring_capacity = static_cast<std::size_t>(
        config.engine.observation_time_s * rate_hz * 2.0) + 16;
    config.engine.max_identities = identities + 16;
  }
  service::DetectionService fleet(config);
  fleet.set_round_callback([&](const service::SessionRound& round) {
    telemetry.on_round(round.round.time_s);
  });

  obs::Histogram& round_ns = obs::registry().histogram("stream.round_ns");
  obs::Histogram& pump_ns = obs::registry().histogram("service.pump_ns");
  round_ns.reset();  // this configuration only
  pump_ns.reset();

  const auto start = std::chrono::steady_clock::now();
  for (const sim::FleetBeacon& rx : beacons) {
    fleet.ingest(rx.observer, rx.id, rx.time_s, rx.rssi_dbm);
    telemetry.sample(rx.time_s);
  }
  fleet.advance_all_to(duration_s);
  telemetry.sample(duration_s);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const double wall_s =
      std::chrono::duration_cast<std::chrono::duration<double>>(elapsed)
          .count();

  const service::DetectionService::Stats& stats = fleet.stats();
  service::ServiceBenchConfigResult result;
  result.label = label;
  result.sessions = sessions;
  result.identities_per_session = identities;
  result.beacon_rate_hz = rate_hz;
  result.duration_s = duration_s;
  result.shards = shards;
  result.threads = threads;
  result.offered = stats.beacons_offered;
  result.ingested = stats.beacons_ingested;
  result.shed = stats.beacons_shed_session_cap +
                stats.beacons_shed_rate_limited +
                stats.beacons_shed_identity_cap +
                stats.beacons_shed_out_of_order +
                stats.beacons_shed_invalid +
                stats.beacons_shed_conditioned;
  result.rounds_prepared = stats.rounds_prepared;
  result.rounds_executed = stats.rounds_executed;
  result.rounds_shed =
      stats.rounds_shed_queue_full + stats.rounds_shed_closed;
  result.ingest_beacons_per_s =
      wall_s > 0.0 ? static_cast<double>(stats.beacons_offered) / wall_s : 0.0;
  result.pump_ns = pump_ns.snapshot();
  result.round_ns = round_ns.snapshot();

  std::printf(
      "BENCH %-16s sessions=%-4zu rate=%5.1f Hz  ingest=%9.0f beacons/s  "
      "rounds=%llu/%llu pump p99=%.3f ms  shed=%llu beacons, %llu rounds\n",
      label.c_str(), sessions, rate_hz, result.ingest_beacons_per_s,
      static_cast<unsigned long long>(result.rounds_executed),
      static_cast<unsigned long long>(result.rounds_prepared),
      result.pump_ns.p99 * 1e-6,
      static_cast<unsigned long long>(result.shed),
      static_cast<unsigned long long>(result.rounds_shed));

  // Graceful shutdown: close every session so the fleet-wide accounting
  // (sessions_opened = closed + evicted + active) stays exact across the
  // configurations sharing one registry — the HealthMonitor checks it on
  // every telemetry frame.
  std::vector<service::SessionId> open_sessions;
  fleet.for_each_session(
      [&](service::SessionId id, const stream::StreamEngine&) {
        open_sessions.push_back(id);
      });
  for (service::SessionId id : open_sessions) fleet.close(id);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const RunFlags run_flags = parse_run_flags(args, /*default_threads=*/0);
  obs::RunSession session(args.program_name(), run_flags.metrics_out,
                          run_flags.trace_out);
  obs::HealthMonitor monitor = obs::HealthMonitor::with_default_invariants();
  obs::TelemetryExporter telemetry(obs::telemetry_config_from_flags(run_flags));
  if (telemetry.active()) telemetry.set_monitor(&monitor);
  // The pump/round latency histograms must collect even without
  // --metrics-out: BENCH_service.json is derived from them.
  obs::enable();

  const bool quick = args.get_bool("quick", false);
  const double duration = args.get_double("duration", quick ? 25.0 : 60.0);
  const std::size_t identities =
      static_cast<std::size_t>(args.get_int("identities", quick ? 8 : 16));
  const std::size_t shards =
      static_cast<std::size_t>(args.get_int("shards", 4));
  const std::string out_path = args.get("out", "BENCH_service.json");
  const std::size_t threads = run_flags.threads;

  std::vector<std::size_t> session_counts =
      quick ? std::vector<std::size_t>{4} : std::vector<std::size_t>{8, 32};
  std::vector<double> rates = quick ? std::vector<double>{10.0}
                                    : std::vector<double>{10.0, 20.0};

  std::vector<service::ServiceBenchConfigResult> results;
  for (double rate : rates) {
    for (std::size_t sessions : session_counts) {
      std::string label = "s";
      label += std::to_string(sessions);
      label += "_rate";
      label += std::to_string(static_cast<int>(rate));
      results.push_back(run_config(label, sessions, identities, rate,
                                   duration, shards, threads, false,
                                   run_flags, telemetry));
    }
  }
  // The overload scenario (always included — the acceptance bar): every
  // shedding path engages and the conservation laws still hold.
  results.push_back(run_config("overload", quick ? 4 : 16, identities, 10.0,
                               duration, shards, threads, true, run_flags,
                               telemetry));
  telemetry.finish(duration);

  const obs::json::Value report =
      service::build_service_bench_report(args.program_name(), results);
  std::string error;
  if (!service::validate_service_bench(report, &error)) {
    std::fprintf(stderr, "service_throughput: self-check failed: %s\n",
                 error.c_str());
    return 1;
  }
  std::ofstream out(out_path, std::ios::out | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  out << report.dump(2) << "\n";
  std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  return 0;
}
