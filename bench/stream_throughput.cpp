// Streaming engine throughput sweep (DESIGN.md §8): how fast can
// stream::StreamEngine ingest beacons and turn confirmation rounds, as a
// function of per-identity beacon rate × neighbour count — plus one
// deliberately overloaded configuration (10× over the admission cap,
// undersized rings, an identity cap below the offered identities) to
// show the load-shedding path staying bounded instead of stalling.
//
// Beacon traces are synthesised up front (AR(1) shadowing shapes at
// jittered beacon instants, merged into one arrival-ordered stream), so
// the timed region is exactly ingest + rounds. Round latencies flow
// through the obs registry ("stream.round_ns"), and BENCH_stream.json is
// built from the same HistogramSnapshot aggregation as a --metrics-out
// run report (schema voiceprint.stream_bench/v1, self-validated before
// writing).
//
//   ./build/bench/stream_throughput                 # full sweep
//   ./build/bench/stream_throughput --quick         # smoke-sized sweep
//   ./build/bench/stream_throughput --duration 60 --threads 4
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
#include "stream/engine.h"
#include "stream/report.h"

namespace {

using namespace vp;

struct Rx {
  double time_s;
  IdentityId id;
  double rssi_dbm;
};

// One identity's beacons over [0, duration): nominal 1/rate spacing with
// MAC-ish jitter, values an AR(1) shadowing walk around a mean level.
void synthesize_identity(IdentityId id, double rate_hz, double duration_s,
                         std::vector<Rx>& out) {
  Rng rng(mix64(0xbeac0, id));
  const double period = 1.0 / rate_hz;
  double shadow = 0.0;
  const double level = -60.0 - rng.uniform(0.0, 25.0);
  const double phase = rng.uniform(0.0, period);
  for (double t = phase; t < duration_s; t += period) {
    shadow = 0.9 * shadow + rng.normal(0.0, 1.5);
    const double jitter = rng.uniform(0.0, 0.2 * period);
    out.push_back({t + jitter, id, level + shadow + rng.normal(0.0, 0.5)});
  }
}

std::vector<Rx> synthesize_stream(std::size_t identities, double rate_hz,
                                  double duration_s) {
  std::vector<Rx> beacons;
  beacons.reserve(static_cast<std::size_t>(
      static_cast<double>(identities) * rate_hz * duration_s) + identities);
  for (std::size_t i = 0; i < identities; ++i) {
    synthesize_identity(static_cast<IdentityId>(i + 1), rate_hz, duration_s,
                        beacons);
  }
  std::sort(beacons.begin(), beacons.end(), [](const Rx& a, const Rx& b) {
    return a.time_s != b.time_s ? a.time_s < b.time_s : a.id < b.id;
  });
  return beacons;
}

stream::BenchConfigResult run_config(const std::string& label,
                                     std::size_t identities, double rate_hz,
                                     double duration_s, std::size_t threads,
                                     bool overload,
                                     const vp::RunFlags& run_flags,
                                     obs::TelemetryExporter& telemetry) {
  const std::vector<Rx> beacons =
      synthesize_stream(identities, rate_hz, duration_s);

  stream::StreamEngineConfig config;
  config.condition_ingest = run_flags.cond;
  config.detector = core::tuned_simulation_options(threads);
  if (overload) {
    // 10× over the admission cap, rings far below a full window, and an
    // identity cap below the offered identity count: everything past the
    // caps must be shed and counted, never grown into.
    config.max_ingest_rate_hz =
        static_cast<double>(identities) * rate_hz / 10.0;
    config.ring_capacity = 32;
    config.max_identities = std::max<std::size_t>(identities / 2, 1);
  } else {
    config.ring_capacity = static_cast<std::size_t>(
        config.observation_time_s * rate_hz * 2.0) + 16;
    config.max_identities = identities + 16;
  }
  stream::StreamEngine engine(config);
  engine.set_round_callback([&](const stream::StreamRound& round) {
    telemetry.on_round(round.time_s);
  });

  obs::Histogram& round_ns = obs::registry().histogram("stream.round_ns");
  round_ns.reset();  // this configuration only

  const auto start = std::chrono::steady_clock::now();
  for (const Rx& rx : beacons) {
    engine.ingest(rx.id, rx.time_s, rx.rssi_dbm);
    telemetry.sample(rx.time_s);
  }
  engine.advance_to(duration_s);
  telemetry.sample(duration_s);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const double wall_s =
      std::chrono::duration_cast<std::chrono::duration<double>>(elapsed)
          .count();

  const stream::StreamEngine::Stats& stats = engine.stats();
  stream::BenchConfigResult result;
  result.label = label;
  result.beacon_rate_hz = rate_hz;
  result.identities = identities;
  result.duration_s = duration_s;
  result.offered = stats.beacons_offered;
  result.ingested = stats.beacons_ingested;
  result.shed = stats.shed_total();
  result.ring_evictions = stats.ring_evictions;
  result.rounds = stats.rounds;
  result.ingest_beacons_per_s =
      wall_s > 0.0 ? static_cast<double>(stats.beacons_offered) / wall_s : 0.0;
  result.round_ns = round_ns.snapshot();

  std::printf(
      "BENCH %-16s identities=%-4zu rate=%5.1f Hz  ingest=%9.0f beacons/s  "
      "rounds=%llu p50=%.3f ms p99=%.3f ms  shed=%llu evictions=%llu\n",
      label.c_str(), identities, rate_hz, result.ingest_beacons_per_s,
      static_cast<unsigned long long>(result.rounds), result.round_ns.p50 * 1e-6,
      result.round_ns.p99 * 1e-6,
      static_cast<unsigned long long>(result.shed),
      static_cast<unsigned long long>(result.ring_evictions));
  return result;
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
  // The round-latency histogram must collect even without --metrics-out:
  // BENCH_stream.json is derived from it.
  obs::enable();

  const bool quick = args.get_bool("quick", false);
  const double duration = args.get_double("duration", quick ? 25.0 : 60.0);
  const std::string out_path = args.get("out", "BENCH_stream.json");
  const std::size_t threads = run_flags.threads;

  std::vector<std::size_t> neighbor_counts =
      quick ? std::vector<std::size_t>{10}
            : std::vector<std::size_t>{10, 40, 80, 160};
  std::vector<double> rates = quick ? std::vector<double>{10.0}
                                    : std::vector<double>{10.0, 20.0};

  std::vector<stream::BenchConfigResult> results;
  for (double rate : rates) {
    for (std::size_t n : neighbor_counts) {
      const std::string label =
          "rate" + std::to_string(static_cast<int>(rate)) + "_n" +
          std::to_string(n);
      results.push_back(run_config(label, n, rate, duration, threads, false,
                                   run_flags, telemetry));
    }
  }
  // The 10× overload scenario (always included — the acceptance bar).
  results.push_back(run_config("overload_x10", quick ? 20 : 80,
                               quick ? 10.0 : 20.0, duration, threads, true,
                               run_flags, telemetry));
  telemetry.finish(duration);

  const obs::json::Value report =
      stream::build_stream_bench_report(args.program_name(), results);
  std::string error;
  if (!stream::validate_stream_bench(report, &error)) {
    std::fprintf(stderr, "stream_throughput: self-check failed: %s\n",
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
