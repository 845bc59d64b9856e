// Section VI timing claims, measured with google-benchmark:
//   * comparing two 200-sample RSSI series took the paper 0.1995 ms on its
//     OBU hardware (FastDTW);
//   * a full confirmation round over 80 neighbours (3160 comparisons) took
//     ~630 ms.
// We benchmark FastDTW vs exact DTW vs Euclidean across series lengths,
// workspace-reusing vs per-call-allocating FastDTW, and the production
// detector (serial vs parallel sweep) for various neighbour counts.
// Supports --threads/--metrics-out/--trace-out like the experiment
// binaries; those are split off before google-benchmark parses the rest.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string_view>
#include <vector>

#include "common/cli.h"
#include "common/rng.h"
#include "core/comparison.h"
#include "core/detector.h"
#include "obs/report.h"
#include "timeseries/dtw.h"
#include "timeseries/fast_dtw.h"
#include "timeseries/lp_distance.h"
#include "timeseries/normalize.h"

namespace {

using namespace vp;

std::vector<double> rssi_like_series(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out(n);
  double shadow = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    shadow = 0.9 * shadow + rng.normal(0.0, 1.5);
    out[i] = -75.0 + shadow + rng.normal(0.0, 1.0);
  }
  return out;
}

void BM_FastDtw(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto x = ts::z_score_enhanced(rssi_like_series(n, 1));
  const auto y = ts::z_score_enhanced(rssi_like_series(n, 2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ts::fast_dtw(x, y, {.radius = 1}).distance);
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FastDtw)->RangeMultiplier(2)->Range(25, 1600)->Complexity();

// Same computation through a reused DtwWorkspace: the pyramid, search
// windows and DP storage hit their high-water mark once and are recycled,
// so this should beat BM_FastDtw at every length.
void BM_FastDtwWorkspace(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto x = ts::z_score_enhanced(rssi_like_series(n, 1));
  const auto y = ts::z_score_enhanced(rssi_like_series(n, 2));
  ts::DtwWorkspace workspace;
  ts::DtwResult result;
  for (auto _ : state) {
    ts::fast_dtw(x, y, {.radius = 1}, workspace, result);
    benchmark::DoNotOptimize(result.distance);
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FastDtwWorkspace)
    ->RangeMultiplier(2)
    ->Range(25, 1600)
    ->Complexity();

void BM_ExactDtw(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto x = ts::z_score_enhanced(rssi_like_series(n, 3));
  const auto y = ts::z_score_enhanced(rssi_like_series(n, 4));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ts::dtw_distance(x, y));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ExactDtw)->RangeMultiplier(2)->Range(25, 1600)->Complexity();

void BM_Euclidean(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto x = ts::z_score_enhanced(rssi_like_series(n, 5));
  const auto y = ts::z_score_enhanced(rssi_like_series(n, 6));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ts::euclidean_distance(x, y));
  }
}
BENCHMARK(BM_Euclidean)->RangeMultiplier(2)->Range(25, 1600);

// The paper's headline number: one 200-sample pair comparison (their OBU:
// 0.1995 ms; a modern x86 core should be well under that).
void BM_PaperSingleComparison200(benchmark::State& state) {
  const auto x = rssi_like_series(200, 7);
  const auto y = rssi_like_series(190, 8);  // packet loss shortens one
  for (auto _ : state) {
    const auto zx = ts::z_score_enhanced(x);
    const auto zy = ts::z_score_enhanced(y);
    benchmark::DoNotOptimize(ts::fast_dtw(zx, zy, {.radius = 1}).distance);
  }
}
BENCHMARK(BM_PaperSingleComparison200);

// One confirmation round's worth of neighbour series. A confirmation
// round fires on suspicion, so the representative window holds a Sybil
// clique — identities whose series all come from one physical radio and
// differ only by measurement noise (the paper's attack model) — among
// independent vehicles. The clique drags Eq. 8's population min down to
// the attack scale, which is what gives the detector (and hence the
// cascade) a meaningful decision boundary; an all-independent window has
// every distance far above the threshold and nothing to detect.
std::vector<core::NamedSeries> neighbor_series(std::size_t neighbors) {
  const std::size_t sybil = std::max<std::size_t>(2, neighbors / 8);
  const std::vector<double> radio = rssi_like_series(200, 99);
  Rng noise(7);
  std::vector<core::NamedSeries> series;
  series.reserve(neighbors);
  for (std::size_t i = 0; i < neighbors; ++i) {
    std::vector<double> values;
    if (i < sybil) {
      values = radio;
      for (double& v : values) v += noise.normal(0.0, 1.0);
    } else {
      values = rssi_like_series(200, 100 + i);
    }
    series.emplace_back(static_cast<IdentityId>(i),
                        ts::Series::uniform(0.0, 0.1, std::move(values)));
  }
  return series;
}

// Full Algorithm-1 detection for N neighbours through the production
// detector (the lower-bound cascade; the paper extrapolates 80 neighbours
// → ~630 ms on the OBU). range(1) is the comparison-sweep thread count
// (1 = serial baseline); the flagged set is identical for every value.
void BM_FullDetection(benchmark::State& state) {
  const auto neighbors = static_cast<std::size_t>(state.range(0));
  const std::vector<core::NamedSeries> series = neighbor_series(neighbors);
  core::VoiceprintOptions options;
  options.comparison.threads = static_cast<std::size_t>(state.range(1));
  core::VoiceprintDetector detector(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.detect_series(series, 50.0));
  }
  state.SetComplexityN(static_cast<std::int64_t>(neighbors));
}
BENCHMARK(BM_FullDetection)
    ->ArgsProduct({{10, 20, 40, 80, 160}, {1, 4}})
    ->ArgNames({"neighbors", "threads"})
    ->Complexity();

}  // namespace

int main(int argc, char** argv) {
  // Split the shared run flags off before google-benchmark parses the
  // rest (it rejects flags it does not know).
  std::vector<char*> bench_argv{argv[0]};
  std::vector<const char*> run_argv{argv[0]};
  const auto is_run_flag = [](std::string_view arg) {
    for (const std::string_view name :
         {"--threads", "--metrics-out", "--trace-out"}) {
      if (arg == name) return true;
      if (arg.size() > name.size() && arg.substr(0, name.size()) == name &&
          arg[name.size()] == '=') {
        return true;
      }
    }
    return false;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!is_run_flag(arg)) {
      bench_argv.push_back(argv[i]);
      continue;
    }
    run_argv.push_back(argv[i]);
    // --name value form: the value token travels along.
    if (arg.find('=') == std::string_view::npos && i + 1 < argc &&
        std::string_view(argv[i + 1]).substr(0, 2) != "--") {
      run_argv.push_back(argv[++i]);
    }
  }
  const CliArgs run_args(static_cast<int>(run_argv.size()), run_argv.data());
  const RunFlags run_flags = parse_run_flags(run_args);
  obs::RunSession session(run_args.program_name(), run_flags.metrics_out,
                          run_flags.trace_out);

  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
