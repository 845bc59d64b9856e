// Lower-bound cascade invariants (DESIGN.md §11):
//   * Bound ordering — LB_Kim <= LB_Keogh <= banded-DTW accumulated cost
//     on the true Z-images <= diagonal upper bound, for every series
//     family the pipeline can produce (AR noise, constants, monotone
//     ramps, near-flat traces that defeat the approximate sketch, and
//     fault-injected beacon streams), every band and both local costs.
//   * Kernel parity — banded_dtw_distance's row sweep is bit-identical in
//     distance AND path cell count to dtw_banded()/dtw() at every band,
//     narrow to full matrix, and at lengths 1 to 3 as well as 50.
//   * Abandon soundness — an abandoned sweep proves the distance exceeds
//     the ceiling; a ceiling at or above the true distance never
//     abandons and returns the exact answer.
//   * Verdict parity — the detector (whose sweep is compare_series_pruned)
//     flags exactly the pairs and suspects the reference sweep
//     (compare_series, tests/detector_oracle.h) flags over random
//     bundles, highway-simulator windows and field-test replays, at
//     every thread count, with the exit-tier conservation law intact.
//   * Routing — only exact DTW enters the cascade; FastDTW returns the
//     reference sweep's pairs unchanged, each tallied as a full sweep.
#include "timeseries/lower_bound.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "common/rng.h"
#include "core/comparison.h"
#include "core/detector.h"
#include "core/threshold.h"
#include "detector_oracle.h"
#include "fault/injector.h"
#include "fieldtest/replay.h"
#include "sim/world.h"
#include "timeseries/dtw.h"
#include "timeseries/normalize.h"

namespace vp {
namespace {

std::vector<double> ar_series(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out(n);
  double shadow = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    shadow = 0.9 * shadow + rng.normal(0.0, 1.5);
    out[i] = -75.0 + shadow + rng.normal(0.0, 1.0);
  }
  return out;
}

std::vector<double> constant_series(std::size_t n, double v) {
  return std::vector<double>(n, v);
}

std::vector<double> monotone_series(std::size_t n) {
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = -90.0 + 0.25 * static_cast<double>(i);
  }
  return out;
}

// Sub-epsilon wiggle on a constant: sigma is so small the sketch's
// certified error is infinite and every bound must degenerate safely.
std::vector<double> near_flat_series(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = -80.0 + 1e-13 * rng.normal(0.0, 1.0);
  }
  return out;
}

// An AR trace pushed through the fault injector (spikes + quantisation —
// the faults that distort values while keeping them finite).
std::vector<double> faulty_series(std::size_t n, std::uint64_t seed) {
  const std::vector<double> base = ar_series(2 * n, seed);
  std::vector<fault::Beacon> beacons(base.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    beacons[i] = {1, 0.1 * static_cast<double>(i), base[i]};
  }
  fault::FaultConfig config;
  config.seed = seed;
  config.rssi_spike_probability = 0.1;
  config.rssi_quantize_step_db = 0.5;
  config.drop_probability = 0.1;
  fault::FaultInjector injector(config);
  const std::vector<fault::Beacon> out = injector.apply(beacons);
  std::vector<double> values;
  for (const fault::Beacon& b : out) values.push_back(b.rssi_dbm);
  values.resize(n, -75.0);  // drops may shorten the trace; pad to length
  return values;
}

std::vector<std::vector<double>> series_pool(std::size_t n) {
  return {
      ar_series(n, 1),       ar_series(n, 2),        ar_series(n, 3),
      constant_series(n, -70.0), constant_series(n, 5.0),
      monotone_series(n),    near_flat_series(n, 4), faulty_series(n, 5),
  };
}

// Accumulated banded-DTW cost between the true (Eq. 7) Z-images — the
// quantity every cascade bound certifies against.
double true_banded_cost(std::span<const double> a, std::span<const double> b,
                        std::size_t band, ts::LocalCost cost) {
  const std::vector<double> za = ts::z_score_enhanced(a);
  const std::vector<double> zb = ts::z_score_enhanced(b);
  return (band == 0 || band >= a.size() - 1)
             ? ts::dtw(za, zb, cost).distance
             : ts::dtw_banded(za, zb, band, cost).distance;
}

TEST(LowerBound, BoundOrderingAcrossSeriesFamilies) {
  constexpr std::size_t kLen = 64;
  const std::vector<std::vector<double>> pool = series_pool(kLen);
  ts::DtwWorkspace workspace;
  for (const ts::LocalCost cost :
       {ts::LocalCost::kSquared, ts::LocalCost::kAbsolute}) {
    for (std::size_t i = 0; i < pool.size(); ++i) {
      for (std::size_t j = i; j < pool.size(); ++j) {
        const std::vector<double>& a = pool[i];
        const std::vector<double>& b = pool[j];
        const ts::SeriesSketch sa = ts::sketch_series(a);
        const ts::SeriesSketch sb = ts::sketch_series(b);
        const double kim = ts::lb_kim(sa, sb, cost);
        const double ub = ts::diagonal_upper_bound(a, sa, b, sb, cost);
        EXPECT_GE(kim, 0.0);
        for (const std::size_t band : {0ul, 1ul, 2ul, 3ul, 8ul, kLen}) {
          const double keogh =
              ts::lb_keogh(a, sa, b, sb, band, cost, workspace);
          const double truth = true_banded_cost(a, b, band, cost);
          EXPECT_LE(kim, keogh) << "i=" << i << " j=" << j;
          EXPECT_LE(keogh, truth)
              << "i=" << i << " j=" << j << " band=" << band;
          // The diagonal is admissible in every band window, so its
          // (inflated) cost caps the banded optimum at any band.
          EXPECT_GE(ub, truth) << "i=" << i << " j=" << j
                               << " band=" << band;
        }
      }
    }
  }
}

// Identical series: the true distance is zero, so the lower bounds (which
// clamp at zero after deflating by their certified error pads) must be
// exactly zero, and the upper bound — inflated by the same pads, never
// deflated — must be a non-negative value no larger than the pad itself.
TEST(LowerBound, IdenticalSeriesAllBoundsZero) {
  const std::vector<double> a = ar_series(48, 9);
  const ts::SeriesSketch s = ts::sketch_series(a);
  ts::DtwWorkspace workspace;
  const ts::LocalCost cost = ts::LocalCost::kSquared;
  EXPECT_EQ(ts::lb_kim(s, s, cost), 0.0);
  EXPECT_EQ(ts::lb_keogh(a, s, a, s, 3, cost, workspace), 0.0);
  const double ub = ts::diagonal_upper_bound(a, s, a, s, cost);
  EXPECT_GE(ub, 0.0);
  EXPECT_LE(ub, 1e-12);
}

TEST(LowerBound, KernelBitIdenticalToReferenceDtw) {
  const std::vector<double> za = ts::z_score_enhanced(ar_series(50, 11));
  const std::vector<double> zb = ts::z_score_enhanced(ar_series(50, 12));
  ts::DtwWorkspace workspace;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Prefixes of the two Z-images: length 1 is the single-cell matrix, and
  // at lengths 2 and 3 most bands reach past the matrix edge.
  for (const std::size_t len : {1ul, 2ul, 3ul, 50ul}) {
    const std::span<const double> a(za.data(), len);
    const std::span<const double> b(zb.data(), len);
    for (const ts::LocalCost cost :
         {ts::LocalCost::kSquared, ts::LocalCost::kAbsolute}) {
      // Bands 0 and >= len-1 sweep the full matrix and must match plain
      // dtw(); narrower ones must match dtw_banded().
      for (const std::size_t band :
           {0ul, 1ul, 2ul, 3ul, 5ul, 8ul, 32ul, len - 1, len + 10}) {
        const ts::BandedDistance got =
            ts::banded_dtw_distance(a, b, band, cost, kInf, workspace);
        const ts::DtwResult ref = (band == 0 || band >= len - 1)
                                      ? ts::dtw(a, b, cost)
                                      : ts::dtw_banded(a, b, band, cost);
        EXPECT_FALSE(got.abandoned);
        EXPECT_EQ(got.distance, ref.distance)
            << "len=" << len << " band=" << band;
        EXPECT_EQ(got.path_cells, ref.path.size())
            << "len=" << len << " band=" << band;
      }
    }
  }
}

TEST(LowerBound, EarlyAbandonIsSound) {
  constexpr std::size_t kLen = 40;
  ts::DtwWorkspace workspace;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Rng rng(21);
  for (int trial = 0; trial < 20; ++trial) {
    const std::vector<double> a =
        ts::z_score_enhanced(ar_series(kLen, 100 + trial));
    const std::vector<double> b =
        ts::z_score_enhanced(ar_series(kLen, 200 + trial));
    for (const std::size_t band : {2ul, 8ul, 0ul}) {
      const ts::BandedDistance full = ts::banded_dtw_distance(
          a, b, band, ts::LocalCost::kSquared, kInf, workspace);
      ASSERT_FALSE(full.abandoned);
      // A ceiling below the true distance: either the sweep abandons
      // (proving distance > ceiling, which is true) or it completes with
      // the exact answer.
      const double low = full.distance * rng.uniform(0.1, 0.9);
      const ts::BandedDistance probe = ts::banded_dtw_distance(
          a, b, band, ts::LocalCost::kSquared, low, workspace);
      if (!probe.abandoned) {
        EXPECT_EQ(probe.distance, full.distance);
        EXPECT_EQ(probe.path_cells, full.path_cells);
      } else {
        EXPECT_GT(full.distance, low);
      }
      // A ceiling at/above the true distance can never abandon: every
      // row contains an optimal-path prefix cell, whose cost is at most
      // the final distance.
      const ts::BandedDistance high = ts::banded_dtw_distance(
          a, b, band, ts::LocalCost::kSquared, full.distance, workspace);
      EXPECT_FALSE(high.abandoned);
      EXPECT_EQ(high.distance, full.distance);
      EXPECT_EQ(high.path_cells, full.path_cells);
    }
  }
}

// A bundle with one Sybil clique (shared radio + per-identity noise)
// among independent vehicles — the workload whose verdicts matter.
std::vector<core::NamedSeries> sybil_bundle(std::size_t identities,
                                            std::size_t len,
                                            std::uint64_t seed) {
  const std::vector<double> radio = ar_series(len, seed);
  Rng noise(seed + 1);
  std::vector<core::NamedSeries> series;
  for (std::size_t i = 0; i < identities; ++i) {
    std::vector<double> values;
    if (i < std::max<std::size_t>(2, identities / 8)) {
      values = radio;
      for (double& v : values) v += noise.normal(0.0, 1.0);
    } else {
      values = ar_series(len, seed + 100 + i);
    }
    series.emplace_back(static_cast<IdentityId>(i),
                        ts::Series::uniform(0.0, 0.1, std::move(values)));
  }
  return series;
}

using testing_oracle::expect_detector_matches_oracle;
using testing_oracle::expect_verdicts_identical;
using testing_oracle::oracle_detect;

class CascadeParity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CascadeParity, PrunedVerdictsMatchExactSweep) {
  const std::size_t threads = GetParam();
  for (const core::DistanceKind distance :
       {core::DistanceKind::kExactDtw, core::DistanceKind::kFastDtw}) {
    core::VoiceprintOptions options;
    options.comparison.distance = distance;
    options.comparison.threads = threads;
    core::VoiceprintDetector detector(options);
    for (const std::uint64_t seed : {31ull, 32ull, 33ull}) {
      const std::vector<core::NamedSeries> series =
          sybil_bundle(24, 120, seed);
      expect_detector_matches_oracle(detector, series, 50.0);
      // Conservation law: every comparable pair exits at exactly one tier.
      core::CascadeStats stats;
      const std::vector<core::PairDistance> pairs =
          core::compare_series_pruned(series, options.comparison,
                                      detector.last_threshold(), &stats);
      std::size_t comparable = 0;
      for (const core::PairDistance& p : pairs) comparable += p.comparable;
      EXPECT_EQ(stats.lb_kim_pruned + stats.lb_keogh_pruned +
                    stats.early_abandoned + stats.full_sweeps,
                comparable);
    }
  }
}

// The cascade settles pairs with the exact banded kernel, so it only takes
// exact DTW, the default distance. FastDTW, banded or not, runs the
// reference sweep: its pairs are compare_series' own, bit for bit, and
// every comparable one is tallied as a full sweep.
TEST_P(CascadeParity, FastDtwRunsTheReferenceSweep) {
  EXPECT_EQ(core::ComparisonOptions{}.distance, core::DistanceKind::kExactDtw);
  const std::size_t threads = GetParam();
  const std::vector<core::NamedSeries> series = sybil_bundle(24, 120, 41);
  const double threshold = 0.00054 * 50.0 + 0.0483;
  for (const std::size_t band : {2ul, 0ul}) {
    core::ComparisonOptions options;
    options.distance = core::DistanceKind::kFastDtw;
    options.dtw_band = band;
    options.threads = threads;
    const std::vector<core::PairDistance> reference =
        core::compare_series(series, options);
    core::CascadeStats stats;
    const std::vector<core::PairDistance> pruned =
        core::compare_series_pruned(series, options, threshold, &stats);
    ASSERT_EQ(pruned.size(), reference.size());
    std::size_t comparable = 0;
    std::size_t flagged = 0;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(pruned[i].a, reference[i].a);
      EXPECT_EQ(pruned[i].b, reference[i].b);
      EXPECT_EQ(pruned[i].comparable, reference[i].comparable);
      EXPECT_EQ(pruned[i].raw, reference[i].raw);
      EXPECT_EQ(pruned[i].normalized, reference[i].normalized);
      EXPECT_EQ(pruned[i].flagged, pruned[i].normalized <= threshold);
      comparable += pruned[i].comparable;
      flagged += pruned[i].flagged;
    }
    // Not vacuous: the Sybil clique is flagged, the rest is not.
    EXPECT_GT(flagged, 0u);
    EXPECT_LT(flagged, comparable);
    EXPECT_EQ(stats.full_sweeps, comparable);
    EXPECT_EQ(stats.lb_kim_pruned + stats.lb_keogh_pruned +
                  stats.early_abandoned,
              0u);
  }
}

// The exit tiers are a pure function of the input — thread count must not
// move a pair between tiers (pruning decisions compare exact bounds, and
// the searches visit pairs in a fixed order regardless of scheduling).
TEST(CascadeParity, StatsDeterministicAcrossThreadCounts) {
  const std::vector<core::NamedSeries> series = sybil_bundle(20, 150, 77);
  core::ComparisonOptions options;
  options.distance = core::DistanceKind::kExactDtw;
  const double threshold = 0.00054 * 50.0 + 0.0483;
  std::vector<core::CascadeStats> all;
  for (const std::size_t threads : {1ul, 2ul, 4ul, 0ul}) {
    options.threads = threads;
    core::CascadeStats stats;
    (void)core::compare_series_pruned(series, options, threshold, &stats);
    all.push_back(stats);
  }
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_EQ(all[i].lb_kim_pruned, all[0].lb_kim_pruned);
    EXPECT_EQ(all[i].lb_keogh_pruned, all[0].lb_keogh_pruned);
    EXPECT_EQ(all[i].early_abandoned, all[0].early_abandoned);
    EXPECT_EQ(all[i].full_sweeps, all[0].full_sweeps);
  }
}

TEST_P(CascadeParity, HighwaySimWindowsMatchExactDetector) {
  const std::size_t threads = GetParam();
  sim::ScenarioConfig config;
  config.density_per_km = 15.0;
  config.sim_time_s = 45.0;
  config.seed = 63;
  sim::World world(config);
  world.run();

  core::VoiceprintDetector detector(core::tuned_simulation_options(threads));
  std::size_t windows = 0;
  const std::vector<NodeId> normals = world.normal_node_ids();
  for (NodeId observer : {normals.front(), normals.back()}) {
    for (const double t : world.detection_times()) {
      const sim::ObservationWindow window = world.observe(observer, t);
      if (window.neighbors.size() < 2) continue;
      std::vector<core::NamedSeries> series;
      for (const sim::NeighborObservation& n : window.neighbors) {
        series.emplace_back(n.id, n.rssi);
      }
      expect_detector_matches_oracle(detector, series,
                                     window.estimated_density_per_km);
      ++windows;
    }
  }
  EXPECT_GE(windows, 3u);
}

// The replay's per-pair verdicts come from the detector; every one must
// match the oracle on the same window, and the replay's printed distances
// must be the oracle's exact distances.
TEST_P(CascadeParity, FieldTestReplayMatchesExactReplay) {
  const std::size_t threads = GetParam();
  ft::FieldTestConfig config;
  config.area = ft::Area::kCampus;
  config.duration_s = 240.0;
  const ft::FieldTestData data = ft::run_field_test(config);

  ft::ReplayOptions options;
  options.comparison.threads = threads;
  const ft::FieldReplayResult replay = ft::replay_field_test(data, options);

  core::VoiceprintOptions detector_options;
  detector_options.comparison = options.comparison;
  detector_options.boundary =
      core::constant_boundary(data.config.constant_threshold);
  const sim::RssiLog& log = data.logs.at(ft::kNormalNode3);
  ASSERT_FALSE(replay.detections.empty());
  for (const ft::FieldDetection& d : replay.detections) {
    const double t0 = d.time_s - data.config.observation_time_s;
    std::vector<core::NamedSeries> series;
    for (IdentityId id : log.identities_heard(t0, d.time_s,
                                              options.min_samples)) {
      series.emplace_back(id, log.rssi_series(id, t0, d.time_s));
    }
    const testing_oracle::OracleVerdict oracle =
        oracle_detect(series, detector_options, 4.0);
    EXPECT_EQ(d.flagged, oracle.suspects);
    ASSERT_EQ(d.pairs.size(), oracle.pairs.size());
    for (std::size_t i = 0; i < oracle.pairs.size(); ++i) {
      EXPECT_EQ(d.pairs[i].a, oracle.pairs[i].a);
      EXPECT_EQ(d.pairs[i].b, oracle.pairs[i].b);
      EXPECT_EQ(d.pairs[i].flagged, oracle.pairs[i].flagged);
      EXPECT_EQ(d.pairs[i].distance, oracle.pairs[i].normalized);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, CascadeParity,
                         ::testing::Values(0u, 1u, 4u));

}  // namespace
}  // namespace vp
