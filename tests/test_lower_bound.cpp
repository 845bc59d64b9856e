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
//   * Shape parity — on staggered, lossy grids, where both sides of a pair
//     are sub-cuts, the series table's shape check finds exactly the pairs
//     comparable that the reference's Welford check does, and falls back
//     to Welford where its certified pad cannot decide.
//   * Output pin — every output bit of the cascade, bounds included, over
//     a fixed corpus.
//   * Routing — only exact DTW enters the cascade; FastDTW returns the
//     reference sweep's pairs unchanged, each tallied as a full sweep.
#include "timeseries/lower_bound.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "common/binio.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/comparison.h"
#include "core/detector.h"
#include "core/threshold.h"
#include "detector_oracle.h"
#include "fault/injector.h"
#include "fieldtest/replay.h"
#include "obs/runtime.h"
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

// One window of a highway simulation, as the detector sees it.
struct HighwayWindow {
  std::vector<core::NamedSeries> series;
  double density_per_km = 0.0;
};

// The windows of two observers (the first and the last normal node) at
// every detection time of one seeded highway run. Nodes draw their own
// beacon phase, so almost every pair side is a sub-cut.
const std::vector<HighwayWindow>& highway_windows() {
  static const std::vector<HighwayWindow> windows = [] {
    sim::ScenarioConfig config;
    config.density_per_km = 15.0;
    config.sim_time_s = 45.0;
    config.seed = 63;
    sim::World world(config);
    world.run();
    std::vector<HighwayWindow> out;
    const std::vector<NodeId> normals = world.normal_node_ids();
    for (NodeId observer : {normals.front(), normals.back()}) {
      for (const double t : world.detection_times()) {
        const sim::ObservationWindow window = world.observe(observer, t);
        if (window.neighbors.size() < 2) continue;
        HighwayWindow w{.series = {},
                        .density_per_km = window.estimated_density_per_km};
        for (const sim::NeighborObservation& n : window.neighbors) {
          w.series.emplace_back(n.id, n.rssi);
        }
        out.push_back(std::move(w));
      }
    }
    return out;
  }();
  return windows;
}

TEST_P(CascadeParity, HighwaySimWindowsMatchExactDetector) {
  core::VoiceprintDetector detector(
      core::tuned_simulation_options(GetParam()));
  for (const HighwayWindow& window : highway_windows()) {
    expect_detector_matches_oracle(detector, window.series,
                                   window.density_per_km);
  }
  EXPECT_GE(highway_windows().size(), 3u);
}

// A pipebench-shaped round: each radio beacons at its own phase in the
// 100 ms tick, each identity at its radio's phase plus a 2 ms burst gap
// and up to 3 ms of jitter, and each identity loses 1-5% of its beacons
// on its own. The identities of a Sybil radio share the radio's random
// walk. The first and the last tick are neither lost nor jittered, so the
// identities keep their phase order at both ends and both sides of every
// pair are genuine sub-cuts.
std::vector<core::NamedSeries> staggered_bundle(std::size_t radios,
                                                std::size_t sybil_radios,
                                                std::size_t ticks,
                                                std::uint64_t seed) {
  constexpr double kRho = 0.98;
  constexpr double kWalkSigma = 4.0;
  Rng rng(seed);
  std::vector<core::NamedSeries> series;
  for (std::size_t r = 0; r < radios; ++r) {
    const double phase = rng.uniform(0.0, 0.08);
    const double base = rng.uniform(-78.0, -62.0);
    std::vector<double> walk(ticks);
    double w = rng.normal(0.0, kWalkSigma);
    for (double& v : walk) {
      w = kRho * w +
          rng.normal(0.0, kWalkSigma * std::sqrt(1.0 - kRho * kRho));
      v = base + w;
    }
    const std::size_t identities = r < sybil_radios ? 4 : 1;
    for (std::size_t j = 0; j < identities; ++j) {
      const double offset = phase + 0.002 * static_cast<double>(j);
      const double loss = rng.uniform(0.01, 0.05);
      const double noise = rng.uniform(0.2, 0.5);
      const double tx = rng.uniform(-3.0, 3.0);
      ts::Series s;
      for (std::size_t k = 0; k < ticks; ++k) {
        const bool edge = k == 0 || k + 1 == ticks;
        if (!edge && rng.chance(loss)) continue;
        const double jitter = edge ? 0.0 : rng.uniform(0.0, 0.003);
        s.add(0.1 * static_cast<double>(k) + offset + jitter,
              walk[k] + tx + rng.normal(0.0, noise));
      }
      series.emplace_back(static_cast<IdentityId>(series.size() + 1),
                          std::move(s));
    }
  }
  return series;
}

// test_comparison_fuzz's bundle shape: 0-12 series of ragged, gappy
// sampling, each around its own level with its own noise, 10% clipped to
// the sensitivity floor.
std::vector<core::NamedSeries> ragged_bundle(Rng& rng) {
  const auto n_series = static_cast<std::size_t>(rng.uniform_int(0, 12));
  std::vector<core::NamedSeries> bundle;
  for (std::size_t s = 0; s < n_series; ++s) {
    ts::Series series;
    double t = rng.uniform(0.0, 10.0);
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 250));
    const double base = rng.uniform(-95.0, -55.0);
    for (std::size_t i = 0; i < n; ++i) {
      t += rng.uniform(0.0, 0.4);
      double v = base + rng.normal(0.0, rng.uniform(0.0, 6.0));
      if (rng.chance(0.1)) v = -95.0;
      series.add(t, v);
    }
    bundle.emplace_back(static_cast<IdentityId>(s), std::move(series));
  }
  return bundle;
}

// Appends one sweep's whole output to `out`: every PairDistance field,
// with `raw` and `normalized` as bit patterns, then the sweep's
// CascadeStats.
void put_sweep(ByteWriter& out, const std::vector<core::PairDistance>& pairs,
               const core::CascadeStats& stats) {
  out.put_u64(pairs.size());
  for (const core::PairDistance& p : pairs) {
    out.put_u64(p.a);
    out.put_u64(p.b);
    out.put_u8(p.comparable ? 1 : 0);
    out.put_u8(p.flagged ? 1 : 0);
    out.put_f64(p.raw);
    out.put_f64(p.normalized);
  }
  out.put_u64(stats.lb_kim_pruned);
  out.put_u64(stats.lb_keogh_pruned);
  out.put_u64(stats.early_abandoned);
  out.put_u64(stats.full_sweeps);
}

// FNV-1a of the cascade's output over a fixed corpus: pipebench-shaped
// rounds, the highway windows above and ragged fuzz bundles.
std::uint64_t cascade_output_digest(std::size_t threads) {
  std::vector<std::uint8_t> bytes;
  ByteWriter out(bytes);
  const auto sweep = [&](std::span<const core::NamedSeries> series,
                         const core::ComparisonOptions& options,
                         double threshold) {
    core::CascadeStats stats;
    put_sweep(out,
              core::compare_series_pruned(series, options, threshold, &stats),
              stats);
  };
  core::VoiceprintOptions fig10;
  fig10.comparison.threads = threads;
  for (const std::uint64_t seed : {71ull, 72ull, 73ull}) {
    const std::vector<core::NamedSeries> series =
        staggered_bundle(24, 2, 200, seed);
    sweep(series, fig10.comparison, fig10.boundary.threshold_at(50.0));
  }
  const core::VoiceprintOptions tuned =
      core::tuned_simulation_options(threads);
  for (const HighwayWindow& window : highway_windows()) {
    sweep(window.series, tuned.comparison,
          tuned.boundary.threshold_at(window.density_per_km));
  }
  Rng rng(74);
  for (int trial = 0; trial < 30; ++trial) {
    sweep(ragged_bundle(rng), fig10.comparison,
          fig10.boundary.threshold_at(rng.uniform(0.0, 150.0)));
  }
  return fnv1a64(bytes);
}

// Every output bit of the cascade, bounds included, is pinned: a change
// that only means to make the sweep faster must leave this constant as it
// is. The parity suites above compare verdicts and exact distances only,
// so a drifting bound would pass them.
TEST(CascadeParity, OutputIsPinned) {
  const std::uint64_t digest = cascade_output_digest(1);
  EXPECT_EQ(digest, 0x1da074046c75fa55ULL);
  EXPECT_EQ(cascade_output_digest(0), digest);
  EXPECT_EQ(cascade_output_digest(4), digest);
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

// Checks that the cascade finds every pair of `series` comparable exactly
// when the reference sweep does, and returns the reference's pairs.
std::vector<core::PairDistance> expect_comparable_matches_oracle(
    std::span<const core::NamedSeries> series,
    const core::ComparisonOptions& options) {
  const std::vector<core::PairDistance> oracle =
      core::compare_series(series, options);
  const std::vector<core::PairDistance> pruned =
      core::compare_series_pruned(series, options, 0.075);
  EXPECT_EQ(pruned.size(), oracle.size());
  for (std::size_t i = 0; i < std::min(pruned.size(), oracle.size()); ++i) {
    EXPECT_EQ(pruned[i].a, oracle[i].a);
    EXPECT_EQ(pruned[i].b, oracle[i].b);
    EXPECT_EQ(pruned[i].comparable, oracle[i].comparable)
        << "pair " << oracle[i].a << "-" << oracle[i].b
        << " min_series_stddev_db=" << options.min_series_stddev_db;
  }
  return oracle;
}

// Two series on offset 10 Hz grids, `a` over [0, 25) s and `b` over
// [5.03, 30) s, so that each side of the pair is a genuine sub-cut: `a`
// loses its head and `b` its tail. The head of `a` swings 25 dB, so `a` as
// a whole clears any shape filter its cut is tested against. Sample
// `nan_at` of `a`, if any, is NaN.
std::vector<core::NamedSeries> sub_cut_pair(
    std::uint64_t seed, std::size_t nan_at = static_cast<std::size_t>(-1)) {
  Rng rng(seed);
  ts::Series a;
  ts::Series b;
  for (std::size_t k = 0; k < 250; ++k) {
    const double i = static_cast<double>(k);
    const double head = k % 2 == 0 ? -60.0 : -85.0;
    const double tail =
        -72.0 + 2.0 * std::sin(0.3 * i) + rng.normal(0.0, 0.5);
    a.add(0.1 * i, k == nan_at  ? std::numeric_limits<double>::quiet_NaN()
                   : k < 50     ? head
                                : tail);
    b.add(5.03 + 0.1 * i,
          -70.0 + 3.0 * std::sin(0.2 * i + 1.0) + rng.normal(0.0, 0.5));
  }
  return {{1, std::move(a)}, {2, std::move(b)}};
}

// The values of `s`'s common-support cut against `other`, by the rule the
// comparison phase applies: [max of the starts, min of the ends + 1e-9).
std::vector<double> cut_values(const ts::Series& s, const ts::Series& other) {
  const double lo = std::max(s.time(0), other.time(0));
  const double hi = std::min(s.time(s.size() - 1),
                             other.time(other.size() - 1));
  std::vector<double> out;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s.time(i) >= lo && s.time(i) < hi + 1e-9) out.push_back(s.value(i));
  }
  return out;
}

// The sub-cut shape filter is where the field-test FP is fixed, and the
// cascade decides it from its series table. Its `comparable` must be the
// reference sweep's at every cut the filter can see: staggered, lossy
// grids; a cut whose Welford sigma sits within ulps of
// min_series_stddev_db on either side; a floor count exactly at
// max_floor_fraction · n and one over; and NaN samples. The cases within
// ulps cannot be decided from the table, so the Welford fallback must run.
TEST_P(CascadeParity, SubCutShapeMatchesOracle) {
  core::ComparisonOptions options;
  options.threads = GetParam();
  obs::registry().reset();
  obs::enable();

  for (const std::uint64_t seed : {81ull, 82ull}) {
    const std::vector<core::NamedSeries> bundle =
        staggered_bundle(16, 2, 200, seed);
    for (const double floor_sigma : {1.5, 3.0, 3.5, 4.0, 4.5}) {
      options.min_series_stddev_db = floor_sigma;
      expect_comparable_matches_oracle(bundle, options);
    }
  }
  options.min_series_stddev_db = core::ComparisonOptions{}.min_series_stddev_db;

  // Sigma within ulps: at the cut's own Welford sigma the filter passes
  // (`sigma < min` is false); one ulp above it, it rejects.
  {
    const std::vector<core::NamedSeries> pair = sub_cut_pair(83);
    const std::vector<double> cut = cut_values(pair[0].second, pair[1].second);
    ASSERT_LT(cut.size(), pair[0].second.size());
    const double sigma = std::sqrt(population_variance(cut));
    for (int ulps = -2; ulps <= 2; ++ulps) {
      double floor_sigma = sigma;
      for (int i = 0; i < std::abs(ulps); ++i) {
        floor_sigma = std::nextafter(floor_sigma, ulps < 0 ? 0.0 : 100.0);
      }
      options.min_series_stddev_db = floor_sigma;
      const std::vector<core::PairDistance> oracle =
          expect_comparable_matches_oracle(pair, options);
      ASSERT_EQ(oracle.size(), 1u);
      EXPECT_EQ(oracle[0].comparable, ulps <= 0) << "ulps=" << ulps;
    }
    options.min_series_stddev_db =
        core::ComparisonOptions{}.min_series_stddev_db;
  }

  // Floor count: `a` over [0, 16) s and `b` from 7.97 s cut each other to
  // 80 samples. 20 of `a`'s at the floor is exactly max_floor_fraction ·
  // 80 and passes; 21 fails. Samples one ulp above the floor never count.
  for (const std::size_t at_floor : {20ul, 21ul}) {
    const double floor_dbm = options.sensitivity_floor_dbm + 0.25;
    ts::Series a;
    ts::Series b;
    for (std::size_t k = 0; k < 160; ++k) {
      const double i = static_cast<double>(k);
      double v = -70.0 + 4.0 * std::sin(0.3 * i);
      if (k >= 80 && k < 80 + at_floor) v = floor_dbm;
      if (k >= 120 && k < 125) v = std::nextafter(floor_dbm, 0.0);
      a.add(0.1 * i, v);
      b.add(7.97 + 0.1 * i, -68.0 + 4.0 * std::cos(0.25 * i));
    }
    ASSERT_EQ(cut_values(a, b).size(), 80u);
    const std::vector<core::NamedSeries> pair{{1, std::move(a)},
                                              {2, std::move(b)}};
    const std::vector<core::PairDistance> oracle =
        expect_comparable_matches_oracle(pair, options);
    ASSERT_EQ(oracle.size(), 1u);
    EXPECT_EQ(oracle[0].comparable, at_floor == 20u);
  }

  // NaN inside the cut (its sigma is NaN, which passes the filter) and NaN
  // only in the dropped head (the cut itself is clean).
  for (const std::size_t nan_at : {120ul, 10ul}) {
    expect_comparable_matches_oracle(sub_cut_pair(84, nan_at), options);
  }

  obs::disable();
  EXPECT_GT(obs::registry().counter("comparison.shape_fallbacks").value(), 0u);
  obs::registry().reset();
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, CascadeParity,
                         ::testing::Values(0u, 1u, 4u));

}  // namespace
}  // namespace vp
