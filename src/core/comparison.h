// Voiceprint's comparison phase (Section IV-C-2):
//   1. per-series enhanced Z-score normalisation (Eq. 7), which erases the
//      constant dBm offset a power-spoofing attacker adds per identity;
//   2. pairwise DTW distance between every two heard series — exact
//      DTW in a Sakoe–Chiba band by default, where the paper uses FastDTW
//      (EXPERIMENTS.md explains the departure; kFastDtw selects it);
//   3. min–max normalisation of the distance set into [0, 1] (Eq. 8).
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "sim/observation.h"
#include "timeseries/fast_dtw.h"
#include "timeseries/series.h"

namespace vp::core {

struct PairDistance {
  IdentityId a = kInvalidIdentity;
  IdentityId b = kInvalidIdentity;
  double normalized = 0.0;  // after Eq. 8, in [0, 1]
  double raw = 0.0;         // DTW distance before Eq. 8
  // False when the two series share too little time support to be judged
  // (identities of one radio always interleave in time, so such a pair is
  // conservatively treated as non-Sybil: normalized is pinned to 1).
  bool comparable = true;
  // Threshold verdict (normalized <= decision threshold), filled by
  // compare_series_pruned; compare_series leaves it false. For a pair the
  // cascade decided from bounds alone, `flagged` is exact (provably
  // identical to the reference sweep's verdict) while `raw`/`normalized`
  // hold the proving bound, not the distance. Output that reports a
  // pair's distance as a measurement takes it from compare_series.
  bool flagged = false;
};

enum class DistanceKind {
  // The paper's choice: multi-resolution approximation, O(N·radius).
  kFastDtw,
  // Exact DTW inside the Sakoe–Chiba band: O(N·band), O(N²) only when
  // dtw_band is 0. The shipped distance, and the kernel the cascade
  // settles pairs with.
  kExactDtw,
  kEuclidean,  // point-to-point; series are length-matched by resampling
};

struct ComparisonOptions {
  DistanceKind distance = DistanceKind::kExactDtw;
  std::size_t fastdtw_radius = 1;
  // Sakoe–Chiba half-width in samples (0 = unconstrained). Beacon series
  // are time-synchronised — the environment changes hit every identity of
  // a radio at the same instant — so alignment only needs to absorb packet
  // loss and timing jitter. Unconstrained warping lets the monotone
  // "drive-past" ramps of two different vehicles align level-by-level and
  // erases their shadowing differences.
  std::size_t dtw_band = 2;
  // How the two series are brought onto comparable index spaces before DTW.
  enum class Alignment {
    // Keep only samples whose timestamps match within match_gap_s (greedy
    // nearest-neighbour pairing). Packet loss deletes *different* samples
    // from the two series; interpolating through a lost-packet gap smears
    // ~2 dB of shadowing drift into the series and buries the Sybil
    // similarity, while matched real samples of a Sybil pair sit
    // milliseconds apart on the SAME shadowing process (the radio bursts
    // its identities back-to-back) and differ by pure measurement noise.
    kMatchedSamples,
    // Linear interpolation of both series onto a uniform grid (ablation).
    kResampleGrid,
    // Use the raw index spaces (the literal Eq. 3-6 reading; ablation).
    kNone,
  };
  Alignment alignment = Alignment::kMatchedSamples;
  double match_gap_s = 0.06;   // half the 10 Hz period plus MAC jitter
  double grid_period_s = 0.1;  // the 10 Hz beacon period (kResampleGrid)
  ts::LocalCost cost = ts::LocalCost::kSquared;
  // Disabling these is only meant for the normalisation ablation.
  bool z_score_normalize = true;
  bool min_max_normalize = true;
  // Eq. 8 needs a population of distances to calibrate against: with very
  // few comparable pairs it degenerates (a lone pair always maps to 0 and
  // would be flagged at any threshold). Below this pair count the raw
  // per-step distances — which live on a stable scale thanks to the
  // length normalisation — are used directly.
  std::size_t min_pairs_for_min_max = 6;
  // Divide each DTW distance by its warp-path length (per-step cost).
  // Eq. 6's raw accumulated cost grows with series length, so under packet
  // loss a pair of short series always looks "similar" and floods Eq. 8's
  // min–max scale; per-step costs are length-comparable. With equal-length
  // series this is a monotone rescaling and equivalent to the paper.
  bool length_normalize = true;
  // Series with no usable *shape* are excluded from comparison: a link
  // pinned at the receiver sensitivity floor (the paper's far node whose
  // trace sits at −95 dBm, Section VI-B) or with near-zero variance carries
  // no voiceprint, and after Z-scoring any two such series look identical —
  // precisely the mechanism behind the paper's single field-test false
  // positive. Set min_series_stddev_db to 0 to disable.
  double min_series_stddev_db = 1.5;
  double sensitivity_floor_dbm = -95.0;
  double max_floor_fraction = 0.25;
  // Pairs are compared on their COMMON time support only. DTW aligns
  // values, not timestamps: without this, the monotone ramp a vehicle
  // leaves while receding at t∈[0,9] warps perfectly onto the ramp another
  // vehicle produces arriving at t∈[11,20]. Two identities of one radio
  // always share time support, so a pair overlapping less than this is
  // declared incomparable (treated as non-Sybil).
  double min_overlap_s = 5.0;
  std::size_t min_overlap_samples = 10;
  // Worker threads for the pairwise sweep (the hot path: a confirmation
  // round over 80 neighbours is 3160 pairs). 1 = serial on the calling
  // thread; 0 = all hardware threads. Each worker owns one
  // ts::DtwWorkspace and the (i,j) pairs are enumerated up front and
  // written into pre-sized slots, so the output — and therefore Eq. 8
  // min–max normalisation and everything downstream — is bit-identical
  // for every thread count.
  std::size_t threads = 1;
};

// Per-sweep exit-tier tally of the lower-bound cascade. Every comparable
// pair exits at exactly one tier, so
//   comparable pairs = lb_kim_pruned + lb_keogh_pruned + early_abandoned
//                      + full_sweeps
// (the conservation.dtw.tiers law in obs::conservation_laws()). The same
// tallies are also accumulated on the obs registry counters
// dtw.lb_kim_pruned / dtw.lb_keogh_pruned / dtw.early_abandoned /
// dtw.full_sweeps.
struct CascadeStats {
  std::uint64_t lb_kim_pruned = 0;   // decided from the Phase-A sketch
                                     // bounds alone (LB_Kim + diagonal UB)
  std::uint64_t lb_keogh_pruned = 0; // needed the Sakoe–Chiba envelopes
  std::uint64_t early_abandoned = 0; // the banded kernel abandoned, and
                                     // its bound settled the pair
  std::uint64_t full_sweeps = 0;     // paid the exact distance (a kernel
                                     // run that completed)
};

using NamedSeries = std::pair<IdentityId, ts::Series>;

// The reference sweep: every comparable pair pays its full distance solve
// and carries its exact distance (i < j ordering, as in Algorithm 1 lines
// 4–10). Series shorter than 2 samples are skipped. With fewer than two
// usable series the result is empty. The detector runs
// compare_series_pruned; this sweep is its test oracle, feeds Fig. 10
// threshold training (compare_window) and the cascade's own fallback, and
// supplies the distances that output prints as measurements. It is also
// the only sweep that runs FastDTW or Euclidean distances.
std::vector<PairDistance> compare_series(std::span<const NamedSeries> series,
                                         const ComparisonOptions& options = {});

// The detector's comparison sweep. Same pair enumeration and comparability
// rules as compare_series, but each pair runs the cascade LB_Kim →
// LB_Keogh → early-abandoning banded DTW and exits at the cheapest tier
// that already proves which side of `decision_threshold` its Eq.
// 8-normalised distance falls on. Contract, for every thread count:
//
//   * `comparable` and `flagged` are bit-identical to what compare_series
//     plus `normalized <= decision_threshold` would produce. Eq. 8's
//     population min/max are located EXACTLY (best-so-far searches that
//     only skip pairs provably unable to move an extreme), and pruning
//     decisions compare slack-padded bounds through the same monotone
//     floating-point transform the reference applies, so no rounding
//     difference can flip a verdict.
//   * pairs the cascade had to resolve exactly also carry bit-identical
//     `raw` and `normalized`; pairs decided from bounds carry the proving
//     bound in those fields instead (see PairDistance::flagged).
//
// The cascade's last tier is the banded DTW kernel itself: a run that
// completes is the exact distance, one that abandons is a bound. So only
// exact DTW runs the cascade. Every other option combination falls back to
// compare_series, tallying every comparable pair as a full sweep: FastDTW
// (at any band) and Euclidean distances, kNone alignment (unequal
// lengths), and disabled Z-scoring.
std::vector<PairDistance> compare_series_pruned(
    std::span<const NamedSeries> series, const ComparisonOptions& options,
    double decision_threshold, CascadeStats* stats = nullptr);

// Convenience: runs compare_series on a simulation observation window.
std::vector<PairDistance> compare_window(const sim::ObservationWindow& window,
                                         const ComparisonOptions& options = {});

// Greedy nearest-neighbour pairing of two time-sorted series: for each
// sample of `a`, the closest unused sample of `b` within `max_gap_s`. The
// matched values come out time-ordered and equal-length. Exposed for tests
// and custom alignment pipelines.
void match_samples(const ts::Series& a, const ts::Series& b, double max_gap_s,
                   std::vector<double>& out_a, std::vector<double>& out_b);

}  // namespace vp::core
