// UCR-suite style lower/upper bounds for the pairwise DTW sweep, plus the
// early-abandoning banded DTW kernel that resolves the pairs that survive
// pruning.
//
// The detector's comparison sweep (core::compare_series_pruned) measures
// the banded DTW distance between the enhanced Z-images (Eq. 7) of two
// aligned RSSI series and classifies each pair against a threshold. Most
// pairs are nowhere near the threshold, so a cascade of ever-tighter,
// ever-costlier bounds can classify them without running DTW at all:
//
//   LB_Kim   — O(1) from per-series sketches (first/last/min/max/µ/σ):
//              corner costs plus matched-extremes costs. Valid for any
//              warp path, banded or not.
//   UB_diag  — O(n) cost of the main-diagonal alignment. dtw_banded's
//              window contains the diagonal by construction
//              (banded_window), so for equal-length series the diagonal
//              is always an admissible path and its cost an upper bound.
//   LB_Keogh — O(n·band) Sakoe–Chiba envelope bound over the Z-images,
//              with exact corner costs folded in and maxed with LB_Kim so
//              the cascade is monotone: LB_Kim ≤ LB_Keogh ≤ banded DTW.
//   Kernel   — the banded DP itself, swept row by row in two rolling
//              buffers, with early abandoning against a caller-supplied
//              ceiling. Bit-identical in distance AND warp-path length to
//              dtw_banded()/dtw(): a run that completes is not a bound but
//              the answer, and one that abandons is a lower bound.
//
// All bounds are on the *accumulated* cost (Eq. 6 scale); callers divide
// by the appropriate path-length extreme when per-step costs are compared
// (see core/comparison.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "timeseries/dtw.h"

namespace vp::ts {

// Two-pass summary of one aligned raw series: everything LB_Kim and the
// envelope bounds need. The mean and 3σ here come from a plain
// sum / sum-of-squared-deviations pass — deliberately NOT the Welford
// accumulation z_score_enhanced uses, because the sketch is computed for
// every candidate pair and the Welford loop's per-element division made it
// the single hottest fixed cost of the cascade. The price is that z() is
// only within `z_err` of the true Z-image value; the bound functions below
// fold that certified error into their results (lower bounds deflated,
// upper bounds inflated), so they stay valid bounds on the true Z-image
// distances and no pruning decision can be flipped by the approximation.
//
// The all-zeros predicate IS exact: z_denom == 0 with z_err == 0 is
// asserted only when !(max > min), which (including the NaN-poisoned
// case) is precisely when the Welford path maps the series to all zeros.
// Near-flat series where the approximation cannot be trusted get
// z_err = +inf, which degenerates every bound (lb 0, ub +inf) and routes
// the pair to the exact tiers.
struct SeriesSketch {
  double first = 0.0, last = 0.0;
  double min = 0.0, max = 0.0;
  double mu = 0.0;
  // ~3σ (population). 0 means the true Z-image is identically zero.
  double z_denom = 0.0;
  // 1 / z_denom (0 for flat series): z() multiplies instead of dividing —
  // the envelope bounds evaluate it per row and division throughput would
  // dominate them. The reciprocal's extra ulp is covered by z_err.
  double z_scale = 0.0;
  // Certified bound on |z(v) - Z(v)| for v in [min, max], where Z is the
  // materialised z_score_enhanced image. 0 for flat series (exact).
  double z_err = 0.0;
  std::size_t n = 0;

  // Approximate enhanced Z-score (Eq. 7) of a raw value of this series,
  // within z_err of the true image. Monotone non-decreasing (z_scale >= 0),
  // so envelopes commute with it.
  double z(double v) const { return (v - mu) * z_scale; }
};

SeriesSketch sketch_series(std::span<const double> xs);

// O(1) lower bound on the accumulated DTW cost between the true Z-images
// of two series. Every warp path matches both corner pairs exactly, and
// some cell matches a value >= each series' max (resp. <= each min), so
// the cost of aligning the two minima and the two maxima is also
// unavoidable. Deflated by the sketches' certified z_err so it remains
// valid despite the approximate Z.
double lb_kim(const SeriesSketch& a, const SeriesSketch& b, LocalCost cost);

// O(n) envelope lower bound (equal lengths only). Row i of the band window
// can only match b-values inside [min, max] over b[i-band .. i+band], so
// each row contributes at least the distance from z(a[i]) to the Z-image
// of that envelope; rows 0 and n-1 contribute their exact corner costs.
// band == 0 or band >= n-1 means the full window (global extremes).
// Returns max(envelope sum, lb_kim(a, b)) so the cascade is monotone.
// Deflated by the certified z_err like lb_kim.
// Envelope scratch lives in `workspace` (env_lo / env_hi).
double lb_keogh(std::span<const double> a, const SeriesSketch& sa,
                std::span<const double> b, const SeriesSketch& sb,
                std::size_t band, LocalCost cost, DtwWorkspace& workspace);

// O(n) upper bound (equal lengths only): the accumulated cost of the
// main-diagonal alignment of the Z-images, inflated by the certified
// z_err. Admissible for dtw_banded with any band (see header comment).
double diagonal_upper_bound(std::span<const double> a, const SeriesSketch& sa,
                            std::span<const double> b, const SeriesSketch& sb,
                            LocalCost cost);

struct BandedDistance {
  double distance = 0.0;
  // Number of cells on the recovered-equivalent optimal path — identical
  // to dtw_banded()'s path.size() (same argmin tie-break: diag, left, up).
  std::uint64_t path_cells = 0;
  // True when every cell of one row exceeded `abandon_above`: every warp
  // path crosses that row and costs are non-negative, so the exact
  // distance is provably > abandon_above. distance/path_cells are not
  // meaningful in that case.
  bool abandoned = false;
};

// Banded DTW distance between equal-length series, swept row by row in
// O(n) memory (workspace.row_d / row_l). `band` as in dtw_banded;
// band == 0 or band >= n-1 sweeps the full matrix, matching plain dtw().
// Pass abandon_above = +infinity to disable early abandoning.
BandedDistance banded_dtw_distance(std::span<const double> x,
                                   std::span<const double> y, std::size_t band,
                                   LocalCost cost, double abandon_above,
                                   DtwWorkspace& workspace);

}  // namespace vp::ts
