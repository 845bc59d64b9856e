#include "timeseries/lower_bound.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

#include "common/error.h"

namespace vp::ts {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

// Conservative pad for a bound accumulated over (at most) m local costs
// whose Z-arguments each carry absolute error <= e. With d' the computed
// difference and d the true one, |d - d'| <= e, so
//   squared cost:  |d'^2 - d^2| <= 2|d'|e + e^2; summed over m terms and
//                  Cauchy-Schwarz'd, err <= 2e*sqrt(m*S) + m*e^2
//   absolute cost: err <= m*e.
// Doubled for headroom over the sum's own rounding; pruning comparisons
// in core/comparison.cpp add a relative slack on top.
double bound_pad(double sum, std::size_t m, double e, LocalCost cost) {
  if (!(e > 0.0)) return 0.0;
  const double md = static_cast<double>(m);
  const double pad = cost == LocalCost::kSquared
                         ? 2.0 * e * std::sqrt(md * std::max(sum, 0.0)) +
                               md * e * e
                         : md * e;
  return 2.0 * pad;
}
}  // namespace

SeriesSketch sketch_series(std::span<const double> xs) {
  VP_REQUIRE(!xs.empty());
  const std::size_t n = xs.size();
  // Two independent accumulator chains: the serial add latency, not
  // throughput, bounds this loop. The changed summation order drifts from
  // the single-chain sum by O(n*eps) — inside the certified z_err budget.
  double mn = xs[0];
  double mx = xs[0];
  double s0 = 0.0;
  double s1 = 0.0;
  std::size_t i = 0;
  for (; i + 1 < n; i += 2) {
    mn = std::min(mn, std::min(xs[i], xs[i + 1]));
    mx = std::max(mx, std::max(xs[i], xs[i + 1]));
    s0 += xs[i];
    s1 += xs[i + 1];
  }
  if (i < n) {
    mn = std::min(mn, xs[i]);
    mx = std::max(mx, xs[i]);
    s0 += xs[i];
  }
  const double sum = s0 + s1;
  SeriesSketch s;
  s.first = xs.front();
  s.last = xs.back();
  s.min = mn;
  s.max = mx;
  s.mu = sum / static_cast<double>(n);
  s.n = n;
  if (!(mx > mn)) {
    // Flat or NaN-poisoned: exactly the inputs z_score_impl's Welford pass
    // maps to the all-zeros image (equal values keep its running mean
    // exact, so M2 stays 0; any NaN poisons sigma). The sketch's zero
    // image is therefore the true image, with no error.
    return s;
  }
  double ss = 0.0;
  for (double x : xs) {
    const double d = x - s.mu;
    ss += d * d;
  }
  const double sigma = std::sqrt(ss / static_cast<double>(n));
  if (!(sigma > 0.0)) {
    // Distinct values whose deviations underflowed (or overflow/NaN fell
    // out of the sums): the true image may be nonzero but the sketch
    // cannot model it. Infinite error degenerates every bound and routes
    // the pair to the exact tiers.
    s.z_err = kInf;
    return s;
  }
  const double z_scale = 1.0 / (3.0 * sigma);
  if (!std::isfinite(z_scale)) {
    // Subnormal sigma: the reciprocal overflowed. Same untrusted route.
    s.z_err = kInf;
    return s;
  }
  s.z_denom = 3.0 * sigma;
  s.z_scale = z_scale;
  // Certified |z - Z| over [min, max]. Naive-sum mean and two-pass sigma
  // each drift from the Welford values by O(n*eps) relative terms; the
  // mean's absolute error scales with max|x| (the `ratio` factor) and the
  // sigma error enters multiplied by |Z| (the `zmax` factor). The product
  // form dominates every cross term — including the single extra ulp from
  // z() multiplying by the reciprocal instead of dividing — and the
  // constant is ~16x the worst first-order coefficient. A tiny sigma blows
  // `ratio` up, which correctly degenerates the bounds instead of trusting
  // the sketch.
  const double ratio = std::max(std::fabs(mn), std::fabs(mx)) * z_scale;
  const double zmax = std::max(std::fabs(s.z(mn)), std::fabs(s.z(mx)));
  s.z_err = 64.0 * static_cast<double>(n) *
            std::numeric_limits<double>::epsilon() * (1.0 + ratio) *
            (1.0 + zmax);
  return s;
}

double lb_kim(const SeriesSketch& a, const SeriesSketch& b, LocalCost cost) {
  // Corner cells (0,0) and (N-1,M-1) are on every warp path; they are two
  // distinct cells whenever the matrix has more than one cell.
  double corners = local_cost(a.z(a.first), b.z(b.first), cost);
  if (a.n + b.n > 2) {
    corners += local_cost(a.z(a.last), b.z(b.last), cost);
  }
  // Some path cell matches a's minimum against a b-value >= b's minimum
  // (or vice versa), so a cost of at least c(min_a, min_b) is unavoidable;
  // symmetrically for the maxima. (One cell, hence max not sum.)
  const double extremes =
      std::max(local_cost(a.z(a.min), b.z(b.min), cost),
               local_cost(a.z(a.max), b.z(b.max), cost));
  const double kim = std::max(corners, extremes);
  return std::max(0.0, kim - bound_pad(kim, 2, a.z_err + b.z_err, cost));
}

double lb_keogh(std::span<const double> a, const SeriesSketch& sa,
                std::span<const double> b, const SeriesSketch& sb,
                std::size_t band, LocalCost cost, DtwWorkspace& workspace) {
  VP_REQUIRE(a.size() == b.size() && !a.empty());
  const std::size_t n = a.size();
  const double kim = lb_kim(sa, sb, cost);
  if (n < 3) return kim;  // corner rows only — LB_Kim already covers them

  // Exact corner costs for rows 0 and n-1 (those cells are forced).
  double sum = local_cost(sa.z(a.front()), sb.z(b.front()), cost) +
               local_cost(sa.z(a.back()), sb.z(b.back()), cost);

  const double e = sa.z_err + sb.z_err;
  const bool squared = cost == LocalCost::kSquared;
  // Inline per-row cost for both row loops below: they run for nearly
  // every candidate pair, and the out-of-line local_cost call would
  // dominate them. It computes the same d = a - b, d * d (or |d|).
  const auto row_cost = [squared](double d) { return squared ? d * d : std::fabs(d); };
  const bool full = band == 0 || band >= n - 1;
  if (full) {
    // Degenerate envelope: any row may match any b value.
    const double zu = sb.z(sb.max);
    const double zl = sb.z(sb.min);
    for (std::size_t i = 1; i + 1 < n; ++i) {
      const double za = sa.z(a[i]);
      if (za > zu) {
        sum += row_cost(za - zu);
      } else if (za < zl) {
        sum += row_cost(za - zl);
      }
    }
    return std::max(std::max(0.0, sum - bound_pad(sum, n, e, cost)), kim);
  }

  // Raw-domain sliding min/max envelope of b over [i-band, i+band]. The
  // Z-transform is monotone non-decreasing, so Z(envelope) = envelope(Z)
  // and the envelope never needs the materialised Z-image.
  std::vector<double>& env_lo = workspace.env_lo;
  std::vector<double>& env_hi = workspace.env_hi;
  env_lo.resize(n);
  env_hi.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t jlo = i >= band ? i - band : 0;
    const std::size_t jhi = std::min(i + band, n - 1);
    double lo = b[jlo];
    double hi = b[jlo];
    for (std::size_t j = jlo + 1; j <= jhi; ++j) {
      lo = std::min(lo, b[j]);
      hi = std::max(hi, b[j]);
    }
    env_lo[i] = lo;
    env_hi[i] = hi;
  }

  // Row i of the band window only matches b-values inside its envelope, so
  // it contributes at least the cost from z(a[i]) to the envelope's Z-image;
  // distinct rows are distinct path cells, so the contributions add.
  for (std::size_t i = 1; i + 1 < n; ++i) {
    const double za = sa.z(a[i]);
    const double zu = sb.z(env_hi[i]);
    const double zl = sb.z(env_lo[i]);
    if (za > zu) {
      sum += row_cost(za - zu);
    } else if (za < zl) {
      sum += row_cost(za - zl);
    }
  }
  return std::max(std::max(0.0, sum - bound_pad(sum, n, e, cost)), kim);
}

double diagonal_upper_bound(std::span<const double> a, const SeriesSketch& sa,
                            std::span<const double> b, const SeriesSketch& sb,
                            LocalCost cost) {
  VP_REQUIRE(a.size() == b.size() && !a.empty());
  // Specialised accumulation: this runs once per candidate pair, and the
  // generic per-element local_cost call plus the serial add chain double
  // its cost. Reordered summation drifts by O(n*eps) — inside the pad.
  const std::size_t n = a.size();
  const double ma = sa.mu;
  const double ka = sa.z_scale;
  const double mb = sb.mu;
  const double kb = sb.z_scale;
  double s0 = 0.0;
  double s1 = 0.0;
  std::size_t i = 0;
  if (cost == LocalCost::kSquared) {
    for (; i + 1 < n; i += 2) {
      const double d0 = (a[i] - ma) * ka - (b[i] - mb) * kb;
      const double d1 = (a[i + 1] - ma) * ka - (b[i + 1] - mb) * kb;
      s0 += d0 * d0;
      s1 += d1 * d1;
    }
    if (i < n) {
      const double d = (a[i] - ma) * ka - (b[i] - mb) * kb;
      s0 += d * d;
    }
  } else {
    for (; i + 1 < n; i += 2) {
      s0 += std::fabs((a[i] - ma) * ka - (b[i] - mb) * kb);
      s1 += std::fabs((a[i + 1] - ma) * ka - (b[i + 1] - mb) * kb);
    }
    if (i < n) s0 += std::fabs((a[i] - ma) * ka - (b[i] - mb) * kb);
  }
  const double sum = s0 + s1;
  const double ub = sum + bound_pad(sum, a.size(), sa.z_err + sb.z_err, cost);
  // An untrusted sketch (z_err = +inf) can push the sum through inf - inf;
  // +inf keeps the bound valid and the callers' UB-ordered sorts total.
  return std::isnan(ub) ? kInf : ub;
}

namespace {

// Row-major banded DP over two rolling rows. Buffers are sized n+2 and
// addressed through a +1-offset pointer: position j-1 is valid for j = 0,
// and the slots one past each row's active range hold +inf guards, which
// is exactly how the row-sliced DP treats out-of-window parents. Path
// lengths ride along as doubles (exact up to 2^53) through the same
// strict-< tie-break — diag first, then left, then up — that dtw_windowed
// uses, so both the distance and the path length are bit-identical to
// dtw_banded()/dtw(). Early abandoning needs only ONE row above the
// ceiling: every monotone path to the final corner passes through some
// cell of each row i, its prefix cost there is at least the DP value of
// that cell (the minimum over all prefixes), hence at least the row
// minimum, and local costs are non-negative.
template <bool kSquaredCost>
BandedDistance row_sweep(const double* x, const double* y, std::ptrdiff_t n,
                         std::ptrdiff_t w, double abandon_above,
                         DtwWorkspace& workspace) {
  const std::size_t needed = static_cast<std::size_t>(n) + 2;
  ++workspace.stats.dp_solves;
  if (needed > workspace.row_d[0].capacity()) ++workspace.stats.grows;
  workspace.row_d[0].assign(needed, kInf);
  workspace.row_d[1].assign(needed, kInf);
  workspace.row_l[0].assign(needed, 0.0);
  workspace.row_l[1].assign(needed, 0.0);
  double* prev = workspace.row_d[0].data() + 1;
  double* cur = workspace.row_d[1].data() + 1;
  double* lprev = workspace.row_l[0].data() + 1;
  double* lcur = workspace.row_l[1].data() + 1;
  // Virtual row -1: all +inf except the diagonal parent of (0,0), which
  // seeds the base cell with accumulated cost 0 and path length 0.
  prev[-1] = 0.0;

  std::uint64_t cells = 0;
  for (std::ptrdiff_t i = 0; i < n; ++i) {
    const std::ptrdiff_t jlo = std::max<std::ptrdiff_t>(0, i - w);
    const std::ptrdiff_t jhi = std::min(n - 1, i + w);
    cells += static_cast<std::uint64_t>(jhi - jlo + 1);
    // The left parent of this row's first cell lives in the slot being
    // recycled from row i - 1. Once the band's left edge moves (i > w),
    // jlo - 1 falls INSIDE row i - 1's active range, so that slot holds a
    // stale finite value from two rows back — it must read as +inf.
    cur[jlo - 1] = kInf;
    const double xi = x[i];
    double row_min = kInf;
    for (std::ptrdiff_t j = jlo; j <= jhi; ++j) {
      double best = prev[j - 1];  // diag
      double len = lprev[j - 1];
      if (cur[j - 1] < best) {  // left
        best = cur[j - 1];
        len = lcur[j - 1];
      }
      if (prev[j] < best) {  // up
        best = prev[j];
        len = lprev[j];
      }
      const double dd = xi - y[j];
      const double c = kSquaredCost ? dd * dd : std::fabs(dd);
      const double val = c + best;
      cur[j] = val;
      lcur[j] = len + 1.0;
      row_min = std::min(row_min, val);
    }
    // Guard slots: row i + 1 reads at most one slot past this row's active
    // range on either side, and those must read as +inf.
    cur[jlo - 1] = kInf;
    cur[jhi + 1] = kInf;
    if (row_min > abandon_above) {
      workspace.stats.cells += cells;
      return {.distance = kInf, .path_cells = 0, .abandoned = true};
    }
    std::swap(prev, cur);
    std::swap(lprev, lcur);
  }
  workspace.stats.cells += cells;
  return {.distance = prev[n - 1],
          .path_cells = static_cast<std::uint64_t>(lprev[n - 1]),
          .abandoned = false};
}

}  // namespace

BandedDistance banded_dtw_distance(std::span<const double> x,
                                   std::span<const double> y, std::size_t band,
                                   LocalCost cost, double abandon_above,
                                   DtwWorkspace& workspace) {
  VP_REQUIRE(x.size() == y.size() && !x.empty());
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(x.size());
  // band 0 means unconstrained; a band covering the whole matrix is the
  // same sweep either way.
  std::ptrdiff_t w = static_cast<std::ptrdiff_t>(band);
  if (w == 0 || w > n - 1) w = n - 1;

  return cost == LocalCost::kSquared
             ? row_sweep<true>(x.data(), y.data(), n, w, abandon_above,
                               workspace)
             : row_sweep<false>(x.data(), y.data(), n, w, abandon_above,
                                workspace);
}

}  // namespace vp::ts
