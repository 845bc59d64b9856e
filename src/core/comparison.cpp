#include "core/comparison.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/error.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "obs/runtime.h"
#include "obs/timer.h"
#include "timeseries/dtw.h"
#include "timeseries/lower_bound.h"
#include "timeseries/lp_distance.h"
#include "timeseries/normalize.h"

namespace vp::core {

namespace {

using Job = std::pair<std::size_t, std::size_t>;

// Per-worker scratch for the pairwise sweep: one DTW workspace plus the
// alignment and Z-image buffers, so the hot loop reuses its allocations
// across pairs.
struct PairScratch {
  ts::DtwWorkspace workspace;
  ts::DtwResult result;
  std::vector<double> va, vb;  // aligned values the alignment had to copy
  std::vector<double> za, zb;  // Eq. 7 images of the pair under comparison
  // Sub-cut shape checks the series table could not decide, so Welford
  // ran (comparison.shape_fallbacks).
  std::uint64_t shape_fallbacks = 0;
};

// Histogram sinks for the per-pair sub-phases, resolved from the registry
// once per sweep (registry lookup takes a mutex; the pair loop must not).
// Null when observability is disabled — compare_pair then reads no clocks.
struct PairSinks {
  obs::Histogram* cut_align_ns = nullptr;  // support cut + sample alignment
  obs::Histogram* zscore_ns = nullptr;     // Eq. 7 enhanced Z-score
  obs::Histogram* dtw_ns = nullptr;        // the DTW/Euclidean distance call
};

PairSinks resolve_pair_sinks() {
  PairSinks sinks;
  if (!obs::enabled()) return sinks;
  obs::MetricsRegistry& registry = obs::registry();
  sinks.cut_align_ns = &registry.histogram("comparison.pair_cut_align_ns");
  sinks.zscore_ns = &registry.histogram("comparison.pair_zscore_ns");
  sinks.dtw_ns = &registry.histogram("comparison.pair_dtw_ns");
  return sinks;
}

void match_samples_spans(std::span<const double> ta,
                         std::span<const double> va,
                         std::span<const double> tb,
                         std::span<const double> vb, double max_gap_s,
                         std::vector<double>& out_a,
                         std::vector<double>& out_b) {
  out_a.clear();
  out_b.clear();
  std::size_t j = 0;
  for (std::size_t i = 0; i < ta.size() && j < tb.size(); ++i) {
    const double t = ta[i];
    while (j + 1 < tb.size() &&
           std::fabs(tb[j + 1] - t) <= std::fabs(tb[j] - t)) {
      ++j;
    }
    if (std::fabs(tb[j] - t) > max_gap_s) continue;
    // Leave b[j] to the next a-sample when that one is strictly closer:
    // otherwise a marginal earlier match consumes the partner and the final
    // a-sample exits unmatched even though it had the better claim.
    if (i + 1 < ta.size() &&
        std::fabs(tb[j] - ta[i + 1]) < std::fabs(tb[j] - t)) {
      continue;
    }
    out_a.push_back(va[i]);
    out_b.push_back(vb[j]);
    ++j;  // consume the matched sample
  }
}

// True when both sides sit on the identical strictly-increasing grid. The
// matcher then pairs sample i with sample i (each |tb[j+1] - ta[i]| is
// positive while |tb[i] - ta[i]| is zero, so j never advances past i, and
// the zero gap always passes max_gap_s), so its output is the two value
// arrays verbatim. Strictness matters: duplicate timestamps make the walk
// consume ahead.
bool same_grid(std::span<const double> ta, std::span<const double> tb) {
  if (ta.size() != tb.size() || ta.empty()) return false;
  for (std::size_t i = 0; i < ta.size(); ++i) {
    if (ta[i] != tb[i] || (i > 0 && !(ta[i] > ta[i - 1]))) return false;
  }
  return true;
}

// True if the series carries enough shape to be compared (see
// ComparisonOptions::min_series_stddev_db).
bool has_usable_shape(std::span<const double> values,
                      const ComparisonOptions& options) {
  if (options.min_series_stddev_db <= 0.0) return true;
  RunningStats stats;
  std::size_t at_floor = 0;
  for (double v : values) {
    stats.add(v);
    if (v <= options.sensitivity_floor_dbm + 0.25) ++at_floor;
  }
  if (std::sqrt(stats.population_variance()) < options.min_series_stddev_db) {
    return false;
  }
  return static_cast<double>(at_floor) <=
         options.max_floor_fraction * static_cast<double>(values.size());
}

// One pair's values after the common-support cut and the alignment. Each
// side is a span into its series' own storage when the alignment kept the
// values verbatim, or into the caller's buffers when it had to copy.
struct AlignedPair {
  std::span<const double> a, b;
  // The side is verbatim its whole series (full cut, nothing dropped), so
  // per-series caches of the sketch and the Z-image stand in for it.
  bool a_full = false;
  bool b_full = false;
};

// One side's common-support cut: samples [first, first + size) of its
// series.
struct Cut {
  std::size_t first = 0;
  std::span<const double> times, values;
  bool full = false;  // the whole series
};

// The common-support cut and the alignment of one pair, shared by the
// reference sweep and the cascade. Returns false when the pair is not
// comparable. Both series must have passed the usable-shape prefilter; a
// side whose cut is a genuine sub-cut must also pass
// `shape_ok(side, cut)` (side 0 is `sa`), the caller's has_usable_shape
// on that cut.
template <typename ShapeOk>
bool align_pair(const ts::Series& sa, const ts::Series& sb,
                const ComparisonOptions& options, ShapeOk&& shape_ok,
                std::vector<double>& buf_a, std::vector<double>& buf_b,
                AlignedPair& out) {
  const double lo = std::max(sa.time(0), sb.time(0));
  const double hi = std::min(sa.time(sa.size() - 1), sb.time(sb.size() - 1));
  if (hi < lo || hi - lo < options.min_overlap_s) return false;
  // Half-open cut [lo, hi + 1e-9): the nudge keeps the endpoint.
  const auto cut = [&](const ts::Series& s) {
    const std::span<const double> all = s.times();
    const auto first = static_cast<std::size_t>(
        std::lower_bound(all.begin(), all.end(), lo) - all.begin());
    const auto last = static_cast<std::size_t>(
        std::lower_bound(all.begin(), all.end(), hi + 1e-9) - all.begin());
    return Cut{first, all.subspan(first, last - first),
               s.values().subspan(first, last - first),
               first == 0 && last == all.size()};
  };
  const Cut ca = cut(sa);
  const Cut cb = cut(sb);
  if (ca.times.size() < options.min_overlap_samples ||
      cb.times.size() < options.min_overlap_samples) {
    return false;
  }
  // A full cut is the whole series, which already passed the usable-shape
  // prefilter; only genuine sub-cuts re-check.
  if ((!ca.full && !shape_ok(0, ca)) || (!cb.full && !shape_ok(1, cb))) {
    return false;
  }
  switch (options.alignment) {
    case ComparisonOptions::Alignment::kMatchedSamples:
      if (options.match_gap_s >= 0.0 && same_grid(ca.times, cb.times)) {
        out = {ca.values, cb.values, ca.full, cb.full};
        return true;
      }
      match_samples_spans(ca.times, ca.values, cb.times, cb.values,
                          options.match_gap_s, buf_a, buf_b);
      if (buf_a.size() < options.min_overlap_samples) return false;
      // The matcher keeps values in order, so a side that lost nothing is
      // verbatim its cut.
      out = {buf_a, buf_b, ca.full && buf_a.size() == ca.values.size(),
             cb.full && buf_b.size() == cb.values.size()};
      return true;
    case ComparisonOptions::Alignment::kResampleGrid: {
      const auto grid_points = std::max<std::size_t>(
          static_cast<std::size_t>((hi - lo) / options.grid_period_s) + 1, 2);
      const auto resample = [&](const Cut& c, std::vector<double>& buf) {
        const ts::Series r =
            ts::Series(std::vector<double>(c.times.begin(), c.times.end()),
                       std::vector<double>(c.values.begin(), c.values.end()))
                .resample(grid_points);
        buf.assign(r.values().begin(), r.values().end());
      };
      resample(ca, buf_a);
      resample(cb, buf_b);
      out = {buf_a, buf_b, false, false};
      return true;
    }
    case ComparisonOptions::Alignment::kNone:
      out = {ca.values, cb.values, ca.full, cb.full};
      return true;
  }
  throw InternalError("unknown alignment");
}

// Divides an accumulated warp-path cost by its path length under
// length_normalize (per-step cost).
double per_step(double distance, std::size_t path_cells,
                const ComparisonOptions& options) {
  return options.length_normalize
             ? distance / static_cast<double>(path_cells)
             : distance;
}

double fast_dtw_distance(std::span<const double> x, std::span<const double> y,
                         const ComparisonOptions& options,
                         PairScratch& scratch) {
  ts::fast_dtw(x, y,
               {.radius = options.fastdtw_radius,
                .cost = options.cost,
                .band = options.dtw_band},
               scratch.workspace, scratch.result);
  return per_step(scratch.result.distance, scratch.result.path.size(),
                  options);
}

double pair_distance(std::span<const double> x, std::span<const double> y,
                     const ComparisonOptions& options, PairScratch& scratch) {
  switch (options.distance) {
    case DistanceKind::kFastDtw:
      return fast_dtw_distance(x, y, options, scratch);
    case DistanceKind::kExactDtw: {
      if (options.dtw_band > 0) {
        ts::dtw_banded(x, y, options.dtw_band, options.cost, scratch.workspace,
                       scratch.result);
      } else {
        ts::dtw(x, y, options.cost, scratch.workspace, scratch.result);
      }
      return per_step(scratch.result.distance, scratch.result.path.size(),
                      options);
    }
    case DistanceKind::kEuclidean: {
      // Euclidean needs equal lengths; packet loss makes them unequal, so
      // resample the longer one down to the shorter (Section IV-B explains
      // why the paper rejects this).
      const auto n = std::min(x.size(), y.size());
      double d;
      if (x.size() == y.size()) {
        d = ts::euclidean_distance(x, y);
      } else {
        const auto resampled = [n](std::span<const double> v) {
          return ts::Series::uniform(0.0, 1.0, {v.begin(), v.end()})
              .resample(n);
        };
        d = ts::euclidean_distance(resampled(x).values(),
                                   resampled(y).values());
      }
      return options.length_normalize ? d / std::sqrt(static_cast<double>(n))
                                      : d;
    }
  }
  throw InternalError("unknown distance kind");
}

// One (a, b) comparison of the reference sweep: cut, alignment, Eq. 7 and
// the distance, using only `scratch`'s buffers for the hot allocations.
PairDistance compare_pair(const NamedSeries& ea, const NamedSeries& eb,
                          const ComparisonOptions& options,
                          PairScratch& scratch, const PairSinks& sinks) {
  PairDistance p;
  p.a = ea.first;
  p.b = eb.first;

  obs::ScopedTimer cut_timer(sinks.cut_align_ns);
  AlignedPair aligned;
  const auto shape_ok = [&](int, const Cut& c) {
    return has_usable_shape(c.values, options);
  };
  if (!align_pair(ea.second, eb.second, options, shape_ok, scratch.va,
                  scratch.vb, aligned)) {
    p.comparable = false;
    return p;
  }
  cut_timer.stop();
  std::span<const double> x = aligned.a;
  std::span<const double> y = aligned.b;
  if (options.z_score_normalize) {
    obs::ScopedTimer zscore_timer(sinks.zscore_ns);
    ts::z_score_enhanced(x, scratch.za);
    ts::z_score_enhanced(y, scratch.zb);
    x = scratch.za;
    y = scratch.zb;
  }
  obs::ScopedTimer dtw_timer(sinks.dtw_ns);
  p.raw = pair_distance(x, y, options, scratch);
  p.normalized = p.raw;
  return p;
}

// Series that carry no shape at all are dropped up front (Eq. 7 would map
// them to near-identical flat lines).
std::vector<const NamedSeries*> usable_series(
    std::span<const NamedSeries> series, const ComparisonOptions& options) {
  std::vector<const NamedSeries*> usable;
  for (const NamedSeries& entry : series) {
    if (entry.second.size() < 2) continue;
    if (!has_usable_shape(entry.second.values(), options)) continue;
    usable.push_back(&entry);
  }
  return usable;
}

// The (i, j) pairs in Algorithm 1's i < j order. Each worker writes its
// pair into a fixed slot, so the result vector — and with it Eq. 8 — is
// bit-identical no matter how many threads run the sweep.
std::vector<Job> pair_jobs(std::size_t n) {
  std::vector<Job> jobs;
  jobs.reserve(n * (n - 1) / 2);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) jobs.emplace_back(i, j);
  }
  return jobs;
}

std::size_t sweep_threads(const ComparisonOptions& options,
                          std::size_t jobs) {
  return std::min(options.threads == 0 ? hardware_threads() : options.threads,
                  jobs);
}

obs::ScopedTimer sweep_timer(std::size_t jobs) {
  if (!obs::enabled()) return obs::ScopedTimer();
  return obs::ScopedTimer(&obs::registry().histogram("comparison.sweep_ns"),
                          obs::trace(),
                          {.phase = "comparison.sweep",
                           .pairs = static_cast<std::int64_t>(jobs)});
}

// Sweep-level registry counters shared by both sweeps, plus the summed
// per-worker workspace stats (every DP solve of the sweep ran on one).
void record_sweep(std::size_t heard, std::size_t usable, std::size_t jobs,
                  std::size_t comparable,
                  std::span<const PairScratch> scratch) {
  obs::MetricsRegistry& registry = obs::registry();
  registry.counter("comparison.sweeps").add(1);
  registry.counter("comparison.series_heard").add(heard);
  registry.counter("comparison.series_usable").add(usable);
  registry.counter("comparison.pairs_total").add(jobs);
  registry.counter("comparison.pairs_comparable").add(comparable);
  registry.counter("comparison.pairs_incomparable").add(jobs - comparable);
  ts::DtwWorkspace::Stats dtw_stats;
  for (const PairScratch& s : scratch) {
    dtw_stats.dp_solves += s.workspace.stats.dp_solves;
    dtw_stats.cells += s.workspace.stats.cells;
    dtw_stats.grows += s.workspace.stats.grows;
  }
  registry.counter("dtw.dp_solves").add(dtw_stats.dp_solves);
  registry.counter("dtw.cells_expanded").add(dtw_stats.cells);
  registry.counter("dtw.workspace_grows").add(dtw_stats.grows);
  registry.counter("dtw.workspace_reuse_hits")
      .add(dtw_stats.dp_solves - dtw_stats.grows);
}

}  // namespace

void match_samples(const ts::Series& a, const ts::Series& b, double max_gap_s,
                   std::vector<double>& out_a, std::vector<double>& out_b) {
  match_samples_spans(a.times(), a.values(), b.times(), b.values(), max_gap_s,
                      out_a, out_b);
}

std::vector<PairDistance> compare_series(std::span<const NamedSeries> series,
                                         const ComparisonOptions& options) {
  const std::vector<const NamedSeries*> usable =
      usable_series(series, options);
  std::vector<PairDistance> pairs;
  if (usable.size() < 2) return pairs;
  const std::vector<Job> jobs = pair_jobs(usable.size());
  pairs.resize(jobs.size());

  const PairSinks sinks = resolve_pair_sinks();
  obs::ScopedTimer timer = sweep_timer(jobs.size());
  const std::size_t threads = sweep_threads(options, jobs.size());
  std::vector<PairScratch> scratch(std::max<std::size_t>(threads, 1));
  parallel_for(threads, jobs.size(),
               [&](std::size_t worker, std::size_t k) {
                 pairs[k] = compare_pair(*usable[jobs[k].first],
                                         *usable[jobs[k].second], options,
                                         scratch[worker], sinks);
               });
  timer.stop();

  std::vector<double> values;
  values.reserve(pairs.size());
  for (const PairDistance& p : pairs) {
    if (p.comparable) values.push_back(p.raw);
  }
  const bool instrumented = obs::enabled();
  if (instrumented) {
    record_sweep(series.size(), usable.size(), jobs.size(), values.size(),
                 scratch);
  }
  obs::ScopedTimer minmax_timer =
      instrumented
          ? obs::ScopedTimer(&obs::registry().histogram("comparison.minmax_ns"))
          : obs::ScopedTimer();
  if (options.min_max_normalize &&
      values.size() >= options.min_pairs_for_min_max) {
    // Eq. 8 over the comparable distances of this window.
    ts::min_max_normalize(values);
    std::size_t cursor = 0;
    for (PairDistance& p : pairs) {
      p.normalized = p.comparable ? values[cursor++] : 1.0;
    }
  } else {
    // Too few pairs for Eq. 8 (or ablation): keep the raw per-step scale.
    for (PairDistance& p : pairs) {
      if (!p.comparable) p.normalized = 1.0;
    }
  }
  return pairs;
}

namespace {

// ---------------------------------------------------------------------------
// Lower-bound cascade (compare_series_pruned)
// ---------------------------------------------------------------------------

// Bounds are mathematically valid in real arithmetic; their floating-point
// evaluation can drift from the ideal value by a few ulps of accumulated
// rounding (~1e-13 relative for these sums). Every pruning comparison pads
// its bound by this relative slack — six orders of magnitude of margin —
// so a rounding difference can never flip a verdict; marginal pairs simply
// fall through to the exact solve.
constexpr double kBoundSlack = 1e-9;
double slack_down(double lb) { return lb * (1.0 - kBoundSlack); }
double slack_up(double ub) { return ub * (1.0 + kBoundSlack); }

// Deepest cascade tier a pair touched; doubles as its exit-tier label for
// the CascadeStats conservation law.
enum class Stage : unsigned char { kSketch, kEnvelope, kKernel, kFull };

// What the cascade keeps per pair: its bounds, never its aligned values or
// sketches. Tiers that need those re-derive them into the calling worker's
// scratch, so a round's working set stays at its input series plus one
// small record per pair.
struct CascadeRecord {
  std::size_t len = 0;  // aligned length of both sides
  double lb = 0.0;      // per-step lower bound (tightest so far)
  double ub = 0.0;      // per-step diagonal upper bound
  double raw = 0.0;     // exact per-step distance once stage == kFull
  Stage stage = Stage::kSketch;
  // The side's aligned values are verbatim its whole series (it lost
  // nothing to the cut or the matching), so the series table's sketch and
  // Z-image stand in for it and re-deriving it is free.
  bool a_full = false;
  bool b_full = false;
};

bool cascade_supported(const ComparisonOptions& options) {
  // The kernel that settles a pair is exact banded DTW: any other distance
  // would need a second solve on top of it.
  if (options.distance != DistanceKind::kExactDtw) return false;
  // kNone alignment can produce unequal lengths; the bounds and the
  // banded kernel are equal-length constructions.
  if (options.alignment == ComparisonOptions::Alignment::kNone) return false;
  // The cascade's sketches assume Eq. 7 is in play (z-transformed bounds).
  if (!options.z_score_normalize) return false;
  return true;
}

// Per-step scale conversions under length_normalize: a warp path over two
// length-L series has between L and 2L-1 cells, so accumulated-cost lower
// bounds divide by the longest possible path and upper bounds by the
// shortest.
double lb_per_step(double acc, std::size_t len,
                   const ComparisonOptions& options) {
  return options.length_normalize ? acc / static_cast<double>(2 * len - 1)
                                  : acc;
}
double ub_per_step(double acc, std::size_t len,
                   const ComparisonOptions& options) {
  return options.length_normalize ? acc / static_cast<double>(len) : acc;
}

// A series' running sums over its first k samples: of the deviations
// d_i = x_i - mu from the series' own mean, of their squares, and of the
// samples has_usable_shape counts as at the sensitivity floor (a window
// holds a few hundred samples, so 32 bits suffice).
struct PrefixRow {
  double sum_d = 0.0;
  double sum_d2 = 0.0;
  std::uint32_t at_floor = 0;

  void add(double x, double mu, double floor_dbm) {
    const double d = x - mu;
    sum_d += d;
    sum_d2 += d * d;
    if (x <= floor_dbm) ++at_floor;
  }
};

// What the cascade knows about one usable series. The sweep builds one
// entry per series before Phase A, so each pair reads it instead of
// re-deriving it; it lives for the sweep only.
struct SeriesEntry {
  std::span<const double> values;  // the series'
  ts::SeriesSketch sketch;         // of the whole series
  std::vector<double> full_z;      // its Eq. 7 image, once some pair
                                   // aligns the whole series
  // Its prefix rows 0, kRowStride, 2·kRowStride, ... start here in
  // SeriesTable::rows.
  std::size_t base = 0;
  // Certified pad on a cut's prefix-sum variance, times the cut's length
  // (see usable_cut).
  double var_pad_m = 0.0;
  // Every value, prefix sum and the pad are finite, so the bound holds.
  bool trusted = false;
};

// The series table: one entry per usable series, and every series' prefix
// rows in one block. Only every kRowStride-th row is stored; row k is the
// stored row below it plus at most kRowStride - 1 more samples, added by
// the same statements in the same order, so it has the bits of a full
// prefix array at an eighth of the memory.
struct SeriesTable {
  static constexpr std::size_t kRowStride = 8;

  std::vector<SeriesEntry> entries;
  std::vector<PrefixRow> rows;
  double floor_dbm = 0.0;  // sensitivity_floor_dbm + 0.25

  SeriesTable(std::span<const NamedSeries* const> usable,
              const ComparisonOptions& options)
      : entries(usable.size()),
        floor_dbm(options.sensitivity_floor_dbm + 0.25) {
    std::size_t stored = 0;
    for (std::size_t i = 0; i < usable.size(); ++i) {
      entries[i].values = usable[i]->second.values();
      entries[i].base = stored;
      stored += entries[i].values.size() / kRowStride + 1;
    }
    rows.resize(stored);
  }

  // Fills entry i (its values are already set).
  void fill(std::size_t i);

  // Series i's prefix row k, 0 <= k <= n.
  PrefixRow row(std::size_t i, std::size_t k) const {
    const SeriesEntry& e = entries[i];
    PrefixRow acc = rows[e.base + k / kRowStride];
    for (std::size_t j = k - k % kRowStride; j < k; ++j) {
      acc.add(e.values[j], e.sketch.mu, floor_dbm);
    }
    return acc;
  }
};

void SeriesTable::fill(std::size_t i) {
  constexpr double kU = std::numeric_limits<double>::epsilon() / 2;
  SeriesEntry& e = entries[i];
  const std::span<const double> xs = e.values;
  e.sketch = ts::sketch_series(xs);
  const std::size_t n = xs.size();
  VP_REQUIRE(n < std::numeric_limits<std::uint32_t>::max());
  bool finite = true;
  PrefixRow acc;
  for (std::size_t k = 0; k < n; ++k) {
    if (k % kRowStride == 0) rows[e.base + k / kRowStride] = acc;
    finite = finite && std::isfinite(xs[k]);
    acc.add(xs[k], e.sketch.mu, floor_dbm);
  }
  if (n % kRowStride == 0) rows[e.base + n / kRowStride] = acc;
  // For a cut of m of the n samples, with D = max |x - mu|, M = max |x|
  // and R = max - min over the series (each bounds the cut's own):
  //   * the prefix-sum variance is within 20·u·D²·n²/m of the cut's true
  //     population variance (the rounding of d_i, of both prefix sums,
  //     and of the O(1) evaluation);
  //   * Welford's value, max(M2, 0)/m, is within 7.5·u·m·R·(M + R) of it
  //     (its running mean drifts by at most k·u·(M + 2R) after k steps,
  //     and each M2 step multiplies that drift by at most R);
  // and m <= n²/m. Constant 64 leaves 3x headroom over their sum. The
  // n²·DBL_MIN term covers gradual underflow.
  const double mn = e.sketch.min;
  const double mx = e.sketch.max;
  const double dev =
      std::max(std::fabs(mn - e.sketch.mu), std::fabs(mx - e.sketch.mu));
  const double mag = std::max(std::fabs(mn), std::fabs(mx));
  const double range = mx - mn;
  const double nd = static_cast<double>(n);
  e.var_pad_m = 64.0 * nd * nd *
                (kU * (dev * dev + range * (mag + range)) +
                 std::numeric_limits<double>::min());
  e.trusted = finite && std::isfinite(acc.sum_d) &&
              std::isfinite(acc.sum_d2) && std::isfinite(e.var_pad_m);
}

// has_usable_shape on the sub-cut [first, first + values.size()) of series
// i, bit for bit. The floor test is exact from the integer prefix counts,
// and the same double comparison; a cut that fails it is unusable
// whatever its sigma. Sigma's test decides from the prefix-sum variance
// when it clears min_series_stddev_db² by more than the certified pad
// (plus 8 ulps of the threshold, for the square root's and the square's
// rounding), on either side. Otherwise, and for a series whose sums
// cannot be trusted (a NaN sigma passes the reference's `<` test, which
// no bound can model), the reference Welford pass runs and `fallbacks`
// counts it.
bool usable_cut(const SeriesTable& table, std::size_t i, std::size_t first,
                std::span<const double> values,
                const ComparisonOptions& options, std::uint64_t& fallbacks) {
  if (options.min_series_stddev_db <= 0.0) return true;
  const SeriesEntry& entry = table.entries[i];
  const PrefixRow lo = table.row(i, first);
  const PrefixRow hi = table.row(i, first + values.size());
  const double md = static_cast<double>(values.size());
  if (!(static_cast<double>(hi.at_floor - lo.at_floor) <=
        options.max_floor_fraction * md)) {
    return false;
  }
  if (entry.trusted) {
    const double mean_d = (hi.sum_d - lo.sum_d) / md;
    const double var = (hi.sum_d2 - lo.sum_d2) / md - mean_d * mean_d;
    const double floor_var =
        options.min_series_stddev_db * options.min_series_stddev_db;
    const double pad =
        entry.var_pad_m / md +
        8.0 * std::numeric_limits<double>::epsilon() * floor_var;
    if (var - pad > floor_var) return true;
    if (var + pad < floor_var) return false;
  }
  ++fallbacks;
  return has_usable_shape(values, options);
}

// Result of one banded DTW kernel run: the pair's exact per-step distance
// when the run completed, otherwise a per-step lower bound (the distance
// provably exceeds it).
struct KernelProbe {
  double value = 0.0;
  bool resolved = false;  // the run completed (did not abandon)
};

// The per-round state of one cascade sweep and the per-pair operations
// over it. Every operation takes the calling worker's scratch, so passes
// parallelise over pairs without sharing mutable state.
struct Cascade {
  const ComparisonOptions& options;
  std::span<const NamedSeries* const> usable;
  std::span<const Job> jobs;
  // The series table. Its sketches and Z-images are exact caches (same
  // function, same input), so a pair reusing them gets the same bits.
  SeriesTable table;
  // comparison.pair_dtw_ns, resolved once per sweep; null when
  // observability is off, so kernel runs then read no clock.
  obs::Histogram* kernel_ns = nullptr;

  const ts::Series& series_a(std::size_t k) const {
    return usable[jobs[k].first]->second;
  }
  const ts::Series& series_b(std::size_t k) const {
    return usable[jobs[k].second]->second;
  }

  // Phase A for pair k: alignment, raw-domain sketches and the O(1)/O(n)
  // sketch bounds. Pruned pairs never pay the Eq. 7 pass.
  void sketch(std::size_t k, PairScratch& scratch, PairDistance& p,
              CascadeRecord& rec) const {
    p.a = usable[jobs[k].first]->first;
    p.b = usable[jobs[k].second]->first;
    const auto shape_ok = [&](int side, const Cut& c) {
      const std::size_t i = side == 0 ? jobs[k].first : jobs[k].second;
      return usable_cut(table, i, c.first, c.values, options,
                        scratch.shape_fallbacks);
    };
    AlignedPair al;
    if (!align_pair(series_a(k), series_b(k), options, shape_ok, scratch.va,
                    scratch.vb, al)) {
      p.comparable = false;
      p.normalized = 1.0;
      return;
    }
    VP_ENSURE(al.a.size() == al.b.size() && !al.a.empty());
    rec.len = al.a.size();
    rec.a_full = al.a_full;
    rec.b_full = al.b_full;
    const auto [sa, sb] = sketch_pair(k, al);
    rec.lb = lb_per_step(ts::lb_kim(sa, sb, options.cost), rec.len, options);
    rec.ub = ub_per_step(
        ts::diagonal_upper_bound(al.a, sa, al.b, sb, options.cost), rec.len,
        options);
  }

  // Sketches of pair k's aligned sides: the cached whole-series sketch for
  // a side aligned in full, a fresh one otherwise.
  std::pair<ts::SeriesSketch, ts::SeriesSketch> sketch_pair(
      std::size_t k, const AlignedPair& al) const {
    return {al.a_full ? table.entries[jobs[k].first].sketch
                      : ts::sketch_series(al.a),
            al.b_full ? table.entries[jobs[k].second].sketch
                      : ts::sketch_series(al.b)};
  }

  // Pair k's aligned values again, bit for bit as Phase A saw them. Phase
  // A proved the pair comparable from these same inputs, so only the cut
  // and the matching are re-derived, not the shape checks.
  AlignedPair realign(std::size_t k, const CascadeRecord& rec,
                      PairScratch& scratch) const {
    if (rec.a_full && rec.b_full) {
      return {series_a(k).values(), series_b(k).values(), true, true};
    }
    AlignedPair al;
    const bool comparable =
        align_pair(series_a(k), series_b(k), options,
                   [](int, const Cut&) { return true; }, scratch.va,
                   scratch.vb, al);
    VP_ENSURE(comparable && al.a.size() == rec.len);
    return al;
  }

  // Pair k's Eq. 7 images, from the per-series cache where a side is
  // aligned in full and into scratch.za/zb otherwise.
  std::pair<std::span<const double>, std::span<const double>> z_images(
      std::size_t k, const CascadeRecord& rec, PairScratch& scratch) const {
    const AlignedPair al = realign(k, rec, scratch);
    const auto image = [&](bool full, std::size_t series,
                           std::span<const double> values,
                           std::vector<double>& buffer) {
      if (full) return std::span<const double>(table.entries[series].full_z);
      ts::z_score_enhanced(values, buffer);
      return std::span<const double>(buffer);
    };
    return {image(rec.a_full, jobs[k].first, al.a, scratch.za),
            image(rec.b_full, jobs[k].second, al.b, scratch.zb)};
  }

  // Tightens rec.lb with LB_Keogh (idempotent). `target` is the per-step
  // value the refined bound would have to clear for the caller's pruning
  // test to fire: LB_Keogh never exceeds the accumulated diagonal cost, so
  // when even that cap (ub·L/(2L-1) per step) cannot reach the target,
  // the O(n·band) envelope pass is provably pointless and skipped — the
  // pair keeps its kSketch stage and a later caller with a reachable
  // target may still refine it.
  void refine_keogh(std::size_t k, CascadeRecord& rec, PairScratch& scratch,
                    double target) const {
    if (rec.stage != Stage::kSketch) return;
    const double cap =
        options.length_normalize
            ? rec.ub * (static_cast<double>(rec.len) /
                        static_cast<double>(2 * rec.len - 1))
            : rec.ub;
    if (!(cap > target)) return;
    const AlignedPair al = realign(k, rec, scratch);
    const auto [sa, sb] = sketch_pair(k, al);
    rec.lb = std::max(
        rec.lb, lb_per_step(ts::lb_keogh(al.a, sa, al.b, sb, options.dtw_band,
                                         options.cost, scratch.workspace),
                            rec.len, options));
    rec.stage = Stage::kEnvelope;
  }

  // One banded DTW kernel run on Z-images, abandoning once every path
  // provably costs more than `discard_above` per step (+inf: never).
  KernelProbe kernel(std::span<const double> za, std::span<const double> zb,
                     PairScratch& scratch, double discard_above) const {
    const double steps_max = static_cast<double>(2 * za.size() - 1);
    double abandon_acc = std::numeric_limits<double>::infinity();
    if (std::isfinite(discard_above) && discard_above >= 0.0) {
      // Margin on top of the caller's threshold so the post-abandon check
      // robustly reproves the discard (1e-6 ≫ kBoundSlack).
      abandon_acc = options.length_normalize
                        ? discard_above * steps_max * (1.0 + 1e-6)
                        : discard_above * (1.0 + 1e-6);
    }
    obs::ScopedTimer timer(kernel_ns);
    const ts::BandedDistance kd =
        ts::banded_dtw_distance(za, zb, options.dtw_band, options.cost,
                                abandon_acc, scratch.workspace);
    timer.stop();
    if (kd.abandoned) {
      // The banded optimum provably exceeds abandon_acc.
      return {options.length_normalize ? abandon_acc / steps_max
                                       : abandon_acc,
              false};
    }
    return {per_step(kd.distance, kd.path_cells, options), true};
  }

  // Runs the banded kernel on pair k against a per-step discard threshold.
  // A completed run is the pair's exact distance. An abandoned one tightens
  // rec.lb, and `spared` says whether that bound already decides what the
  // caller needs; if not, the kernel runs again without abandoning. Either
  // way the pair ends at stage kKernel (spared) or kFull (rec.raw exact).
  template <typename Spared>
  void probe(std::size_t k, CascadeRecord& rec, PairScratch& scratch,
             double discard_above, Spared&& spared) const {
    const auto [za, zb] = z_images(k, rec, scratch);
    KernelProbe kp = kernel(za, zb, scratch, discard_above);
    rec.stage = std::max(rec.stage, Stage::kKernel);
    if (!kp.resolved) {
      rec.lb = std::max(rec.lb, kp.value);
      if (spared()) return;
      kp = kernel(za, zb, scratch, std::numeric_limits<double>::infinity());
    }
    rec.raw = kp.value;
    rec.stage = Stage::kFull;
  }

  // Exact distance for pair k, where no threshold can spare the solve.
  void resolve(std::size_t k, CascadeRecord& rec,
               PairScratch& scratch) const {
    probe(k, rec, scratch, std::numeric_limits<double>::infinity(),
          [] { return false; });
  }
};

}  // namespace

std::vector<PairDistance> compare_series_pruned(
    std::span<const NamedSeries> series, const ComparisonOptions& options,
    double decision_threshold, CascadeStats* stats_out) {
  CascadeStats stats;
  if (!cascade_supported(options)) {
    // Reference sweep, then classify; every comparable pair is tallied as
    // a full sweep so the conservation law still holds.
    std::vector<PairDistance> pairs = compare_series(series, options);
    for (PairDistance& p : pairs) {
      if (!p.comparable) continue;
      p.flagged = p.normalized <= decision_threshold;
      ++stats.full_sweeps;
    }
    if (obs::enabled()) {
      obs::registry().counter("dtw.full_sweeps").add(stats.full_sweeps);
    }
    if (stats_out) *stats_out = stats;
    return pairs;
  }

  const std::vector<const NamedSeries*> usable =
      usable_series(series, options);
  std::vector<PairDistance> pairs;
  if (usable.size() < 2) {
    if (stats_out) *stats_out = stats;
    return pairs;
  }
  const std::vector<Job> jobs = pair_jobs(usable.size());
  pairs.resize(jobs.size());
  std::vector<CascadeRecord> recs(jobs.size());

  obs::ScopedTimer timer = sweep_timer(jobs.size());
  const std::size_t threads = sweep_threads(options, jobs.size());
  std::vector<PairScratch> scratch(std::max<std::size_t>(threads, 1));

  Cascade cascade{.options = options,
                  .usable = usable,
                  .jobs = jobs,
                  .table = SeriesTable(usable, options),
                  .kernel_ns = obs::enabled() ? &obs::registry().histogram(
                                                    "comparison.pair_dtw_ns")
                                              : nullptr};
  // The series table, once per series: a fleet-sized neighbourhood would
  // otherwise sketch and shape-check every series N-1 times.
  parallel_for(threads, usable.size(), [&](std::size_t, std::size_t i) {
    cascade.table.fill(i);
  });

  // Phase A (parallel): cut, align, sketch. No Z-images, no DTW.
  parallel_for(threads, jobs.size(), [&](std::size_t worker, std::size_t k) {
    cascade.sketch(k, scratch[worker], pairs[k], recs[k]);
  });

  std::vector<std::size_t> comparable;
  comparable.reserve(jobs.size());
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    if (pairs[k].comparable) comparable.push_back(k);
  }

  // Per-series Z-image cache: a series at full beacon rate participates in
  // up to N-1 pairs whose aligned values are the whole series verbatim, so
  // its Eq. 7 image — the hottest fixed cost of an exact resolve — is
  // computed once here instead of once per pair. Computed only for series
  // at least one pair actually aligned in full.
  {
    std::vector<std::uint8_t> wanted(usable.size(), 0);
    for (const std::size_t k : comparable) {
      if (recs[k].a_full) wanted[jobs[k].first] = 1;
      if (recs[k].b_full) wanted[jobs[k].second] = 1;
    }
    parallel_for(threads, usable.size(), [&](std::size_t, std::size_t i) {
      if (wanted[i]) {
        ts::z_score_enhanced(usable[i]->second.values(),
                             cascade.table.entries[i].full_z);
      }
    });
  }

  const double thr = decision_threshold;
  const bool minmax = options.min_max_normalize &&
                      comparable.size() >= options.min_pairs_for_min_max;
  double vmin = 0.0;
  double range = 1.0;
  bool degenerate = false;

  if (minmax) {
    obs::ScopedTimer minmax_timer(
        obs::enabled() ? &obs::registry().histogram("comparison.minmax_ns")
                       : nullptr);
    // Eq. 8 needs the EXACT population min and max of the raw distances.
    // UCR-style best-so-far searches locate them, skipping any pair whose
    // bound proves it cannot move the extreme — skipped pairs provably do
    // not change the extreme's value, so vmin/vmax come out bitwise
    // identical to the reference sweep's. Each search seeds a serial
    // exact resolve of its strongest candidate, then fans the remaining
    // skip tests out in parallel against that fixed target.
    PairScratch& s0 = scratch[0];

    // Seed: the smallest-UB pair is the strongest minimum candidate;
    // resolving it exactly gives every later skip test a tight target.
    std::size_t seed = comparable.front();
    for (const std::size_t k : comparable) {
      if (recs[k].ub < recs[seed].ub ||
          (recs[k].ub == recs[seed].ub && k < seed)) {
        seed = k;
      }
    }
    cascade.resolve(seed, recs[seed], s0);
    double best_min = recs[seed].raw;

    // Envelope pass against the FIXED seed value, in index order and in
    // parallel: the searches are correct under any visit order and any
    // intermediate target — a skipped pair's certified lb exceeded a value
    // that is itself >= the final minimum. A fixed target also makes the
    // pass embarrassingly parallel yet bitwise deterministic.
    const double m0 = best_min;
    parallel_for(threads, comparable.size(),
                 [&](std::size_t worker, std::size_t idx) {
                   const std::size_t k = comparable[idx];
                   CascadeRecord& rec = recs[k];
                   if (rec.stage == Stage::kFull || slack_down(rec.lb) >= m0) {
                     return;
                   }
                   cascade.refine_keogh(k, rec, scratch[worker], m0);
                 });

    // The few pairs whose refined lb cannot rule them out (in practice the
    // near-minimum cluster) get the exact treatment serially, with the
    // best-so-far tightening as it goes.
    for (const std::size_t k : comparable) {
      CascadeRecord& rec = recs[k];
      if (rec.stage == Stage::kFull || slack_down(rec.lb) >= best_min) {
        continue;
      }
      cascade.probe(k, rec, s0, best_min,
                    [&] { return slack_down(rec.lb) >= best_min; });
      if (rec.stage == Stage::kFull) best_min = std::min(best_min, rec.raw);
    }

    double best_max = -std::numeric_limits<double>::infinity();
    for (const std::size_t k : comparable) {
      if (recs[k].stage == Stage::kFull) {
        best_max = std::max(best_max, recs[k].raw);
      }
    }
    // Seed the maximum search like the minimum one, with the two strongest
    // candidates: the largest-LB pair (the highest certified floor — its
    // exact value is at least every other pair's lower bound, which makes
    // it the likely true maximum) and the largest-UB pair. Resolving both
    // pins best_max at (almost always) the true maximum, so the parallel
    // pass below only resolves the pairs whose padded UB genuinely exceeds
    // it.
    const auto seed_by = [&](auto&& key) {
      std::size_t best = comparable.size();  // sentinel: none
      for (const std::size_t k : comparable) {
        const CascadeRecord& rec = recs[k];
        if (rec.stage == Stage::kFull || slack_up(rec.ub) <= best_max) {
          continue;
        }
        if (best == comparable.size() || key(rec) > key(recs[best])) {
          best = k;
        }
      }
      if (best == comparable.size()) return;
      cascade.resolve(best, recs[best], s0);
      best_max = std::max(best_max, recs[best].raw);
    };
    seed_by([](const CascadeRecord& rec) { return rec.lb; });
    seed_by([](const CascadeRecord& rec) { return rec.ub; });
    // Every unresolved pair with padded UB at or under the fixed target
    // provably cannot move the maximum; the rest get resolved exactly.
    // Per-pair work is independent and exact, so the pass parallelises
    // without losing bitwise determinism.
    const double m1 = best_max;
    parallel_for(threads, comparable.size(),
                 [&](std::size_t worker, std::size_t idx) {
                   const std::size_t k = comparable[idx];
                   CascadeRecord& rec = recs[k];
                   if (rec.stage == Stage::kFull || slack_up(rec.ub) <= m1) {
                     return;
                   }
                   cascade.resolve(k, rec, scratch[worker]);
                 });
    for (const std::size_t k : comparable) {
      if (recs[k].stage == Stage::kFull) {
        best_max = std::max(best_max, recs[k].raw);
      }
    }

    vmin = best_min;
    if (!(best_max > vmin)) {
      degenerate = true;  // min_max_normalize's all-zeros branch
    } else {
      range = best_max - vmin;
    }
  }

  // Phase C (parallel): classify every pair at the cheapest conclusive
  // tier. The normalisation (v - vmin) / range is the same monotone
  // floating-point transform min_max_normalize applies, so comparing a
  // transformed bound against the threshold decides exactly like the
  // reference sweep would.
  if (degenerate) {
    const bool flag = 0.0 <= thr;
    for (const std::size_t k : comparable) {
      pairs[k].normalized = 0.0;
      pairs[k].raw = recs[k].stage == Stage::kFull ? recs[k].raw : recs[k].lb;
      pairs[k].flagged = flag;
    }
  } else {
    const auto classify = [&](std::size_t worker, std::size_t idx) {
      const std::size_t k = comparable[idx];
      CascadeRecord& rec = recs[k];
      PairDistance& p = pairs[k];
      const auto norm = [&](double v) {
        return minmax ? (v - vmin) / range : v;
      };
      const auto decide = [&]() {
        if (norm(slack_down(rec.lb)) > thr) {
          p.flagged = false;
          p.raw = rec.lb;
          p.normalized = norm(rec.lb);
          return true;
        }
        if (norm(slack_up(rec.ub)) <= thr) {
          p.flagged = true;
          p.raw = rec.ub;
          p.normalized = norm(rec.ub);
          return true;
        }
        return false;
      };
      if (rec.stage != Stage::kFull) {
        if (decide()) return;
        // Raw-domain value past which "not flagged" is provable; the probe
        // pads it, and the decision is re-verified through `decide`.
        const double discard = minmax ? vmin + thr * range : thr;
        cascade.refine_keogh(k, rec, scratch[worker], discard);
        if (decide()) return;
        cascade.probe(k, rec, scratch[worker], discard, decide);
        if (rec.stage != Stage::kFull) return;
      }
      p.raw = rec.raw;
      p.normalized = norm(rec.raw);
      p.flagged = p.normalized <= thr;
    };
    parallel_for(threads, comparable.size(), classify);
  }
  timer.stop();

  for (const std::size_t k : comparable) {
    switch (recs[k].stage) {
      case Stage::kSketch:
        ++stats.lb_kim_pruned;
        break;
      case Stage::kEnvelope:
        ++stats.lb_keogh_pruned;
        break;
      case Stage::kKernel:
        ++stats.early_abandoned;
        break;
      case Stage::kFull:
        ++stats.full_sweeps;
        break;
    }
  }

  if (obs::enabled()) {
    record_sweep(series.size(), usable.size(), jobs.size(), comparable.size(),
                 scratch);
    obs::MetricsRegistry& registry = obs::registry();
    registry.counter("dtw.lb_kim_pruned").add(stats.lb_kim_pruned);
    registry.counter("dtw.lb_keogh_pruned").add(stats.lb_keogh_pruned);
    registry.counter("dtw.early_abandoned").add(stats.early_abandoned);
    registry.counter("dtw.full_sweeps").add(stats.full_sweeps);
    std::uint64_t shape_fallbacks = 0;
    for (const PairScratch& s : scratch) shape_fallbacks += s.shape_fallbacks;
    registry.counter("comparison.shape_fallbacks").add(shape_fallbacks);
  }
  if (stats_out) *stats_out = stats;
  return pairs;
}

std::vector<PairDistance> compare_window(const sim::ObservationWindow& window,
                                         const ComparisonOptions& options) {
  std::vector<NamedSeries> series;
  series.reserve(window.neighbors.size());
  for (const sim::NeighborObservation& n : window.neighbors) {
    series.emplace_back(n.id, n.rssi);
  }
  return compare_series(series, options);
}

}  // namespace vp::core
