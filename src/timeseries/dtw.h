// Dynamic Time Warping (Section IV-B of the paper).
//
// DTW aligns two series of possibly different lengths by warping them in
// the temporal domain: it fills an N×M cost matrix with local costs
// c(i,j) (Eq. 3), accumulates D(i,j) = c(i,j) + min(D(i−1,j), D(i,j−1),
// D(i−1,j−1)) (Eq. 4), and reports D(N,M) (Eq. 6) together with the optimal
// warp path (Eq. 5 constraints: boundary, monotonicity, continuity).
//
// The windowed variant restricts evaluation to a per-row column band; it is
// the building block FastDTW uses to get linear-time behaviour.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace vp::ts {

// Local cost between aligned points. The paper uses the squared difference
// (Eq. 3); absolute difference is provided for the ablation benches.
enum class LocalCost { kSquared, kAbsolute };

double local_cost(double a, double b, LocalCost cost);

// One alignment step: element i of X matched to element j of Y (0-based).
struct WarpStep {
  std::size_t i = 0;
  std::size_t j = 0;
  friend bool operator==(const WarpStep&, const WarpStep&) = default;
};

struct DtwResult {
  double distance = 0.0;
  // Optimal warp path from (0,0) to (N−1,M−1), inclusive.
  std::vector<WarpStep> path;
};

// A per-row contiguous column band over an N×M alignment matrix. Rows index
// X, columns index Y. Rows not touched by include() have an empty band.
class SearchWindow {
 public:
  SearchWindow(std::size_t rows, std::size_t cols);

  // The full matrix (plain DTW's window).
  static SearchWindow full(std::size_t rows, std::size_t cols);

  // Re-dimensions the window to rows×cols with every band empty, reusing
  // the existing storage (no allocation once capacity is established).
  void reset(std::size_t rows, std::size_t cols);

  std::size_t rows() const { return lo_.size(); }
  std::size_t cols() const { return cols_; }

  // Widens row i's band to cover column j (or [jlo, jhi]).
  void include(std::size_t i, std::size_t j);
  void include_range(std::size_t i, std::size_t jlo, std::size_t jhi);

  // Expands every band by `radius` cells in both row and column directions
  // (the FastDTW neighbourhood), clamped to the matrix.
  void expand(std::size_t radius);

  bool row_empty(std::size_t i) const;
  std::size_t lo(std::size_t i) const;  // requires !row_empty(i)
  std::size_t hi(std::size_t i) const;  // inclusive

  // Total number of cells inside the window.
  std::size_t cell_count() const;

 private:
  std::size_t cols_;
  std::vector<std::size_t> lo_;
  std::vector<std::size_t> hi_;
  std::vector<bool> set_;
};

// Reusable scratch for the whole DTW family (plain, windowed, banded,
// distance-only, and FastDTW). The pairwise comparison sweep calls DTW
// thousands of times per detection round; with a workspace the cost
// matrix, parent moves, search windows, warp paths and FastDTW's
// coarsening pyramid are allocated once per worker and grow to the
// high-water mark instead of being reallocated per pair.
//
// Ownership rules: a workspace is owned by exactly one thread at a time
// (one workspace per pool worker); the workspace-taking entry points below
// may use any buffer in it, so never share one workspace between
// concurrently running calls. Every buffer is fully (re)initialised by the
// call that uses it, so results are bit-identical to the workspace-free
// entry points — those are thin wrappers that run on a fresh workspace.
//
// The members are internal scratch for the functions of this header and
// fast_dtw.h; treat them as opaque.
struct DtwWorkspace {
  // Instrumentation accumulated across every DP solve run on this
  // workspace. Plain fields, always on: a workspace is owned by one
  // thread at a time, and the counters cost three integer ops per solve.
  // dp_solves − grows is the number of solves fully served from recycled
  // capacity ("workspace reuse hits" in the run report).
  struct Stats {
    std::uint64_t dp_solves = 0;  // windowed/banded/full + distance solves
    std::uint64_t cells = 0;      // DP cells expanded across all solves
    std::uint64_t grows = 0;      // solves that had to grow the DP buffer
  };

  DtwWorkspace() = default;
  DtwWorkspace(const DtwWorkspace&) = delete;
  DtwWorkspace& operator=(const DtwWorkspace&) = delete;
  DtwWorkspace(DtwWorkspace&&) = default;
  DtwWorkspace& operator=(DtwWorkspace&&) = default;

  // dtw_distance rolling rows.
  std::vector<double> prev, curr;
  // dtw_windowed row-sliced DP storage, flattened over the window cells.
  std::vector<double> dp;
  std::vector<unsigned char> parent;
  std::vector<std::size_t> row_offset;
  // FastDTW coarsening pyramid (level k holds the series coarsened k+1
  // times); the outer vectors only ever grow so inner capacity survives.
  std::vector<std::vector<double>> pyramid_x, pyramid_y;
  // FastDTW per-level scratch: previous level's path and the two search
  // windows (projection+expansion, band intersection).
  std::vector<WarpStep> coarse_path;
  SearchWindow window_a{1, 1}, window_b{1, 1};
  // expand_window projection bands (per fine row, before radius growth).
  std::vector<std::size_t> proj_lo, proj_hi;
  std::vector<unsigned char> proj_set;
  // Lower-bound cascade scratch (timeseries/lower_bound.h): cached
  // Sakoe–Chiba envelopes for LB_Keogh, and the banded kernel's two rolling
  // rows — accumulated cost and path length kept as structure-of-arrays
  // pairs.
  std::vector<double> env_lo, env_hi;
  std::array<std::vector<double>, 2> row_d, row_l;

  Stats stats;
};

// Full DTW with path recovery. Requires both series non-empty.
DtwResult dtw(std::span<const double> x, std::span<const double> y,
              LocalCost cost = LocalCost::kSquared);

// Distance only, O(M) memory — used in throughput benchmarks.
double dtw_distance(std::span<const double> x, std::span<const double> y,
                    LocalCost cost = LocalCost::kSquared);

// DTW restricted to the window. Cells outside the window are unreachable.
// The window must contain (0,0) and (N−1,M−1) and admit at least one
// monotone path; otherwise InvalidArgument is thrown.
DtwResult dtw_windowed(std::span<const double> x, std::span<const double> y,
                       const SearchWindow& window,
                       LocalCost cost = LocalCost::kSquared);

// DTW constrained to a Sakoe–Chiba band of the given half-width.
DtwResult dtw_banded(std::span<const double> x, std::span<const double> y,
                     std::size_t band, LocalCost cost = LocalCost::kSquared);

// Workspace-reusing variants. Results (distance and path) are bit-identical
// to the wrappers above; `out` is cleared and refilled, reusing its path
// capacity across calls.
void dtw(std::span<const double> x, std::span<const double> y, LocalCost cost,
         DtwWorkspace& workspace, DtwResult& out);
double dtw_distance(std::span<const double> x, std::span<const double> y,
                    LocalCost cost, DtwWorkspace& workspace);
void dtw_windowed(std::span<const double> x, std::span<const double> y,
                  const SearchWindow& window, LocalCost cost,
                  DtwWorkspace& workspace, DtwResult& out);
void dtw_banded(std::span<const double> x, std::span<const double> y,
                std::size_t band, LocalCost cost, DtwWorkspace& workspace,
                DtwResult& out);

// True if `path` satisfies the boundary, monotonicity and continuity
// constraints of Eq. 5 for series of the given lengths.
bool is_valid_warp_path(std::span<const WarpStep> path, std::size_t n,
                        std::size_t m);

}  // namespace vp::ts
