// Fig. 9 — the paper's worked DTW example:
//   X = {1, 1, 4, 1, 1}, Y = {2, 2, 2, 4, 2, 2}
// Prints the local-cost matrix, the accumulated-cost matrix, the optimal
// warp path and the resulting distance, plus the FastDTW result for the
// same pair. (The figure annotates the total as 9; the DP optimum under
// the paper's own Eq. 3/4 is 5 — see EXPERIMENTS.md.)
#include <iostream>
#include <vector>

#include "common/table.h"
#include "timeseries/dtw.h"
#include "timeseries/fast_dtw.h"

int main() {
  using namespace vp;
  const std::vector<double> x = {1, 1, 4, 1, 1};
  const std::vector<double> y = {2, 2, 2, 4, 2, 2};

  std::cout << "Fig. 9 worked example: X={1,1,4,1,1}, Y={2,2,2,4,2,2}\n\n";

  // Local cost matrix c(i,j) = (x_i − y_j)² (Eq. 3).
  {
    std::vector<std::string> headers = {"c(i,j)"};
    for (std::size_t j = 0; j < y.size(); ++j) {
      std::string header = "y";
      header += std::to_string(j + 1);
      header += "=";
      header += Table::num(y[j], 0);
      headers.push_back(header);
    }
    Table table(headers);
    for (std::size_t i = 0; i < x.size(); ++i) {
      std::string label = "x";
      label += std::to_string(i + 1);
      label += "=";
      label += Table::num(x[i], 0);
      std::vector<std::string> row = {label};
      for (std::size_t j = 0; j < y.size(); ++j) {
        row.push_back(Table::num(ts::local_cost(x[i], y[j],
                                                ts::LocalCost::kSquared),
                                 0));
      }
      table.add_row(row);
    }
    std::cout << "Local cost matrix (Eq. 3):\n" << table.to_string() << "\n";
  }

  const ts::DtwResult exact = ts::dtw(x, y);
  std::cout << "Optimal DTW distance (Eq. 6): " << exact.distance
            << "   [paper's figure annotates 9; the DP optimum is 5]\n";
  std::cout << "Optimal warp path (1-based, as in the paper):\n  ";
  for (const ts::WarpStep& step : exact.path) {
    std::cout << "(" << step.i + 1 << "," << step.j + 1 << ") ";
  }
  std::cout << "\npath valid: " << std::boolalpha
            << ts::is_valid_warp_path(exact.path, x.size(), y.size())
            << "\n\n";

  const ts::DtwResult fast = ts::fast_dtw(x, y, {.radius = 1});
  std::cout << "FastDTW (radius 1) distance: " << fast.distance
            << "  (series this short fall back to exact DTW)\n";
  return 0;
}
