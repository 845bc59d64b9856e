// Fig. 10 — the optimal decision boundary determined by LDA.
//
// As in Section V-B-2: several simulation runs per traffic density, all
// pairwise (density, normalised DTW distance) points labelled with ground
// truth, then LDA fits the divider line D' = k·den + b. The paper's own
// training produced k = 0.00054, b = 0.0483.
#include <iostream>
#include <sstream>
#include <vector>

#include "common/cli.h"
#include "common/csv.h"
#include "common/table.h"
#include "core/detector.h"
#include "core/threshold.h"
#include "ml/lda.h"
#include "ml/metrics.h"
#include "sim/world.h"

namespace {

std::vector<double> parse_densities(const std::string& text) {
  std::vector<double> out;
  std::istringstream is(text);
  std::string token;
  while (std::getline(is, token, ',')) out.push_back(std::stod(token));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vp;
  const CliArgs args(argc, argv);
  const std::uint64_t seed = args.get_seed("seed", 10);
  const auto runs = static_cast<std::size_t>(args.get_int("runs", 2));
  const std::vector<double> densities =
      parse_densities(args.get("densities", "10,30,50,70,90"));
  const auto observers = static_cast<std::size_t>(args.get_int("observers", 8));

  std::cout << "Fig. 10 reproduction — LDA decision boundary on the "
               "density-DTW plane\n"
            << "densities:";
  for (double d : densities) std::cout << " " << d;
  std::cout << "  runs/density: " << runs << "  observers/run: " << observers
            << "  seed: " << seed << "\n\n";

  ml::Dataset data;
  std::vector<core::LabeledWindow> windows;
  for (double density : densities) {
    for (std::size_t run = 0; run < runs; ++run) {
      sim::ScenarioConfig config;
      config.density_per_km = density;
      config.seed = mix64(seed, static_cast<std::uint64_t>(
                                    density * 1000.0 + run));
      sim::World world(config);
      world.run();
      core::TrainingOptions options;
      options.max_observers = observers;
      core::collect_training_points(world, options, data);
      core::collect_labeled_windows(world, options, windows);
      std::cout << "  density " << density << " run " << run + 1 << ": "
                << data.size() << " labelled pairs so far\n";
    }
  }

  std::size_t sybil = 0;
  for (const auto& p : data) sybil += p.sybil_pair ? 1 : 0;
  std::cout << "\ntraining points: " << data.size() << " (" << sybil
            << " Sybil pairs, " << data.size() - sybil << " others)\n";

  const ml::LdaModel model = ml::Lda::fit(data, 0.05);
  const ml::Confusion confusion = ml::evaluate(model.boundary, data);

  Table table({"quantity", "this run", "paper"});
  table.add_row({"slope k", Table::num(model.boundary.k, 6), "0.00054"});
  table.add_row({"intercept b", Table::num(model.boundary.b, 4), "0.0483"});
  table.add_row({"training DR", Table::num(confusion.detection_rate(), 4),
                 "(not reported)"});
  table.add_row({"training FPR",
                 Table::num(confusion.false_positive_rate(), 4),
                 "(not reported)"});
  table.add_row({"AUC (distance ranking)",
                 Table::num(ml::auc_lower_is_positive(data), 4),
                 "(not reported)"});
  table.print(std::cout);

  // The paper evaluates per identity (Eq. 10–13), and Algorithm 1 unions
  // flagged pairs into identities — so the boundary the library actually
  // ships is selected on identity-level rates (see core/threshold.h).
  const core::TunedBoundary tuned = core::tune_boundary(windows);
  // The shipped boundary, scored on the same windows: the tuner's pick and
  // the shipped line can differ once the training data move.
  const core::VoiceprintOptions shipped_options =
      core::tuned_simulation_options();
  const core::TunedBoundary shipped = core::evaluate_boundary(
      shipped_options.boundary, windows, shipped_options.min_pair_votes);
  std::cout << "\nidentity-level tuned boundary vs the shipped default "
               "(tuned_simulation_options()):\n";
  Table tuned_table({"quantity", "this run", "shipped default"});
  tuned_table.add_row({"slope k", Table::num(tuned.boundary.k, 6),
                       Table::num(shipped.boundary.k, 6)});
  tuned_table.add_row({"intercept b", Table::num(tuned.boundary.b, 4),
                       Table::num(shipped.boundary.b, 4)});
  tuned_table.add_row({"pair votes", std::to_string(tuned.votes),
                       std::to_string(shipped.votes)});
  tuned_table.add_row({"identity-level DR", Table::num(tuned.train_dr, 4),
                       Table::num(shipped.train_dr, 4)});
  tuned_table.add_row({"identity-level FPR", Table::num(tuned.train_fpr, 4),
                       Table::num(shipped.train_fpr, 4)});
  tuned_table.print(std::cout);

  const std::string csv_path = "fig10_training_points.csv";
  CsvWriter csv(csv_path, {"density", "distance", "sybil_pair"});
  for (const auto& p : data) {
    csv.write_row(std::vector<double>{p.density, p.distance,
                                      p.sybil_pair ? 1.0 : 0.0});
  }
  std::cout << "\nscatter data written to " << csv_path
            << " (red dots = sybil_pair=1, blue circles = 0 in the paper's "
               "plot)\n"
            << "Expected shape: Sybil pairs hug D'~0 at every density; the "
               "LDA line has a small positive slope and intercept.\n";
  return 0;
}
