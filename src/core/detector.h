// The Voiceprint detector — Algorithm 1 of the paper, end to end:
// Z-score the RSSI series heard in the observation window, measure all
// pairwise DTW distances (exact, Sakoe–Chiba band 2, where the paper uses
// FastDTW), min–max normalise them, and flag every pair
// whose distance falls at or under the density-dependent threshold
// k·den + b. The union of flagged pairs' identities is the suspect set.
// The threshold is known before any distance is measured, so the sweep is
// the lower-bound cascade (compare_series_pruned): it settles most pairs
// from bounds and returns exactly the reference sweep's verdicts.
//
// Voiceprint is *independent* (uses only the local observation window) and
// *model-free* (never evaluates a propagation model).
#pragma once

#include <optional>

#include "common/cli.h"
#include "core/comparison.h"
#include "ml/linear_boundary.h"
#include "sim/detector.h"

namespace vp::core {

struct VoiceprintOptions {
  ml::LinearBoundary boundary{.k = 0.00054, .b = 0.0483};  // Fig. 10 values
  ComparisonOptions comparison{};
  // When set, overrides the window's density estimate (the field test uses
  // a constant 4 vhls/km for its four-vehicle fleet).
  std::optional<double> fixed_density_per_km;
  // How many flagged pairs an identity must appear in before it becomes a
  // suspect. Algorithm 1 uses 1 (any flagged pair condemns both ends). A
  // Sybil group of n+1 identities forms a clique of similar pairs, so each
  // member collects n votes, while a normal vehicle that merely platoons
  // with one neighbour collects a single coincidental vote — requiring 2
  // suppresses exactly that false positive class. Only meaningful when at
  // least 3 identities are heard; with fewer, 1 is used.
  std::size_t min_pair_votes = 1;
};

// Options tuned on THIS repository's simulator via the Fig. 10 pipeline
// (collect_labeled_windows + tune_boundary over densities 15/45/75, FPR
// budget 5%) — the analogue of the paper's trained (k = 0.00054,
// b = 0.0483) on its NS-2 setup. Use these for simulation experiments;
// retrain with bench/fig10_lda_training when the scenario changes.
// `threads` feeds ComparisonOptions::threads (the pairwise DTW sweep;
// 1 = serial, 0 = all hardware threads) and never changes the results.
VoiceprintOptions tuned_simulation_options(std::size_t threads = 1);

// Returns `options` unchanged. Kept only for pipebench/pipeline.cpp,
// which calls it with a default RunFlags; new code should not call it.
VoiceprintOptions with_run_flags(VoiceprintOptions options,
                                 const RunFlags& flags);

class VoiceprintDetector final : public sim::Detector {
 public:
  explicit VoiceprintDetector(VoiceprintOptions options = {});

  // Pure, simulation-independent form of Algorithm 1: series in, suspect
  // identities out. Also records the per-pair distances retrievable via
  // last_all_pairs()/last_flagged_pairs().
  std::vector<IdentityId> detect_series(std::span<const NamedSeries> series,
                                        double density_per_km);

  // Convenience overload for an observation window (density from Eq. 9
  // unless overridden by options).
  std::vector<IdentityId> detect_window(const sim::ObservationWindow& window);

  // sim::Detector interface; `world` is deliberately unused (independent
  // detection).
  std::vector<IdentityId> detect(const sim::ObservationWindow& window,
                                 const sim::World& world) override;

  std::string_view name() const override { return "Voiceprint"; }
  const VoiceprintOptions& options() const { return options_; }

  // Per-pair results of the last detect_* call, from the lower-bound
  // cascade (compare_series_pruned): `comparable` and `flagged` are exact,
  // but a pair decided from bounds carries its proving bound in
  // `raw`/`normalized`, not its distance. Output that prints distances
  // (the Fig. 13 replay, the examples) takes them from compare_series.
  const std::vector<PairDistance>& last_flagged_pairs() const {
    return last_flagged_;
  }
  const std::vector<PairDistance>& last_all_pairs() const {
    return last_all_;
  }
  double last_threshold() const { return last_threshold_; }

 private:
  VoiceprintOptions options_;
  std::vector<PairDistance> last_flagged_;
  std::vector<PairDistance> last_all_;
  double last_threshold_ = 0.0;
};

}  // namespace vp::core
