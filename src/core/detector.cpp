#include "core/detector.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/error.h"
#include "obs/runtime.h"
#include "obs/timer.h"

namespace vp::core {

VoiceprintOptions tuned_simulation_options(std::size_t threads) {
  VoiceprintOptions options;
  options.boundary = {.k = 0.0, .b = 0.0125};
  options.min_pair_votes = 2;
  options.comparison.threads = threads;
  return options;
}

VoiceprintOptions with_run_flags(VoiceprintOptions options,
                                 const RunFlags& /*flags*/) {
  return options;
}

VoiceprintDetector::VoiceprintDetector(VoiceprintOptions options)
    : options_(options) {}

std::vector<IdentityId> VoiceprintDetector::detect_series(
    std::span<const NamedSeries> series, double density_per_km) {
  const bool instrumented = obs::enabled();
  obs::ScopedTimer total_timer =
      instrumented
          ? obs::ScopedTimer(&obs::registry().histogram("detect.total_ns"),
                             obs::trace(), {.phase = "detect"})
          : obs::ScopedTimer();

  // The decision threshold only depends on the density, so it is known
  // before any distance is measured — which is exactly what lets the
  // cascade classify pairs from bounds without computing their distances.
  const double density =
      options_.fixed_density_per_km.value_or(density_per_km);
  last_threshold_ = options_.boundary.threshold_at(density);
  last_all_ =
      compare_series_pruned(series, options_.comparison, last_threshold_);
  last_flagged_.clear();

  // Threshold-and-vote is the per-period decision step that the paper's
  // multi-period confirmation (Section VI) builds on.
  obs::ScopedTimer confirm_timer =
      instrumented
          ? obs::ScopedTimer(
                &obs::registry().histogram("detect.confirmation_ns"),
                obs::trace(),
                {.phase = "detect.confirmation",
                 .pairs = static_cast<std::int64_t>(last_all_.size())})
          : obs::ScopedTimer();

  std::map<IdentityId, std::size_t> votes;
  for (const PairDistance& pair : last_all_) {
    if (!pair.comparable || !pair.flagged) continue;
    last_flagged_.push_back(pair);
    ++votes[pair.a];
    ++votes[pair.b];
  }
  // With only two identities in earshot no clique evidence can exist; fall
  // back to Algorithm 1's single-pair rule.
  const std::size_t required =
      series.size() >= 3 ? std::max<std::size_t>(options_.min_pair_votes, 1)
                         : 1;
  std::set<IdentityId> suspects;
  for (const auto& [id, count] : votes) {
    if (count >= required) suspects.insert(id);
  }
  confirm_timer.stop();

  if (instrumented) {
    obs::MetricsRegistry& registry = obs::registry();
    registry.counter("detect.calls").add(1);
    registry.counter("detect.pairs_flagged").add(last_flagged_.size());
    registry.counter("detect.suspects_flagged").add(suspects.size());
    registry
        .histogram("detect.suspects_per_call",
                   obs::Histogram::default_count_bounds())
        .record(static_cast<double>(suspects.size()));
  }
  return {suspects.begin(), suspects.end()};
}

std::vector<IdentityId> VoiceprintDetector::detect_window(
    const sim::ObservationWindow& window) {
  std::vector<NamedSeries> series;
  series.reserve(window.neighbors.size());
  for (const sim::NeighborObservation& n : window.neighbors) {
    series.emplace_back(n.id, n.rssi);
  }
  return detect_series(series, window.estimated_density_per_km);
}

std::vector<IdentityId> VoiceprintDetector::detect(
    const sim::ObservationWindow& window, const sim::World& /*world*/) {
  return detect_window(window);
}

}  // namespace vp::core
