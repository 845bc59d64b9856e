// Test oracle for core::VoiceprintDetector: Algorithm 1 over the reference
// sweep (core::compare_series), which pays every pair's full distance
// solve. The threshold comes from the boundary at the detector's density,
// and suspects are counted the way the detector counts them (min_pair_votes,
// relaxed to 1 below three identities). The detector's lower-bound cascade
// must reproduce every pair's `comparable` and `flagged` and the suspect set
// exactly; its distances may differ (pairs decided from bounds carry the
// proving bound), so only verdicts are compared.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <vector>

#include "core/comparison.h"
#include "core/detector.h"

namespace vp::testing_oracle {

struct OracleVerdict {
  std::vector<core::PairDistance> pairs;  // `flagged` stamped
  std::vector<IdentityId> suspects;       // ascending
};

inline OracleVerdict oracle_detect(std::span<const core::NamedSeries> series,
                                   const core::VoiceprintOptions& options,
                                   double density_per_km) {
  const double threshold = options.boundary.threshold_at(
      options.fixed_density_per_km.value_or(density_per_km));
  OracleVerdict out;
  out.pairs = core::compare_series(series, options.comparison);
  std::map<IdentityId, std::size_t> votes;
  for (core::PairDistance& p : out.pairs) {
    p.flagged = p.comparable && p.normalized <= threshold;
    if (!p.flagged) continue;
    ++votes[p.a];
    ++votes[p.b];
  }
  const std::size_t required =
      series.size() >= 3 ? std::max<std::size_t>(options.min_pair_votes, 1)
                         : 1;
  for (const auto& [id, count] : votes) {
    if (count >= required) out.suspects.push_back(id);
  }
  return out;
}

inline void expect_verdicts_identical(
    const std::vector<core::PairDistance>& actual,
    const std::vector<core::PairDistance>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].a, expected[i].a);
    EXPECT_EQ(actual[i].b, expected[i].b);
    EXPECT_EQ(actual[i].comparable, expected[i].comparable) << "pair " << i;
    EXPECT_EQ(actual[i].flagged, expected[i].flagged) << "pair " << i;
  }
}

// Runs `detector` on `series` and checks it against the oracle.
inline void expect_detector_matches_oracle(
    core::VoiceprintDetector& detector,
    std::span<const core::NamedSeries> series, double density_per_km) {
  const OracleVerdict oracle =
      oracle_detect(series, detector.options(), density_per_km);
  EXPECT_EQ(detector.detect_series(series, density_per_km), oracle.suspects);
  expect_verdicts_identical(detector.last_all_pairs(), oracle.pairs);
}

}  // namespace vp::testing_oracle
