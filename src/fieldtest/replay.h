// Field-test replay (Section VI-B): runs the embedded Voiceprint
// application over a generated four-vehicle run exactly as the paper's
// OBUs did — one detection per detection period (1 min), each using the
// trailing 20 s observation window and the constant threshold — and
// produces the Fig. 13 distance-vs-threshold records plus the Fig. 14
// style post-analysis of any false positive (was everybody stationary?).
#pragma once

#include <map>
#include <vector>

#include "core/detector.h"
#include "fieldtest/scenario3.h"

namespace vp::ft {

struct PairRecord {
  IdentityId a = kInvalidIdentity;
  IdentityId b = kInvalidIdentity;
  double distance = 0.0;  // normalised DTW distance (reference sweep)
  bool sybil_pair = false;  // ground truth: same physical radio
  bool flagged = false;     // the detector's verdict: distance <= threshold
};

struct FieldDetection {
  double time_s = 0.0;
  NodeId observer = kInvalidNode;
  double threshold = 0.0;
  std::vector<PairRecord> pairs;
  std::vector<IdentityId> flagged;  // union of flagged pairs
  std::size_t attack_identities_heard = 0;
  std::size_t attack_identities_flagged = 0;
  std::size_t normal_identities_heard = 0;
  std::size_t normal_identities_flagged = 0;

  bool complete_detection() const {
    return attack_identities_heard > 0 &&
           attack_identities_flagged == attack_identities_heard;
  }
  bool has_false_positive() const { return normal_identities_flagged > 0; }
};

struct FalsePositiveAnalysis {
  double time_s = 0.0;
  NodeId observer = kInvalidNode;
  IdentityId victim = kInvalidIdentity;
  bool all_stationary = false;  // Fig. 14: everyone waiting at the light?
  double dist_attacker_victim_m = 0.0;
  double dist_observer_attacker_m = 0.0;
};

struct FieldReplayResult {
  std::vector<FieldDetection> detections;
  double detection_rate = 0.0;        // Eq. 12 over identities
  double false_positive_rate = 0.0;   // Eq. 13 over identities
  std::size_t detection_count = 0;    // periods evaluated
  std::vector<FalsePositiveAnalysis> false_positives;
};

struct ReplayOptions {
  // Observers to evaluate; empty → node 3 only (the paper reports node 3).
  std::vector<NodeId> observers{};
  std::size_t min_samples = 4;
  core::ComparisonOptions comparison{};
};

FieldReplayResult replay_field_test(const FieldTestData& data,
                                    const ReplayOptions& options = {});

}  // namespace vp::ft
