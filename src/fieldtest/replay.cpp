#include "fieldtest/replay.h"

#include <algorithm>
#include <set>

#include "common/error.h"
#include "core/threshold.h"

namespace vp::ft {

FieldReplayResult replay_field_test(const FieldTestData& data,
                                    const ReplayOptions& options) {
  std::vector<NodeId> observers = options.observers;
  if (observers.empty()) observers = {kNormalNode3};

  core::VoiceprintOptions vp_options;
  vp_options.comparison = options.comparison;
  vp_options.boundary =
      core::constant_boundary(data.config.constant_threshold);
  core::VoiceprintDetector detector(vp_options);

  FieldReplayResult result;
  double dr_sum = 0.0;
  std::size_t dr_n = 0;
  double fpr_sum = 0.0;
  std::size_t fpr_n = 0;

  for (NodeId observer : observers) {
    const auto log_it = data.logs.find(observer);
    VP_REQUIRE(log_it != data.logs.end());
    const sim::RssiLog& log = log_it->second;

    for (double t1 : data.detection_times) {
      const double t0 = t1 - data.config.observation_time_s;

      std::vector<core::NamedSeries> series;
      for (IdentityId id :
           log.identities_heard(t0, t1, options.min_samples)) {
        series.emplace_back(id, log.rssi_series(id, t0, t1));
      }
      if (series.size() < 2) continue;

      const std::vector<IdentityId> flagged =
          detector.detect_series(series, /*density_per_km=*/4.0);
      const std::set<IdentityId> flagged_set(flagged.begin(), flagged.end());

      FieldDetection detection;
      detection.time_s = t1;
      detection.observer = observer;
      detection.threshold = detector.last_threshold();
      // Verdicts come from the detector. Its cascade carries bounds for the
      // pairs it decided early, so the distances Fig. 13 plots come from
      // the reference sweep over the same series.
      const std::vector<core::PairDistance>& verdicts =
          detector.last_all_pairs();
      const std::vector<core::PairDistance> measured =
          core::compare_series(series, vp_options.comparison);
      VP_ENSURE(measured.size() == verdicts.size());
      for (std::size_t i = 0; i < verdicts.size(); ++i) {
        const core::PairDistance& pair = verdicts[i];
        const bool same_radio = FieldTestData::identity_owner(pair.a) ==
                                FieldTestData::identity_owner(pair.b);
        detection.pairs.push_back({.a = pair.a,
                                   .b = pair.b,
                                   .distance = measured[i].normalized,
                                   .sybil_pair = same_radio,
                                   .flagged = pair.flagged});
      }
      detection.flagged = flagged;
      for (const auto& [id, s] : series) {
        const bool attack = FieldTestData::identity_is_attack(id);
        const bool hit = flagged_set.count(id) != 0;
        if (attack) {
          ++detection.attack_identities_heard;
          if (hit) ++detection.attack_identities_flagged;
        } else {
          ++detection.normal_identities_heard;
          if (hit) {
            ++detection.normal_identities_flagged;
            // Fig. 14 style analysis of the false alarm.
            FalsePositiveAnalysis fp;
            fp.time_s = t1;
            fp.observer = observer;
            fp.victim = id;
            bool stationary = true;
            for (NodeId n : FieldTestData::physical_nodes()) {
              if (!data.traces.at(n).is_stationary(t0, t1, 0.5)) {
                stationary = false;
                break;
              }
            }
            fp.all_stationary = stationary;
            fp.dist_attacker_victim_m =
                mob::distance(data.traces.at(kMaliciousNode).position_at(t1),
                              data.traces.at(static_cast<NodeId>(id))
                                  .position_at(t1));
            fp.dist_observer_attacker_m =
                mob::distance(data.traces.at(observer).position_at(t1),
                              data.traces.at(kMaliciousNode).position_at(t1));
            result.false_positives.push_back(fp);
          }
        }
      }

      if (detection.attack_identities_heard > 0) {
        dr_sum += static_cast<double>(detection.attack_identities_flagged) /
                  static_cast<double>(detection.attack_identities_heard);
        ++dr_n;
      }
      if (detection.normal_identities_heard > 0) {
        fpr_sum += static_cast<double>(detection.normal_identities_flagged) /
                   static_cast<double>(detection.normal_identities_heard);
        ++fpr_n;
      }
      ++result.detection_count;
      result.detections.push_back(std::move(detection));
    }
  }

  result.detection_rate = dr_n == 0 ? 0.0 : dr_sum / static_cast<double>(dr_n);
  result.false_positive_rate =
      fpr_n == 0 ? 0.0 : fpr_sum / static_cast<double>(fpr_n);
  return result;
}

}  // namespace vp::ft
