#include "sim/replay_source.h"

#include <algorithm>

#include "common/rng.h"
#include "sim/rssi_log.h"
#include "sim/world.h"

namespace vp::sim {

namespace {

// One identity's beacons heard by one observer over [0, duration):
// nominal 1/rate spacing with MAC-ish jitter, values an AR(1) shadowing
// walk around a mean level. The seed derivation is part of the replay
// contract: changing it changes every synthetic workload, in
// vp_ingest_client and in the service and wire tests alike.
void synthesize_identity(std::uint64_t observer, IdentityId id,
                         double rate_hz, double duration_s,
                         std::vector<FleetBeacon>& out) {
  Rng rng(mix64(mix64(0xf1ee7, observer), id));
  const double period = 1.0 / rate_hz;
  double shadow = 0.0;
  const double level = -60.0 - rng.uniform(0.0, 25.0);
  const double phase = rng.uniform(0.0, period);
  for (double t = phase; t < duration_s; t += period) {
    shadow = 0.9 * shadow + rng.normal(0.0, 1.5);
    const double jitter = rng.uniform(0.0, 0.2 * period);
    out.push_back(
        {t + jitter, observer, id, level + shadow + rng.normal(0.0, 0.5)});
  }
}

}  // namespace

void sort_fleet(std::vector<FleetBeacon>& fleet) {
  std::sort(fleet.begin(), fleet.end(),
            [](const FleetBeacon& a, const FleetBeacon& b) {
              if (a.time_s != b.time_s) return a.time_s < b.time_s;
              if (a.observer != b.observer) return a.observer < b.observer;
              return a.id < b.id;
            });
}

std::vector<FleetBeacon> replay_from_world(
    const World& world, const std::vector<NodeId>& observers,
    double horizon_s, std::size_t min_samples) {
  std::vector<FleetBeacon> fleet;
  for (NodeId observer : observers) {
    const RssiLog& log = world.node(observer).log();
    for (IdentityId id :
         log.identities_heard(0.0, horizon_s, min_samples)) {
      for (const BeaconRecord& r : log.records(id, 0.0, horizon_s)) {
        fleet.push_back({r.time_s, observer, id, r.rssi_dbm});
      }
    }
  }
  sort_fleet(fleet);
  return fleet;
}

std::vector<FleetBeacon> synthesize_fleet(std::size_t observers,
                                          std::size_t identities,
                                          double rate_hz, double duration_s) {
  std::vector<FleetBeacon> fleet;
  fleet.reserve(static_cast<std::size_t>(static_cast<double>(observers) *
                                         static_cast<double>(identities) *
                                         rate_hz * duration_s) +
                observers * identities);
  for (std::size_t s = 0; s < observers; ++s) {
    for (std::size_t i = 0; i < identities; ++i) {
      synthesize_identity(static_cast<std::uint64_t>(s + 1),
                          static_cast<IdentityId>(i + 1), rate_hz, duration_s,
                          fleet);
    }
  }
  sort_fleet(fleet);
  return fleet;
}

}  // namespace vp::sim
