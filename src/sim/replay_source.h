// Shared fleet replay streams (DESIGN.md §14).
//
// Several drivers feed multi-observer beacon sequences into the
// detection stack: examples/fleet_detection (simulated world), the wire
// replay client tools/vp_ingest_client (synthetic load), and the service
// and wire unit tests (both). They must feed *identical* sequences for
// their results to be comparable, so the replay construction lives here
// once: a FleetBeacon stream in arrival order — every observer's
// receptions merged and keyed (time, observer, identity), the
// interleaving a shared ingestion front-end would see.
#pragma once

#include <cstdint>
#include <vector>

#include "common/ids.h"

namespace vp::sim {

class World;

// One reception: `observer` heard `id` at `time_s`. The observer id
// doubles as the service session id and the wire observer id, so the
// same stream drives every ingestion path.
struct FleetBeacon {
  double time_s = 0.0;
  std::uint64_t observer = 0;
  IdentityId id = 0;
  double rssi_dbm = 0.0;
};

// Canonical arrival order: (time, observer, identity). Total because no
// observer logs two receptions of one identity at the same instant.
void sort_fleet(std::vector<FleetBeacon>& fleet);

// Every listed observer's RSSI log over [0, horizon_s), merged into one
// sorted stream. min_samples is forwarded to RssiLog::identities_heard
// (1 = every identity with any reception).
std::vector<FleetBeacon> replay_from_world(
    const World& world, const std::vector<NodeId>& observers,
    double horizon_s, std::size_t min_samples = 1);

// Synthetic fleet for replay load and shedding tests: `observers`
// sessions (ids 1..n) each hearing `identities` identities (ids 1..m) at
// nominal rate_hz over [0, duration_s), with MAC-ish jitter and AR(1)
// shadowing around a per-identity mean level. Deterministic: the RNG
// stream is seeded per (observer, identity), so every caller gets
// bit-identical beacons.
std::vector<FleetBeacon> synthesize_fleet(std::size_t observers,
                                          std::size_t identities,
                                          double rate_hz, double duration_s);

}  // namespace vp::sim
