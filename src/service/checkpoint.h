// Versioned checkpoint/restore for service::DetectionService
// (DESIGN.md §10).
//
// A ServiceCheckpoint is the fleet-level analogue of
// stream::EngineCheckpoint: the service Stats, the service clock, and one
// engine checkpoint per live session, taken by
// DetectionService::checkpoint() (queue must be drained — pump() first)
// and restored by the DetectionService(config, checkpoint) constructor.
// Sessions land back on their shards via the same hash the live service
// uses, so the restored fleet's delivery order and results are
// bit-identical to the uninterrupted one at every shard/thread count
// (tests/test_checkpoint.cpp kill/restore parity).
//
// Image format "VPSC", version 2, framed as every checkpoint image is
// (common/binio.h): after the header come config_hash, the service
// clock, the Stats counters, and each session in ascending id order —
// its id, last-offered time, and its engine checkpoint as a
// length-prefixed, complete VPCK image (stream/checkpoint.h owns that
// version). Version 2 adds beacons_shed_conditioned (§15) after
// beacons_shed_invalid; version-1 images still decode with it zero, as
// only unconditioned services could have written them.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "service/service.h"
#include "stream/checkpoint.h"

namespace vp::service {

struct SessionCheckpoint {
  SessionId id = 0;
  double last_offered_s = 0.0;
  stream::EngineCheckpoint engine;
};

struct ServiceCheckpoint {
  std::uint64_t config_hash = 0;  // service_config_hash(config)
  double service_time = 0.0;
  DetectionService::Stats stats;
  std::vector<SessionCheckpoint> sessions;  // ascending session id
};

// Hash of the service configuration a checkpoint depends on: topology
// (shard count — it fixes session placement and delivery order),
// admission caps, and the per-session engine hash. Excludes `threads`
// (results-neutral) so a checkpoint restores across pool widths.
std::uint64_t service_config_hash(const ServiceConfig& config);

std::vector<std::uint8_t> encode_checkpoint(const ServiceCheckpoint& checkpoint);
bool decode_checkpoint(std::span<const std::uint8_t> bytes,
                       ServiceCheckpoint* out, std::string* error);

}  // namespace vp::service
