// Replay-side wire helpers (DESIGN.md §14): encode a fleet's beacons
// into the VPWB byte stream one connection carries, and pump pre-encoded
// bytes through a non-blocking Connection. Used by tools/vp_ingest_client
// and tests/test_wire.cpp so both send byte-identical streams for the
// same fleet slice.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/replay_source.h"
#include "wire/frame.h"
#include "wire/transport.h"

namespace vp::wire {

struct FleetStreamOptions {
  // HEARTBEAT cadence per observer on the stream clock; 0 disables.
  // Heartbeats keep the server-side watermark moving for observers
  // whose receptions are sparse.
  double heartbeat_period_s = 1.0;
  // Stream time stamped on each observer's final CLOSE frame; use the
  // trace end so the server flushes every session's last round.
  double close_time_s = 0.0;
};

// The complete byte stream one connection sends to replay the beacons
// of `observers` (a subset of the fleet's observer ids, typically a
// round-robin slice): an OPEN per observer, the observers' beacons in
// fleet order interleaved with heartbeats, then a CLOSE per observer.
// Deterministic: same fleet + same observers + same options = same
// bytes.
std::vector<std::uint8_t> encode_fleet_stream(
    const std::vector<sim::FleetBeacon>& fleet,
    const std::vector<std::uint64_t>& observers,
    const FleetStreamOptions& options);

// Drives pre-encoded bytes through a non-blocking connection in bounded
// chunks. send_some() is the single step (returns bytes accepted; 0
// means backpressure — retry later); done() reports completion.
class StreamSender {
 public:
  StreamSender(Connection* connection, std::vector<std::uint8_t> bytes,
               std::size_t chunk_bytes = 4096);

  std::size_t send_some();
  bool done() const { return cursor_ >= bytes_.size(); }
  std::size_t remaining() const { return bytes_.size() - cursor_; }

 private:
  Connection* connection_;
  std::vector<std::uint8_t> bytes_;
  std::size_t chunk_bytes_;
  std::size_t cursor_ = 0;
};

}  // namespace vp::wire
