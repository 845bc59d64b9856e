// Versioned checkpoint/restore for stream::StreamEngine (DESIGN.md §10).
//
// An OBU that reboots mid-drive must resume detection without losing its
// 20 s observation window. EngineCheckpoint is the engine's complete
// detection-relevant state — every identity's ring and last-heard time,
// the round schedule, the admission-rate bucket and the Stats counters —
// captured at a beacon boundary by StreamEngine::checkpoint() and
// restored by the StreamEngine(config, checkpoint) constructor.
//
// Restore-parity invariant: an engine checkpointed after any beacon and
// restored with the same configuration emits bit-identical rounds
// (suspect sets AND pair distances) to the uninterrupted engine, at
// every thread count. Enforced by tests/test_checkpoint.cpp over highway
// and field-test traces.
//
// Image format "VPCK", version 3, framed as every checkpoint image is
// (common/binio.h): after the header come config_hash, the round and
// admission fields, the Stats counters, and each identity in ascending
// id order — ring capacity, samples, Welford summary, then its
// conditioning channel. Version 2 adds next_round_id (the causal round
// counter) after the admission bucket; version 3 adds the §15
// conditioning state — the cond_* Stats counters after `rounds` and, per
// identity, the Hampel window ring (oldest first) plus the EMA register
// — so a conditioned engine killed mid-filter restores bit-identically.
// Version-1/2 images still decode: next_round_id defaults to stats.rounds
// on v1 (exact when every prepared round also executed, best-effort under
// deferred-round shedding) and the conditioning state defaults to empty
// on v1/v2 — correct, because those versions could only have been
// written by unconditioned engines. Beyond the framing, decode_checkpoint
// rejects trailing bytes and structurally invalid contents (unsorted ring
// times, rings over capacity, ids out of order) with a one-line reason.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "stream/beacon_buffer.h"
#include "stream/engine.h"

namespace vp::stream {

// One tracked identity's state.
struct IdentityCheckpoint {
  IdentityId id = 0;
  double last_heard_s = 0.0;  // survives the ring ageing empty
  BeaconBuffer::Snapshot ring;
  // §15 conditioning channel (VPCK v3): the Hampel window oldest-first
  // and the EMA register. Empty/false for unconditioned engines and for
  // v1/v2 blobs.
  std::vector<std::int32_t> cond_window;
  std::int32_t cond_ema_q12 = 0;
  bool cond_ema_init = false;
  std::uint32_t cond_reject_streak = 0;
};

struct EngineCheckpoint {
  // Guards restore against a mismatched engine configuration; filled by
  // StreamEngine::checkpoint() with engine_config_hash(config).
  std::uint64_t config_hash = 0;
  // Round schedule and admission bookkeeping.
  double next_round_s = 0.0;
  double last_round_time_s = -1.0;
  std::int64_t bucket_second = 0;
  std::uint64_t bucket_accepted = 0;
  // Causal id of the next prepared round (engine next_round_id()); keeps
  // telemetry round ids and trace joins continuous across a restore.
  std::uint64_t next_round_id = 0;
  StreamEngine::Stats stats;
  std::vector<IdentityCheckpoint> identities;  // ascending id
};

// Hash of the engine-level configuration a checkpoint depends on: window
// geometry, bounded-memory knobs, the validation contract, and the
// detector scalars the engine itself owns (threshold boundary, density
// override, vote count). Deliberately excludes execution knobs —
// comparison threads — so a checkpoint restores across thread counts,
// which never change results.
std::uint64_t engine_config_hash(const StreamEngineConfig& config);

// Serialises to the version-3 image described above.
std::vector<std::uint8_t> encode_checkpoint(const EngineCheckpoint& checkpoint);

// Parses and validates; returns false with a one-line reason in `error`
// (if non-null) on any malformation. `out` is only modified on success.
bool decode_checkpoint(std::span<const std::uint8_t> bytes,
                       EngineCheckpoint* out, std::string* error);

}  // namespace vp::stream
