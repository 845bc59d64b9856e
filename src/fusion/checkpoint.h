// Versioned checkpoint/restore for fusion::FusionEngine (DESIGN.md §13).
//
// A FusionCheckpoint captures everything the engine needs to resume
// mid-epoch: the stream-clock watermark, the closed-epoch frontier, the
// Stats, both trust stores (identity and observer scores, ascending id),
// and every open epoch's buffered votes. Taken by
// FusionEngine::checkpoint() — callable at any instant, no quiescence
// required — and restored by the FusionEngine(config, checkpoint)
// constructor, after which the restored engine's fused verdicts and trust
// trajectories are bit-identical to the uninterrupted run
// (tests/test_fusion.cpp kill/restore parity).
//
// Image format "VPFU", version 1, framed as every checkpoint image is
// (common/binio.h): after the header come config_hash, the watermark,
// the closed-epoch frontier, the Stats counters, the identity and then
// the observer trust store (each as a count and (id, score) pairs in
// ascending id), and each open epoch in ascending index with its votes
// in (identity, observer) order. Beyond the framing, decode rejects ids
// out of order, an open epoch behind the closed frontier and trailing
// bytes with a one-line reason.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "fusion/engine.h"

namespace vp::fusion {

// One buffered vote: (identity, observer) within an open epoch.
struct VoteCheckpoint {
  std::uint64_t identity = 0;
  std::uint64_t observer = 0;
  bool accused = false;
  double density_per_km = 0.0;
  double time_s = 0.0;
};

// One open (not yet closed) epoch. Votes are ordered (identity, observer)
// ascending — the engine's own map order.
struct EpochCheckpoint {
  std::int64_t index = 0;
  std::uint64_t rounds = 0;
  std::uint64_t max_round_id = 0;
  std::vector<VoteCheckpoint> votes;
};

struct FusionCheckpoint {
  std::uint64_t config_hash = 0;  // fusion_config_hash(config)
  double watermark = 0.0;
  std::int64_t closed_before = 0;
  FusionEngine::Stats stats;
  std::map<std::uint64_t, double> identity_trust;
  std::map<std::uint64_t, double> observer_trust;
  std::vector<EpochCheckpoint> epochs;  // ascending epoch index
};

// Hash of every FusionConfig field verdicts depend on — all of them; the
// fusion engine has no results-neutral knobs, so a checkpoint only
// restores into an identically-configured engine.
std::uint64_t fusion_config_hash(const FusionConfig& config);

std::vector<std::uint8_t> encode_checkpoint(const FusionCheckpoint& checkpoint);
bool decode_checkpoint(std::span<const std::uint8_t> bytes,
                       FusionCheckpoint* out, std::string* error);

}  // namespace vp::fusion
