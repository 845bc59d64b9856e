#include "fusion/checkpoint.h"

#include <bit>
#include <utility>

#include "common/binio.h"
#include "common/error.h"
#include "common/rng.h"

namespace vp::fusion {

namespace {

constexpr ImageFormat kFormat{"fusion checkpoint", "VPFU", 1, 1};

using Stats = FusionEngine::Stats;
constexpr StatsField<Stats> kStatsFields[] = {
    {&Stats::rounds_delivered, 1},
    {&Stats::rounds_fused, 1},
    {&Stats::rounds_expired, 1},
    {&Stats::epochs_closed, 1},
    {&Stats::votes_cast, 1},
    {&Stats::verdicts_fused, 1},
    {&Stats::accusations_fused, 1},
};

void encode_trust(ByteWriter& w, const std::map<std::uint64_t, double>& t) {
  w.put_u64(t.size());
  for (const auto& [id, score] : t) {
    w.put_u64(id);
    w.put_f64(score);
  }
}

bool decode_trust(ByteReader& r, const char* section,
                  std::map<std::uint64_t, double>& t, std::string* error) {
  std::uint64_t count = 0;
  if (!r.get_u64(count)) {
    return fail(error, std::string("fusion checkpoint: truncated ") + section);
  }
  if (count > r.remaining() / (2 * 8)) {
    return fail(error, std::string("fusion checkpoint: ") + section +
                           " count exceeds payload");
  }
  bool first = true;
  std::uint64_t previous = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t id = 0;
    double score = 0.0;
    if (!r.get_u64(id) || !r.get_f64(score)) {
      return fail(error,
                  std::string("fusion checkpoint: truncated ") + section);
    }
    if (!first && id <= previous) {
      return fail(error, std::string("fusion checkpoint: ") + section +
                             " ids not ascending");
    }
    first = false;
    previous = id;
    t.emplace(id, score);
  }
  return true;
}

}  // namespace

std::uint64_t fusion_config_hash(const FusionConfig& config) {
  std::uint64_t h = hash64("vp.fusion.config/v1");
  h = mix64(h, std::bit_cast<std::uint64_t>(config.epoch_period_s));
  h = mix64(h, std::bit_cast<std::uint64_t>(config.watermark_lateness_s));
  h = mix64(h, std::bit_cast<std::uint64_t>(config.quorum_fraction));
  h = mix64(h, std::bit_cast<std::uint64_t>(config.exoneration_weight));
  h = mix64(h, static_cast<std::uint64_t>(config.min_corroboration));
  h = mix64(h, static_cast<std::uint64_t>(config.weight_by_trust ? 1 : 0));
  h = mix64(h, static_cast<std::uint64_t>(config.weight_by_density ? 1 : 0));
  h = mix64(h, std::bit_cast<std::uint64_t>(config.density_reference_per_km));
  h = mix64(h, std::bit_cast<std::uint64_t>(config.trust.initial));
  h = mix64(h, std::bit_cast<std::uint64_t>(config.trust.accusation_decay));
  h = mix64(h,
            std::bit_cast<std::uint64_t>(config.trust.exoneration_recovery));
  h = mix64(h, std::bit_cast<std::uint64_t>(config.trust.badmouth_penalty));
  h = mix64(h,
            std::bit_cast<std::uint64_t>(config.trust.corroboration_reward));
  h = mix64(h, std::bit_cast<std::uint64_t>(config.trust.floor));
  h = mix64(h, std::bit_cast<std::uint64_t>(config.trust.ceiling));
  return h;
}

std::vector<std::uint8_t> encode_checkpoint(
    const FusionCheckpoint& checkpoint) {
  std::vector<std::uint8_t> bytes;
  ByteWriter w(bytes);
  put_image_header(w, kFormat);
  w.put_u64(checkpoint.config_hash);
  w.put_f64(checkpoint.watermark);
  w.put_i64(checkpoint.closed_before);
  put_stats(w, checkpoint.stats, kStatsFields);
  encode_trust(w, checkpoint.identity_trust);
  encode_trust(w, checkpoint.observer_trust);
  w.put_u64(checkpoint.epochs.size());
  for (const EpochCheckpoint& ec : checkpoint.epochs) {
    w.put_i64(ec.index);
    w.put_u64(ec.rounds);
    w.put_u64(ec.max_round_id);
    w.put_u64(ec.votes.size());
    for (const VoteCheckpoint& vc : ec.votes) {
      w.put_u64(vc.identity);
      w.put_u64(vc.observer);
      w.put_u8(vc.accused ? 1 : 0);
      w.put_f64(vc.density_per_km);
      w.put_f64(vc.time_s);
    }
  }
  put_image_trailer(bytes);
  return bytes;
}

bool decode_checkpoint(std::span<const std::uint8_t> bytes,
                       FusionCheckpoint* out, std::string* error) {
  ByteReader r;
  std::uint32_t version = 0;
  if (!open_image(bytes, kFormat, r, version, error)) return false;

  FusionCheckpoint cp;
  if (!r.get_u64(cp.config_hash) || !r.get_f64(cp.watermark) ||
      !r.get_i64(cp.closed_before) ||
      !get_stats(r, version, cp.stats, kStatsFields)) {
    return fail(error, "fusion checkpoint: truncated engine fields");
  }
  if (!decode_trust(r, "identity trust", cp.identity_trust, error) ||
      !decode_trust(r, "observer trust", cp.observer_trust, error)) {
    return false;
  }

  std::uint64_t epoch_count = 0;
  if (!r.get_u64(epoch_count)) {
    return fail(error, "fusion checkpoint: truncated epoch count");
  }
  if (epoch_count > r.remaining() / (4 * 8)) {
    return fail(error, "fusion checkpoint: epoch count exceeds payload");
  }
  cp.epochs.reserve(static_cast<std::size_t>(epoch_count));
  bool first_epoch = true;
  std::int64_t previous_index = 0;
  for (std::uint64_t e = 0; e < epoch_count; ++e) {
    EpochCheckpoint ec;
    std::uint64_t vote_count = 0;
    if (!r.get_i64(ec.index) || !r.get_u64(ec.rounds) ||
        !r.get_u64(ec.max_round_id) || !r.get_u64(vote_count)) {
      return fail(error, "fusion checkpoint: truncated epoch header");
    }
    if (!first_epoch && ec.index <= previous_index) {
      return fail(error, "fusion checkpoint: epoch indices not ascending");
    }
    if (ec.index < cp.closed_before) {
      return fail(error, "fusion checkpoint: open epoch behind the closed "
                         "frontier");
    }
    first_epoch = false;
    previous_index = ec.index;
    if (vote_count > r.remaining() / (2 * 8 + 1 + 2 * 8)) {
      return fail(error, "fusion checkpoint: vote count exceeds payload");
    }
    ec.votes.reserve(static_cast<std::size_t>(vote_count));
    bool first_vote = true;
    std::uint64_t prev_identity = 0;
    std::uint64_t prev_observer = 0;
    for (std::uint64_t v = 0; v < vote_count; ++v) {
      VoteCheckpoint vc;
      std::uint8_t accused = 0;
      if (!r.get_u64(vc.identity) || !r.get_u64(vc.observer) ||
          !r.get_u8(accused) || !r.get_f64(vc.density_per_km) ||
          !r.get_f64(vc.time_s)) {
        return fail(error, "fusion checkpoint: truncated vote");
      }
      if (accused > 1) {
        return fail(error, "fusion checkpoint: non-boolean accused flag");
      }
      if (vc.identity > 0xffffffffu) {
        return fail(error, "fusion checkpoint: identity exceeds 32 bits");
      }
      vc.accused = accused == 1;
      if (!first_vote &&
          (vc.identity < prev_identity ||
           (vc.identity == prev_identity && vc.observer <= prev_observer))) {
        return fail(error,
                    "fusion checkpoint: votes not (identity, observer) "
                    "ascending");
      }
      first_vote = false;
      prev_identity = vc.identity;
      prev_observer = vc.observer;
      ec.votes.push_back(vc);
    }
    cp.epochs.push_back(std::move(ec));
  }
  if (r.remaining() != 0) {
    return fail(error, "fusion checkpoint: trailing bytes");
  }
  if (out != nullptr) *out = std::move(cp);
  return true;
}

}  // namespace vp::fusion
