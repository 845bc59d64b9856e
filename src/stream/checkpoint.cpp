#include "stream/checkpoint.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

#include "cond/conditioner.h"

#include "common/binio.h"
#include "common/error.h"
#include "common/rng.h"

namespace vp::stream {

namespace {

// Version history in stream/checkpoint.h.
constexpr ImageFormat kFormat{"checkpoint", "VPCK", 1, 3};

// Wire order; the v3 conditioning counters come last so that v1/v2
// images, which end the table at `rounds`, keep their layout.
using Stats = StreamEngine::Stats;
constexpr StatsField<Stats> kStatsFields[] = {
    {&Stats::beacons_offered, 1},
    {&Stats::beacons_ingested, 1},
    {&Stats::beacons_shed_rate_limited, 1},
    {&Stats::beacons_shed_identity_cap, 1},
    {&Stats::beacons_shed_out_of_order, 1},
    {&Stats::shed_invalid_rssi_non_finite, 1},
    {&Stats::shed_invalid_rssi_out_of_range, 1},
    {&Stats::shed_invalid_time_non_finite, 1},
    {&Stats::shed_invalid_time_negative, 1},
    {&Stats::ring_evictions, 1},
    {&Stats::samples_expired, 1},
    {&Stats::identities_expired, 1},
    {&Stats::rounds, 1},
    {&Stats::beacons_shed_conditioned, 3},
    {&Stats::cond_offered, 3},
    {&Stats::cond_passed, 3},
    {&Stats::cond_clamped, 3},
    {&Stats::cond_rejected, 3},
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

}  // namespace

std::uint64_t engine_config_hash(const StreamEngineConfig& config) {
  // Everything the engine's own bookkeeping depends on, chained through
  // mix64 in declaration order. Detector options stay out except the
  // scalars that change results (boundary, density override, votes) —
  // comparison threads must NOT be here, restoring across thread counts
  // is supported and results-neutral.
  std::uint64_t h = hash64("vp.stream.engine_config/v1");
  h = mix64(h, bits(config.observation_time_s));
  h = mix64(h, bits(config.round_period_s));
  h = mix64(h, bits(config.density_estimation_period_s));
  h = mix64(h, bits(config.max_transmission_range_m));
  h = mix64(h, static_cast<std::uint64_t>(config.min_samples));
  h = mix64(h, static_cast<std::uint64_t>(config.ring_capacity));
  h = mix64(h, static_cast<std::uint64_t>(config.max_identities));
  h = mix64(h, bits(config.staleness_horizon_s));
  h = mix64(h, bits(config.max_ingest_rate_hz));
  h = mix64(h, config.validate_ingest ? 1u : 0u);
  h = mix64(h, bits(config.min_valid_rssi_dbm));
  h = mix64(h, bits(config.max_valid_rssi_dbm));
  h = mix64(h, bits(config.detector.boundary.k));
  h = mix64(h, bits(config.detector.boundary.b));
  h = mix64(h, config.detector.fixed_density_per_km
                   ? mix64(1u, bits(*config.detector.fixed_density_per_km))
                   : 0u);
  h = mix64(h, static_cast<std::uint64_t>(config.detector.min_pair_votes));
  // Conditioning only enters the hash when enabled, so every hash
  // computed before §15 existed (and every unconditioned engine today)
  // keeps its value — old checkpoints restore unchanged.
  if (config.condition_ingest) {
    const cond::CondConfig& c = config.conditioning;
    h = mix64(h, hash64("vp.cond.config/v1"));
    h = mix64(h, static_cast<std::uint64_t>(c.window));
    h = mix64(h, static_cast<std::uint64_t>(c.clamp_k_q8));
    h = mix64(h, static_cast<std::uint64_t>(c.reject_k_q8));
    h = mix64(h, static_cast<std::uint64_t>(c.mad_floor_q12));
    h = mix64(h, static_cast<std::uint64_t>(c.reject_limit));
    h = mix64(h, static_cast<std::uint64_t>(c.ema_alpha_max_q15));
    h = mix64(h, static_cast<std::uint64_t>(c.ema_alpha_min_q15));
    h = mix64(h, static_cast<std::uint64_t>(c.mad_ref_q12));
  }
  return h;
}

std::vector<std::uint8_t> encode_checkpoint(
    const EngineCheckpoint& checkpoint) {
  std::vector<std::uint8_t> bytes;
  ByteWriter w(bytes);
  put_image_header(w, kFormat);
  w.put_u64(checkpoint.config_hash);
  w.put_f64(checkpoint.next_round_s);
  w.put_f64(checkpoint.last_round_time_s);
  w.put_i64(checkpoint.bucket_second);
  w.put_u64(checkpoint.bucket_accepted);
  w.put_u64(checkpoint.next_round_id);
  put_stats(w, checkpoint.stats, kStatsFields);
  w.put_u64(checkpoint.identities.size());
  for (const IdentityCheckpoint& ic : checkpoint.identities) {
    w.put_u64(static_cast<std::uint64_t>(ic.id));
    w.put_f64(ic.last_heard_s);
    w.put_u64(static_cast<std::uint64_t>(ic.ring.capacity));
    w.put_u64(static_cast<std::uint64_t>(ic.ring.times.size()));
    for (double t : ic.ring.times) w.put_f64(t);
    for (double v : ic.ring.values) w.put_f64(v);
    w.put_f64(ic.ring.mean);
    w.put_f64(ic.ring.m2);
    // v3: conditioning channel — Hampel window oldest-first, then the
    // EMA register, its init flag, and the consecutive-reject streak.
    w.put_u64(static_cast<std::uint64_t>(ic.cond_window.size()));
    for (std::int32_t q : ic.cond_window) {
      w.put_i64(static_cast<std::int64_t>(q));
    }
    w.put_i64(static_cast<std::int64_t>(ic.cond_ema_q12));
    w.put_u8(ic.cond_ema_init ? 1 : 0);
    w.put_u32(ic.cond_reject_streak);
  }
  put_image_trailer(bytes);
  return bytes;
}

bool decode_checkpoint(std::span<const std::uint8_t> bytes,
                       EngineCheckpoint* out, std::string* error) {
  ByteReader r;
  std::uint32_t version = 0;
  if (!open_image(bytes, kFormat, r, version, error)) return false;

  EngineCheckpoint cp;
  std::uint64_t identity_count = 0;
  if (!r.get_u64(cp.config_hash) || !r.get_f64(cp.next_round_s) ||
      !r.get_f64(cp.last_round_time_s) || !r.get_i64(cp.bucket_second) ||
      !r.get_u64(cp.bucket_accepted)) {
    return fail(error, "checkpoint: truncated engine fields");
  }
  if (version >= 2 && !r.get_u64(cp.next_round_id)) {
    return fail(error, "checkpoint: truncated engine fields");
  }
  if (!get_stats(r, version, cp.stats, kStatsFields) ||
      !r.get_u64(identity_count)) {
    return fail(error, "checkpoint: truncated engine fields");
  }
  // v1 predates round ids; every executed round was also prepared, so the
  // rounds counter is the best (and usually exact) continuation point.
  if (version < 2) cp.next_round_id = cp.stats.rounds;
  // Each identity needs at least id + last_heard + capacity + size + the
  // two Welford doubles — reject absurd counts before reserving.
  if (identity_count > r.remaining() / (6 * 8)) {
    return fail(error, "checkpoint: identity count exceeds payload");
  }
  cp.identities.reserve(static_cast<std::size_t>(identity_count));
  IdentityId previous_id = 0;
  for (std::uint64_t i = 0; i < identity_count; ++i) {
    IdentityCheckpoint ic;
    std::uint64_t raw_id = 0;
    std::uint64_t capacity = 0;
    std::uint64_t samples = 0;
    if (!r.get_u64(raw_id) || !r.get_f64(ic.last_heard_s) ||
        !r.get_u64(capacity) || !r.get_u64(samples)) {
      return fail(error, "checkpoint: truncated identity header");
    }
    ic.id = static_cast<IdentityId>(raw_id);
    if (i > 0 && ic.id <= previous_id) {
      return fail(error, "checkpoint: identity ids not strictly ascending");
    }
    previous_id = ic.id;
    if (capacity < 1) return fail(error, "checkpoint: ring capacity < 1");
    if (samples > capacity) {
      return fail(error, "checkpoint: ring holds more samples than capacity");
    }
    if (samples > r.remaining() / 8) {
      return fail(error, "checkpoint: ring sample count exceeds payload");
    }
    ic.ring.capacity = static_cast<std::size_t>(capacity);
    ic.ring.times.resize(static_cast<std::size_t>(samples));
    ic.ring.values.resize(static_cast<std::size_t>(samples));
    for (double& t : ic.ring.times) {
      if (!r.get_f64(t)) return fail(error, "checkpoint: truncated ring times");
    }
    for (double& v : ic.ring.values) {
      if (!r.get_f64(v)) {
        return fail(error, "checkpoint: truncated ring values");
      }
    }
    if (!std::is_sorted(ic.ring.times.begin(), ic.ring.times.end())) {
      return fail(error, "checkpoint: ring times not sorted");
    }
    if (!r.get_f64(ic.ring.mean) || !r.get_f64(ic.ring.m2)) {
      return fail(error, "checkpoint: truncated ring summary");
    }
    if (version >= 3) {
      std::uint64_t cond_count = 0;
      if (!r.get_u64(cond_count)) {
        return fail(error, "checkpoint: truncated conditioner header");
      }
      if (cond_count > cond::kMaxWindow) {
        return fail(error, "checkpoint: conditioner window over maximum");
      }
      ic.cond_window.resize(static_cast<std::size_t>(cond_count));
      for (std::int32_t& q : ic.cond_window) {
        std::int64_t raw = 0;
        if (!r.get_i64(raw)) {
          return fail(error, "checkpoint: truncated conditioner window");
        }
        if (raw < std::numeric_limits<std::int32_t>::min() ||
            raw > std::numeric_limits<std::int32_t>::max()) {
          return fail(error, "checkpoint: conditioner sample out of range");
        }
        q = static_cast<std::int32_t>(raw);
      }
      std::int64_t ema_raw = 0;
      std::uint8_t init_raw = 0;
      if (!r.get_i64(ema_raw) || !r.get_u8(init_raw)) {
        return fail(error, "checkpoint: truncated conditioner register");
      }
      if (ema_raw < std::numeric_limits<std::int32_t>::min() ||
          ema_raw > std::numeric_limits<std::int32_t>::max()) {
        return fail(error, "checkpoint: conditioner register out of range");
      }
      if (init_raw > 1) {
        return fail(error, "checkpoint: conditioner init flag not boolean");
      }
      ic.cond_ema_q12 = static_cast<std::int32_t>(ema_raw);
      ic.cond_ema_init = init_raw == 1;
      if (!r.get_u32(ic.cond_reject_streak)) {
        return fail(error, "checkpoint: truncated conditioner streak");
      }
    }
    cp.identities.push_back(std::move(ic));
  }
  if (r.remaining() != 0) {
    return fail(error, "checkpoint: trailing bytes after last identity");
  }
  if (out != nullptr) *out = std::move(cp);
  return true;
}

}  // namespace vp::stream
