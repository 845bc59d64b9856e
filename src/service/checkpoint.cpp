#include "service/checkpoint.h"

#include <bit>
#include <utility>

#include "common/binio.h"
#include "common/error.h"
#include "common/rng.h"

namespace vp::service {

namespace {

// Version history in service/checkpoint.h.
constexpr ImageFormat kFormat{"service checkpoint", "VPSC", 1, 2};

using Stats = DetectionService::Stats;
constexpr StatsField<Stats> kStatsFields[] = {
    {&Stats::beacons_offered, 1},
    {&Stats::beacons_ingested, 1},
    {&Stats::beacons_shed_session_cap, 1},
    {&Stats::beacons_shed_rate_limited, 1},
    {&Stats::beacons_shed_identity_cap, 1},
    {&Stats::beacons_shed_out_of_order, 1},
    {&Stats::beacons_shed_invalid, 1},
    {&Stats::beacons_shed_conditioned, 2},
    {&Stats::sessions_opened, 1},
    {&Stats::sessions_rejected, 1},
    {&Stats::sessions_closed, 1},
    {&Stats::sessions_evicted_idle, 1},
    {&Stats::rounds_prepared, 1},
    {&Stats::rounds_executed, 1},
    {&Stats::rounds_shed_queue_full, 1},
    {&Stats::rounds_shed_closed, 1},
    {&Stats::pumps, 1},
};

}  // namespace

std::uint64_t service_config_hash(const ServiceConfig& config) {
  std::uint64_t h = hash64("vp.service.config/v1");
  h = mix64(h, static_cast<std::uint64_t>(config.shards));
  h = mix64(h, static_cast<std::uint64_t>(config.max_sessions));
  h = mix64(h, static_cast<std::uint64_t>(config.max_queued_rounds));
  h = mix64(h, static_cast<std::uint64_t>(config.pump_batch_rounds));
  h = mix64(h, std::bit_cast<std::uint64_t>(config.session_idle_timeout_s));
  h = mix64(h, stream::engine_config_hash(config.engine));
  return h;
}

std::vector<std::uint8_t> encode_checkpoint(
    const ServiceCheckpoint& checkpoint) {
  std::vector<std::uint8_t> bytes;
  ByteWriter w(bytes);
  put_image_header(w, kFormat);
  w.put_u64(checkpoint.config_hash);
  w.put_f64(checkpoint.service_time);
  put_stats(w, checkpoint.stats, kStatsFields);
  w.put_u64(checkpoint.sessions.size());
  for (const SessionCheckpoint& sc : checkpoint.sessions) {
    w.put_u64(sc.id);
    w.put_f64(sc.last_offered_s);
    const std::vector<std::uint8_t> engine_blob =
        stream::encode_checkpoint(sc.engine);
    w.put_u64(engine_blob.size());
    bytes.insert(bytes.end(), engine_blob.begin(), engine_blob.end());
  }
  put_image_trailer(bytes);
  return bytes;
}

bool decode_checkpoint(std::span<const std::uint8_t> bytes,
                       ServiceCheckpoint* out, std::string* error) {
  ByteReader r;
  std::uint32_t version = 0;
  if (!open_image(bytes, kFormat, r, version, error)) return false;

  ServiceCheckpoint cp;
  std::uint64_t session_count = 0;
  if (!r.get_u64(cp.config_hash) || !r.get_f64(cp.service_time) ||
      !get_stats(r, version, cp.stats, kStatsFields) ||
      !r.get_u64(session_count)) {
    return fail(error, "service checkpoint: truncated service fields");
  }
  if (session_count > r.remaining() / (3 * 8)) {
    return fail(error, "service checkpoint: session count exceeds payload");
  }
  cp.sessions.reserve(static_cast<std::size_t>(session_count));
  SessionId previous_id = 0;
  for (std::uint64_t i = 0; i < session_count; ++i) {
    SessionCheckpoint sc;
    std::uint64_t blob_size = 0;
    if (!r.get_u64(sc.id) || !r.get_f64(sc.last_offered_s) ||
        !r.get_u64(blob_size)) {
      return fail(error, "service checkpoint: truncated session header");
    }
    if (i > 0 && sc.id <= previous_id) {
      return fail(error, "service checkpoint: session ids not ascending");
    }
    previous_id = sc.id;
    std::span<const std::uint8_t> blob;
    if (!r.get_bytes(blob_size, blob)) {
      return fail(error, "service checkpoint: engine blob exceeds payload");
    }
    std::string engine_error;
    if (!stream::decode_checkpoint(blob, &sc.engine, &engine_error)) {
      return fail(error, "service checkpoint: session engine: " +
                             engine_error);
    }
    cp.sessions.push_back(std::move(sc));
  }
  if (r.remaining() != 0) {
    return fail(error, "service checkpoint: trailing bytes");
  }
  if (out != nullptr) *out = std::move(cp);
  return true;
}

}  // namespace vp::service
