// Checkpoint/restore invariants (DESIGN.md §10):
//   * Codec — encode/decode is an exact roundtrip; every corruption
//     (truncation, bit flips, bad magic/version, trailing garbage,
//     structurally invalid contents) is rejected with a reason, and the
//     restore constructors refuse a configuration-hash mismatch and any
//     image over the caps its configuration promises.
//   * Restore parity — an engine checkpointed after any beacon and
//     restored emits bit-identical rounds (suspects AND pair distances)
//     to the uninterrupted engine, over highway and field-test traces,
//     at every thread count; same for DetectionService kill/restore.
#include "stream/checkpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "common/binio.h"
#include "cond/conditioner.h"
#include "common/error.h"
#include "common/rng.h"
#include "core/detector.h"
#include "fieldtest/scenario3.h"
#include "service/checkpoint.h"
#include "service/service.h"
#include "sim/world.h"
#include "stream/engine.h"

namespace vp::stream {
namespace {

struct Rx {
  double time_s;
  IdentityId id;
  double rssi_dbm;
};

std::vector<Rx> arrival_stream(const sim::RssiLog& log, double horizon) {
  std::vector<Rx> beacons;
  for (IdentityId id : log.identities_heard(0.0, horizon, 1)) {
    for (const sim::BeaconRecord& r : log.records(id, 0.0, horizon)) {
      beacons.push_back({r.time_s, id, r.rssi_dbm});
    }
  }
  std::sort(beacons.begin(), beacons.end(), [](const Rx& a, const Rx& b) {
    return a.time_s != b.time_s ? a.time_s < b.time_s : a.id < b.id;
  });
  return beacons;
}

void expect_rounds_identical(const std::vector<StreamRound>& actual,
                             const std::vector<StreamRound>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].time_s, expected[i].time_s);
    EXPECT_EQ(actual[i].identities_heard, expected[i].identities_heard);
    EXPECT_EQ(actual[i].density_per_km, expected[i].density_per_km);
    EXPECT_EQ(actual[i].suspects, expected[i].suspects);
    ASSERT_EQ(actual[i].pairs.size(), expected[i].pairs.size());
    for (std::size_t j = 0; j < expected[i].pairs.size(); ++j) {
      EXPECT_EQ(actual[i].pairs[j].a, expected[i].pairs[j].a);
      EXPECT_EQ(actual[i].pairs[j].b, expected[i].pairs[j].b);
      EXPECT_EQ(actual[i].pairs[j].comparable, expected[i].pairs[j].comparable);
      EXPECT_EQ(actual[i].pairs[j].raw, expected[i].pairs[j].raw);  // bitwise
      EXPECT_EQ(actual[i].pairs[j].normalized, expected[i].pairs[j].normalized);
    }
  }
}

// Feeds `trace` into a fresh engine, returning every round it emitted.
std::vector<StreamRound> run_uninterrupted(const StreamEngineConfig& config,
                                           const std::vector<Rx>& trace,
                                           double end_time) {
  StreamEngine engine(config);
  std::vector<StreamRound> rounds;
  engine.set_round_callback(
      [&rounds](const StreamRound& r) { rounds.push_back(r); });
  for (const Rx& rx : trace) engine.ingest(rx.id, rx.time_s, rx.rssi_dbm);
  engine.advance_to(end_time);
  return rounds;
}

// Feeds trace[0, cut) into one engine, checkpoints it THROUGH THE WIRE
// FORMAT (encode + decode, exercising the codec on real state), restores
// a second engine and feeds it the remainder. Returns prefix + suffix
// rounds concatenated — which must equal the uninterrupted run's.
std::vector<StreamRound> run_killed_at(const StreamEngineConfig& config,
                                       const std::vector<Rx>& trace,
                                       double end_time, std::size_t cut,
                                       const StreamEngineConfig& restore_config) {
  std::vector<StreamRound> rounds;
  const auto record = [&rounds](const StreamRound& r) { rounds.push_back(r); };

  StreamEngine first(config);
  first.set_round_callback(record);
  for (std::size_t i = 0; i < cut; ++i) {
    first.ingest(trace[i].id, trace[i].time_s, trace[i].rssi_dbm);
  }

  const std::vector<std::uint8_t> bytes = encode_checkpoint(first.checkpoint());
  EngineCheckpoint restored_cp;
  std::string error;
  EXPECT_TRUE(decode_checkpoint(bytes, &restored_cp, &error)) << error;

  StreamEngine second(restore_config, restored_cp);
  second.set_round_callback(record);
  for (std::size_t i = cut; i < trace.size(); ++i) {
    second.ingest(trace[i].id, trace[i].time_s, trace[i].rssi_dbm);
  }
  second.advance_to(end_time);
  return rounds;
}

StreamEngineConfig highway_config(const sim::ScenarioConfig& sim_config,
                                  std::size_t threads) {
  StreamEngineConfig config;
  config.observation_time_s = sim_config.observation_time_s;
  config.round_period_s = sim_config.detection_period_s;
  config.density_estimation_period_s = sim_config.density_estimation_period_s;
  config.max_transmission_range_m = sim_config.max_transmission_range_m;
  config.min_samples = 4;
  config.detector = core::tuned_simulation_options(threads);
  return config;
}

class CheckpointHighwayParity : public ::testing::TestWithParam<std::size_t> {};

// The tentpole acceptance bar: kill/restore at stride-sampled beacon
// positions across a highway trace (including before the first beacon and
// after the last) and the combined round stream is bit-identical to the
// uninterrupted engine, at every thread count.
TEST_P(CheckpointHighwayParity, KillRestoreAnywhereIsBitIdentical) {
  const std::size_t threads = GetParam();
  sim::ScenarioConfig sim_config;
  sim_config.density_per_km = 12.0;
  sim_config.sim_time_s = 60.0;
  sim_config.seed = 11;
  sim::World world(sim_config);
  world.run();
  const double end_time = world.detection_times().back();
  const std::vector<Rx> trace = arrival_stream(
      world.node(world.normal_node_ids().front()).log(),
      sim_config.sim_time_s + 1.0);
  ASSERT_GT(trace.size(), 100u);

  const StreamEngineConfig config = highway_config(sim_config, threads);
  const std::vector<StreamRound> baseline =
      run_uninterrupted(config, trace, end_time);
  ASSERT_EQ(baseline.size(), world.detection_times().size());

  const std::vector<std::size_t> cuts = {
      0, 1, trace.size() / 4, trace.size() / 2, (3 * trace.size()) / 4,
      trace.size() - 1, trace.size()};
  for (std::size_t cut : cuts) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    expect_rounds_identical(
        run_killed_at(config, trace, end_time, cut, config), baseline);
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, CheckpointHighwayParity,
                         ::testing::Values(0u, 1u, 4u));

// engine_config_hash deliberately excludes comparison threads: a
// checkpoint taken under a single-threaded engine restores into a
// 4-thread one (and vice versa) with bit-identical results.
TEST(Checkpoint, RestoresAcrossThreadCounts) {
  sim::ScenarioConfig sim_config;
  sim_config.density_per_km = 10.0;
  sim_config.sim_time_s = 45.0;
  sim_config.seed = 7;
  sim::World world(sim_config);
  world.run();
  const double end_time = world.detection_times().back();
  const std::vector<Rx> trace = arrival_stream(
      world.node(world.normal_node_ids().front()).log(),
      sim_config.sim_time_s + 1.0);

  const StreamEngineConfig one = highway_config(sim_config, 1);
  const StreamEngineConfig four = highway_config(sim_config, 4);
  ASSERT_EQ(engine_config_hash(one), engine_config_hash(four));

  const std::vector<StreamRound> baseline =
      run_uninterrupted(one, trace, end_time);
  expect_rounds_identical(
      run_killed_at(one, trace, end_time, trace.size() / 2, four), baseline);
}

// Same parity over the field-test generator's campus trace, whose
// geometry (fixed density, long staleness horizon) differs from the
// highway defaults.
TEST(Checkpoint, FieldTestReplayKillRestoreParity) {
  ft::FieldTestConfig ft_config;
  ft_config.area = ft::Area::kCampus;
  ft_config.duration_s = 180.0;
  const ft::FieldTestData data = ft::run_field_test(ft_config);
  const std::vector<Rx> trace =
      arrival_stream(data.logs.at(ft::kNormalNode3), data.duration_s + 1.0);
  ASSERT_GT(trace.size(), 50u);

  StreamEngineConfig config;
  config.observation_time_s = ft_config.observation_time_s;
  config.round_period_s = ft_config.detection_period_s;
  config.min_samples = 4;
  config.staleness_horizon_s = 120.0;
  config.detector.fixed_density_per_km = 4.0;

  const std::vector<StreamRound> baseline =
      run_uninterrupted(config, trace, data.duration_s);
  ASSERT_GE(baseline.size(), 3u);
  for (std::size_t cut :
       {trace.size() / 3, trace.size() / 2, (2 * trace.size()) / 3}) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    expect_rounds_identical(
        run_killed_at(config, trace, data.duration_s, cut, config), baseline);
  }
}

// --- Codec --------------------------------------------------------------

// A checkpoint with real state in every field, for codec tests.
EngineCheckpoint sample_checkpoint() {
  StreamEngineConfig config;
  config.max_ingest_rate_hz = 100.0;  // exercise the bucket fields
  StreamEngine engine(config);
  Rng rng(5);
  for (double t = 0.5; t < 25.0; t += 0.1) {
    engine.ingest(static_cast<IdentityId>(1 + rng.uniform_int(0, 5)), t,
                  -70.0 + rng.normal(0.0, 4.0));
  }
  engine.ingest(3, std::numeric_limits<double>::quiet_NaN(), -70.0);  // stats
  return engine.checkpoint();
}

void expect_stats_equal(const StreamEngine::Stats& a,
                        const StreamEngine::Stats& b) {
  EXPECT_EQ(a.beacons_offered, b.beacons_offered);
  EXPECT_EQ(a.beacons_ingested, b.beacons_ingested);
  EXPECT_EQ(a.beacons_shed_rate_limited, b.beacons_shed_rate_limited);
  EXPECT_EQ(a.beacons_shed_identity_cap, b.beacons_shed_identity_cap);
  EXPECT_EQ(a.beacons_shed_out_of_order, b.beacons_shed_out_of_order);
  EXPECT_EQ(a.shed_invalid_rssi_non_finite, b.shed_invalid_rssi_non_finite);
  EXPECT_EQ(a.shed_invalid_rssi_out_of_range,
            b.shed_invalid_rssi_out_of_range);
  EXPECT_EQ(a.shed_invalid_time_non_finite, b.shed_invalid_time_non_finite);
  EXPECT_EQ(a.shed_invalid_time_negative, b.shed_invalid_time_negative);
  EXPECT_EQ(a.ring_evictions, b.ring_evictions);
  EXPECT_EQ(a.samples_expired, b.samples_expired);
  EXPECT_EQ(a.identities_expired, b.identities_expired);
  EXPECT_EQ(a.rounds, b.rounds);
}

TEST(CheckpointCodec, RoundTripIsExact) {
  const EngineCheckpoint original = sample_checkpoint();
  const std::vector<std::uint8_t> bytes = encode_checkpoint(original);
  EngineCheckpoint decoded;
  std::string error;
  ASSERT_TRUE(decode_checkpoint(bytes, &decoded, &error)) << error;

  EXPECT_EQ(decoded.config_hash, original.config_hash);
  EXPECT_EQ(decoded.next_round_s, original.next_round_s);
  EXPECT_EQ(decoded.last_round_time_s, original.last_round_time_s);
  EXPECT_EQ(decoded.bucket_second, original.bucket_second);
  EXPECT_EQ(decoded.bucket_accepted, original.bucket_accepted);
  expect_stats_equal(decoded.stats, original.stats);
  ASSERT_EQ(decoded.identities.size(), original.identities.size());
  for (std::size_t i = 0; i < original.identities.size(); ++i) {
    const IdentityCheckpoint& a = decoded.identities[i];
    const IdentityCheckpoint& b = original.identities[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.last_heard_s, b.last_heard_s);
    EXPECT_EQ(a.ring.capacity, b.ring.capacity);
    EXPECT_EQ(a.ring.times, b.ring.times);
    EXPECT_EQ(a.ring.values, b.ring.values);
    // Welford accumulators verbatim — the bit-parity-critical part.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.ring.mean),
              std::bit_cast<std::uint64_t>(b.ring.mean));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.ring.m2),
              std::bit_cast<std::uint64_t>(b.ring.m2));
  }
}

TEST(CheckpointCodec, EveryTruncationIsRejected) {
  const std::vector<std::uint8_t> bytes =
      encode_checkpoint(sample_checkpoint());
  EngineCheckpoint out;
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::string error;
    EXPECT_FALSE(decode_checkpoint(
        std::span<const std::uint8_t>(bytes.data(), len), &out, &error))
        << "prefix of " << len << " bytes decoded";
    EXPECT_FALSE(error.empty());
  }
}

TEST(CheckpointCodec, EverySingleByteFlipIsRejected) {
  // The trailing FNV-1a checksum (verified before anything is parsed)
  // makes any single-byte corruption detectable.
  const std::vector<std::uint8_t> bytes =
      encode_checkpoint(sample_checkpoint());
  EngineCheckpoint out;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::vector<std::uint8_t> corrupt = bytes;
    corrupt[i] ^= 0x40;
    std::string error;
    EXPECT_FALSE(decode_checkpoint(corrupt, &out, &error))
        << "flip at byte " << i << " decoded";
  }
}

TEST(CheckpointCodec, TrailingGarbageIsRejected) {
  std::vector<std::uint8_t> bytes = encode_checkpoint(sample_checkpoint());
  bytes.push_back(0x00);
  EngineCheckpoint out;
  std::string error;
  EXPECT_FALSE(decode_checkpoint(bytes, &out, &error));
}

// Patches the version field AND recomputes the checksum, so the version
// check itself (not the checksum) must reject.
TEST(CheckpointCodec, UnknownVersionIsRejected) {
  std::vector<std::uint8_t> bytes = encode_checkpoint(sample_checkpoint());
  bytes[4] = 0x2a;  // version u32 LE at offset 4 (after "VPCK")
  const std::uint64_t checksum = fnv1a64(
      std::span<const std::uint8_t>(bytes.data(), bytes.size() - 8));
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[bytes.size() - 8 + i] =
        static_cast<std::uint8_t>(checksum >> (8 * i));
  }
  EngineCheckpoint out;
  std::string error;
  EXPECT_FALSE(decode_checkpoint(bytes, &out, &error));
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

TEST(CheckpointCodec, StructurallyInvalidContentsAreRejected) {
  EngineCheckpoint cp = sample_checkpoint();
  ASSERT_GE(cp.identities.size(), 2u);
  // Unsorted ring times inside one identity.
  EngineCheckpoint bad = cp;
  ASSERT_GE(bad.identities[0].ring.times.size(), 2u);
  std::swap(bad.identities[0].ring.times.front(),
            bad.identities[0].ring.times.back());
  EngineCheckpoint out;
  std::string error;
  EXPECT_FALSE(decode_checkpoint(encode_checkpoint(bad), &out, &error));

  // Identity ids out of ascending order.
  bad = cp;
  std::swap(bad.identities[0].id, bad.identities[1].id);
  EXPECT_FALSE(decode_checkpoint(encode_checkpoint(bad), &out, &error));

  // More samples than ring capacity.
  bad = cp;
  bad.identities[0].ring.capacity = 1;
  EXPECT_FALSE(decode_checkpoint(encode_checkpoint(bad), &out, &error));
}

TEST(CheckpointCodec, RestoreRefusesMismatchedConfig) {
  StreamEngineConfig config;
  StreamEngine engine(config);
  engine.ingest(1, 1.0, -70.0);
  const EngineCheckpoint cp = engine.checkpoint();

  StreamEngineConfig other = config;
  other.observation_time_s = 30.0;  // different window geometry
  EXPECT_THROW(StreamEngine(other, cp), PreconditionError);
  other = config;
  other.detector.boundary.k += 0.5;  // different threshold rule
  EXPECT_THROW(StreamEngine(other, cp), PreconditionError);
}

// The FNV trailer and the config hash are no authentication: a forged
// image can be well framed, carry the right hash, and still claim more
// than its config allows. Decode accepts such an image; restore must
// refuse it before it builds a ring.
template <typename Checkpoint>
Checkpoint through_bytes(const Checkpoint& cp) {
  Checkpoint decoded;
  std::string error;
  EXPECT_TRUE(decode_checkpoint(encode_checkpoint(cp), &decoded, &error))
      << error;
  return decoded;
}

TEST(CheckpointCodec, RestoreRefusesIdentitiesOverCap) {
  StreamEngineConfig config;
  config.ring_capacity = 8;
  config.max_identities = 2;
  StreamEngine engine(config);
  engine.ingest(1, 1.0, -70.0);
  engine.ingest(2, 1.5, -72.0);
  EngineCheckpoint cp = engine.checkpoint();
  ASSERT_EQ(cp.identities.size(), 2u);
  EXPECT_NO_THROW(StreamEngine(config, through_bytes(cp)));  // at the cap

  for (IdentityId id : {3u, 4u}) {
    IdentityCheckpoint extra = cp.identities.back();
    extra.id = id;
    cp.identities.push_back(extra);
  }
  EXPECT_THROW(StreamEngine(config, through_bytes(cp)), PreconditionError);
}

TEST(CheckpointCodec, RestoreRefusesForeignRingCapacity) {
  StreamEngineConfig config;
  config.ring_capacity = 8;
  StreamEngine engine(config);
  engine.ingest(1, 1.0, -70.0);
  const EngineCheckpoint cp = engine.checkpoint();
  ASSERT_EQ(cp.identities.size(), 1u);
  EXPECT_NO_THROW(StreamEngine(config, through_bytes(cp)));

  for (std::size_t capacity : {std::size_t{4}, std::size_t{16}}) {
    EngineCheckpoint forged = cp;
    forged.identities[0].ring.capacity = capacity;
    EXPECT_THROW(StreamEngine(config, through_bytes(forged)),
                 PreconditionError)
        << "capacity " << capacity;
  }
}

TEST(CheckpointCodec, RestoreRefusesConditionerWindowOverConfig) {
  StreamEngineConfig config;
  config.condition_ingest = true;
  StreamEngine engine(config);
  engine.ingest(1, 1.0, -70.0);
  EngineCheckpoint cp = engine.checkpoint();
  ASSERT_EQ(cp.identities.size(), 1u);
  cp.identities[0].cond_window.assign(config.conditioning.window, 0);
  EXPECT_NO_THROW(StreamEngine(config, through_bytes(cp)));  // a full window

  cp.identities[0].cond_window.push_back(0);
  ASSERT_LE(cp.identities[0].cond_window.size(), cond::kMaxWindow);
  EXPECT_THROW(StreamEngine(config, through_bytes(cp)), PreconditionError);

  // An unconditioned engine keeps no conditioner window at all.
  StreamEngineConfig plain;
  StreamEngine plain_engine(plain);
  plain_engine.ingest(1, 1.0, -70.0);
  EngineCheckpoint unconditioned = plain_engine.checkpoint();
  ASSERT_EQ(unconditioned.identities.size(), 1u);
  unconditioned.identities[0].cond_window = {0};
  EXPECT_THROW(StreamEngine(plain, through_bytes(unconditioned)),
               PreconditionError);
}

// --- Conditioning state (VPCK v3) ---------------------------------------

// A conditioned engine's checkpoint carries the full §15 filter state —
// Hampel window, EMA register, init flag, reject streak — and the cond_*
// counters, all bit-exact through the wire format. The trace ends inside
// a spike burst so at least one identity is checkpointed mid-streak.
TEST(CheckpointCodec, V3RoundTripCarriesConditioningState) {
  StreamEngineConfig config;
  config.condition_ingest = true;
  StreamEngine engine(config);
  Rng rng(13);
  double t = 0.5;
  for (int i = 0; i < 400; ++i, t += 0.1) {
    const IdentityId id = static_cast<IdentityId>(1 + rng.uniform_int(0, 3));
    double x = std::round(-70.0 + rng.normal(0.0, 2.0));
    if (i % 37 == 0) x += 30.0;  // sporadic spikes: rejects + streaks
    engine.ingest(id, t, x);
  }
  for (int i = 0; i < 3; ++i, t += 0.1) engine.ingest(1, t, -35.0);  // streak

  const EngineCheckpoint original = engine.checkpoint();
  EXPECT_GT(original.stats.cond_offered, 0u);
  EXPECT_EQ(original.stats.cond_offered,
            original.stats.cond_passed + original.stats.cond_clamped +
                original.stats.cond_rejected);
  bool saw_window = false;
  bool saw_streak = false;
  for (const IdentityCheckpoint& ic : original.identities) {
    saw_window = saw_window || !ic.cond_window.empty();
    saw_streak = saw_streak || ic.cond_reject_streak > 0;
  }
  EXPECT_TRUE(saw_window);
  EXPECT_TRUE(saw_streak);

  const std::vector<std::uint8_t> bytes = encode_checkpoint(original);
  EngineCheckpoint decoded;
  std::string error;
  ASSERT_TRUE(decode_checkpoint(bytes, &decoded, &error)) << error;
  EXPECT_EQ(decoded.stats.beacons_shed_conditioned,
            original.stats.beacons_shed_conditioned);
  EXPECT_EQ(decoded.stats.cond_offered, original.stats.cond_offered);
  EXPECT_EQ(decoded.stats.cond_passed, original.stats.cond_passed);
  EXPECT_EQ(decoded.stats.cond_clamped, original.stats.cond_clamped);
  EXPECT_EQ(decoded.stats.cond_rejected, original.stats.cond_rejected);
  ASSERT_EQ(decoded.identities.size(), original.identities.size());
  for (std::size_t i = 0; i < original.identities.size(); ++i) {
    const IdentityCheckpoint& a = decoded.identities[i];
    const IdentityCheckpoint& b = original.identities[i];
    EXPECT_EQ(a.cond_window, b.cond_window);
    EXPECT_EQ(a.cond_ema_q12, b.cond_ema_q12);
    EXPECT_EQ(a.cond_ema_init, b.cond_ema_init);
    EXPECT_EQ(a.cond_reject_streak, b.cond_reject_streak);
  }
}

TEST(CheckpointCodec, RejectsOversizedConditionerWindow) {
  StreamEngineConfig config;
  config.condition_ingest = true;
  StreamEngine engine(config);
  engine.ingest(1, 1.0, -70.0);
  EngineCheckpoint cp = engine.checkpoint();
  ASSERT_FALSE(cp.identities.empty());
  cp.identities[0].cond_window.assign(cond::kMaxWindow + 1, 0);
  EngineCheckpoint out;
  std::string error;
  EXPECT_FALSE(decode_checkpoint(encode_checkpoint(cp), &out, &error));
  EXPECT_NE(error.find("window"), std::string::npos) << error;
}

// Writes `cp` in the exact v2 layout (no conditioning fields anywhere):
// the forward-compat pin for checkpoints taken before §15 existed.
std::vector<std::uint8_t> encode_v2(const EngineCheckpoint& cp) {
  std::vector<std::uint8_t> bytes;
  ByteWriter w(bytes);
  w.put_u32(0x4b435056u);  // "VPCK"
  w.put_u32(2);
  w.put_u64(cp.config_hash);
  w.put_f64(cp.next_round_s);
  w.put_f64(cp.last_round_time_s);
  w.put_i64(cp.bucket_second);
  w.put_u64(cp.bucket_accepted);
  w.put_u64(cp.next_round_id);
  const StreamEngine::Stats& s = cp.stats;
  w.put_u64(s.beacons_offered);
  w.put_u64(s.beacons_ingested);
  w.put_u64(s.beacons_shed_rate_limited);
  w.put_u64(s.beacons_shed_identity_cap);
  w.put_u64(s.beacons_shed_out_of_order);
  w.put_u64(s.shed_invalid_rssi_non_finite);
  w.put_u64(s.shed_invalid_rssi_out_of_range);
  w.put_u64(s.shed_invalid_time_non_finite);
  w.put_u64(s.shed_invalid_time_negative);
  w.put_u64(s.ring_evictions);
  w.put_u64(s.samples_expired);
  w.put_u64(s.identities_expired);
  w.put_u64(s.rounds);
  w.put_u64(cp.identities.size());
  for (const IdentityCheckpoint& ic : cp.identities) {
    w.put_u64(static_cast<std::uint64_t>(ic.id));
    w.put_f64(ic.last_heard_s);
    w.put_u64(static_cast<std::uint64_t>(ic.ring.capacity));
    w.put_u64(static_cast<std::uint64_t>(ic.ring.times.size()));
    for (double time : ic.ring.times) w.put_f64(time);
    for (double v : ic.ring.values) w.put_f64(v);
    w.put_f64(ic.ring.mean);
    w.put_f64(ic.ring.m2);
  }
  w.put_u64(fnv1a64(bytes));
  return bytes;
}

// A pre-§15 (v2) checkpoint still decodes: every v2 field lands intact,
// the conditioning state defaults to empty, and the engine restores and
// keeps serving from it.
TEST(CheckpointCodec, V2PayloadStillDecodes) {
  const EngineCheckpoint original = sample_checkpoint();
  const std::vector<std::uint8_t> bytes = encode_v2(original);

  EngineCheckpoint decoded;
  std::string error;
  ASSERT_TRUE(decode_checkpoint(bytes, &decoded, &error)) << error;
  EXPECT_EQ(decoded.config_hash, original.config_hash);
  EXPECT_EQ(decoded.next_round_s, original.next_round_s);
  EXPECT_EQ(decoded.next_round_id, original.next_round_id);
  expect_stats_equal(decoded.stats, original.stats);
  EXPECT_EQ(decoded.stats.beacons_shed_conditioned, 0u);
  EXPECT_EQ(decoded.stats.cond_offered, 0u);
  ASSERT_EQ(decoded.identities.size(), original.identities.size());
  for (std::size_t i = 0; i < original.identities.size(); ++i) {
    EXPECT_EQ(decoded.identities[i].ring.times,
              original.identities[i].ring.times);
    EXPECT_TRUE(decoded.identities[i].cond_window.empty());
    EXPECT_EQ(decoded.identities[i].cond_reject_streak, 0u);
    EXPECT_FALSE(decoded.identities[i].cond_ema_init);
  }

  StreamEngineConfig config;
  config.max_ingest_rate_hz = 100.0;  // sample_checkpoint's config
  StreamEngine restored(config, decoded);
  restored.ingest(1, 30.0, -70.0);  // still serving
  EXPECT_GT(restored.stats().beacons_ingested,
            original.stats.beacons_ingested);
}

TEST(CheckpointCodec, SaveLoadFileRoundTrip) {
  const EngineCheckpoint original = sample_checkpoint();
  const std::string path = "test_checkpoint_roundtrip.vpck";
  std::string error;
  ASSERT_TRUE(save_image(encode_checkpoint(original), path, &error)) << error;
  std::vector<std::uint8_t> bytes;
  EngineCheckpoint loaded;
  ASSERT_TRUE(load_image(path, bytes, &error)) << error;
  ASSERT_TRUE(decode_checkpoint(bytes, &loaded, &error)) << error;
  EXPECT_EQ(encode_checkpoint(loaded), encode_checkpoint(original));
  std::remove(path.c_str());
  EXPECT_FALSE(load_image(path, bytes, &error));  // gone
}

}  // namespace
}  // namespace vp::stream

// --- Service kill/restore ----------------------------------------------

namespace vp::service {
namespace {

struct FleetRx {
  double time_s;
  SessionId session;
  IdentityId id;
  double rssi_dbm;
};

std::vector<FleetRx> fleet_trace(std::size_t sessions, std::size_t identities,
                                 double rate_hz, double duration_s) {
  std::vector<FleetRx> beacons;
  for (std::size_t s = 1; s <= sessions; ++s) {
    for (std::size_t i = 1; i <= identities; ++i) {
      Rng rng(mix64(mix64(0xc4a05, s), i));
      double shadow = 0.0;
      const double level = -62.0 - rng.uniform(0.0, 20.0);
      for (double t = rng.uniform(0.0, 0.1); t < duration_s;
           t += 1.0 / rate_hz) {
        shadow = 0.9 * shadow + rng.normal(0.0, 1.5);
        beacons.push_back({t, static_cast<SessionId>(s),
                           static_cast<IdentityId>(i), level + shadow});
      }
    }
  }
  std::sort(beacons.begin(), beacons.end(),
            [](const FleetRx& a, const FleetRx& b) {
              if (a.time_s != b.time_s) return a.time_s < b.time_s;
              if (a.session != b.session) return a.session < b.session;
              return a.id < b.id;
            });
  return beacons;
}

using SessionRounds = std::map<SessionId, std::vector<stream::StreamRound>>;

void expect_fleet_identical(const SessionRounds& actual,
                            const SessionRounds& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (const auto& [session, rounds] : expected) {
    SCOPED_TRACE("session=" + std::to_string(session));
    const auto it = actual.find(session);
    ASSERT_NE(it, actual.end());
    stream::expect_rounds_identical(it->second, rounds);
  }
}

TEST(ServiceCheckpoint, KillRestoreFleetParity) {
  constexpr double kDuration = 45.0;
  const std::vector<FleetRx> beacons = fleet_trace(3, 6, 10.0, kDuration);

  ServiceConfig config;
  config.shards = 3;
  config.threads = 1;
  config.engine.detector = core::tuned_simulation_options(1);

  const auto collect_into = [](SessionRounds& rounds) {
    return [&rounds](const SessionRound& r) {
      rounds[r.session].push_back(r.round);
    };
  };

  SessionRounds baseline;
  {
    DetectionService fleet(config);
    fleet.set_round_callback(collect_into(baseline));
    for (const FleetRx& rx : beacons) {
      fleet.ingest(rx.session, rx.id, rx.time_s, rx.rssi_dbm);
    }
    fleet.advance_all_to(kDuration);
  }
  ASSERT_FALSE(baseline.empty());

  for (std::size_t cut :
       {beacons.size() / 3, beacons.size() / 2, (4 * beacons.size()) / 5}) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    SessionRounds rounds;
    DetectionService first(config);
    first.set_round_callback(collect_into(rounds));
    for (std::size_t i = 0; i < cut; ++i) {
      first.ingest(beacons[i].session, beacons[i].id, beacons[i].time_s,
                   beacons[i].rssi_dbm);
    }
    first.pump();  // checkpoint requires a drained round queue

    // Kill: through the wire format, as a real restart would.
    const std::vector<std::uint8_t> bytes =
        encode_checkpoint(first.checkpoint());
    ServiceCheckpoint cp;
    std::string error;
    ASSERT_TRUE(decode_checkpoint(bytes, &cp, &error)) << error;

    // Restore under a different pool width: threads are results-neutral
    // and deliberately excluded from the config hash.
    ServiceConfig restore_config = config;
    restore_config.threads = 4;
    DetectionService second(restore_config, cp);
    second.set_round_callback(collect_into(rounds));
    for (std::size_t i = cut; i < beacons.size(); ++i) {
      second.ingest(beacons[i].session, beacons[i].id, beacons[i].time_s,
                    beacons[i].rssi_dbm);
    }
    second.advance_all_to(kDuration);
    expect_fleet_identical(rounds, baseline);
  }
}

TEST(ServiceCheckpoint, RequiresDrainedQueue) {
  ServiceConfig config;
  config.pump_batch_rounds = 0;  // no auto-pump: rounds stay queued
  DetectionService fleet(config);
  fleet.ingest(1, 1, 1.0, -70.0);
  fleet.ingest(1, 1, 21.0, -70.0);  // prepares + queues the round at t=20
  ASSERT_GT(fleet.queued_rounds(), 0u);
  EXPECT_THROW(fleet.checkpoint(), PreconditionError);
  fleet.pump();
  EXPECT_NO_THROW(fleet.checkpoint());
}

TEST(ServiceCheckpoint, CodecRejectsCorruptionAndWrongConfig) {
  ServiceConfig config;
  DetectionService fleet(config);
  fleet.ingest(7, 1, 1.0, -70.0);
  fleet.ingest(8, 2, 1.5, -72.0);
  fleet.pump();
  const ServiceCheckpoint cp = fleet.checkpoint();
  const std::vector<std::uint8_t> bytes = encode_checkpoint(cp);

  ServiceCheckpoint out;
  std::string error;
  ASSERT_TRUE(decode_checkpoint(bytes, &out, &error)) << error;
  EXPECT_EQ(encode_checkpoint(out), bytes);  // roundtrip is exact

  std::vector<std::uint8_t> corrupt = bytes;
  corrupt[0] ^= 0xff;  // magic
  EXPECT_FALSE(decode_checkpoint(corrupt, &out, &error));
  corrupt = bytes;
  corrupt[bytes.size() / 2] ^= 0x01;  // body → checksum mismatch
  EXPECT_FALSE(decode_checkpoint(corrupt, &out, &error));
  EXPECT_FALSE(decode_checkpoint(
      std::span<const std::uint8_t>(bytes.data(), bytes.size() - 1), &out,
      &error));

  ServiceConfig other = config;
  other.shards = config.shards + 1;  // placement-changing: must refuse
  EXPECT_THROW(DetectionService(other, cp), PreconditionError);
}

TEST(ServiceCheckpoint, SaveLoadFileRoundTrip) {
  ServiceConfig config;
  DetectionService fleet(config);
  fleet.ingest(3, 1, 1.0, -70.0);
  fleet.pump();
  const ServiceCheckpoint cp = fleet.checkpoint();
  const std::string path = "test_service_checkpoint_roundtrip.vpsc";
  std::string error;
  ASSERT_TRUE(save_image(encode_checkpoint(cp), path, &error)) << error;
  std::vector<std::uint8_t> bytes;
  ServiceCheckpoint loaded;
  ASSERT_TRUE(load_image(path, bytes, &error)) << error;
  ASSERT_TRUE(decode_checkpoint(bytes, &loaded, &error)) << error;
  EXPECT_EQ(encode_checkpoint(loaded), encode_checkpoint(cp));
  std::remove(path.c_str());
}

// A forged VPSC image past max_sessions must not restore: admission
// would never have opened that many.
TEST(ServiceCheckpoint, RestoreRefusesSessionsOverCap) {
  ServiceConfig config;
  config.max_sessions = 2;
  stream::StreamEngine engine(config.engine);
  engine.ingest(1, 1.0, -70.0);
  ServiceCheckpoint cp;
  cp.config_hash = service_config_hash(config);
  for (SessionId id = 1; id <= 2; ++id) {
    cp.sessions.push_back({id, 1.0, engine.checkpoint()});
  }
  // At the cap: restores.
  EXPECT_NO_THROW(DetectionService(config, stream::through_bytes(cp)));

  for (SessionId id = 3; id <= 6; ++id) {
    cp.sessions.push_back({id, 1.0, engine.checkpoint()});
  }
  EXPECT_THROW(DetectionService(config, stream::through_bytes(cp)),
               PreconditionError);
}

}  // namespace
}  // namespace vp::service
