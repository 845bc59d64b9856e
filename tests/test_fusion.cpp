// Fusion-layer invariants (DESIGN.md §13):
//   * Determinism — fused epochs, trust trajectories and counters are
//     bit-identical across every service shard/thread combination, and
//     across a mid-epoch kill/restore (service VPSC + fusion VPFU
//     checkpoints round-tripped through bytes).
//   * Quorum — exact weighted tie exonerates; a lone voter's verdict
//     stands (single-observer fallback); a multi-voter ballot needs
//     min_corroboration distinct accusers; a zero-delivery stretch closes
//     no epochs and emits no callbacks.
//   * Accounting — rounds_delivered = rounds_fused + rounds_expired +
//     rounds_pending after every observe/advance, including late rounds
//     for already-closed epochs.
//   * Codec — VPFU encode/decode is an exact roundtrip; corruptions are
//     rejected with a reason; restore refuses a config-hash mismatch and
//     trust scores outside [floor, ceiling].
//   * Report — build_fusion_bench_report validates clean and the
//     validator rejects a broken conservation law, out-of-range trust and
//     a fused/single rate inversion on a multi-observer row.
#include "fusion/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/error.h"
#include "fusion/checkpoint.h"
#include "fusion/report.h"
#include "obs/json.h"
#include "service/checkpoint.h"
#include "service/service.h"
#include "sim/world.h"
#include "stream/engine.h"

namespace vp::fusion {
namespace {

struct FleetRx {
  double time_s;
  NodeId observer;
  IdentityId id;
  double rssi_dbm;
};

std::vector<FleetRx> fleet_stream(const sim::World& world,
                                  const std::vector<NodeId>& observers,
                                  double horizon) {
  std::vector<FleetRx> fleet;
  for (NodeId observer : observers) {
    const sim::RssiLog& log = world.node(observer).log();
    for (IdentityId id : log.identities_heard(0.0, horizon, 1)) {
      for (const sim::BeaconRecord& r : log.records(id, 0.0, horizon)) {
        fleet.push_back({r.time_s, observer, id, r.rssi_dbm});
      }
    }
  }
  std::sort(fleet.begin(), fleet.end(), [](const FleetRx& a, const FleetRx& b) {
    if (a.time_s != b.time_s) return a.time_s < b.time_s;
    if (a.observer != b.observer) return a.observer < b.observer;
    return a.id < b.id;
  });
  return fleet;
}

stream::StreamEngineConfig engine_config_for(const sim::ScenarioConfig& c) {
  stream::StreamEngineConfig engine_config;
  engine_config.observation_time_s = c.observation_time_s;
  engine_config.round_period_s = c.detection_period_s;
  engine_config.density_estimation_period_s = c.density_estimation_period_s;
  engine_config.max_transmission_range_m = c.max_transmission_range_m;
  engine_config.min_samples = 4;
  return engine_config;
}

// Everything fusion produces for one run, compared bitwise.
struct Outcome {
  std::vector<FusedEpoch> epochs;
  std::map<std::uint64_t, double> identity_trust;
  std::map<std::uint64_t, double> observer_trust;
  FusionEngine::Stats stats;
};

void expect_outcomes_identical(const Outcome& actual,
                               const Outcome& expected) {
  ASSERT_EQ(actual.epochs.size(), expected.epochs.size());
  for (std::size_t i = 0; i < expected.epochs.size(); ++i) {
    const FusedEpoch& a = actual.epochs[i];
    const FusedEpoch& e = expected.epochs[i];
    EXPECT_EQ(a.index, e.index);
    EXPECT_EQ(a.rounds, e.rounds);
    EXPECT_EQ(a.max_round_id, e.max_round_id);
    ASSERT_EQ(a.verdicts.size(), e.verdicts.size());
    for (std::size_t v = 0; v < e.verdicts.size(); ++v) {
      EXPECT_EQ(a.verdicts[v].id, e.verdicts[v].id);
      EXPECT_EQ(a.verdicts[v].accused, e.verdicts[v].accused);
      // Bitwise: the weight sums run in one canonical order.
      EXPECT_EQ(a.verdicts[v].accuse_weight, e.verdicts[v].accuse_weight);
      EXPECT_EQ(a.verdicts[v].total_weight, e.verdicts[v].total_weight);
      EXPECT_EQ(a.verdicts[v].voters, e.verdicts[v].voters);
      EXPECT_EQ(a.verdicts[v].accusations, e.verdicts[v].accusations);
    }
  }
  EXPECT_EQ(actual.identity_trust, expected.identity_trust);
  EXPECT_EQ(actual.observer_trust, expected.observer_trust);
  EXPECT_EQ(actual.stats.rounds_delivered, expected.stats.rounds_delivered);
  EXPECT_EQ(actual.stats.rounds_fused, expected.stats.rounds_fused);
  EXPECT_EQ(actual.stats.rounds_expired, expected.stats.rounds_expired);
  EXPECT_EQ(actual.stats.epochs_closed, expected.stats.epochs_closed);
  EXPECT_EQ(actual.stats.votes_cast, expected.stats.votes_cast);
  EXPECT_EQ(actual.stats.verdicts_fused, expected.stats.verdicts_fused);
  EXPECT_EQ(actual.stats.accusations_fused,
            expected.stats.accusations_fused);
}

void check_conservation(const FusionEngine& engine) {
  const FusionEngine::Stats& s = engine.stats();
  EXPECT_EQ(s.rounds_delivered,
            s.rounds_fused + s.rounds_expired + engine.rounds_pending());
}

// Runs the fleet through a sharded service with fusion attached.
Outcome run_fused(const std::vector<FleetRx>& fleet,
                  const std::vector<NodeId>& observers,
                  const stream::StreamEngineConfig& engine_config,
                  const FusionConfig& fusion_config, double end_time,
                  std::size_t shards, std::size_t threads) {
  service::ServiceConfig service_config;
  service_config.shards = shards;
  service_config.threads = threads;
  service_config.max_sessions = observers.size() + 4;
  service_config.engine = engine_config;

  service::DetectionService service(service_config);
  FusionEngine fusion(fusion_config);
  Outcome outcome;
  fusion.set_epoch_callback(
      [&](const FusedEpoch& epoch) { outcome.epochs.push_back(epoch); });
  service.add_round_listener(
      [&](const service::SessionRound& round) { fusion.observe(round); });

  for (const FleetRx& rx : fleet) {
    service.ingest(static_cast<service::SessionId>(rx.observer), rx.id,
                   rx.time_s, rx.rssi_dbm);
    fusion.advance(rx.time_s);
  }
  service.advance_all_to(end_time);
  fusion.advance(end_time);
  fusion.finish();
  check_conservation(fusion);
  outcome.identity_trust = fusion.identity_trust().scores();
  outcome.observer_trust = fusion.observer_trust().scores();
  outcome.stats = fusion.stats();
  return outcome;
}

// A minimal synthetic round: `accused` go into the suspect set, the rest
// of `heard` only into the pair roster (exonerating votes).
service::SessionRound make_round(std::uint64_t observer, double time_s,
                                 std::vector<IdentityId> heard,
                                 std::vector<IdentityId> accused,
                                 double density_per_km = 10.0,
                                 std::uint64_t round_id = 1) {
  service::SessionRound round;
  round.session = observer;
  round.round.round_id = round_id;
  round.round.time_s = time_s;
  round.round.density_per_km = density_per_km;
  round.round.identities_heard = heard.size();
  for (std::size_t i = 0; i + 1 < heard.size(); ++i) {
    core::PairDistance pair;
    pair.a = heard[i];
    pair.b = heard[i + 1];
    pair.comparable = true;
    round.round.pairs.push_back(pair);
  }
  if (heard.size() == 1) {
    core::PairDistance pair;
    pair.a = heard[0];
    pair.b = heard[0];
    round.round.pairs.push_back(pair);
  }
  round.round.suspects = std::move(accused);
  return round;
}

// Flat-weight config for arithmetic-exact quorum tests.
FusionConfig flat_config() {
  FusionConfig config;
  config.weight_by_trust = false;
  config.weight_by_density = false;
  config.exoneration_weight = 1.0;
  config.min_corroboration = 1;
  return config;
}

TEST(FusionDeterminism, BitIdenticalAcrossShardAndThreadGrid) {
  sim::ScenarioConfig config;
  config.density_per_km = 12.0;
  config.sim_time_s = 40.0;
  config.seed = 11;
  sim::World world(config);
  world.run();

  const std::vector<NodeId> normals = world.normal_node_ids();
  ASSERT_GE(normals.size(), 4u);
  const std::vector<NodeId> observers(normals.begin(), normals.begin() + 4);
  const std::vector<FleetRx> fleet =
      fleet_stream(world, observers, config.sim_time_s + 1.0);
  const stream::StreamEngineConfig engine_config = engine_config_for(config);
  const double end_time = world.detection_times().back();
  FusionConfig fusion_config;
  fusion_config.epoch_period_s = config.detection_period_s;

  std::optional<Outcome> reference;
  for (std::size_t shards : {1u, 4u}) {
    for (std::size_t threads : {0u, 1u, 4u}) {
      Outcome outcome = run_fused(fleet, observers, engine_config,
                                  fusion_config, end_time, shards, threads);
      EXPECT_GT(outcome.stats.rounds_delivered, 0u);
      EXPECT_GT(outcome.epochs.size(), 0u);
      if (!reference.has_value()) {
        reference = std::move(outcome);
      } else {
        expect_outcomes_identical(outcome, *reference);
      }
    }
  }
}

TEST(FusionDeterminism, MidEpochKillRestoreParity) {
  sim::ScenarioConfig config;
  config.density_per_km = 12.0;
  config.sim_time_s = 40.0;
  config.seed = 13;
  sim::World world(config);
  world.run();

  const std::vector<NodeId> normals = world.normal_node_ids();
  ASSERT_GE(normals.size(), 3u);
  const std::vector<NodeId> observers(normals.begin(), normals.begin() + 3);
  const std::vector<FleetRx> fleet =
      fleet_stream(world, observers, config.sim_time_s + 1.0);
  const stream::StreamEngineConfig engine_config = engine_config_for(config);
  const double end_time = world.detection_times().back();
  FusionConfig fusion_config;
  fusion_config.epoch_period_s = config.detection_period_s;

  const Outcome uninterrupted = run_fused(fleet, observers, engine_config,
                                          fusion_config, end_time, 4, 0);

  // Kill past the first detection round (t = 20) but before its epoch
  // closes (watermark 40), so an epoch is open with buffered votes when
  // the checkpoint is cut.
  const double kill_time = 30.0;

  service::ServiceConfig service_config;
  service_config.shards = 4;
  service_config.threads = 0;
  service_config.max_sessions = observers.size() + 4;
  service_config.engine = engine_config;

  Outcome outcome;
  service::DetectionService first(service_config);
  FusionEngine fusion_first(fusion_config);
  fusion_first.set_epoch_callback(
      [&](const FusedEpoch& epoch) { outcome.epochs.push_back(epoch); });
  first.add_round_listener(
      [&](const service::SessionRound& round) { fusion_first.observe(round); });

  std::size_t cursor = 0;
  for (; cursor < fleet.size() && fleet[cursor].time_s < kill_time; ++cursor) {
    const FleetRx& rx = fleet[cursor];
    first.ingest(static_cast<service::SessionId>(rx.observer), rx.id,
                 rx.time_s, rx.rssi_dbm);
    fusion_first.advance(rx.time_s);
  }
  first.pump();  // drain the round queue (delivers into fusion_first)

  // The kill must land mid-epoch for the test to mean anything.
  ASSERT_GT(fusion_first.rounds_pending(), 0u);
  check_conservation(fusion_first);

  // Both checkpoints round-trip through their byte codecs, as a real
  // crash-recovery would.
  const std::vector<std::uint8_t> service_bytes =
      service::encode_checkpoint(first.checkpoint());
  const std::vector<std::uint8_t> fusion_bytes =
      encode_checkpoint(fusion_first.checkpoint());
  service::ServiceCheckpoint service_cp;
  FusionCheckpoint fusion_cp;
  std::string error;
  ASSERT_TRUE(service::decode_checkpoint(service_bytes, &service_cp, &error))
      << error;
  ASSERT_TRUE(decode_checkpoint(fusion_bytes, &fusion_cp, &error)) << error;

  service::DetectionService second(service_config, service_cp);
  FusionEngine fusion_second(fusion_config, fusion_cp);
  EXPECT_EQ(fusion_second.rounds_pending(), fusion_first.rounds_pending());
  fusion_second.set_epoch_callback(
      [&](const FusedEpoch& epoch) { outcome.epochs.push_back(epoch); });
  second.add_round_listener([&](const service::SessionRound& round) {
    fusion_second.observe(round);
  });

  for (; cursor < fleet.size(); ++cursor) {
    const FleetRx& rx = fleet[cursor];
    second.ingest(static_cast<service::SessionId>(rx.observer), rx.id,
                  rx.time_s, rx.rssi_dbm);
    fusion_second.advance(rx.time_s);
  }
  second.advance_all_to(end_time);
  fusion_second.advance(end_time);
  fusion_second.finish();
  check_conservation(fusion_second);
  outcome.identity_trust = fusion_second.identity_trust().scores();
  outcome.observer_trust = fusion_second.observer_trust().scores();
  outcome.stats = fusion_second.stats();

  expect_outcomes_identical(outcome, uninterrupted);
}

TEST(FusionQuorum, ExactTieExonerates) {
  FusionEngine engine(flat_config());
  std::vector<FusedEpoch> epochs;
  engine.set_epoch_callback(
      [&](const FusedEpoch& epoch) { epochs.push_back(epoch); });
  // Observer 1 accuses identity 7; observer 2 heard it clean. Symmetric
  // weights → exact tie → exonerated (strict quorum).
  engine.observe(make_round(1, 5.0, {7, 8}, {7}));
  engine.observe(make_round(2, 6.0, {7, 8}, {}));
  engine.finish();
  ASSERT_EQ(epochs.size(), 1u);
  const FusedEpoch& epoch = epochs[0];
  ASSERT_EQ(epoch.verdicts.size(), 2u);
  EXPECT_EQ(epoch.verdicts[0].id, 7u);
  EXPECT_EQ(epoch.verdicts[0].voters, 2u);
  EXPECT_EQ(epoch.verdicts[0].accusations, 1u);
  EXPECT_EQ(epoch.verdicts[0].accuse_weight, 1.0);
  EXPECT_EQ(epoch.verdicts[0].total_weight, 2.0);
  EXPECT_FALSE(epoch.verdicts[0].accused);  // tie is not a majority
  EXPECT_FALSE(epoch.verdicts[1].accused);
}

TEST(FusionQuorum, SingleObserverFallback) {
  // min_corroboration (default 2) must not mute a fleet of one: a lone
  // voter's verdict stands verbatim.
  FusionConfig config;  // defaults: trust+density weighting, min_corr 2
  FusionEngine engine(config);
  std::vector<FusedEpoch> epochs;
  engine.set_epoch_callback(
      [&](const FusedEpoch& epoch) { epochs.push_back(epoch); });
  engine.observe(make_round(1, 5.0, {7, 8}, {7}));
  engine.finish();
  ASSERT_EQ(epochs.size(), 1u);
  ASSERT_EQ(epochs[0].verdicts.size(), 2u);
  EXPECT_EQ(epochs[0].verdicts[0].id, 7u);
  EXPECT_TRUE(epochs[0].verdicts[0].accused);
  EXPECT_FALSE(epochs[0].verdicts[1].accused);
}

TEST(FusionQuorum, MinCorroborationSuppressesLoneAccuserOnMultiVoterBallot) {
  FusionConfig config = flat_config();
  config.exoneration_weight = 0.5;
  config.min_corroboration = 2;
  FusionEngine engine(config);
  std::vector<FusedEpoch> epochs;
  engine.set_epoch_callback(
      [&](const FusedEpoch& epoch) { epochs.push_back(epoch); });
  // 1-of-2 would win the weight quorum (1.0 > 0.5 × 1.5) but has only one
  // accuser; 2-of-3 passes both tests.
  engine.observe(make_round(1, 5.0, {7, 9}, {7, 9}));
  engine.observe(make_round(2, 6.0, {7, 9}, {9}));
  engine.observe(make_round(3, 7.0, {9}, {}));
  engine.finish();
  ASSERT_EQ(epochs.size(), 1u);
  ASSERT_EQ(epochs[0].verdicts.size(), 2u);
  EXPECT_EQ(epochs[0].verdicts[0].id, 7u);
  EXPECT_EQ(epochs[0].verdicts[0].accusations, 1u);
  EXPECT_FALSE(epochs[0].verdicts[0].accused);  // lone accuser, 2 voters
  EXPECT_EQ(epochs[0].verdicts[1].id, 9u);
  EXPECT_EQ(epochs[0].verdicts[1].accusations, 2u);
  EXPECT_TRUE(epochs[0].verdicts[1].accused);  // corroborated majority
}

TEST(FusionQuorum, ZeroDeliveryEpochClosesNothing) {
  FusionEngine engine(flat_config());
  std::size_t callbacks = 0;
  engine.set_epoch_callback([&](const FusedEpoch&) { ++callbacks; });
  engine.advance(500.0);  // watermark sails past many empty epochs
  engine.finish();
  EXPECT_EQ(callbacks, 0u);
  EXPECT_EQ(engine.stats().epochs_closed, 0u);
  EXPECT_EQ(engine.rounds_pending(), 0u);
  check_conservation(engine);
}

TEST(FusionAccounting, LateRoundForClosedEpochCountsExpired) {
  FusionEngine engine(flat_config());  // epoch_period 20
  std::size_t callbacks = 0;
  engine.set_epoch_callback([&](const FusedEpoch&) { ++callbacks; });
  engine.observe(make_round(1, 5.0, {7}, {7}));
  engine.advance(45.0);  // closes epochs 0 and 1
  EXPECT_EQ(callbacks, 1u);
  EXPECT_EQ(engine.stats().rounds_fused, 1u);
  // A round for epoch 0 arriving after the close is expired, not fused.
  engine.observe(make_round(2, 6.0, {7}, {7}));
  EXPECT_EQ(engine.stats().rounds_expired, 1u);
  EXPECT_EQ(engine.rounds_pending(), 0u);
  check_conservation(engine);
  engine.finish();
  EXPECT_EQ(callbacks, 1u);  // nothing further to close
  check_conservation(engine);
}

TEST(FusionTrust, TrajectoriesFollowVerdictsAndStayBounded) {
  FusionConfig config = flat_config();
  config.min_corroboration = 2;
  FusionEngine engine(config);
  engine.set_epoch_callback([](const FusedEpoch&) {});
  // Five epochs of observers 1 and 2 both accusing identity 7 while
  // identity 8 is heard clean.
  for (int epoch = 0; epoch < 5; ++epoch) {
    const double t = 5.0 + 20.0 * epoch;
    engine.observe(make_round(1, t, {7, 8}, {7}));
    engine.observe(make_round(2, t + 1.0, {7, 8}, {7}));
    engine.advance(20.0 * (epoch + 1) + 10.0);
  }
  engine.finish();
  const TrustConfig& trust = config.trust;
  // Identity 7: 0.5 − 5 × 0.15, clamped at the floor after epoch 4.
  EXPECT_EQ(engine.identity_trust().get(7), trust.floor);
  // Identity 8: 0.5 + 5 × 0.05 = 0.75, monotone recovery.
  EXPECT_NEAR(engine.identity_trust().get(8), 0.75, 1e-12);
  // Corroborated accusers earn the reward each epoch.
  EXPECT_NEAR(engine.observer_trust().get(1), 0.5 + 5 * 0.02, 1e-12);
  EXPECT_NEAR(engine.observer_trust().get(2), 0.5 + 5 * 0.02, 1e-12);

  // Badmouthing: observer 3 accuses against two exonerating peers.
  FusionEngine engine2(config);
  engine2.observe(make_round(3, 5.0, {7, 8}, {7}));
  engine2.observe(make_round(4, 6.0, {7, 8}, {}));
  engine2.observe(make_round(5, 7.0, {7, 8}, {}));
  engine2.finish();
  EXPECT_NEAR(engine2.observer_trust().get(3), 0.5 - 0.10, 1e-12);
  // The exonerated identity recovers instead of decaying.
  EXPECT_NEAR(engine2.identity_trust().get(7), 0.55, 1e-12);

  // Bounds hold no matter how long the pressure continues.
  for (int epoch = 0; epoch < 30; ++epoch) {
    const double t = 105.0 + 20.0 * epoch;
    engine2.observe(make_round(4, t, {7, 8}, {7}));
    engine2.observe(make_round(5, t + 1.0, {7, 8}, {7}));
    engine2.advance(t + 30.0);
  }
  engine2.finish();
  for (const auto& [id, score] : engine2.identity_trust().scores()) {
    EXPECT_GE(score, trust.floor);
    EXPECT_LE(score, trust.ceiling);
  }
  for (const auto& [id, score] : engine2.observer_trust().scores()) {
    EXPECT_GE(score, trust.floor);
    EXPECT_LE(score, trust.ceiling);
  }
  EXPECT_EQ(engine2.identity_trust().get(7), trust.floor);
}

TEST(FusionCheckpointCodec, RoundtripPreservesEverything) {
  FusionConfig config;
  FusionEngine engine(config);
  engine.observe(make_round(1, 5.0, {7, 8}, {7}, 12.0, 3));
  engine.observe(make_round(2, 25.0, {7, 9}, {}, 8.0, 4));
  engine.advance(30.0);  // closes epoch 0, leaves epoch 1 open

  const FusionCheckpoint original = engine.checkpoint();
  EXPECT_EQ(original.config_hash, fusion_config_hash(config));
  ASSERT_EQ(original.epochs.size(), 1u);  // the open epoch only
  EXPECT_GT(original.identity_trust.size(), 0u);

  const std::vector<std::uint8_t> bytes = encode_checkpoint(original);
  FusionCheckpoint decoded;
  std::string error;
  ASSERT_TRUE(decode_checkpoint(bytes, &decoded, &error)) << error;
  EXPECT_EQ(decoded.config_hash, original.config_hash);
  EXPECT_EQ(decoded.watermark, original.watermark);
  EXPECT_EQ(decoded.closed_before, original.closed_before);
  EXPECT_EQ(decoded.identity_trust, original.identity_trust);
  EXPECT_EQ(decoded.observer_trust, original.observer_trust);
  ASSERT_EQ(decoded.epochs.size(), original.epochs.size());
  const EpochCheckpoint& eo = original.epochs[0];
  const EpochCheckpoint& ed = decoded.epochs[0];
  EXPECT_EQ(ed.index, eo.index);
  EXPECT_EQ(ed.rounds, eo.rounds);
  EXPECT_EQ(ed.max_round_id, eo.max_round_id);
  ASSERT_EQ(ed.votes.size(), eo.votes.size());
  for (std::size_t i = 0; i < eo.votes.size(); ++i) {
    EXPECT_EQ(ed.votes[i].identity, eo.votes[i].identity);
    EXPECT_EQ(ed.votes[i].observer, eo.votes[i].observer);
    EXPECT_EQ(ed.votes[i].accused, eo.votes[i].accused);
    EXPECT_EQ(ed.votes[i].density_per_km, eo.votes[i].density_per_km);
    EXPECT_EQ(ed.votes[i].time_s, eo.votes[i].time_s);
  }
}

TEST(FusionCheckpointCodec, RejectsCorruption) {
  FusionEngine engine(FusionConfig{});
  engine.observe(make_round(1, 5.0, {7, 8}, {7}));
  const std::vector<std::uint8_t> bytes =
      encode_checkpoint(engine.checkpoint());
  std::string error;

  // Any single-byte flip breaks the checksum (or a structural check).
  for (std::size_t i = 0; i < bytes.size(); i += 7) {
    std::vector<std::uint8_t> corrupt = bytes;
    corrupt[i] ^= 0x40;
    EXPECT_FALSE(decode_checkpoint(corrupt, nullptr, &error)) << i;
  }
  // Truncations at every length.
  for (std::size_t len = 0; len < bytes.size(); len += 11) {
    const std::vector<std::uint8_t> prefix(bytes.begin(),
                                           bytes.begin() + len);
    EXPECT_FALSE(decode_checkpoint(prefix, nullptr, &error)) << len;
  }
  // Trailing garbage shifts the checksum window off the real one.
  std::vector<std::uint8_t> padded = bytes;
  padded.push_back(0);
  EXPECT_FALSE(decode_checkpoint(padded, nullptr, &error));

  // Restore refuses a config-hash mismatch.
  FusionCheckpoint cp;
  ASSERT_TRUE(decode_checkpoint(bytes, &cp, &error)) << error;
  FusionConfig other;
  other.quorum_fraction = 0.75;
  EXPECT_THROW(FusionEngine(other, cp), PreconditionError);
}

// TrustStore::adjust clamps every live score into [floor, ceiling]; a
// forged VPFU image with the right config hash must not restore one
// outside it, in either store.
TEST(FusionCheckpointCodec, RestoreRefusesTrustOutsideBounds) {
  const FusionConfig config;
  FusionCheckpoint cp;
  cp.config_hash = fusion_config_hash(config);
  cp.identity_trust = {{7, config.trust.floor}, {8, config.trust.ceiling}};
  cp.observer_trust = {{1, config.trust.initial}};
  const auto through_bytes = [](const FusionCheckpoint& forged) {
    FusionCheckpoint decoded;
    std::string error;
    EXPECT_TRUE(decode_checkpoint(encode_checkpoint(forged), &decoded, &error))
        << error;
    return decoded;
  };
  EXPECT_NO_THROW(FusionEngine(config, through_bytes(cp)));  // the bounds

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double score : {nan, inf, -0.25, 5.0}) {
    FusionCheckpoint forged = cp;
    forged.identity_trust[9] = score;
    EXPECT_THROW(FusionEngine(config, through_bytes(forged)),
                 PreconditionError)
        << "identity trust " << score;
    forged = cp;
    forged.observer_trust[2] = score;
    EXPECT_THROW(FusionEngine(config, through_bytes(forged)),
                 PreconditionError)
        << "observer trust " << score;
  }
}

obs::json::Value sample_report() {
  FusionBenchConfigResult row;
  row.label = "observers_6";
  row.observers = 6;
  row.density_per_km = 12.0;
  row.attackers = 1;
  row.sim_time_s = 60.0;
  row.rounds_delivered = 12;
  row.rounds_fused = 10;
  row.rounds_expired = 1;
  row.rounds_pending = 1;
  row.epochs_closed = 2;
  row.votes_cast = 40;
  row.single_dr = 0.6;
  row.single_fpr = 0.02;
  row.single_dr_samples = 12;
  row.single_fpr_samples = 12;
  row.fused_dr = 1.0;
  row.fused_fpr = 0.0;
  row.fused_dr_samples = 2;
  row.fused_fpr_samples = 2;
  row.cpvsad_dr = 0.55;
  row.cpvsad_fpr = 0.03;
  row.trust_min = 0.1;
  row.trust_max = 0.9;
  row.honest_identity_trust_min = 0.45;
  return build_fusion_bench_report("test", 5, {row});
}

obs::json::Value& row_field(obs::json::Value& report, const std::string& key) {
  return report.as_object().at("configs").as_array()[0].as_object().at(key);
}

TEST(FusionBenchReport, ValidatesCleanAndRejectsBrokenRows) {
  obs::json::Value report = sample_report();
  std::string error;
  EXPECT_TRUE(validate_fusion_bench(report, &error)) << error;

  {  // broken conservation law
    obs::json::Value broken = sample_report();
    row_field(broken, "rounds_fused") = obs::json::Value(9.0);
    EXPECT_FALSE(validate_fusion_bench(broken, &error));
    EXPECT_NE(error.find("rounds_delivered"), std::string::npos) << error;
  }
  {  // trust out of [0, 1]
    obs::json::Value broken = sample_report();
    row_field(broken, "trust_max") = obs::json::Value(1.5);
    EXPECT_FALSE(validate_fusion_bench(broken, &error));
  }
  {  // fused FPR above single on a multi-observer row
    obs::json::Value broken = sample_report();
    row_field(broken, "fused_fpr") = obs::json::Value(0.5);
    EXPECT_FALSE(validate_fusion_bench(broken, &error));
    EXPECT_NE(error.find("fused_fpr"), std::string::npos) << error;
  }
  {  // fused DR below single on a multi-observer row
    obs::json::Value broken = sample_report();
    row_field(broken, "fused_dr") = obs::json::Value(0.1);
    EXPECT_FALSE(validate_fusion_bench(broken, &error));
    EXPECT_NE(error.find("fused_dr"), std::string::npos) << error;
  }
  {  // a rate outside [0, 1]
    obs::json::Value broken = sample_report();
    row_field(broken, "single_dr") = obs::json::Value(-0.25);
    EXPECT_FALSE(validate_fusion_bench(broken, &error));
  }
  {  // wrong schema tag
    obs::json::Value broken = sample_report();
    broken.as_object().at("schema") =
        obs::json::Value(std::string("voiceprint.other/v1"));
    EXPECT_FALSE(validate_fusion_bench(broken, &error));
  }
}

}  // namespace
}  // namespace vp::fusion
