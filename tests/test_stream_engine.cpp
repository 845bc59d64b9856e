// StreamEngine invariants (DESIGN.md §8):
//   * Parity — on traces the rings fully retain, every confirmation round
//     is bit-identical (suspects, pair list, density) to the batch
//     VoiceprintDetector on the same window, at every thread count, over
//     both the highway simulator and the field-test generator.
//   * Bounded memory — under 10× overload the identity cap and ring
//     capacity are never exceeded, every shed beacon is counted, and the
//     engine keeps producing rounds.
#include "stream/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "core/detector.h"
#include "fieldtest/scenario3.h"
#include "sim/world.h"

namespace vp::stream {
namespace {

struct Rx {
  double time_s;
  IdentityId id;
  double rssi_dbm;
};

// One radio's receptions in arrival order, merged from the per-identity
// logs by (time, id).
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

void expect_pairs_identical(const std::vector<core::PairDistance>& streamed,
                            const std::vector<core::PairDistance>& batch) {
  ASSERT_EQ(streamed.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(streamed[i].a, batch[i].a);
    EXPECT_EQ(streamed[i].b, batch[i].b);
    EXPECT_EQ(streamed[i].comparable, batch[i].comparable);
    EXPECT_EQ(streamed[i].raw, batch[i].raw);                // bitwise, no NEAR
    EXPECT_EQ(streamed[i].normalized, batch[i].normalized);
  }
}

class StreamEngineSimParity : public ::testing::TestWithParam<std::size_t> {};

// The tentpole invariant over a simulator trace: stream the observer's
// beacons, and every round must reproduce the batch detector bit for bit.
TEST_P(StreamEngineSimParity, RoundsMatchBatchDetector) {
  const std::size_t threads = GetParam();
  sim::ScenarioConfig config;
  config.density_per_km = 15.0;
  config.sim_time_s = 60.0;
  config.seed = 11;
  sim::World world(config);
  world.run();

  const std::vector<double> detection_times = world.detection_times();
  const std::vector<NodeId> normals = world.normal_node_ids();
  ASSERT_GE(normals.size(), 2u);
  constexpr std::size_t kMinSamples = 4;

  for (NodeId observer : {normals.front(), normals.back()}) {
    StreamEngineConfig engine_config;
    engine_config.observation_time_s = config.observation_time_s;
    engine_config.round_period_s = config.detection_period_s;
    engine_config.density_estimation_period_s =
        config.density_estimation_period_s;
    engine_config.max_transmission_range_m = config.max_transmission_range_m;
    engine_config.min_samples = kMinSamples;
    engine_config.detector = core::tuned_simulation_options(threads);
    StreamEngine engine(engine_config);

    core::VoiceprintDetector batch(core::tuned_simulation_options(threads));
    std::size_t rounds_seen = 0;
    engine.set_round_callback([&](const StreamRound& round) {
      ASSERT_LT(rounds_seen, detection_times.size());
      // Round instants are bit-equal to World::detection_times.
      EXPECT_EQ(round.time_s, detection_times[rounds_seen]);
      const sim::ObservationWindow window =
          world.observe(observer, round.time_s, kMinSamples);
      const std::vector<IdentityId> expected = batch.detect_window(window);
      EXPECT_EQ(round.density_per_km, window.estimated_density_per_km);
      EXPECT_EQ(round.identities_heard, window.neighbors.size());
      EXPECT_EQ(round.suspects, expected);
      expect_pairs_identical(round.pairs, batch.last_all_pairs());
      ++rounds_seen;
    });

    for (const Rx& rx : arrival_stream(world.node(observer).log(),
                                       config.sim_time_s + 1.0)) {
      engine.ingest(rx.id, rx.time_s, rx.rssi_dbm);
    }
    engine.advance_to(detection_times.back());
    EXPECT_EQ(rounds_seen, detection_times.size());
    EXPECT_EQ(engine.stats().rounds, detection_times.size());
    EXPECT_EQ(engine.stats().beacons_offered, engine.stats().beacons_ingested);
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, StreamEngineSimParity,
                         ::testing::Values(1u, 2u, 0u));

// Same invariant over the field-test generator's traces (node 3, the
// observer the paper reports), with the field test's fixed density.
TEST(StreamEngine, FieldTestReplayParity) {
  ft::FieldTestConfig config;
  config.area = ft::Area::kCampus;
  config.duration_s = 240.0;
  const ft::FieldTestData data = ft::run_field_test(config);
  const sim::RssiLog& log = data.logs.at(ft::kNormalNode3);
  constexpr std::size_t kMinSamples = 4;

  StreamEngineConfig engine_config;
  engine_config.observation_time_s = config.observation_time_s;
  engine_config.round_period_s = config.detection_period_s;
  engine_config.min_samples = kMinSamples;
  engine_config.staleness_horizon_s = 120.0;  // a red light is not goodbye
  engine_config.detector.fixed_density_per_km = 4.0;  // four-vehicle fleet
  StreamEngine engine(engine_config);

  core::VoiceprintDetector batch(engine_config.detector);
  std::size_t rounds_seen = 0;
  engine.set_round_callback([&](const StreamRound& round) {
    const double t0 = round.time_s - config.observation_time_s;
    std::vector<core::NamedSeries> series;
    for (IdentityId id :
         log.identities_heard(t0, round.time_s, kMinSamples)) {
      series.emplace_back(id, log.rssi_series(id, t0, round.time_s));
    }
    const std::vector<IdentityId> expected =
        batch.detect_series(series, round.density_per_km);
    EXPECT_EQ(round.identities_heard, series.size());
    EXPECT_EQ(round.suspects, expected);
    expect_pairs_identical(round.pairs, batch.last_all_pairs());
    ++rounds_seen;
  });

  for (const Rx& rx : arrival_stream(log, data.duration_s + 1.0)) {
    engine.ingest(rx.id, rx.time_s, rx.rssi_dbm);
  }
  engine.advance_to(data.duration_s);
  EXPECT_GE(rounds_seen, 3u);
  EXPECT_GT(engine.stats().beacons_ingested, 0u);
}

// 10× overload: offered load is ten times the admission cap, rings are a
// fraction of a window, the identity cap is half the offered identities.
// The engine must shed — visibly — and never exceed a single bound.
TEST(StreamEngine, OverloadStaysBoundedAndCountsShedWork) {
  constexpr std::size_t kIdentities = 40;
  constexpr double kRateHz = 10.0;
  constexpr double kDuration = 50.0;

  StreamEngineConfig config;
  config.max_ingest_rate_hz = kIdentities * kRateHz / 10.0;  // 10× overload
  config.ring_capacity = 16;
  config.max_identities = kIdentities / 2;
  config.staleness_horizon_s = 25.0;
  StreamEngine engine(config);

  Rng rng(99);
  std::vector<Rx> beacons;
  for (std::size_t i = 0; i < kIdentities; ++i) {
    double shadow = 0.0;
    for (double t = rng.uniform(0.0, 0.1); t < kDuration; t += 1.0 / kRateHz) {
      shadow = 0.9 * shadow + rng.normal(0.0, 1.5);
      beacons.push_back({t, static_cast<IdentityId>(i + 1),
                         -70.0 + shadow});
    }
  }
  std::sort(beacons.begin(), beacons.end(), [](const Rx& a, const Rx& b) {
    return a.time_s != b.time_s ? a.time_s < b.time_s : a.id < b.id;
  });

  std::uint64_t accepted = 0;
  for (const Rx& rx : beacons) {
    const auto admission = engine.ingest(rx.id, rx.time_s, rx.rssi_dbm);
    if (admission == StreamEngine::Admission::kAccepted) ++accepted;
    ASSERT_LE(engine.identities_tracked(), config.max_identities);
  }
  engine.advance_to(kDuration);

  const StreamEngine::Stats& stats = engine.stats();
  EXPECT_EQ(stats.beacons_offered, beacons.size());
  EXPECT_EQ(stats.beacons_ingested, accepted);
  // Conservation: every offered beacon is accounted for.
  EXPECT_EQ(stats.beacons_offered,
            stats.beacons_ingested + stats.beacons_shed_rate_limited +
                stats.beacons_shed_identity_cap +
                stats.beacons_shed_out_of_order);
  EXPECT_GT(stats.beacons_shed_rate_limited, 0u);
  EXPECT_GT(stats.beacons_shed_identity_cap, 0u);
  // Rings far below a window's worth of beacons evict their oldest.
  EXPECT_GT(stats.ring_evictions, 0u);
  // Graceful degradation, not a stall: rounds kept coming (t = 20, 40).
  EXPECT_EQ(stats.rounds, 2u);
  ASSERT_TRUE(engine.last_round().has_value());
  EXPECT_EQ(engine.last_round()->time_s, 40.0);
}

TEST(StreamEngine, ShedsOutOfOrderAndLateBeacons) {
  StreamEngineConfig config;
  StreamEngine engine(config);
  EXPECT_EQ(engine.ingest(1, 5.0, -70.0), StreamEngine::Admission::kAccepted);
  // Per-identity time regression.
  EXPECT_EQ(engine.ingest(1, 4.0, -70.0),
            StreamEngine::Admission::kShedOutOfOrder);
  // Equal timestamps are fine (CCH + SCH), other identities unaffected.
  EXPECT_EQ(engine.ingest(1, 5.0, -71.0), StreamEngine::Admission::kAccepted);
  EXPECT_EQ(engine.ingest(2, 4.5, -80.0), StreamEngine::Admission::kAccepted);
  // Crossing a round boundary closes earlier windows.
  engine.advance_to(20.0);
  EXPECT_EQ(engine.stats().rounds, 1u);
  EXPECT_EQ(engine.ingest(3, 19.0, -75.0),
            StreamEngine::Admission::kShedOutOfOrder);
  EXPECT_EQ(engine.ingest(3, 20.0, -75.0), StreamEngine::Admission::kAccepted);
  EXPECT_EQ(engine.stats().beacons_shed_out_of_order, 2u);
}

TEST(StreamEngine, ExpiresStaleIdentities) {
  StreamEngineConfig config;
  config.staleness_horizon_s = 25.0;
  StreamEngine engine(config);
  engine.ingest(1, 1.0, -70.0);
  engine.ingest(2, 1.0, -72.0);
  EXPECT_EQ(engine.identities_tracked(), 2u);
  // Identity 2 keeps beaconing; identity 1 goes silent.
  for (double t = 2.0; t <= 44.0; t += 1.0) engine.ingest(2, t, -72.0);
  engine.advance_to(40.0);  // round at 40: identity 1 silent for 39 s
  EXPECT_EQ(engine.identities_tracked(), 1u);
  EXPECT_EQ(engine.stats().identities_expired, 1u);
}

// A beacon landing exactly on a round boundary belongs to the next
// window, exactly like the batch half-open cut.
TEST(StreamEngine, RoundBoundaryIsHalfOpen) {
  StreamEngineConfig config;
  config.min_samples = 1;
  StreamEngine engine(config);
  for (double t = 1.0; t < 20.0; t += 1.0) engine.ingest(7, t, -70.0);
  std::vector<std::size_t> heard;
  engine.set_round_callback([&](const StreamRound& round) {
    heard.push_back(round.identities_heard);
  });
  engine.ingest(7, 20.0, -70.0);  // triggers the round at t=20 first
  ASSERT_EQ(heard.size(), 1u);
  EXPECT_EQ(heard[0], 1u);
  ASSERT_TRUE(engine.last_round().has_value());
  // The t=20 sample is outside [0, 20): 19 samples in the window.
  EXPECT_EQ(engine.last_round()->pairs.size(), 0u);
}

// A beacon at exactly t = 0 is the earliest admissible sample and lands
// inside the first window [0, 20).
TEST(StreamEngine, BeaconAtTimeZeroIsInFirstWindow) {
  StreamEngineConfig config;
  config.min_samples = 1;
  StreamEngine engine(config);
  EXPECT_EQ(engine.ingest(3, 0.0, -70.0), StreamEngine::Admission::kAccepted);
  engine.advance_to(20.0);
  const StreamEngine::Stats& stats = engine.stats();
  EXPECT_EQ(stats.rounds, 1u);
  ASSERT_TRUE(engine.last_round().has_value());
  EXPECT_EQ(engine.last_round()->time_s, 20.0);
  EXPECT_EQ(engine.last_round()->identities_heard, 1u);
  // Eq. 9 counts only the trailing estimation period [10, 20): the t=0
  // beacon is in the observation window but not the density window.
  EXPECT_EQ(engine.last_round()->density_per_km, 0.0);
}

// An engine that never hears anything still closes its rounds: empty
// windows, zero density, no suspects — and no crash or stall.
TEST(StreamEngine, EmptyTraceProducesEmptyRounds) {
  StreamEngineConfig config;
  StreamEngine engine(config);
  std::vector<StreamRound> rounds;
  engine.set_round_callback(
      [&](const StreamRound& round) { rounds.push_back(round); });
  engine.advance_to(60.0);
  ASSERT_EQ(rounds.size(), 3u);  // t = 20, 40, 60
  for (const StreamRound& round : rounds) {
    EXPECT_EQ(round.identities_heard, 0u);
    EXPECT_TRUE(round.suspects.empty());
    EXPECT_TRUE(round.pairs.empty());
    EXPECT_EQ(round.density_per_km, 0.0);
  }
  EXPECT_EQ(engine.stats().beacons_offered, 0u);
}

// A round falling due exactly on the final beacon's timestamp runs
// before that beacon is admitted, so the beacon is outside the closing
// window — and a subsequent advance_to the same instant is idempotent.
TEST(StreamEngine, RoundDueExactlyOnFinalBeaconTimestamp) {
  StreamEngineConfig config;
  config.min_samples = 1;
  StreamEngine engine(config);
  std::vector<StreamRound> rounds;
  engine.set_round_callback(
      [&](const StreamRound& round) { rounds.push_back(round); });
  for (double t = 1.0; t <= 39.0; t += 1.0) engine.ingest(5, t, -70.0);
  // The trace's last beacon lands exactly at the round instant: rounds at
  // 20 and 40 both close first, then the beacon is accepted into [40, ·).
  EXPECT_EQ(engine.ingest(5, 40.0, -70.0), StreamEngine::Admission::kAccepted);
  ASSERT_EQ(rounds.size(), 2u);
  EXPECT_EQ(rounds[0].time_s, 20.0);
  EXPECT_EQ(rounds[1].time_s, 40.0);
  // [20, 40) holds the beacons at 20..39, not the one at 40.
  EXPECT_EQ(rounds[1].identities_heard, 1u);
  engine.advance_to(40.0);  // idempotent: no third round
  EXPECT_EQ(engine.stats().rounds, 2u);
  EXPECT_EQ(engine.stats().beacons_ingested, 40u);
}

}  // namespace
}  // namespace vp::stream
