// End-to-end oracle parity for the detector's comparison path (DESIGN.md
// §11): every confirmation round the serving stack runs through the
// lower-bound cascade — a standalone StreamEngine, and a sharded
// DetectionService fleet — must return exactly the suspects and the (a, b,
// comparable, flagged) pair set that the reference sweep (compare_series,
// tests/detector_oracle.h) gives on the same round input. Checkpoint
// restore is bit-identical to the uninterrupted engine and service by
// test_checkpoint, so the check carries over to it.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/detector.h"
#include "detector_oracle.h"
#include "service/service.h"
#include "sim/world.h"
#include "stream/engine.h"

namespace vp {
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

sim::ScenarioConfig shared_config() {
  sim::ScenarioConfig config;
  config.density_per_km = 15.0;
  config.sim_time_s = 60.0;
  config.seed = 29;
  return config;
}

sim::World& shared_world() {
  static sim::World* world = [] {
    auto* w = new sim::World(shared_config());
    w->run();
    return w;
  }();
  return *world;
}

stream::StreamEngineConfig engine_config(std::size_t threads) {
  const sim::ScenarioConfig sim_config = shared_config();
  stream::StreamEngineConfig config;
  config.observation_time_s = sim_config.observation_time_s;
  config.round_period_s = sim_config.detection_period_s;
  config.density_estimation_period_s = sim_config.density_estimation_period_s;
  config.max_transmission_range_m = sim_config.max_transmission_range_m;
  config.min_samples = 4;
  config.detector = core::tuned_simulation_options(threads);
  return config;
}

std::vector<Rx> observer_trace(NodeId observer) {
  return arrival_stream(shared_world().node(observer).log(),
                        shared_config().sim_time_s + 1.0);
}

// Feeds `trace` to an engine that defers every round, so each round's
// input can be handed to the oracle as well.
std::vector<stream::RoundInput> round_inputs(
    stream::StreamEngine& engine, const std::vector<Rx>& trace) {
  std::vector<stream::RoundInput> inputs;
  engine.set_round_deferral([&inputs](stream::RoundInput&& input) {
    inputs.push_back(std::move(input));
  });
  for (const Rx& rx : trace) engine.ingest(rx.id, rx.time_s, rx.rssi_dbm);
  engine.advance_to(shared_world().detection_times().back());
  return inputs;
}

void expect_round_matches_oracle(const stream::StreamRound& round,
                                 const stream::RoundInput& input,
                                 const core::VoiceprintOptions& options) {
  SCOPED_TRACE("round at t=" + std::to_string(input.time_s));
  const testing_oracle::OracleVerdict oracle =
      testing_oracle::oracle_detect(input.series, options,
                                    input.density_per_km);
  EXPECT_EQ(round.time_s, input.time_s);
  EXPECT_EQ(round.suspects, oracle.suspects);
  testing_oracle::expect_verdicts_identical(round.pairs, oracle.pairs);
}

class PrunedParity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PrunedParity, StreamEngineRoundsMatchExactMode) {
  const stream::StreamEngineConfig config = engine_config(GetParam());
  stream::StreamEngine engine(config);
  const std::vector<stream::RoundInput> inputs = round_inputs(
      engine, observer_trace(shared_world().normal_node_ids().front()));
  ASSERT_GE(inputs.size(), 3u);
  for (const stream::RoundInput& input : inputs) {
    expect_round_matches_oracle(engine.run_prepared_round(input), input,
                                config.detector);
  }
}

// The sharded service runs its sessions' rounds on pool workers at the
// given width; every delivered round must match the oracle on the input a
// standalone engine cuts from the same session's beacons.
TEST_P(PrunedParity, DetectionServiceFleetMatchesExactMode) {
  std::vector<NodeId> observers = shared_world().normal_node_ids();
  observers.resize(std::min<std::size_t>(observers.size(), 4));
  struct FleetRx {
    service::SessionId session;
    Rx rx;
  };
  std::vector<FleetRx> fleet;
  for (NodeId observer : observers) {
    for (const Rx& rx : observer_trace(observer)) {
      fleet.push_back({static_cast<service::SessionId>(observer), rx});
    }
  }
  std::sort(fleet.begin(), fleet.end(), [](const FleetRx& a, const FleetRx& b) {
    if (a.rx.time_s != b.rx.time_s) return a.rx.time_s < b.rx.time_s;
    if (a.session != b.session) return a.session < b.session;
    return a.rx.id < b.rx.id;
  });

  service::ServiceConfig config;
  config.shards = 4;
  config.threads = GetParam();
  config.engine = engine_config(1);
  std::map<service::SessionId, std::vector<stream::StreamRound>> rounds;
  {
    service::DetectionService service(config);
    service.set_round_callback([&rounds](const service::SessionRound& r) {
      rounds[r.session].push_back(r.round);
    });
    for (const FleetRx& frx : fleet) {
      EXPECT_EQ(service.ingest(frx.session, frx.rx.id, frx.rx.time_s,
                               frx.rx.rssi_dbm),
                service::DetectionService::Admission::kAccepted);
    }
    service.advance_all_to(shared_world().detection_times().back());
  }

  ASSERT_EQ(rounds.size(), observers.size());
  for (NodeId observer : observers) {
    SCOPED_TRACE("session=" + std::to_string(observer));
    stream::StreamEngine engine(config.engine);
    const std::vector<stream::RoundInput> inputs =
        round_inputs(engine, observer_trace(observer));
    const std::vector<stream::StreamRound>& delivered =
        rounds[static_cast<service::SessionId>(observer)];
    ASSERT_EQ(delivered.size(), inputs.size());
    for (std::size_t r = 0; r < inputs.size(); ++r) {
      expect_round_matches_oracle(delivered[r], inputs[r],
                                  config.engine.detector);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, PrunedParity,
                         ::testing::Values(0u, 1u, 4u));

}  // namespace
}  // namespace vp
