// DetectionService invariants (DESIGN.md §9):
//   * Parity — every session's confirmation rounds (suspects, pair list,
//     density) are bit-identical to a standalone stream::StreamEngine fed
//     the same per-observer stream, at every shard and thread count, and
//     round delivery order is deterministic regardless of worker
//     interleaving.
//   * Admission & backpressure — the session cap, the queued-round cap,
//     idle eviction and close() all shed deterministically, and the
//     conservation laws (beacons, rounds, sessions) hold after every
//     call — also with every shedding path engaged at once under a live
//     HealthMonitor.
#include "service/service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/rng.h"
#include "core/detector.h"
#include "obs/runtime.h"
#include "obs/telemetry.h"
#include "sim/replay_source.h"
#include "sim/world.h"
#include "stream/engine.h"

namespace vp::service {
namespace {

struct FleetRx {
  double time_s;
  SessionId session;
  IdentityId id;
  double rssi_dbm;
};

// The fleet's receptions in arrival order, merged across observers by
// (time, session, id) — the interleaving a shared front-end would see.
std::vector<FleetRx> fleet_stream(const sim::World& world,
                                  const std::vector<NodeId>& observers,
                                  double horizon) {
  std::vector<FleetRx> beacons;
  for (NodeId observer : observers) {
    const sim::RssiLog& log = world.node(observer).log();
    for (IdentityId id : log.identities_heard(0.0, horizon, 1)) {
      for (const sim::BeaconRecord& r : log.records(id, 0.0, horizon)) {
        beacons.push_back({r.time_s, static_cast<SessionId>(observer), id,
                           r.rssi_dbm});
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

void expect_rounds_identical(const stream::StreamRound& got,
                             const stream::StreamRound& want) {
  EXPECT_EQ(got.time_s, want.time_s);
  EXPECT_EQ(got.density_per_km, want.density_per_km);
  EXPECT_EQ(got.identities_heard, want.identities_heard);
  EXPECT_EQ(got.suspects, want.suspects);
  ASSERT_EQ(got.pairs.size(), want.pairs.size());
  for (std::size_t i = 0; i < want.pairs.size(); ++i) {
    EXPECT_EQ(got.pairs[i].a, want.pairs[i].a);
    EXPECT_EQ(got.pairs[i].b, want.pairs[i].b);
    EXPECT_EQ(got.pairs[i].comparable, want.pairs[i].comparable);
    EXPECT_EQ(got.pairs[i].raw, want.pairs[i].raw);  // bitwise, no NEAR
    EXPECT_EQ(got.pairs[i].normalized, want.pairs[i].normalized);
  }
}

stream::StreamEngineConfig sim_engine_config(
    const sim::ScenarioConfig& config) {
  stream::StreamEngineConfig engine_config;
  engine_config.observation_time_s = config.observation_time_s;
  engine_config.round_period_s = config.detection_period_s;
  engine_config.density_estimation_period_s =
      config.density_estimation_period_s;
  engine_config.max_transmission_range_m = config.max_transmission_range_m;
  engine_config.min_samples = 4;
  engine_config.detector = core::tuned_simulation_options(1);
  return engine_config;
}

// The tentpole invariant: multiplexing a fleet through the sharded
// service reproduces every standalone engine bit for bit, at every shard
// and thread count, with a delivery order independent of both.
TEST(DetectionService, FleetMatchesStandaloneEnginesAtEveryShardThreadCount) {
  sim::ScenarioConfig config;
  config.density_per_km = 12.0;
  config.sim_time_s = 40.0;
  config.seed = 9;
  sim::World world(config);
  world.run();

  const std::vector<NodeId> normals = world.normal_node_ids();
  ASSERT_GE(normals.size(), 3u);
  const std::vector<NodeId> observers(normals.begin(), normals.begin() + 3);
  const std::vector<FleetRx> fleet =
      fleet_stream(world, observers, config.sim_time_s + 1.0);
  const stream::StreamEngineConfig engine_config = sim_engine_config(config);
  const double end_time = world.detection_times().back();

  // Standalone reference rounds per observer.
  std::map<SessionId, std::vector<stream::StreamRound>> reference;
  for (NodeId observer : observers) {
    stream::StreamEngine engine(engine_config);
    engine.set_round_callback([&, observer](const stream::StreamRound& r) {
      reference[static_cast<SessionId>(observer)].push_back(r);
    });
    for (const FleetRx& rx : fleet) {
      if (rx.session != static_cast<SessionId>(observer)) continue;
      engine.ingest(rx.id, rx.time_s, rx.rssi_dbm);
    }
    engine.advance_to(end_time);
    ASSERT_FALSE(reference[static_cast<SessionId>(observer)].empty());
  }

  std::vector<std::vector<std::pair<SessionId, double>>> delivery_orders;
  for (std::size_t shards : {1u, 3u}) {
    for (std::size_t threads : {1u, 2u, 0u}) {
      ServiceConfig service_config;
      service_config.shards = shards;
      service_config.threads = threads;
      service_config.engine = engine_config;

      DetectionService service(service_config);
      std::map<SessionId, std::vector<stream::StreamRound>> streamed;
      std::vector<std::pair<SessionId, double>> order;
      service.set_round_callback([&](const SessionRound& round) {
        streamed[round.session].push_back(round.round);
        order.emplace_back(round.session, round.round.time_s);
      });
      for (const FleetRx& rx : fleet) {
        EXPECT_EQ(service.ingest(rx.session, rx.id, rx.time_s, rx.rssi_dbm),
                  DetectionService::Admission::kAccepted);
      }
      service.advance_all_to(end_time);
      EXPECT_EQ(service.queued_rounds(), 0u);

      for (const auto& [session, expected] : reference) {
        const std::vector<stream::StreamRound>& got = streamed[session];
        ASSERT_EQ(got.size(), expected.size())
            << "session " << session << " shards " << shards << " threads "
            << threads;
        for (std::size_t i = 0; i < expected.size(); ++i) {
          expect_rounds_identical(got[i], expected[i]);
        }
      }
      // Beacon conservation: the fleet stream is in-order and uncapped,
      // so everything offered must have been ingested.
      const DetectionService::Stats& stats = service.stats();
      EXPECT_EQ(stats.beacons_offered, fleet.size());
      EXPECT_EQ(stats.beacons_offered, stats.beacons_ingested);
      EXPECT_EQ(stats.rounds_prepared,
                stats.rounds_executed + stats.rounds_shed_queue_full +
                    stats.rounds_shed_closed);
      delivery_orders.push_back(std::move(order));
    }
  }
  // Same shard count ⇒ identical delivery order at every thread count
  // (threads only change which worker runs a shard, never the post-join
  // delivery sequence).
  ASSERT_EQ(delivery_orders.size(), 6u);
  EXPECT_EQ(delivery_orders[0], delivery_orders[1]);
  EXPECT_EQ(delivery_orders[0], delivery_orders[2]);
  EXPECT_EQ(delivery_orders[3], delivery_orders[4]);
  EXPECT_EQ(delivery_orders[3], delivery_orders[5]);
}

TEST(DetectionService, SessionCapShedsNewSessionsAndCounts) {
  ServiceConfig config;
  config.max_sessions = 2;
  config.pump_batch_rounds = 0;
  DetectionService service(config);

  EXPECT_EQ(service.ingest(1, 10, 1.0, -70.0),
            DetectionService::Admission::kAccepted);
  EXPECT_EQ(service.ingest(2, 10, 1.5, -72.0),
            DetectionService::Admission::kAccepted);
  // A third observer cannot grow the service.
  EXPECT_EQ(service.ingest(3, 10, 2.0, -74.0),
            DetectionService::Admission::kShedSessionCap);
  EXPECT_FALSE(service.open(3));
  EXPECT_TRUE(service.open(1));  // idempotent for a live session

  const DetectionService::Stats& stats = service.stats();
  EXPECT_EQ(service.sessions_active(), 2u);
  EXPECT_EQ(stats.sessions_opened, 2u);
  EXPECT_EQ(stats.sessions_rejected, 1u);
  EXPECT_EQ(stats.beacons_offered, 3u);
  EXPECT_EQ(stats.beacons_offered,
            stats.beacons_ingested + stats.beacons_shed_session_cap +
                stats.beacons_shed_rate_limited +
                stats.beacons_shed_identity_cap +
                stats.beacons_shed_out_of_order);
  EXPECT_EQ(stats.beacons_shed_session_cap, 1u);

  // Closing one frees a slot.
  EXPECT_TRUE(service.close(2));
  EXPECT_TRUE(service.open(3));
  EXPECT_EQ(service.sessions_active(), 2u);
  EXPECT_EQ(service.stats().sessions_closed, 1u);
}

TEST(DetectionService, QueueCapShedsRoundsDeterministically) {
  ServiceConfig config;
  config.shards = 2;
  config.max_queued_rounds = 1;
  config.pump_batch_rounds = 0;  // manual pump only
  config.engine.min_samples = 1;
  DetectionService service(config);

  std::vector<SessionId> delivered;
  service.set_round_callback([&](const SessionRound& round) {
    delivered.push_back(round.session);
  });

  service.ingest(1, 10, 1.0, -70.0);
  service.ingest(2, 10, 1.0, -72.0);
  // Both sessions' rounds at t = 20 fall due; the queue holds one.
  service.ingest(1, 10, 21.0, -70.0);
  service.ingest(2, 10, 21.0, -72.0);

  const DetectionService::Stats& stats = service.stats();
  EXPECT_EQ(stats.rounds_prepared, 2u);
  EXPECT_EQ(stats.rounds_shed_queue_full, 1u);
  EXPECT_EQ(service.queued_rounds(), 1u);
  EXPECT_EQ(service.pump(), 1u);
  EXPECT_EQ(service.queued_rounds(), 0u);
  EXPECT_EQ(stats.rounds_executed, 1u);
  EXPECT_EQ(stats.rounds_prepared,
            stats.rounds_executed + stats.rounds_shed_queue_full +
                stats.rounds_shed_closed);
  ASSERT_EQ(delivered.size(), 1u);
}

TEST(DetectionService, AutoPumpExecutesRoundsDuringIngest) {
  ServiceConfig config;
  config.pump_batch_rounds = 1;
  config.engine.min_samples = 1;
  DetectionService service(config);

  std::size_t delivered = 0;
  service.set_round_callback([&](const SessionRound&) { ++delivered; });

  service.ingest(1, 10, 1.0, -70.0);
  EXPECT_EQ(delivered, 0u);
  // Crossing the round boundary prepares the round; the auto-pump
  // threshold of one executes it before ingest returns.
  service.ingest(1, 10, 21.0, -70.0);
  EXPECT_EQ(delivered, 1u);
  EXPECT_EQ(service.stats().rounds_executed, 1u);
  EXPECT_EQ(service.queued_rounds(), 0u);
}

TEST(DetectionService, EvictsIdleSessionsAtPumpBoundaries) {
  ServiceConfig config;
  config.session_idle_timeout_s = 30.0;
  config.engine.min_samples = 1;
  DetectionService service(config);

  service.ingest(1, 10, 1.0, -70.0);  // then silent
  for (double t = 1.0; t <= 45.0; t += 1.0) {
    service.ingest(2, 10, t, -72.0);
  }
  EXPECT_EQ(service.sessions_active(), 2u);
  service.advance_all_to(45.0);  // pump boundary: 1 idle for 44 s
  EXPECT_EQ(service.sessions_active(), 1u);
  EXPECT_EQ(service.session_engine(1), nullptr);
  EXPECT_NE(service.session_engine(2), nullptr);

  const DetectionService::Stats& stats = service.stats();
  EXPECT_EQ(stats.sessions_evicted_idle, 1u);
  EXPECT_EQ(stats.sessions_opened,
            service.sessions_active() + stats.sessions_closed +
                stats.sessions_evicted_idle);
  // A fresh beacon re-opens the evicted observer as a new session.
  EXPECT_EQ(service.ingest(1, 10, 46.0, -70.0),
            DetectionService::Admission::kAccepted);
  EXPECT_EQ(service.stats().sessions_opened, 3u);
}

TEST(DetectionService, CloseDropsQueuedRoundsAndCountsThem) {
  ServiceConfig config;
  config.pump_batch_rounds = 0;
  config.engine.min_samples = 1;
  DetectionService service(config);

  std::size_t delivered = 0;
  service.set_round_callback([&](const SessionRound&) { ++delivered; });

  service.ingest(7, 10, 1.0, -70.0);
  service.ingest(7, 10, 21.0, -70.0);  // queues the round at t = 20
  EXPECT_EQ(service.queued_rounds(), 1u);
  EXPECT_TRUE(service.close(7));
  EXPECT_FALSE(service.close(7));  // already gone
  EXPECT_EQ(service.queued_rounds(), 0u);
  EXPECT_EQ(service.pump(), 0u);
  EXPECT_EQ(delivered, 0u);

  const DetectionService::Stats& stats = service.stats();
  EXPECT_EQ(stats.rounds_shed_closed, 1u);
  EXPECT_EQ(stats.rounds_prepared,
            stats.rounds_executed + stats.rounds_shed_queue_full +
                stats.rounds_shed_closed);
}

TEST(DetectionService, ForwardsEngineAdmissionVerdicts) {
  ServiceConfig config;
  config.pump_batch_rounds = 0;
  config.engine.max_identities = 1;
  config.engine.max_ingest_rate_hz = 2.0;
  DetectionService service(config);

  EXPECT_EQ(service.ingest(1, 10, 0.5, -70.0),
            DetectionService::Admission::kAccepted);
  EXPECT_EQ(service.ingest(1, 11, 0.6, -72.0),
            DetectionService::Admission::kShedIdentityCap);
  EXPECT_EQ(service.ingest(1, 10, 0.7, -70.0),
            DetectionService::Admission::kAccepted);
  EXPECT_EQ(service.ingest(1, 10, 0.8, -70.0),
            DetectionService::Admission::kShedRateLimited);
  // A fresh second refills the rate bucket; a timestamp regression for a
  // known identity is shed as out-of-order.
  EXPECT_EQ(service.ingest(1, 10, 1.5, -70.0),
            DetectionService::Admission::kAccepted);
  EXPECT_EQ(service.ingest(1, 10, 1.2, -70.0),
            DetectionService::Admission::kShedOutOfOrder);

  const DetectionService::Stats& stats = service.stats();
  EXPECT_EQ(stats.beacons_offered, 6u);
  EXPECT_EQ(stats.beacons_ingested, 3u);
  EXPECT_EQ(stats.beacons_shed_identity_cap, 1u);
  EXPECT_EQ(stats.beacons_shed_rate_limited, 1u);
  EXPECT_EQ(stats.beacons_shed_out_of_order, 1u);
  EXPECT_EQ(stats.beacons_offered,
            stats.beacons_ingested + stats.beacons_shed_session_cap +
                stats.beacons_shed_rate_limited +
                stats.beacons_shed_identity_cap +
                stats.beacons_shed_out_of_order);
}

// Every shedding path at once: a fleet twice the session cap, each
// session offered 10x its admission rate and twice its identity cap,
// rings a fraction of a window, and a one-entry round queue pumped only
// at the end. Every shed unit is counted, the Stats laws hold exactly,
// and a live HealthMonitor sees no conservation law break on any
// telemetry frame — including after every session is closed.
TEST(DetectionService, OverloadShedsOnEveryPathUnderLiveMonitor) {
  obs::registry().reset();
  obs::HealthMonitor monitor = obs::HealthMonitor::with_default_invariants();
  obs::TelemetryConfig telemetry_config;
  telemetry_config.every_stream_s = 1.0;  // check the laws mid-overload
  obs::TelemetryExporter telemetry(telemetry_config);
  telemetry.set_monitor(&monitor);  // enables obs collection

  constexpr double kDuration = 25.0;
  const std::vector<sim::FleetBeacon> fleet =
      sim::synthesize_fleet(8, 16, 10.0, kDuration);
  ServiceConfig config;
  config.max_sessions = 4;
  config.max_queued_rounds = 1;
  config.pump_batch_rounds = 0;  // manual pump only: force queue pressure
  config.engine.detector = core::tuned_simulation_options(1);
  config.engine.max_ingest_rate_hz = 16.0;
  config.engine.ring_capacity = 32;
  config.engine.max_identities = 8;
  DetectionService service(config);
  service.set_round_callback([&](const SessionRound& round) {
    telemetry.on_round(round.round.time_s);
  });
  for (const sim::FleetBeacon& rx : fleet) {
    service.ingest(rx.observer, rx.id, rx.time_s, rx.rssi_dbm);
    telemetry.sample(rx.time_s);
  }
  service.advance_all_to(kDuration);
  telemetry.sample(kDuration);

  const DetectionService::Stats& stats = service.stats();
  EXPECT_EQ(stats.beacons_offered, fleet.size());
  EXPECT_GT(stats.beacons_shed_session_cap, 0u);
  EXPECT_GT(stats.beacons_shed_rate_limited, 0u);
  EXPECT_GT(stats.beacons_shed_identity_cap, 0u);
  EXPECT_GT(stats.rounds_shed_queue_full, 0u);
  EXPECT_EQ(stats.beacons_offered,
            stats.beacons_ingested + stats.beacons_shed_session_cap +
                stats.beacons_shed_rate_limited +
                stats.beacons_shed_identity_cap +
                stats.beacons_shed_out_of_order +
                stats.beacons_shed_invalid + stats.beacons_shed_conditioned);
  EXPECT_EQ(stats.rounds_prepared,
            stats.rounds_executed + stats.rounds_shed_queue_full +
                stats.rounds_shed_closed + service.queued_rounds());
  EXPECT_EQ(stats.sessions_opened,
            service.sessions_active() + stats.sessions_closed +
                stats.sessions_evicted_idle);

  std::vector<SessionId> open_sessions;
  service.for_each_session([&](SessionId id, const stream::StreamEngine&) {
    open_sessions.push_back(id);
  });
  EXPECT_EQ(open_sessions.size(), config.max_sessions);
  for (SessionId id : open_sessions) EXPECT_TRUE(service.close(id));
  telemetry.finish(kDuration);
  EXPECT_EQ(service.sessions_active(), 0u);
  EXPECT_EQ(stats.sessions_opened,
            stats.sessions_closed + stats.sessions_evicted_idle);

  EXPECT_GE(telemetry.frames_emitted(), 25u);
  EXPECT_EQ(monitor.alerts_total(), 0u)
      << "a service conservation law broke under combined shedding";

  obs::disable();
  obs::registry().reset();
}

}  // namespace
}  // namespace vp::service
