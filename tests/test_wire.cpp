// Wire ingestion tier (DESIGN.md §14): VPWB codec structural rejection,
// consistent-hash routing, transport semantics, and the headline parity
// claim — a fleet streamed through the socket front-end (multiple
// connections, interleaved arrival, mid-run checkpoint failover) produces
// bit-identical per-session rounds and fused verdicts to direct
// ingestion, at every shard/thread count.
#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/binio.h"
#include "core/detector.h"
#include "fusion/engine.h"
#include "obs/runtime.h"
#include "obs/telemetry.h"
#include "service/checkpoint.h"
#include "service/service.h"
#include "sim/replay_source.h"
#include "sim/world.h"
#include "stream/engine.h"
#include "wire/client.h"
#include "wire/frame.h"
#include "wire/hash_ring.h"
#include "wire/server.h"
#include "wire/transport.h"

namespace vp::wire {
namespace {

// ---------------------------------------------------------------- codec

std::vector<std::uint8_t> encode_one(const Frame& frame) {
  std::vector<std::uint8_t> bytes;
  encode_frame(frame, bytes);
  return bytes;
}

// Re-stamps the FNV-1a trailer after a deliberate payload edit, so the
// test reaches the checks *behind* the checksum gate.
void fix_checksum(std::vector<std::uint8_t>& bytes, std::size_t base = 0) {
  const std::uint64_t sum =
      fnv1a64(std::span<const std::uint8_t>(bytes.data() + base,
                                            kFramePayloadBytes));
  std::vector<std::uint8_t> trailer;
  ByteWriter writer(trailer);
  writer.put_u64(sum);
  std::copy(trailer.begin(), trailer.end(),
            bytes.begin() + static_cast<std::ptrdiff_t>(base) +
                kFramePayloadBytes);
}

TEST(WireFrame, EncoderRoundTripsEveryType) {
  FrameEncoder encoder;
  std::vector<std::uint8_t> bytes;
  encoder.append_open(7, 0.0, bytes);
  encoder.append_beacon(7, 42, 1.25, -63.5, bytes);
  encoder.append_heartbeat(7, 2.0, bytes);
  encoder.append_close(7, 3.0, bytes);
  ASSERT_EQ(bytes.size(), 4 * kFrameBytes);
  EXPECT_EQ(encoder.frames_encoded(), 4u);

  FrameDecoder decoder;
  ASSERT_EQ(decoder.push(bytes), bytes.size());
  Frame frame;
  ASSERT_EQ(decoder.next(frame), DecodeStatus::kFrame);
  EXPECT_EQ(frame.type, FrameType::kOpen);
  EXPECT_EQ(frame.seq, 1u);
  EXPECT_EQ(frame.observer, 7u);
  ASSERT_EQ(decoder.next(frame), DecodeStatus::kFrame);
  EXPECT_EQ(frame.type, FrameType::kBeacon);
  EXPECT_EQ(frame.seq, 2u);
  EXPECT_EQ(frame.identity, 42u);
  EXPECT_EQ(frame.time_s, 1.25);
  EXPECT_EQ(frame.rssi_dbm, -63.5);
  ASSERT_EQ(decoder.next(frame), DecodeStatus::kFrame);
  EXPECT_EQ(frame.type, FrameType::kHeartbeat);
  ASSERT_EQ(decoder.next(frame), DecodeStatus::kFrame);
  EXPECT_EQ(frame.type, FrameType::kClose);
  EXPECT_EQ(frame.time_s, 3.0);
  EXPECT_EQ(decoder.next(frame), DecodeStatus::kNeedMore);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(WireFrame, ByteAtATimeFeedNeedsMoreUntilComplete) {
  Frame original;
  original.seq = 1;
  original.observer = 9;
  original.identity = 3;
  original.time_s = 4.5;
  original.rssi_dbm = -70.0;
  const std::vector<std::uint8_t> bytes = encode_one(original);

  FrameDecoder decoder;
  Frame frame;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    ASSERT_EQ(decoder.push(std::span<const std::uint8_t>(&bytes[i], 1)), 1u);
    ASSERT_EQ(decoder.next(frame), DecodeStatus::kNeedMore)
        << "frame completed early at byte " << i;
  }
  ASSERT_EQ(decoder.push(std::span<const std::uint8_t>(&bytes.back(), 1)),
            1u);
  ASSERT_EQ(decoder.next(frame), DecodeStatus::kFrame);
  EXPECT_EQ(frame.observer, 9u);
  EXPECT_EQ(frame.rssi_dbm, -70.0);
}

TEST(WireFrame, ChecksumRejectsEveryFlippedByte) {
  Frame original;
  original.seq = 1;
  original.observer = 5;
  const std::vector<std::uint8_t> clean = encode_one(original);
  // Flipping any payload byte past the magic must be caught by the
  // checksum (or the magic resync for the first four); flipping trailer
  // bytes breaks the checksum itself. No flip may ever produce a frame.
  for (std::size_t i = 0; i < clean.size(); ++i) {
    std::vector<std::uint8_t> bytes = clean;
    bytes[i] ^= 0x01;
    FrameDecoder decoder;
    ASSERT_EQ(decoder.push(bytes), bytes.size());
    Frame frame;
    RejectReason reason;
    ASSERT_EQ(decoder.next(frame, &reason), DecodeStatus::kRejected)
        << "flipped byte " << i << " slipped through";
  }
}

TEST(WireFrame, BadVersionAndTypeAreRejectedUnderValidChecksums) {
  Frame original;
  original.seq = 1;
  original.observer = 5;

  std::vector<std::uint8_t> bad_version = encode_one(original);
  bad_version[4] = 9;
  fix_checksum(bad_version);
  FrameDecoder decoder;
  ASSERT_EQ(decoder.push(bad_version), bad_version.size());
  Frame frame;
  RejectReason reason;
  ASSERT_EQ(decoder.next(frame, &reason), DecodeStatus::kRejected);
  EXPECT_EQ(reason, RejectReason::kBadVersion);

  std::vector<std::uint8_t> bad_type = encode_one(original);
  bad_type[5] = 200;
  fix_checksum(bad_type);
  FrameDecoder decoder2;
  ASSERT_EQ(decoder2.push(bad_type), bad_type.size());
  ASSERT_EQ(decoder2.next(frame, &reason), DecodeStatus::kRejected);
  EXPECT_EQ(reason, RejectReason::kBadType);
}

TEST(WireFrame, ReplayedSequenceIsRejected) {
  Frame frame;
  frame.observer = 5;
  frame.seq = 4;
  std::vector<std::uint8_t> bytes = encode_one(frame);
  encode_frame(frame, bytes);  // the same seq again: a spliced duplicate
  frame.seq = 2;               // and a regression
  encode_frame(frame, bytes);
  frame.seq = 5;               // recovery: strictly above the last accepted
  encode_frame(frame, bytes);

  FrameDecoder decoder;
  ASSERT_EQ(decoder.push(bytes), bytes.size());
  Frame out;
  RejectReason reason;
  ASSERT_EQ(decoder.next(out), DecodeStatus::kFrame);
  EXPECT_EQ(out.seq, 4u);
  ASSERT_EQ(decoder.next(out, &reason), DecodeStatus::kRejected);
  EXPECT_EQ(reason, RejectReason::kReplayedSeq);
  ASSERT_EQ(decoder.next(out, &reason), DecodeStatus::kRejected);
  EXPECT_EQ(reason, RejectReason::kReplayedSeq);
  ASSERT_EQ(decoder.next(out), DecodeStatus::kFrame);
  EXPECT_EQ(out.seq, 5u);
  EXPECT_EQ(decoder.last_seq(), 5u);
}

TEST(WireFrame, JunkBetweenFramesCostsOneRejectPerRun) {
  Frame frame;
  frame.observer = 5;
  frame.seq = 1;
  std::vector<std::uint8_t> bytes(37, 0xAB);  // junk run, no magic inside
  encode_frame(frame, bytes);
  bytes.push_back('V');  // a second junk run: a lone magic prefix
  bytes.push_back('P');
  frame.seq = 2;
  encode_frame(frame, bytes);

  FrameDecoder decoder;
  ASSERT_EQ(decoder.push(bytes), bytes.size());
  Frame out;
  RejectReason reason;
  ASSERT_EQ(decoder.next(out, &reason), DecodeStatus::kRejected);
  EXPECT_EQ(reason, RejectReason::kBadMagic);
  ASSERT_EQ(decoder.next(out), DecodeStatus::kFrame);
  EXPECT_EQ(out.seq, 1u);
  ASSERT_EQ(decoder.next(out, &reason), DecodeStatus::kRejected);
  EXPECT_EQ(reason, RejectReason::kBadMagic);
  ASSERT_EQ(decoder.next(out), DecodeStatus::kFrame);
  EXPECT_EQ(out.seq, 2u);
}

TEST(WireFrame, BufferCapIsEnforcedOnPush) {
  FrameDecoder decoder(kFrameBytes + 10);
  const std::vector<std::uint8_t> bytes(3 * kFrameBytes, 0x11);
  EXPECT_EQ(decoder.push(bytes), kFrameBytes + 10);
  EXPECT_EQ(decoder.capacity_remaining(), 0u);
  Frame frame;
  // All junk without a magic: consumed as one reject run, space frees.
  RejectReason reason;
  EXPECT_EQ(decoder.next(frame, &reason), DecodeStatus::kRejected);
  EXPECT_GT(decoder.capacity_remaining(), 0u);
}

// ------------------------------------------------------------ hash ring

TEST(HashRing, RoutesAreStableAndCoverEveryBackend) {
  const HashRing ring(4, 64);
  const HashRing twin(4, 64);
  std::set<std::size_t> hit;
  for (std::uint64_t key = 1; key <= 2000; ++key) {
    const std::size_t backend = ring.route(key);
    ASSERT_LT(backend, 4u);
    EXPECT_EQ(backend, twin.route(key));  // pure function of (topology, key)
    hit.insert(backend);
  }
  EXPECT_EQ(hit.size(), 4u);

  const HashRing single(1, 64);
  for (std::uint64_t key = 1; key <= 50; ++key) {
    EXPECT_EQ(single.route(key), 0u);
  }
}

// ------------------------------------------------------------ transport

TEST(PipeTransport, BoundedDuplexWithDrainOnClose) {
  PipePair pipe = make_pipe(64);
  std::vector<std::uint8_t> payload(100, 0x5A);
  EXPECT_EQ(pipe.client->send(payload), 64u);  // capacity backpressure

  std::vector<std::uint8_t> out(256, 0);
  EXPECT_EQ(pipe.server->receive(out), 64);
  EXPECT_EQ(out[0], 0x5A);
  EXPECT_EQ(pipe.server->receive(out), 0);  // drained, peer still open

  // Reverse direction works independently.
  const std::vector<std::uint8_t> reply(5, 0x33);
  EXPECT_EQ(pipe.server->send(reply), 5u);
  EXPECT_EQ(pipe.client->receive(out), 5);

  // Close drains in-flight bytes before reporting -1.
  EXPECT_EQ(pipe.client->send(std::span<const std::uint8_t>(payload.data(),
                                                            10)),
            10u);
  pipe.client->close();
  EXPECT_EQ(pipe.server->receive(out), 10);
  EXPECT_EQ(pipe.server->receive(out), -1);
}

TEST(FleetStream, EncodingIsDeterministicAndFramed) {
  const std::vector<sim::FleetBeacon> fleet =
      sim::synthesize_fleet(3, 2, 5.0, 4.0);
  FleetStreamOptions options;
  options.close_time_s = 4.0;
  const std::vector<std::uint64_t> observers{1, 3};
  const std::vector<std::uint8_t> a =
      encode_fleet_stream(fleet, observers, options);
  const std::vector<std::uint8_t> b =
      encode_fleet_stream(fleet, observers, options);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size() % kFrameBytes, 0u);
  // Leading OPEN per observer, trailing CLOSE per observer.
  EXPECT_EQ(a[5], static_cast<std::uint8_t>(FrameType::kOpen));
  EXPECT_EQ(a[kFrameBytes + 5], static_cast<std::uint8_t>(FrameType::kOpen));
  EXPECT_EQ(a[a.size() - kFrameBytes + 5],
            static_cast<std::uint8_t>(FrameType::kClose));
}

// --------------------------------------------------------- ingest server

stream::StreamEngineConfig synthetic_engine_config() {
  stream::StreamEngineConfig config;
  // Short window geometry so the 8–12 s synthetic fleets produce
  // several confirmation rounds (the defaults are paper-scale: 20 s).
  config.observation_time_s = 5.0;
  config.round_period_s = 5.0;
  config.density_estimation_period_s = 5.0;
  config.min_samples = 1;
  config.detector = core::tuned_simulation_options(1);
  return config;
}

service::ServiceConfig synthetic_service_config(std::size_t shards,
                                                std::size_t threads) {
  service::ServiceConfig config;
  config.shards = shards;
  config.threads = threads;
  config.max_sessions = 64;
  config.engine = synthetic_engine_config();
  return config;
}

bool rounds_identical(const stream::StreamRound& a,
                      const stream::StreamRound& b) {
  if (a.round_id != b.round_id || a.time_s != b.time_s ||
      a.density_per_km != b.density_per_km ||
      a.identities_heard != b.identities_heard || a.suspects != b.suspects ||
      a.pairs.size() != b.pairs.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.pairs.size(); ++i) {
    if (a.pairs[i].a != b.pairs[i].a || a.pairs[i].b != b.pairs[i].b ||
        a.pairs[i].comparable != b.pairs[i].comparable ||
        a.pairs[i].raw != b.pairs[i].raw ||          // bitwise, no epsilon
        a.pairs[i].normalized != b.pairs[i].normalized) {
      return false;
    }
  }
  return true;
}

// Standalone per-observer reference rounds for a synthetic fleet.
std::map<std::uint64_t, std::vector<stream::StreamRound>> reference_rounds(
    const std::vector<sim::FleetBeacon>& fleet,
    const std::vector<std::uint64_t>& observers,
    const stream::StreamEngineConfig& engine_config, double end_time_s) {
  std::map<std::uint64_t, std::vector<stream::StreamRound>> reference;
  for (std::uint64_t observer : observers) {
    stream::StreamEngine engine(engine_config);
    engine.set_round_callback(
        [&, observer](const stream::StreamRound& round) {
          reference[observer].push_back(round);
        });
    for (const sim::FleetBeacon& rx : fleet) {
      if (rx.observer != observer) continue;
      engine.ingest(rx.id, rx.time_s, rx.rssi_dbm);
    }
    engine.advance_to(end_time_s);
  }
  return reference;
}

TEST(IngestServer, DeliversFleetBitIdenticalOverPipe) {
  const std::vector<sim::FleetBeacon> fleet =
      sim::synthesize_fleet(4, 3, 10.0, 12.0);
  const std::vector<std::uint64_t> observers{1, 2, 3, 4};
  const stream::StreamEngineConfig engine_config = synthetic_engine_config();
  const auto reference =
      reference_rounds(fleet, observers, engine_config, 12.0);

  service::DetectionService backend(synthetic_service_config(2, 1));
  std::map<std::uint64_t, std::vector<stream::StreamRound>> streamed;
  backend.set_round_callback([&](const service::SessionRound& round) {
    streamed[round.session].push_back(round.round);
  });

  IngestServer server(IngestServerConfig{}, {&backend});
  PipePair pipe = make_pipe();
  server.add_connection(std::move(pipe.server));

  FleetStreamOptions options;
  options.close_time_s = 12.0;
  const std::vector<std::uint8_t> bytes =
      encode_fleet_stream(fleet, observers, options);
  std::size_t cursor = 0;
  while (cursor < bytes.size() || server.connections_active() > 0) {
    if (cursor < bytes.size()) {
      // Odd-sized chunks straddle frame boundaries on purpose.
      const std::size_t chunk = std::min<std::size_t>(
          bytes.size() - cursor, 487);
      cursor += pipe.client->send(std::span<const std::uint8_t>(
          bytes.data() + cursor, chunk));
      if (cursor == bytes.size()) pipe.client->close();
    }
    server.poll();
    server.drain();
  }

  const IngestServer::Stats& stats = server.stats();
  EXPECT_EQ(stats.frames_received, bytes.size() / kFrameBytes);
  EXPECT_EQ(stats.frames_ingested, stats.frames_received);
  EXPECT_EQ(stats.beacons_ingested, fleet.size());
  EXPECT_EQ(stats.frames_shed_invalid, 0u);
  EXPECT_EQ(stats.frames_shed_backpressure, 0u);
  EXPECT_EQ(stats.truncated_tails, 0u);
  EXPECT_EQ(server.watermark(), 12.0);

  for (std::uint64_t observer : observers) {
    const std::vector<stream::StreamRound>& expected =
        reference.at(observer);
    const std::vector<stream::StreamRound>& got = streamed[observer];
    ASSERT_EQ(got.size(), expected.size()) << "observer " << observer;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_TRUE(rounds_identical(got[i], expected[i]))
          << "observer " << observer << " round " << i;
    }
  }
  // Every CLOSE was applied after its session's final rounds ran.
  EXPECT_EQ(backend.stats().rounds_shed_closed, 0u);
  EXPECT_EQ(backend.sessions_active(), 0u);
}

TEST(IngestServer, CorruptAndReplayedFramesNeverReachSessions) {
  const std::vector<sim::FleetBeacon> fleet =
      sim::synthesize_fleet(2, 2, 10.0, 6.0);
  FleetStreamOptions options;
  options.close_time_s = 6.0;
  std::vector<std::uint8_t> bytes =
      encode_fleet_stream(fleet, {1, 2}, options);
  // Corrupt one mid-stream beacon payload byte (checksum reject) and
  // splice a stale duplicate of the first frame (replay reject).
  bytes[10 * kFrameBytes + 30] ^= 0xFF;
  std::vector<std::uint8_t> spliced(bytes.begin(),
                                    bytes.begin() + 20 * kFrameBytes);
  spliced.insert(spliced.end(), bytes.begin(), bytes.begin() + kFrameBytes);
  spliced.insert(spliced.end(), bytes.begin() + 20 * kFrameBytes,
                 bytes.end());

  service::DetectionService backend(synthetic_service_config(1, 1));
  IngestServer server(IngestServerConfig{}, {&backend});
  PipePair pipe = make_pipe();
  server.add_connection(std::move(pipe.server));

  std::size_t cursor = 0;
  while (cursor < spliced.size() || server.connections_active() > 0) {
    if (cursor < spliced.size()) {
      cursor += pipe.client->send(std::span<const std::uint8_t>(
          spliced.data() + cursor,
          std::min<std::size_t>(spliced.size() - cursor, 333)));
      if (cursor == spliced.size()) pipe.client->close();
    }
    server.poll();
    server.drain();
  }

  const IngestServer::Stats& stats = server.stats();
  EXPECT_EQ(stats.reject_bad_checksum, 1u);
  EXPECT_EQ(stats.reject_replayed_seq, 1u);
  EXPECT_EQ(stats.frames_shed_invalid, 2u);
  EXPECT_EQ(stats.frames_received,
            stats.frames_ingested + stats.frames_shed_invalid);
  // The corrupted beacon is simply missing from its session's stream —
  // exactly one beacon short, nothing else disturbed.
  EXPECT_EQ(stats.beacons_ingested, fleet.size() - 1);
}

TEST(IngestServer, BackpressureShedsDeterministically) {
  const std::vector<sim::FleetBeacon> fleet =
      sim::synthesize_fleet(1, 2, 10.0, 4.0);
  FleetStreamOptions options;
  options.heartbeat_period_s = 0.0;
  options.close_time_s = 4.0;
  const std::vector<std::uint8_t> bytes =
      encode_fleet_stream(fleet, {1}, options);
  const std::size_t total_frames = bytes.size() / kFrameBytes;

  IngestServerConfig config;
  config.max_frames_buffered = 4;
  service::DetectionService backend(synthetic_service_config(1, 1));
  IngestServer server(config, {&backend});
  PipePair pipe = make_pipe(1 << 16);
  server.add_connection(std::move(pipe.server));

  ASSERT_EQ(pipe.client->send(bytes), bytes.size());
  server.poll();  // decodes everything: 4 buffered, the rest shed
  const IngestServer::Stats& stats = server.stats();
  EXPECT_EQ(stats.frames_received, total_frames);
  EXPECT_EQ(server.frames_buffered(), 4u);
  EXPECT_EQ(stats.frames_shed_backpressure, total_frames - 4);
  // Conservation with the buffered term, mid-flight.
  EXPECT_EQ(stats.frames_received,
            stats.frames_ingested + stats.frames_shed_invalid +
                stats.frames_shed_backpressure + server.frames_buffered());
  server.drain();
  EXPECT_EQ(server.frames_buffered(), 0u);
  EXPECT_EQ(server.stats().frames_ingested, 4u);
  // Identical re-run sheds the identical frames: no timing dependence.
  service::DetectionService backend2(synthetic_service_config(1, 1));
  IngestServer server2(config, {&backend2});
  PipePair pipe2 = make_pipe(1 << 16);
  server2.add_connection(std::move(pipe2.server));
  ASSERT_EQ(pipe2.client->send(bytes), bytes.size());
  server2.poll();
  server2.drain();
  EXPECT_EQ(server2.stats().frames_shed_backpressure,
            stats.frames_shed_backpressure);
  EXPECT_EQ(server2.stats().beacons_ingested, server.stats().beacons_ingested);
}

TEST(IngestServer, DeadConnectionMidFrameCountsTruncatedTail) {
  FrameEncoder encoder;
  std::vector<std::uint8_t> bytes;
  encoder.append_open(1, 0.0, bytes);
  encoder.append_beacon(1, 2, 0.5, -60.0, bytes);
  bytes.resize(bytes.size() - 7);  // the peer dies mid-frame

  service::DetectionService backend(synthetic_service_config(1, 1));
  IngestServer server(IngestServerConfig{}, {&backend});
  PipePair pipe = make_pipe();
  server.add_connection(std::move(pipe.server));
  ASSERT_EQ(pipe.client->send(bytes), bytes.size());
  pipe.client->close();
  while (server.connections_active() > 0) {
    server.poll();
    server.drain();
  }
  EXPECT_EQ(server.stats().truncated_tails, 1u);
  EXPECT_EQ(server.stats().frames_ingested, 1u);  // the complete OPEN
  EXPECT_EQ(server.stats().connections_closed, 1u);
}

// ------------------------------------------- parity: wire vs direct path

struct FusionOutcome {
  std::vector<fusion::FusedEpoch> epochs;
  std::map<std::uint64_t, double> identity_trust;
  std::map<std::uint64_t, double> observer_trust;
  fusion::FusionEngine::Stats stats;
};

bool verdicts_identical(const fusion::FusedVerdict& a,
                        const fusion::FusedVerdict& b) {
  return a.id == b.id && a.accused == b.accused &&
         a.accuse_weight == b.accuse_weight &&  // bitwise, no epsilon
         a.total_weight == b.total_weight && a.voters == b.voters &&
         a.accusations == b.accusations;
}

bool outcomes_identical(const FusionOutcome& a, const FusionOutcome& b) {
  if (a.epochs.size() != b.epochs.size()) return false;
  for (std::size_t i = 0; i < a.epochs.size(); ++i) {
    const fusion::FusedEpoch& ea = a.epochs[i];
    const fusion::FusedEpoch& eb = b.epochs[i];
    if (ea.index != eb.index || ea.start_s != eb.start_s ||
        ea.end_s != eb.end_s || ea.rounds != eb.rounds ||
        ea.max_round_id != eb.max_round_id ||
        ea.verdicts.size() != eb.verdicts.size()) {
      return false;
    }
    for (std::size_t v = 0; v < ea.verdicts.size(); ++v) {
      if (!verdicts_identical(ea.verdicts[v], eb.verdicts[v])) return false;
    }
  }
  const fusion::FusionEngine::Stats& sa = a.stats;
  const fusion::FusionEngine::Stats& sb = b.stats;
  return a.identity_trust == b.identity_trust &&
         a.observer_trust == b.observer_trust &&
         sa.rounds_delivered == sb.rounds_delivered &&
         sa.rounds_fused == sb.rounds_fused &&
         sa.rounds_expired == sb.rounds_expired &&
         sa.epochs_closed == sb.epochs_closed &&
         sa.votes_cast == sb.votes_cast &&
         sa.verdicts_fused == sb.verdicts_fused &&
         sa.accusations_fused == sb.accusations_fused;
}

// The simulated world, its fleet stream and engine geometry, built once
// for the whole parity suite (a world run is the expensive part).
struct ParityWorld {
  sim::ScenarioConfig scenario;
  std::vector<std::uint64_t> observers;
  std::vector<sim::FleetBeacon> fleet;
  stream::StreamEngineConfig engine_config;
  double end_time = 0.0;
  std::map<std::uint64_t, std::vector<stream::StreamRound>> reference;
  FusionOutcome fusion_reference;
};

const ParityWorld& parity_world() {
  static const ParityWorld* world = [] {
    auto* p = new ParityWorld();
    p->scenario.density_per_km = 12.0;
    p->scenario.seed = 5;
    p->scenario.sim_time_s = 40.0;
    sim::World sim_world(p->scenario);
    sim_world.run();
    const std::vector<NodeId> normals = sim_world.normal_node_ids();
    for (std::size_t i = 0; i < 3 && i < normals.size(); ++i) {
      p->observers.push_back(static_cast<std::uint64_t>(normals[i]));
    }
    std::vector<NodeId> observer_nodes(p->observers.begin(),
                                       p->observers.end());
    p->fleet = sim::replay_from_world(sim_world, observer_nodes,
                                      p->scenario.sim_time_s + 1.0, 1);
    p->engine_config.observation_time_s = p->scenario.observation_time_s;
    p->engine_config.round_period_s = p->scenario.detection_period_s;
    p->engine_config.density_estimation_period_s =
        p->scenario.density_estimation_period_s;
    p->engine_config.max_transmission_range_m =
        p->scenario.max_transmission_range_m;
    p->engine_config.min_samples = 4;  // World::observe's default
    p->engine_config.detector = core::tuned_simulation_options(1);
    p->end_time = sim_world.detection_times().back();
    p->reference = reference_rounds(p->fleet, p->observers, p->engine_config,
                                    p->end_time);

    // Fusion reference from the direct (socket-free) service path —
    // exactly the examples/fleet_detection --fuse flow.
    fusion::FusionConfig fusion_config;
    fusion_config.epoch_period_s = p->scenario.detection_period_s;
    service::ServiceConfig service_config;
    service_config.shards = 4;
    service_config.threads = 1;
    service_config.max_sessions = 64;
    service_config.engine = p->engine_config;
    service::DetectionService direct(service_config);
    fusion::FusionEngine fusion_engine(fusion_config);
    fusion_engine.set_epoch_callback([&](const fusion::FusedEpoch& epoch) {
      p->fusion_reference.epochs.push_back(epoch);
    });
    direct.add_round_listener([&](const service::SessionRound& round) {
      fusion_engine.observe(round);
    });
    for (const sim::FleetBeacon& rx : p->fleet) {
      direct.ingest(rx.observer, rx.id, rx.time_s, rx.rssi_dbm);
      fusion_engine.advance(rx.time_s);
    }
    direct.advance_all_to(p->end_time);
    fusion_engine.advance(p->end_time);
    fusion_engine.finish();
    p->fusion_reference.identity_trust =
        fusion_engine.identity_trust().scores();
    p->fusion_reference.observer_trust =
        fusion_engine.observer_trust().scores();
    p->fusion_reference.stats = fusion_engine.stats();
    return p;
  }();
  return *world;
}

// Streams the parity fleet through a Pipe-backed IngestServer with
// `connections` interleaved connections and (optionally) a mid-run
// checkpoint failover of backend slot 0, and requires every session's
// rounds and the entire fusion output to be bit-identical to the direct
// path.
void run_wire_parity(std::size_t shards, std::size_t threads,
                     std::size_t backends_n, bool failover) {
  const ParityWorld& world = parity_world();
  fusion::FusionConfig fusion_config;
  fusion_config.epoch_period_s = world.scenario.detection_period_s;
  service::ServiceConfig service_config;
  service_config.shards = shards;
  service_config.threads = threads;
  service_config.max_sessions = 64;
  service_config.engine = world.engine_config;

  std::map<std::uint64_t, std::vector<stream::StreamRound>> streamed;
  FusionOutcome outcome;
  fusion::FusionEngine fusion_engine(fusion_config);
  fusion_engine.set_epoch_callback([&](const fusion::FusedEpoch& epoch) {
    outcome.epochs.push_back(epoch);
  });
  const auto on_round = [&](const service::SessionRound& round) {
    streamed[round.session].push_back(round.round);
  };
  const auto on_listener = [&](const service::SessionRound& round) {
    fusion_engine.observe(round);
  };

  std::vector<std::unique_ptr<service::DetectionService>> owned;
  std::vector<service::DetectionService*> backends;
  for (std::size_t b = 0; b < backends_n; ++b) {
    owned.push_back(
        std::make_unique<service::DetectionService>(service_config));
    owned.back()->set_round_callback(on_round);
    owned.back()->add_round_listener(on_listener);
    backends.push_back(owned.back().get());
  }
  IngestServer server(IngestServerConfig{}, backends);

  // Observers dealt round-robin over the connections; each connection's
  // stream is pre-encoded, then fed in interleaved odd-sized chunks.
  const std::size_t connections = 2;
  std::vector<std::vector<std::uint64_t>> groups(
      std::min(connections, world.observers.size()));
  for (std::size_t i = 0; i < world.observers.size(); ++i) {
    groups[i % groups.size()].push_back(world.observers[i]);
  }
  FleetStreamOptions options;
  options.close_time_s = world.end_time;
  std::vector<std::vector<std::uint8_t>> streams;
  std::vector<std::unique_ptr<Connection>> clients;
  for (const std::vector<std::uint64_t>& group : groups) {
    streams.push_back(encode_fleet_stream(world.fleet, group, options));
    PipePair pipe = make_pipe(1 << 16);
    server.add_connection(std::move(pipe.server));
    clients.push_back(std::move(pipe.client));
  }

  std::vector<std::size_t> cursors(streams.size(), 0);
  std::size_t total = 0;
  for (const std::vector<std::uint8_t>& s : streams) total += s.size();
  std::size_t sent = 0;
  std::size_t step = 0;
  bool failed_over = false;
  while (sent < total || server.connections_active() > 0) {
    for (std::size_t c = 0; c < streams.size(); ++c) {
      if (cursors[c] >= streams[c].size()) continue;
      // Chunk sizes vary per step and per connection so frame boundaries
      // land everywhere and arrival order interleaves.
      const std::size_t chunk = std::min<std::size_t>(
          streams[c].size() - cursors[c], 101 + (step * 97 + c * 53) % 400);
      const std::size_t accepted = clients[c]->send(
          std::span<const std::uint8_t>(streams[c].data() + cursors[c],
                                        chunk));
      cursors[c] += accepted;
      sent += accepted;
      if (cursors[c] == streams[c].size()) clients[c]->close();
    }
    server.poll();
    server.drain();
    fusion_engine.advance(server.watermark());

    if (failover && !failed_over && sent >= total / 2) {
      // Quiesced by the drain above: checkpoint slot 0, round-trip it
      // through the VPSC codec, restore into a standby, re-route.
      service::ServiceCheckpoint checkpoint = owned[0]->checkpoint();
      const std::vector<std::uint8_t> encoded =
          service::encode_checkpoint(checkpoint);
      service::ServiceCheckpoint decoded;
      std::string error;
      ASSERT_TRUE(service::decode_checkpoint(encoded, &decoded, &error))
          << error;
      owned.push_back(std::make_unique<service::DetectionService>(
          service_config, decoded));
      owned.back()->set_round_callback(on_round);
      owned.back()->add_round_listener(on_listener);
      server.replace_backend(0, owned.back().get());
      failed_over = true;
    }
    ++step;
  }
  fusion_engine.advance(world.end_time);
  fusion_engine.finish();
  outcome.identity_trust = fusion_engine.identity_trust().scores();
  outcome.observer_trust = fusion_engine.observer_trust().scores();
  outcome.stats = fusion_engine.stats();

  EXPECT_EQ(failover, failed_over);
  EXPECT_EQ(server.stats().failovers, failover ? 1u : 0u);
  EXPECT_EQ(server.stats().frames_shed_invalid, 0u);
  EXPECT_EQ(server.stats().frames_shed_backpressure, 0u);
  EXPECT_EQ(server.stats().beacons_ingested, world.fleet.size());

  for (std::uint64_t observer : world.observers) {
    const std::vector<stream::StreamRound>& expected =
        world.reference.at(observer);
    const std::vector<stream::StreamRound>& got = streamed[observer];
    ASSERT_EQ(got.size(), expected.size())
        << "observer " << observer << " shards=" << shards
        << " threads=" << threads << " failover=" << failover;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_TRUE(rounds_identical(got[i], expected[i]))
          << "observer " << observer << " round " << i << " shards="
          << shards << " threads=" << threads << " failover=" << failover;
    }
  }
  EXPECT_EQ(outcome.stats.rounds_expired, 0u);
  EXPECT_TRUE(outcomes_identical(world.fusion_reference, outcome))
      << "fusion diverged at shards=" << shards << " threads=" << threads
      << " failover=" << failover;
}

TEST(WireParity, Shards1Threads0) { run_wire_parity(1, 0, 1, false); }
TEST(WireParity, Shards1Threads1) { run_wire_parity(1, 1, 1, false); }
TEST(WireParity, Shards1Threads4) { run_wire_parity(1, 4, 1, false); }
TEST(WireParity, Shards4Threads0) { run_wire_parity(4, 0, 1, false); }
TEST(WireParity, Shards4Threads1) { run_wire_parity(4, 1, 1, false); }
TEST(WireParity, Shards4Threads4) { run_wire_parity(4, 4, 1, false); }

TEST(WireFailover, Shards1Threads0) { run_wire_parity(1, 0, 2, true); }
TEST(WireFailover, Shards1Threads1) { run_wire_parity(1, 1, 2, true); }
TEST(WireFailover, Shards1Threads4) { run_wire_parity(1, 4, 2, true); }
TEST(WireFailover, Shards4Threads0) { run_wire_parity(4, 0, 2, true); }
TEST(WireFailover, Shards4Threads1) { run_wire_parity(4, 1, 2, true); }
TEST(WireFailover, Shards4Threads4) { run_wire_parity(4, 4, 2, true); }

// A digest of every verdict the direct reference reaches: per observer,
// each round's id, time bits, sorted suspects and flagged pairs; then
// each fused epoch's index and verdicts. Distances, bounds and trust
// weights stay out, so a change that keeps every verdict keeps the
// digest. Counts prefix each list, so no two outcomes share an encoding.
std::uint64_t verdict_digest(const ParityWorld& world) {
  std::vector<std::uint8_t> bytes;
  ByteWriter out(bytes);
  for (std::uint64_t observer : world.observers) {
    const std::vector<stream::StreamRound>& rounds =
        world.reference.at(observer);
    out.put_u64(observer);
    out.put_u64(rounds.size());
    for (const stream::StreamRound& round : rounds) {
      out.put_u64(round.round_id);
      out.put_f64(round.time_s);
      std::vector<IdentityId> suspects = round.suspects;
      std::sort(suspects.begin(), suspects.end());
      out.put_u64(suspects.size());
      for (IdentityId id : suspects) out.put_u64(id);
      std::vector<std::pair<IdentityId, IdentityId>> flagged;
      for (const core::PairDistance& pair : round.pairs) {
        if (pair.flagged) flagged.emplace_back(pair.a, pair.b);
      }
      out.put_u64(flagged.size());
      for (const auto& [a, b] : flagged) {
        out.put_u64(a);
        out.put_u64(b);
      }
    }
  }
  const std::vector<fusion::FusedEpoch>& epochs =
      world.fusion_reference.epochs;
  out.put_u64(epochs.size());
  for (const fusion::FusedEpoch& epoch : epochs) {
    out.put_i64(epoch.index);
    out.put_u64(epoch.verdicts.size());
    for (const fusion::FusedVerdict& verdict : epoch.verdicts) {
      out.put_u64(verdict.id);
      out.put_u8(verdict.accused ? 1 : 0);
      out.put_u32(verdict.voters);
      out.put_u32(verdict.accusations);
    }
  }
  return fnv1a64(bytes);
}

// The parity grid compares the wire paths with the direct reference, so
// a drift that moves both would pass it; this pin holds the reference
// itself (density 12, seed 5, 3 observers, 40 s). A change that moves
// it updates the constant and says why in CHANGES.md.
TEST(WireParity, ReferenceVerdictDigestIsPinned) {
  const ParityWorld& world = parity_world();
  std::size_t suspects = 0;
  for (const auto& [observer, rounds] : world.reference) {
    for (const stream::StreamRound& round : rounds) {
      suspects += round.suspects.size();
    }
  }
  std::size_t accused = 0;
  for (const fusion::FusedEpoch& epoch : world.fusion_reference.epochs) {
    for (const fusion::FusedVerdict& verdict : epoch.verdicts) {
      accused += verdict.accused ? 1 : 0;
    }
  }
  // Not vacuous: the reference accuses (15 suspects, 6 fused
  // accusations at the pin).
  EXPECT_GT(suspects, 0u);
  EXPECT_GT(accused, 0u);
  EXPECT_EQ(verdict_digest(world), 0x75b0492faea976f8ULL);
}

// ------------------------------------------------------- TCP loopback

TEST(TcpTransport, LoopbackSingleConnectionParity) {
  const std::vector<sim::FleetBeacon> fleet =
      sim::synthesize_fleet(2, 3, 10.0, 8.0);
  const std::vector<std::uint64_t> observers{1, 2};
  const stream::StreamEngineConfig engine_config = synthetic_engine_config();
  const auto reference = reference_rounds(fleet, observers, engine_config, 8.0);

  service::DetectionService backend(synthetic_service_config(2, 1));
  std::map<std::uint64_t, std::vector<stream::StreamRound>> streamed;
  backend.set_round_callback([&](const service::SessionRound& round) {
    streamed[round.session].push_back(round.round);
  });
  IngestServer server(IngestServerConfig{}, {&backend});

  TcpListener listener;
  std::unique_ptr<Connection> client =
      tcp_connect("127.0.0.1", listener.port());
  ASSERT_NE(client, nullptr);
  std::unique_ptr<Connection> accepted;
  for (int i = 0; i < 1000 && accepted == nullptr; ++i) {
    accepted = listener.accept();
  }
  ASSERT_NE(accepted, nullptr);
  server.add_connection(std::move(accepted));

  FleetStreamOptions options;
  options.close_time_s = 8.0;
  StreamSender sender(client.get(),
                      encode_fleet_stream(fleet, observers, options), 512);
  bool closed = false;
  while (server.connections_active() > 0) {
    if (!sender.done()) {
      sender.send_some();
    } else if (!closed) {
      client->close();
      closed = true;
    }
    server.poll();
    server.drain();
  }
  EXPECT_EQ(server.stats().beacons_ingested, fleet.size());
  EXPECT_EQ(server.stats().frames_shed_invalid, 0u);
  for (std::uint64_t observer : observers) {
    const std::vector<stream::StreamRound>& expected =
        reference.at(observer);
    const std::vector<stream::StreamRound>& got = streamed[observer];
    ASSERT_EQ(got.size(), expected.size()) << "observer " << observer;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_TRUE(rounds_identical(got[i], expected[i]))
          << "observer " << observer << " round " << i;
    }
  }
}

// ---------------------------------------------------------- telemetry

TEST(WireTelemetry, ConservationLawHoldsAlertFree) {
  obs::registry().reset();
  obs::HealthMonitor monitor = obs::HealthMonitor::with_default_invariants();
  obs::TelemetryConfig config;
  obs::TelemetryExporter telemetry(config);
  telemetry.set_monitor(&monitor);  // enables obs collection

  const std::vector<sim::FleetBeacon> fleet =
      sim::synthesize_fleet(3, 2, 10.0, 8.0);
  service::DetectionService backend(synthetic_service_config(2, 1));
  backend.set_round_callback([&](const service::SessionRound& round) {
    telemetry.on_round(round.round.time_s);
  });
  IngestServerConfig server_config;
  server_config.max_frames_buffered = 8;  // force backpressure sheds too
  IngestServer server(server_config, {&backend});
  PipePair pipe = make_pipe(1 << 16);
  server.add_connection(std::move(pipe.server));

  FleetStreamOptions options;
  options.close_time_s = 8.0;
  std::vector<std::uint8_t> bytes = encode_fleet_stream(fleet, {1, 2, 3},
                                                        options);
  bytes[7 * kFrameBytes + 25] ^= 0xFF;  // one invalid-shed as well
  std::size_t cursor = 0;
  while (cursor < bytes.size() || server.connections_active() > 0) {
    if (cursor < bytes.size()) {
      cursor += pipe.client->send(std::span<const std::uint8_t>(
          bytes.data() + cursor,
          std::min<std::size_t>(bytes.size() - cursor, 777)));
      if (cursor == bytes.size()) pipe.client->close();
    }
    server.poll();
    server.drain();
    telemetry.sample(server.watermark());
  }
  telemetry.finish(server.watermark());

  EXPECT_GT(server.stats().frames_shed_invalid, 0u);
  EXPECT_GT(telemetry.frames_emitted(), 0u);
  EXPECT_EQ(monitor.alerts_total(), 0u)
      << "wire conservation law violated under shedding";

  obs::disable();
  obs::registry().reset();
}

}  // namespace
}  // namespace vp::wire
