// Hardened-reader contract for the binary codecs (DESIGN.md §10, §14):
// every bounds-checked ByteReader getter fails cleanly on exhausted
// input, and every persisted image — VPCK (engine), VPSC (service),
// VPFU (fusion), VPWB (wire frame) — rejects truncation at *every* byte
// boundary structurally: decode returns failure, never UB (the CI
// sanitizer jobs run these same truncations under ASan/UBSan).
//
// The checksum-trailer variants are the sharp edge: a plain prefix dies
// at the FNV gate, so those tests re-stamp a *correct* checksum over the
// truncated prefix, forcing the field readers themselves to prove they
// are bounds-checked past the integrity layer.
//
// Also here: the byte-level pins of the three checkpoint formats, and
// the crash-safe save_image/load_image file path they all share.
#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/binio.h"
#include "core/detector.h"
#include "fusion/checkpoint.h"
#include "fusion/engine.h"
#include "service/checkpoint.h"
#include "service/service.h"
#include "stream/checkpoint.h"
#include "stream/engine.h"
#include "wire/frame.h"

namespace vp {
namespace {

// ------------------------------------------------------------ ByteReader

TEST(ByteReader, GettersFailOnTruncationLeavingValuesUntouched) {
  std::vector<std::uint8_t> bytes;
  ByteWriter writer(bytes);
  writer.put_u8(0xAA);
  writer.put_u32(0x12345678);
  writer.put_u64(0x1122334455667788ULL);
  writer.put_i64(-42);
  writer.put_f64(-63.25);
  ASSERT_EQ(bytes.size(), 1u + 4 + 8 + 8 + 8);

  // The full image reads back exactly.
  {
    ByteReader reader(bytes);
    std::uint8_t u8 = 0;
    std::uint32_t u32 = 0;
    std::uint64_t u64 = 0;
    std::int64_t i64 = 0;
    double f64 = 0.0;
    EXPECT_TRUE(reader.get_u8(u8));
    EXPECT_TRUE(reader.get_u32(u32));
    EXPECT_TRUE(reader.get_u64(u64));
    EXPECT_TRUE(reader.get_i64(i64));
    EXPECT_TRUE(reader.get_f64(f64));
    EXPECT_EQ(u8, 0xAA);
    EXPECT_EQ(u32, 0x12345678u);
    EXPECT_EQ(u64, 0x1122334455667788ULL);
    EXPECT_EQ(i64, -42);
    EXPECT_EQ(f64, -63.25);  // bit-exact through the u64 pattern
    EXPECT_EQ(reader.remaining(), 0u);
  }

  // Any prefix: the getter crossing the cut fails and leaves its output
  // untouched; the reader's cursor stays where the failure happened.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    ByteReader reader(std::span<const std::uint8_t>(bytes.data(), cut));
    std::uint8_t u8 = 0xEE;
    std::uint32_t u32 = 0xEEEEEEEEu;
    std::uint64_t u64 = 0xEEEEEEEEEEEEEEEEULL;
    std::int64_t i64 = -1;
    double f64 = 1e9;
    const bool ok8 = reader.get_u8(u8);
    const bool ok32 = reader.get_u32(u32);
    const bool ok64 = reader.get_u64(u64);
    const bool oki = reader.get_i64(i64);
    const bool okf = reader.get_f64(f64);
    EXPECT_EQ(ok8, cut >= 1);
    EXPECT_EQ(ok32, cut >= 5);
    EXPECT_EQ(ok64, cut >= 13);
    EXPECT_EQ(oki, cut >= 21);
    EXPECT_EQ(okf, cut >= 29);
    if (!ok8) {
      EXPECT_EQ(u8, 0xEE);
    }
    if (!ok32) {
      EXPECT_EQ(u32, 0xEEEEEEEEu);
    }
    if (!ok64) {
      EXPECT_EQ(u64, 0xEEEEEEEEEEEEEEEEULL);
    }
    if (!oki) {
      EXPECT_EQ(i64, -1);
    }
    if (!okf) {
      EXPECT_EQ(f64, 1e9);
    }
  }
}

TEST(ByteReader, SkipAndCursorAreBoundsChecked) {
  const std::vector<std::uint8_t> bytes(10, 0x7F);
  ByteReader reader(bytes);
  EXPECT_TRUE(reader.skip(4));
  EXPECT_EQ(reader.cursor(), 4u);
  EXPECT_EQ(reader.remaining(), 6u);
  EXPECT_FALSE(reader.skip(7));   // past the end: refused, cursor holds
  EXPECT_EQ(reader.cursor(), 4u);
  EXPECT_TRUE(reader.skip(6));
  EXPECT_EQ(reader.remaining(), 0u);
  EXPECT_FALSE(reader.skip(1));
}

// ------------------------------------------------- checkpoint image rigs

stream::EngineCheckpoint engine_image_source(
    std::vector<std::uint8_t>* image) {
  stream::StreamEngineConfig config;
  config.min_samples = 1;
  config.detector = core::tuned_simulation_options(1);
  stream::StreamEngine engine(config);
  for (int i = 0; i < 40; ++i) {
    engine.ingest(1 + static_cast<IdentityId>(i % 3), 0.25 * i,
                  -60.0 - 0.1 * i);
  }
  engine.advance_to(10.0);
  const stream::EngineCheckpoint checkpoint = engine.checkpoint();
  *image = stream::encode_checkpoint(checkpoint);
  return checkpoint;
}

std::vector<std::uint8_t> service_image() {
  service::ServiceConfig config;
  config.shards = 2;
  config.engine.min_samples = 1;
  config.engine.detector = core::tuned_simulation_options(1);
  service::DetectionService service(config);
  for (int i = 0; i < 40; ++i) {
    service.ingest(1 + (i % 2), 1 + static_cast<IdentityId>(i % 3), 0.25 * i,
                   -60.0 - 0.1 * i);
  }
  service.advance_all_to(10.0);
  service.pump();
  return service::encode_checkpoint(service.checkpoint());
}

std::vector<std::uint8_t> fusion_image() {
  fusion::FusionConfig config;
  fusion::FusionEngine engine(config);
  service::SessionRound round;
  round.session = 3;
  round.round.round_id = 1;
  round.round.time_s = 5.0;
  round.round.identities_heard = 2;
  round.round.suspects = {2};
  engine.observe(round);
  engine.advance(20.0);
  return fusion::encode_checkpoint(engine.checkpoint());
}

// Every strict prefix of `image` must fail its decoder with an error
// message, never crash. `decode` adapts each codec's signature.
template <typename Decode>
void expect_all_truncations_fail(const std::vector<std::uint8_t>& image,
                                 const Decode& decode, const char* what) {
  ASSERT_FALSE(image.empty());
  ASSERT_TRUE(decode(image)) << what << ": the full image must decode";
  for (std::size_t cut = 0; cut < image.size(); ++cut) {
    EXPECT_FALSE(decode(std::vector<std::uint8_t>(image.begin(),
                                                  image.begin() + cut)))
        << what << " accepted a truncation at byte " << cut << "/"
        << image.size();
  }
}

// The checksum-fixed variant: truncate, then append a *correct* FNV-1a
// trailer over the truncated prefix. The integrity gate passes by
// construction, so only structural bounds checks can reject — which
// they must, at every cut.
template <typename Decode>
void expect_checksum_fixed_truncations_fail(
    const std::vector<std::uint8_t>& image, const Decode& decode,
    const char* what) {
  ASSERT_GT(image.size(), 8u);
  const std::size_t body = image.size() - 8;  // trailer is the last field
  for (std::size_t cut = 0; cut < body; ++cut) {
    std::vector<std::uint8_t> forged(image.begin(), image.begin() + cut);
    ByteWriter writer(forged);
    writer.put_u64(fnv1a64(std::span<const std::uint8_t>(forged.data(), cut)));
    EXPECT_FALSE(decode(forged))
        << what << " accepted a checksum-fixed truncation at byte " << cut
        << "/" << body;
  }
}

TEST(CheckpointImages, EngineVpckRejectsEveryTruncation) {
  std::vector<std::uint8_t> image;
  engine_image_source(&image);
  const auto decode = [](const std::vector<std::uint8_t>& bytes) {
    stream::EngineCheckpoint out;
    std::string error;
    return stream::decode_checkpoint(bytes, &out, &error);
  };
  expect_all_truncations_fail(image, decode, "VPCK");
  expect_checksum_fixed_truncations_fail(image, decode, "VPCK");
}

TEST(CheckpointImages, ServiceVpscRejectsEveryTruncation) {
  const std::vector<std::uint8_t> image = service_image();
  const auto decode = [](const std::vector<std::uint8_t>& bytes) {
    service::ServiceCheckpoint out;
    std::string error;
    return service::decode_checkpoint(bytes, &out, &error);
  };
  expect_all_truncations_fail(image, decode, "VPSC");
  expect_checksum_fixed_truncations_fail(image, decode, "VPSC");
}

TEST(CheckpointImages, FusionVpfuRejectsEveryTruncation) {
  const std::vector<std::uint8_t> image = fusion_image();
  const auto decode = [](const std::vector<std::uint8_t>& bytes) {
    fusion::FusionCheckpoint out;
    std::string error;
    return fusion::decode_checkpoint(bytes, &out, &error);
  };
  expect_all_truncations_fail(image, decode, "VPFU");
  expect_checksum_fixed_truncations_fail(image, decode, "VPFU");
}

// ------------------------------------------------------- format pins

// Images built from literals, not from engines, so tuning never moves
// the pins. Every counter is distinct and non-zero, so swapping two
// fields changes the digest.
stream::EngineCheckpoint pinned_engine() {
  stream::EngineCheckpoint cp;
  cp.config_hash = 0x0123456789abcdefULL;
  cp.next_round_s = 40.0;
  cp.last_round_time_s = 20.0;
  cp.bucket_second = 29;
  cp.bucket_accepted = 7;
  cp.next_round_id = 2;
  stream::StreamEngine::Stats& s = cp.stats;
  s.beacons_offered = 101;
  s.beacons_ingested = 102;
  s.beacons_shed_rate_limited = 103;
  s.beacons_shed_identity_cap = 104;
  s.beacons_shed_out_of_order = 105;
  s.shed_invalid_rssi_non_finite = 106;
  s.shed_invalid_rssi_out_of_range = 107;
  s.shed_invalid_time_non_finite = 108;
  s.shed_invalid_time_negative = 109;
  s.beacons_shed_conditioned = 110;
  s.cond_offered = 111;
  s.cond_passed = 112;
  s.cond_clamped = 113;
  s.cond_rejected = 114;
  s.ring_evictions = 115;
  s.samples_expired = 116;
  s.identities_expired = 117;
  s.rounds = 118;

  stream::IdentityCheckpoint a;
  a.id = 3;
  a.last_heard_s = 19.75;
  a.ring.capacity = 8;
  a.ring.times = {18.5, 19.0, 19.75};
  a.ring.values = {-61.5, -62.25, -60.0};
  a.ring.mean = -61.25;
  a.ring.m2 = 2.625;
  a.cond_window = {-251904, -254976, -245760};
  a.cond_ema_q12 = -250880;
  a.cond_ema_init = true;
  a.cond_reject_streak = 1;
  stream::IdentityCheckpoint b;
  b.id = 9;
  b.last_heard_s = 19.5;
  b.ring.capacity = 8;
  b.ring.times = {19.5};
  b.ring.values = {-70.0};
  b.ring.mean = -70.0;
  cp.identities = {a, b};
  return cp;
}

service::ServiceCheckpoint pinned_service() {
  service::ServiceCheckpoint cp;
  cp.config_hash = 0xfedcba9876543210ULL;
  cp.service_time = 20.0;
  service::DetectionService::Stats& s = cp.stats;
  s.beacons_offered = 201;
  s.beacons_ingested = 202;
  s.beacons_shed_session_cap = 203;
  s.beacons_shed_rate_limited = 204;
  s.beacons_shed_identity_cap = 205;
  s.beacons_shed_out_of_order = 206;
  s.beacons_shed_invalid = 207;
  s.beacons_shed_conditioned = 208;
  s.sessions_opened = 209;
  s.sessions_rejected = 210;
  s.sessions_closed = 211;
  s.sessions_evicted_idle = 212;
  s.rounds_prepared = 213;
  s.rounds_executed = 214;
  s.rounds_shed_queue_full = 215;
  s.rounds_shed_closed = 216;
  s.pumps = 217;
  cp.sessions = {{4, 19.875, pinned_engine()}, {11, 19.5, pinned_engine()}};
  return cp;
}

fusion::FusionCheckpoint pinned_fusion() {
  fusion::FusionCheckpoint cp;
  cp.config_hash = 0x0f1e2d3c4b5a6978ULL;
  cp.watermark = 30.0;
  cp.closed_before = 1;
  fusion::FusionEngine::Stats& s = cp.stats;
  s.rounds_delivered = 301;
  s.rounds_fused = 302;
  s.rounds_expired = 303;
  s.epochs_closed = 304;
  s.votes_cast = 305;
  s.verdicts_fused = 306;
  s.accusations_fused = 307;
  cp.identity_trust = {{3, 0.75}, {9, 0.5}};
  cp.observer_trust = {{4, 0.875}, {11, 0.25}};
  fusion::EpochCheckpoint epoch;
  epoch.index = 1;
  epoch.rounds = 2;
  epoch.max_round_id = 5;
  epoch.votes = {{3, 4, true, 12.5, 25.0}, {3, 11, false, 11.0, 26.0}};
  cp.epochs = {epoch};
  return cp;
}

// The byte-level contract of VPCK v3, VPSC v2 and VPFU v1: a change that
// moves any of these constants changes a persisted format, and must say
// so (and bump the version) rather than update the pin silently.
TEST(CheckpointImages, FormatsArePinned) {
  const std::vector<std::uint8_t> engine =
      stream::encode_checkpoint(pinned_engine());
  const std::vector<std::uint8_t> service =
      service::encode_checkpoint(pinned_service());
  const std::vector<std::uint8_t> fused =
      fusion::encode_checkpoint(pinned_fusion());
  EXPECT_EQ(engine.size(), 442u);
  EXPECT_EQ(fnv1a64(engine), 0x86e2dce9b0e694a6ULL);
  EXPECT_EQ(service.size(), 1108u);
  EXPECT_EQ(fnv1a64(service), 0xfd238a8887ca5917ULL);
  EXPECT_EQ(fused.size(), 282u);
  EXPECT_EQ(fnv1a64(fused), 0x65a70b8fceeb9726ULL);
}

// ------------------------------------------------- crash-safe image file

TEST(ImageFile, SaveReplacesAnExistingImage) {
  const std::string path = "test_binio_replace.img";
  std::filesystem::remove_all(path + ".tmp");
  const std::vector<std::uint8_t> first = {1, 2, 3};
  const std::vector<std::uint8_t> second = {4, 5, 6, 7};
  std::string error;
  ASSERT_TRUE(save_image(first, path, &error)) << error;
  ASSERT_TRUE(save_image(second, path, &error)) << error;
  std::vector<std::uint8_t> loaded;
  ASSERT_TRUE(load_image(path, loaded, &error)) << error;
  EXPECT_EQ(loaded, second);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove(path);
}

// A save that cannot create "<path>.tmp" fails with a reason and leaves
// the previous image byte-identical. A directory in the temporary's
// place forces the failure even for root, which file modes do not.
TEST(ImageFile, FailedSaveLeavesThePreviousImageIntact) {
  const std::string path = "test_binio_intact.img";
  const std::string tmp = path + ".tmp";
  std::filesystem::remove_all(tmp);
  const std::vector<std::uint8_t> previous =
      fusion::encode_checkpoint(pinned_fusion());
  std::string error;
  ASSERT_TRUE(save_image(previous, path, &error)) << error;
  ASSERT_TRUE(std::filesystem::create_directory(tmp));

  const std::vector<std::uint8_t> next(previous.size(), 0xEE);
  EXPECT_FALSE(save_image(next, path, &error));
  EXPECT_NE(error.find(tmp), std::string::npos) << error;
  std::vector<std::uint8_t> loaded;
  ASSERT_TRUE(load_image(path, loaded, &error)) << error;
  EXPECT_EQ(loaded, previous);
  EXPECT_TRUE(std::filesystem::is_directory(tmp));  // not the save's to remove

  std::filesystem::remove_all(tmp);
  std::filesystem::remove(path);
}

TEST(ImageFile, LoadOfMissingPathFails) {
  const std::string path = "test_binio_missing.img";
  std::filesystem::remove(path);
  std::vector<std::uint8_t> out = {9};
  std::string error;
  EXPECT_FALSE(load_image(path, out, &error));
  EXPECT_NE(error.find(path), std::string::npos) << error;
  EXPECT_EQ(out, std::vector<std::uint8_t>{9});  // untouched on failure
}

TEST(ImageFile, FusionImageRoundTripsThroughAFile) {
  const fusion::FusionCheckpoint original = pinned_fusion();
  const std::vector<std::uint8_t> image = fusion::encode_checkpoint(original);
  const std::string path = "test_binio_roundtrip.vpfu";
  std::string error;
  ASSERT_TRUE(save_image(image, path, &error)) << error;
  std::vector<std::uint8_t> loaded;
  ASSERT_TRUE(load_image(path, loaded, &error)) << error;
  EXPECT_EQ(loaded, image);
  fusion::FusionCheckpoint decoded;
  ASSERT_TRUE(fusion::decode_checkpoint(loaded, &decoded, &error)) << error;
  EXPECT_EQ(decoded.identity_trust, original.identity_trust);
  EXPECT_EQ(decoded.observer_trust, original.observer_trust);
  ASSERT_EQ(decoded.epochs.size(), 1u);
  EXPECT_EQ(decoded.epochs[0].votes.size(), 2u);
  EXPECT_EQ(fusion::encode_checkpoint(decoded), image);
  std::filesystem::remove(path);
}

// ------------------------------------------------------------ VPWB frame

TEST(WireFrameImage, EveryTruncationNeedsMoreEveryFlipRejects) {
  wire::FrameEncoder encoder;
  std::vector<std::uint8_t> image;
  encoder.append_beacon(7, 3, 1.5, -65.0, image);
  ASSERT_EQ(image.size(), wire::kFrameBytes);

  // A truncated frame is indistinguishable from a partial arrival: the
  // decoder must hold it as kNeedMore (no field read past the cut) for
  // every prefix length.
  for (std::size_t cut = 0; cut < image.size(); ++cut) {
    wire::FrameDecoder decoder;
    ASSERT_EQ(decoder.push(std::span<const std::uint8_t>(image.data(), cut)),
              cut);
    wire::Frame frame;
    EXPECT_EQ(decoder.next(frame), wire::DecodeStatus::kNeedMore)
        << "truncation at byte " << cut;
    EXPECT_EQ(decoder.buffered_bytes(), cut);
  }

  // A complete frame with any single byte flipped must be rejected —
  // consumed and counted, never decoded and never UB.
  for (std::size_t i = 0; i < image.size(); ++i) {
    std::vector<std::uint8_t> flipped = image;
    flipped[i] ^= 0xA5;
    wire::FrameDecoder decoder;
    ASSERT_EQ(decoder.push(flipped), flipped.size());
    wire::Frame frame;
    EXPECT_EQ(decoder.next(frame), wire::DecodeStatus::kRejected)
        << "flip at byte " << i;
  }
}

}  // namespace
}  // namespace vp
