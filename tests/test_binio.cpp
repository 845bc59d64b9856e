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
#include <cstdint>
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
