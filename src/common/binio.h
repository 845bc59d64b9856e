// Bounds-checked little-endian binary encoding, and the one image framing
// every persisted checkpoint shares: VPCK (stream/checkpoint.h), VPSC
// (service/checkpoint.h) and VPFU (fusion/checkpoint.h). The VPWB wire
// frame (wire/frame.h) uses the same field encoding and FNV-1a hash.
//
// Doubles travel as their IEEE-754 bit patterns (std::bit_cast through
// uint64), so a value written and read back is the *same bits* — the
// checkpoint restore-parity invariant (DESIGN.md §10) needs exact
// doubles, not "close enough" text round-trips. The reader never throws
// on malformed input: every get_* reports truncation through its return
// value, so a corrupted checkpoint is a diagnosable error, not UB.
//
// Image framing. A checkpoint image is
//
//   u32 magic | u32 version | body | u64 FNV-1a over everything before it
//
// The magic is four ASCII bytes naming the format; the version belongs
// to the codec, whose decoder accepts a range of versions so that older
// images still decode. open_image checks, in this order, that the image
// can hold a header and a trailer, that the trailer matches (no field is
// trusted over bit rot), the magic, and the version range; the codec then
// parses its own body with its own structural checks and must consume it
// exactly. An image embedded in another (VPSC's per-session VPCK images)
// is itself complete and self-framed. save_image writes crash-safely: the
// bytes go to "<path>.tmp" and are renamed over <path> only after a
// successful flush, so a crash mid-save leaves the previous image intact.
#pragma once

#include <bit>
#include <cstdint>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace vp {

// FNV-1a over raw bytes: the image trailer, so bit rot and truncation
// are detected before any field is trusted.
inline std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (std::uint8_t b : bytes) {
    hash ^= b;
    hash *= 1099511628211ULL;
  }
  return hash;
}

// Appends fixed-width little-endian fields to a byte vector.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  void put_u8(std::uint8_t v) { out_.push_back(v); }

  void put_u32(std::uint32_t v) {
    for (int shift = 0; shift < 32; shift += 8) {
      out_.push_back(static_cast<std::uint8_t>(v >> shift));
    }
  }

  void put_u64(std::uint64_t v) {
    for (int shift = 0; shift < 64; shift += 8) {
      out_.push_back(static_cast<std::uint8_t>(v >> shift));
    }
  }

  void put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }

  void put_f64(double v) { put_u64(std::bit_cast<std::uint64_t>(v)); }

  std::size_t size() const { return out_.size(); }

 private:
  std::vector<std::uint8_t>& out_;
};

// Reads the fields back; every getter returns false (leaving the output
// untouched) once the input is exhausted.
class ByteReader {
 public:
  ByteReader() = default;
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  bool get_u8(std::uint8_t& v) {
    if (cursor_ + 1 > bytes_.size()) return false;
    v = bytes_[cursor_++];
    return true;
  }

  bool get_u32(std::uint32_t& v) {
    if (cursor_ + 4 > bytes_.size()) return false;
    v = 0;
    for (int shift = 0; shift < 32; shift += 8) {
      v |= static_cast<std::uint32_t>(bytes_[cursor_++]) << shift;
    }
    return true;
  }

  bool get_u64(std::uint64_t& v) {
    if (cursor_ + 8 > bytes_.size()) return false;
    v = 0;
    for (int shift = 0; shift < 64; shift += 8) {
      v |= static_cast<std::uint64_t>(bytes_[cursor_++]) << shift;
    }
    return true;
  }

  bool get_i64(std::int64_t& v) {
    std::uint64_t raw;
    if (!get_u64(raw)) return false;
    v = static_cast<std::int64_t>(raw);
    return true;
  }

  bool get_f64(double& v) {
    std::uint64_t raw;
    if (!get_u64(raw)) return false;
    v = std::bit_cast<double>(raw);
    return true;
  }

  // Advances past n bytes (e.g. an embedded blob parsed separately).
  bool skip(std::size_t n) {
    if (n > remaining()) return false;
    cursor_ += n;
    return true;
  }

  // Views the next n bytes (an embedded image) and advances past them.
  bool get_bytes(std::uint64_t n, std::span<const std::uint8_t>& v) {
    if (n > remaining()) return false;
    v = bytes_.subspan(cursor_, static_cast<std::size_t>(n));
    cursor_ += v.size();
    return true;
  }

  std::size_t cursor() const { return cursor_; }
  std::size_t remaining() const { return bytes_.size() - cursor_; }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t cursor_ = 0;
};

// One checkpoint image format.
struct ImageFormat {
  const char* label;          // error prefix, e.g. "service checkpoint"
  char magic[5];              // four ASCII bytes, written first
  std::uint32_t min_version;  // oldest version the decoder accepts
  std::uint32_t version;      // the version encode writes

  constexpr std::uint32_t magic_word() const {
    std::uint32_t word = 0;
    for (int i = 3; i >= 0; --i) {
      word = (word << 8) | static_cast<std::uint8_t>(magic[i]);
    }
    return word;
  }
};

// One u64 counter of a Stats struct, in an image's wire order, carried
// from image version `since` on. A codec declares one table of these per
// Stats struct and both directions walk it, so a field cannot be written
// and not read, or read out of order.
template <typename Stats>
struct StatsField {
  std::uint64_t Stats::*member;
  std::uint32_t since;
};

template <typename Stats, std::size_t N>
void put_stats(ByteWriter& w, const Stats& s,
               const StatsField<Stats> (&table)[N]) {
  for (const StatsField<Stats>& f : table) w.put_u64(s.*f.member);
}

// Reads the fields a `version` image carries; newer ones keep their value.
template <typename Stats, std::size_t N>
bool get_stats(ByteReader& r, std::uint32_t version, Stats& s,
               const StatsField<Stats> (&table)[N]) {
  for (const StatsField<Stats>& f : table) {
    if (f.since <= version && !r.get_u64(s.*f.member)) return false;
  }
  return true;
}

// Starts an image: the magic and the version words.
inline void put_image_header(ByteWriter& w, const ImageFormat& format) {
  w.put_u32(format.magic_word());
  w.put_u32(format.version);
}

// Completes an image: appends the FNV-1a trailer over all of `image`.
inline void put_image_trailer(std::vector<std::uint8_t>& image) {
  ByteWriter(image).put_u64(fnv1a64(image));
}

// Checks `image`'s framing against `format`. On success `body` reads the
// bytes between the version word and the trailer, and `version` holds
// the image's version. On failure returns false with
// "<label>: truncated header | checksum mismatch | bad magic (not XXXX) |
// unsupported version" in *error (if non-null).
bool open_image(std::span<const std::uint8_t> image, const ImageFormat& format,
                ByteReader& body, std::uint32_t& version, std::string* error);

// Crash-safe file save: writes "<path>.tmp", flushes, closes and renames
// it over `path`. On failure returns false with a reason, removes the
// temporary it wrote, and leaves any previous file at `path` untouched.
bool save_image(std::span<const std::uint8_t> image, const std::string& path,
                std::string* error);

// Reads the whole file at `path`; `out` is only modified on success.
bool load_image(const std::string& path, std::vector<std::uint8_t>& out,
                std::string* error);

}  // namespace vp
