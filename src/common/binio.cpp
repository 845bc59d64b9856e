#include "common/binio.h"

#include <cstdio>
#include <utility>

#include "common/error.h"

namespace vp {

bool open_image(std::span<const std::uint8_t> image, const ImageFormat& format,
                ByteReader& body, std::uint32_t& version, std::string* error) {
  const auto reject = [&](const std::string& what) {
    return fail(error, format.label + (": " + what));
  };
  if (image.size() < 4 + 4 + 8) return reject("truncated header");
  std::uint64_t stored_sum = 0;
  ByteReader(image.last(8)).get_u64(stored_sum);
  const auto framed = image.first(image.size() - 8);
  if (fnv1a64(framed) != stored_sum) return reject("checksum mismatch");
  ByteReader r(framed);
  std::uint32_t magic = 0;
  if (!r.get_u32(magic) || magic != format.magic_word()) {
    return reject(std::string("bad magic (not ") + format.magic + ")");
  }
  if (!r.get_u32(version) || version < format.min_version ||
      version > format.version) {
    return reject("unsupported version");
  }
  body = r;
  return true;
}

bool save_image(std::span<const std::uint8_t> image, const std::string& path,
                std::string* error) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return fail(error, "cannot open " + tmp);
  const std::size_t written = std::fwrite(image.data(), 1, image.size(), f);
  const bool flushed = std::fflush(f) == 0;
  if (std::fclose(f) != 0 || written != image.size() || !flushed) {
    std::remove(tmp.c_str());
    return fail(error, "short write to " + tmp);
  }
  // The previous image at `path` stays intact until this atomic step.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return fail(error, "cannot rename " + tmp + " over " + path);
  }
  return true;
}

bool load_image(const std::string& path, std::vector<std::uint8_t>& out,
                std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return fail(error, "cannot open " + path);
  std::vector<std::uint8_t> bytes;
  std::uint8_t chunk[4096];
  std::size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + n);
  }
  const bool read_ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!read_ok) return fail(error, "read error on " + path);
  out = std::move(bytes);
  return true;
}

}  // namespace vp
