// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the integrity
// check guarding checkpoint, model, and zoo-blob files. Slice-by-8 (eight
// table lookups per 8 input bytes, any alignment), no dependencies; check
// value: crc32("123456789") == 0xCBF43926.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace muxlink::common {

// CRC of `data` continuing from `seed` (pass the previous return value to
// checksum a stream incrementally; the default starts a fresh CRC).
std::uint32_t crc32(std::string_view data, std::uint32_t seed = 0);

// Incremental CRC-32 over a byte stream. Feeding a buffer in any number of
// update() slices yields exactly the one-shot crc32() of the concatenation —
// the zoo mmap loader verifies multi-gigabyte mapped regions chunk by chunk
// without ever copying them into a contiguous string.
class Crc32 {
 public:
  Crc32() = default;
  explicit Crc32(std::uint32_t seed) : crc_(seed) {}

  void update(std::string_view data) { crc_ = crc32(data, crc_); }
  void update(const void* data, std::size_t len) {
    update(std::string_view(static_cast<const char*>(data), len));
  }

  // CRC of everything fed so far; the stream may continue afterwards.
  std::uint32_t value() const noexcept { return crc_; }
  void reset(std::uint32_t seed = 0) noexcept { crc_ = seed; }

 private:
  std::uint32_t crc_ = 0;
};

}  // namespace muxlink::common
