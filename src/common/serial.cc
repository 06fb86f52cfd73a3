#include "common/serial.h"

#include <array>

namespace ppq {
namespace {

using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

/// kCrcTables[0] is the byte-at-a-time table; kCrcTables[s][b] is the
/// CRC of byte b followed by s zero bytes, so the eight bytes of a word
/// fold in with independent lookups.
constexpr CrcTables BuildCrcTables() {
  CrcTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (size_t s = 1; s < 8; ++s) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[s - 1][i];
      tables[s][i] = tables[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = BuildCrcTables();

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  const auto& t = kCrcTables;
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; size >= 8; p += 8, size -= 8) {
    const uint32_t lo = LoadU32LE(p) ^ c;
    const uint32_t hi = LoadU32LE(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) {
    c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace ppq
