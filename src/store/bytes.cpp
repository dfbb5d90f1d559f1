#include "store/bytes.hpp"

#include <array>

namespace vfimr::store {

namespace {

/// Slicing-by-8 tables: table[0] is the classic byte-at-a-time table, and
/// table[k][b] is the CRC register after byte b is followed by k zero
/// bytes, so one step folds eight input bytes with eight lookups.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t crc) {
  static const CrcTables t = make_crc_tables();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = ~crc;
  for (; n >= 8; n -= 8, p += 8) {
    // The low word is assembled byte by byte, so the result does not
    // depend on host byte order.
    const std::uint32_t lo = c ^ (std::uint32_t{p[0]} |
                                  std::uint32_t{p[1]} << 8 |
                                  std::uint32_t{p[2]} << 16 |
                                  std::uint32_t{p[3]} << 24);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][p[4]] ^
        t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
  }
  for (; n > 0; --n, ++p) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return ~c;
}

std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char ch : s) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace vfimr::store
