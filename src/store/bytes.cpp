#include "store/bytes.hpp"

#include <array>
#include <bit>

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

std::uint32_t crc32(std::string_view s) {
  static const CrcTables t = make_crc_tables();
  const auto* p = reinterpret_cast<const unsigned char*>(s.data());
  std::size_t n = s.size();
  std::uint32_t c = 0xFFFFFFFFu;
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

namespace {

constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ull;
constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ull;
constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ull;

/// Little-endian loads assembled byte by byte, as in crc32(); GCC folds
/// each into one load on a little-endian host.
inline std::uint64_t load32(const unsigned char* p) {
  return std::uint64_t{p[0]} | std::uint64_t{p[1]} << 8 |
         std::uint64_t{p[2]} << 16 | std::uint64_t{p[3]} << 24;
}

inline std::uint64_t load64(const unsigned char* p) {
  return load32(p) | std::uint64_t{p[4]} << 32 | std::uint64_t{p[5]} << 40 |
         std::uint64_t{p[6]} << 48 | std::uint64_t{p[7]} << 56;
}

inline std::uint64_t xxh_round(std::uint64_t acc, std::uint64_t input) {
  return std::rotl(acc + input * kPrime2, 31) * kPrime1;
}

inline std::uint64_t xxh_merge(std::uint64_t h, std::uint64_t lane) {
  return (h ^ xxh_round(0, lane)) * kPrime1 + kPrime4;
}

}  // namespace

std::uint64_t xxh64(std::string_view s) {
  const auto* p = reinterpret_cast<const unsigned char*>(s.data());
  std::size_t n = s.size();
  std::uint64_t h = 0;
  if (n >= 32) {
    // Four independent lanes, 32 bytes per step.
    std::uint64_t v1 = kPrime1 + kPrime2;
    std::uint64_t v2 = kPrime2;
    std::uint64_t v3 = 0;
    std::uint64_t v4 = 0 - kPrime1;
    for (; n >= 32; n -= 32, p += 32) {
      v1 = xxh_round(v1, load64(p));
      v2 = xxh_round(v2, load64(p + 8));
      v3 = xxh_round(v3, load64(p + 16));
      v4 = xxh_round(v4, load64(p + 24));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = xxh_merge(xxh_merge(xxh_merge(xxh_merge(h, v1), v2), v3), v4);
  } else {
    h = kPrime5;
  }
  h += s.size();
  for (; n >= 8; n -= 8, p += 8) {
    h = std::rotl(h ^ xxh_round(0, load64(p)), 27) * kPrime1 + kPrime4;
  }
  if (n >= 4) {
    h = std::rotl(h ^ load32(p) * kPrime1, 23) * kPrime2 + kPrime3;
    n -= 4;
    p += 4;
  }
  for (; n > 0; --n, ++p) {
    h = std::rotl(h ^ *p * kPrime5, 11) * kPrime1;
  }
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  return h ^ (h >> 32);
}

}  // namespace vfimr::store
