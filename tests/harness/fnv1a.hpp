#pragma once
// FNV-1a 64-bit, the digest the pinned-value tests record: the codec
// tripwire, the design-flow identity pin and the store's payload layout
// pin.  The store itself indexes keys with store::xxh64; these tests keep
// FNV-1a so their recorded values stay valid.

#include <cstdint>
#include <string_view>

namespace vfimr::test {

inline std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char ch : s) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace vfimr::test
