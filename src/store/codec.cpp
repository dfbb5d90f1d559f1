#include "store/codec.hpp"

#include "store/schema.hpp"

namespace vfimr::store {

namespace {

// Kind tags distinguish the value encodings sharing one store (and one
// codec version); a decoder asked to read the wrong kind fails cleanly.
// Tag 2 was the bare VfiDesign record the platform layout replaced.
enum class Kind : std::uint32_t {
  kNetworkEval = 1,
  kSystemReport = 3,
  kSystemComparison = 4,
  kPlatformLayout = 5,
};

/// [codec version u32][kind tag u32], then `value` as store/schema.hpp
/// describes it.
template <typename T>
std::string encode(Kind kind, const T& value) {
  ByteWriter w;
  w(kCodecVersion, as<std::uint32_t>(kind), value);
  return w.take();
}

/// The inverse of encode().  A foreign version or kind, a length the bytes
/// cannot hold, a short read or trailing bytes all return false and leave
/// `out` untouched.
template <typename T>
bool decode(Kind kind, std::string_view bytes, T& out) {
  ByteReader r{bytes};
  std::uint32_t version = 0;
  std::uint32_t tag = 0;
  r(version, tag);
  if (!r.ok() || version != kCodecVersion ||
      tag != static_cast<std::uint32_t>(kind)) {
    return false;
  }
  T value;
  r(value);
  if (!r.done()) return false;
  out = std::move(value);
  return true;
}

}  // namespace

std::string encode_network_eval(const sysmodel::NetworkEval& eval) {
  return encode(Kind::kNetworkEval, eval);
}

bool decode_network_eval(std::string_view bytes, sysmodel::NetworkEval& out) {
  return decode(Kind::kNetworkEval, bytes, out);
}

std::string encode_platform_layout(const sysmodel::PlatformLayout& layout) {
  return encode(Kind::kPlatformLayout, layout);
}

bool decode_platform_layout(std::string_view bytes,
                            sysmodel::PlatformLayout& out) {
  return decode(Kind::kPlatformLayout, bytes, out);
}

std::string encode_system_report(const sysmodel::SystemReport& report) {
  return encode(Kind::kSystemReport, report);
}

bool decode_system_report(std::string_view bytes,
                          sysmodel::SystemReport& out) {
  return decode(Kind::kSystemReport, bytes, out);
}

std::string encode_system_comparison(const sysmodel::SystemComparison& cmp) {
  return encode(Kind::kSystemComparison, cmp);
}

bool decode_system_comparison(std::string_view bytes,
                              sysmodel::SystemComparison& out) {
  return decode(Kind::kSystemComparison, bytes, out);
}

}  // namespace vfimr::store
