#pragma once
// Canonical byte serialization primitives for the persistent evaluation
// store (DESIGN.md §16).
//
// The store's contract is exactness: a record read back from disk must be
// byte-for-byte what was written, and a decoded value must be bit-identical
// to the encoded one.  ByteWriter/ByteReader therefore copy raw object
// bytes of trivially-copyable scalars field by field — never whole structs,
// whose padding bytes are unspecified — in host byte order (the store is a
// host-local cache, not an interchange format; a foreign-endian store would
// fail its per-record checks and be recomputed, never misread).
//
// xxh64() is the index hash over full content-addressed keys: a read
// compares the stored key bytes with the requested ones, so a hash
// collision can never alias two different computations, and a stored key
// whose hash disagrees with its header is counted as damaged.  crc32()
// guards each on-disk record's value against truncation and bit rot; the
// key needs no checksum of its own, because that full compare already
// rejects any key that is not the requested one.

#include <algorithm>
#include <array>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace vfimr::store {

// ---- Schema visitors.  store/schema.hpp describes each serialized struct
// once, as a fields(v, s) function that visits its fields in wire order:
// v(a, b, ...).  ByteWriter and ByteReader are the two visitors, so one
// description builds a cache key, encodes a record and decodes it.  Wire
// rules:
//   * bool is one byte (a reader maps any nonzero byte to true);
//   * another arithmetic scalar is its raw bytes;
//   * an enum is visited only through as<Wire>(e): the schema, not the
//     enum's underlying type, fixes its width;
//   * std::vector is a u64 element count, then its elements;
//   * std::array and std::span are their elements alone;
//   * anything else is its own fields(v, s) description, found by ADL.

/// Matches T and const T, so one fields() template serves the writer
/// (const values) and the reader (mutable ones).
template <typename S, typename T>
concept Is = std::same_as<std::remove_const_t<S>, T>;

template <typename Wire, typename T>
struct WireAs {
  using wire_type = Wire;
  T& value;
};

/// Visit `value` (an enum) as a `Wire` integer.
template <typename Wire, typename T>
WireAs<Wire, T> as(T& value) {
  return {value};
}

namespace detail {

template <typename T>
inline constexpr bool kIsWireAs = false;
template <typename W, typename T>
inline constexpr bool kIsWireAs<WireAs<W, T>> = true;

template <typename T>
inline constexpr bool kIsVector = false;
template <typename T>
inline constexpr bool kIsVector<std::vector<T>> = true;

template <typename T>
inline constexpr bool kIsFixedRange = false;
template <typename T, std::size_t N>
inline constexpr bool kIsFixedRange<std::array<T, N>> = true;
template <typename T, std::size_t N>
inline constexpr bool kIsFixedRange<std::span<T, N>> = true;

template <typename T>
inline constexpr bool kIsRawScalar =
    std::is_arithmetic_v<T> && !std::is_same_v<T, bool>;

}  // namespace detail

/// Append-only canonical byte writer: put() copies one trivially-copyable
/// scalar; operator() visits values by the schema rules above.
class ByteWriter {
 public:
  template <typename T>
  void put(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "ByteWriter::put requires trivially copyable types");
    static_assert(!std::is_pointer_v<T>,
                  "pointers must never enter a serialized record");
    buf_.append(reinterpret_cast<const char*>(&v), sizeof(T));
  }

  /// Length-prefixed string / blob.
  void put_string(std::string_view s) {
    put(static_cast<std::uint64_t>(s.size()));
    buf_.append(s.data(), s.size());
  }

  template <typename... T>
  void operator()(const T&... v) {
    (visit(v), ...);
  }

  void reserve(std::size_t n) { buf_.reserve(n); }
  const std::string& bytes() const { return buf_; }
  std::string take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void visit(const T& v) {
    static_assert(!std::is_enum_v<T>, "visit enums through as<Wire>()");
    if constexpr (std::is_same_v<T, bool>) {
      put(static_cast<std::uint8_t>(v));
    } else if constexpr (detail::kIsRawScalar<T>) {
      put(v);
    } else if constexpr (detail::kIsWireAs<T>) {
      put(static_cast<typename T::wire_type>(v.value));
    } else if constexpr (detail::kIsVector<T> || detail::kIsFixedRange<T>) {
      if constexpr (detail::kIsVector<T>) {
        put(static_cast<std::uint64_t>(v.size()));
      }
      using E = std::remove_cv_t<typename T::value_type>;
      if constexpr (detail::kIsRawScalar<E>) {
        if (!v.empty()) {
          buf_.append(reinterpret_cast<const char*>(v.data()),
                      v.size() * sizeof(E));
        }
      } else {
        for (const auto& e : v) visit(e);
      }
    } else {
      fields(*this, v);
    }
  }

  std::string buf_;
};

/// Sequential reader over a byte span.  Every get() validates bounds; the
/// first short read latches ok() to false and later reads return zeroed
/// values, so decoders can check ok() once at the end instead of after
/// every field.  operator() visits values by the schema rules above, so it
/// only accepts mutable fields: key-only descriptions, which read through
/// accessors, do not compile with it.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  template <typename T>
  bool get(T& out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (!ok_ || data_.size() - pos_ < sizeof(T)) {
      ok_ = false;
      out = T{};
      return false;
    }
    std::memcpy(&out, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  bool get_string(std::string& out) {
    std::uint64_t n = 0;
    if (!get(n) || data_.size() - pos_ < n) {
      ok_ = false;
      out.clear();
      return false;
    }
    out.assign(data_.data() + pos_, static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return true;
  }

  template <typename... T>
  void operator()(T&&... v) {
    (visit(std::forward<T>(v)), ...);
  }

  bool ok() const { return ok_; }
  /// True when the reader is still healthy and every byte was consumed —
  /// the decoder-side schema check against trailing garbage.
  bool done() const { return ok_ && pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  template <typename T>
  void visit(T&& v) {
    using U = std::remove_cvref_t<T>;
    static_assert(!std::is_enum_v<U>, "visit enums through as<Wire>()");
    static_assert(detail::kIsWireAs<U> ||
                      (std::is_lvalue_reference_v<T> &&
                       !std::is_const_v<std::remove_reference_t<T>>),
                  "a reader can only fill a mutable field");
    if constexpr (detail::kIsWireAs<U>) {
      typename U::wire_type wire{};
      get(wire);
      v.value = static_cast<std::remove_cvref_t<decltype(v.value)>>(wire);
    } else if constexpr (std::is_same_v<U, bool>) {
      std::uint8_t byte = 0;
      get(byte);
      v = byte != 0;
    } else if constexpr (detail::kIsRawScalar<U>) {
      get(v);
    } else if constexpr (detail::kIsVector<U>) {
      std::uint64_t n = 0;
      v.clear();
      get(n);
      // Length before allocation: a count the remaining bytes cannot hold
      // fails the read instead of attempting a huge allocation.
      if (n > remaining() / min_wire_size<typename U::value_type>()) {
        ok_ = false;
        return;
      }
      v.resize(static_cast<std::size_t>(n));
      for (auto& e : v) visit(e);
    } else if constexpr (detail::kIsFixedRange<U>) {
      for (auto& e : v) visit(e);
    } else {
      fields(*this, v);
    }
  }

  /// Fewest bytes one encoded E takes: a scalar's size, else the encoding
  /// of a default E (whose vectors are empty).
  template <typename E>
  static std::size_t min_wire_size() {
    static const std::size_t size = [] {
      ByteWriter w;
      w(E{});
      return std::max<std::size_t>(w.size(), 1);
    }();
    return size;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// CRC-32 (IEEE 802.3 polynomial, the zlib one) over a byte span.
std::uint32_t crc32(std::string_view s);

/// XXH64 with seed 0 (the public xxHash 64-bit algorithm) — the store's
/// index hash over full keys.  Words are read little-endian, so the result
/// does not depend on host byte order.
std::uint64_t xxh64(std::string_view s);

}  // namespace vfimr::store
