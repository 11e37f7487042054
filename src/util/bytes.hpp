// Bounds-checked little-endian byte serialization, used by the blob
// (de)serializers in core/ and sz/. Deliberately exception-based: a truncated
// or corrupted blob must never read out of bounds.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace ohd::util {

class ByteWriter {
public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u16(std::uint16_t v) { raw(&v, 2); }
  void u32(std::uint32_t v) { raw(&v, 4); }
  void u64(std::uint64_t v) { raw(&v, 8); }
  void f32(float v) { raw(&v, 4); }
  void f64(double v) { raw(&v, 8); }

  void magic(const char tag[4]) { raw(tag, 4); }

  template <typename T>
  void array(std::span<const T> values) {
    static_assert(std::is_trivially_copyable_v<T>);
    u64(values.size());
    raw(values.data(), values.size() * sizeof(T));
  }

  void bytes(std::span<const std::uint8_t> values) {
    array<std::uint8_t>(values);
  }

  std::vector<std::uint8_t> take() { return std::move(bytes_); }
  std::size_t size() const { return bytes_.size(); }
  std::span<const std::uint8_t> bytes() const { return bytes_; }

  /// Preallocates for a writer whose final size is known up front (e.g. the
  /// archive index + footer in ArchiveWriter::finish()), so the append path
  /// never reallocates.
  void reserve(std::size_t n) { bytes_.reserve(n); }

private:
  void raw(const void* data, std::size_t n) {
    if (n == 0) return;  // an empty array's data() may be null
    // resize+memcpy instead of insert: same bytes, but it sidesteps a GCC 12
    // -Wstringop-overflow false positive on insert-after-exact-reserve.
    const std::size_t old = bytes_.size();
    bytes_.resize(old + n);
    std::memcpy(bytes_.data() + old, data, n);
  }
  std::vector<std::uint8_t> bytes_;
};

class ByteReader {
public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t u8() { return take<std::uint8_t>(); }
  std::uint16_t u16() { return take<std::uint16_t>(); }
  std::uint32_t u32() { return take<std::uint32_t>(); }
  std::uint64_t u64() { return take<std::uint64_t>(); }
  float f32() { return take<float>(); }
  double f64() { return take<double>(); }

  void expect_magic(const char tag[4]) {
    char got[4];
    raw(got, 4);
    if (std::memcmp(got, tag, 4) != 0) {
      throw std::invalid_argument(std::string("bad magic, expected ") +
                                  std::string(tag, 4));
    }
  }

  template <typename T>
  std::vector<T> array(std::uint64_t max_count = 1ull << 32) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::uint64_t n = u64();
    if (n > max_count || n * sizeof(T) > remaining()) {
      throw std::invalid_argument("array length exceeds blob size");
    }
    std::vector<T> out(n);
    raw(out.data(), n * sizeof(T));
    return out;
  }

  std::size_t remaining() const { return bytes_.size() - pos_; }
  bool exhausted() const { return remaining() == 0; }

private:
  template <typename T>
  T take() {
    T v;
    raw(&v, sizeof(T));
    return v;
  }
  void raw(void* out, std::size_t n) {
    if (n > remaining()) {
      throw std::invalid_argument("truncated blob");
    }
    // memcpy with a null pointer is UB even for n == 0, and an empty
    // destination vector's data() is null.
    if (n > 0) {
      std::memcpy(out, bytes_.data() + pos_, n);
      pos_ += n;
    }
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace ohd::util
