// Minimal binary serialization used for every wire message in the simulator.
//
// All multi-byte integers are little-endian. The writer produces the exact
// byte string that the bandwidth accountant charges for, so serialized sizes
// are the ground truth for the Fig. 9 bandwidth experiments.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace lo::util {

class SerdeError : public std::runtime_error {
 public:
  explicit SerdeError(const std::string& what) : std::runtime_error(what) {}
};

class Writer {
 public:
  Writer() = default;

  void u8(std::uint8_t v) { buf_.push_back(std::byte{v}); }
  void u16(std::uint16_t v) { write_le(v); }
  void u32(std::uint32_t v) { write_le(v); }
  void u64(std::uint64_t v) { write_le(v); }
  void f64(double v);

  void bytes(std::span<const std::uint8_t> data) {
    bytes(std::as_bytes(data));
  }
  void bytes(std::span<const std::byte> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }
  template <std::size_t N>
  void fixed(const std::array<std::uint8_t, N>& data) {
    bytes(std::span<const std::uint8_t>(data.data(), N));
  }

  // Length-prefixed (u32) variable byte string. Lengths that do not fit the
  // prefix would silently truncate and desync every later field for the
  // reader, so oversize input is a hard error.
  void var_bytes(std::span<const std::uint8_t> data) {
    u32(checked_len(data.size()));
    bytes(data);
  }
  void str(std::string_view s) {
    u32(checked_len(s.size()));
    bytes(std::as_bytes(std::span<const char>(s.data(), s.size())));
  }

  std::size_t size() const noexcept { return buf_.size(); }
  const std::vector<std::byte>& data() const noexcept { return buf_; }
  std::vector<std::uint8_t> take_u8();

 private:
  static std::uint32_t checked_len(std::size_t n) {
    if (n > 0xFFFFFFFFu) throw SerdeError("length exceeds u32 prefix");
    return static_cast<std::uint32_t>(n);
  }

  template <typename T>
  void write_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
    }
  }

  std::vector<std::byte> buf_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() { return take(1)[0]; }
  std::uint16_t u16() { return read_le<std::uint16_t>(); }
  std::uint32_t u32() { return read_le<std::uint32_t>(); }
  std::uint64_t u64() { return read_le<std::uint64_t>(); }
  double f64();

  template <std::size_t N>
  std::array<std::uint8_t, N> fixed() {
    auto s = take(N);
    std::array<std::uint8_t, N> out;
    if constexpr (N > 0) std::memcpy(out.data(), s.data(), N);
    return out;
  }

  std::vector<std::uint8_t> var_bytes() {
    const std::uint32_t n = u32();
    auto s = take(n);
    return {s.begin(), s.end()};
  }
  std::string str() {
    const std::uint32_t n = u32();
    auto s = take(n);
    return {reinterpret_cast<const char*>(s.data()), s.size()};
  }

  bool done() const noexcept { return pos_ == data_.size(); }
  std::size_t remaining() const noexcept { return data_.size() - pos_; }

 private:
  std::span<const std::uint8_t> take(std::size_t n) {
    if (remaining() < n) throw SerdeError("buffer underrun");
    auto s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }

  template <typename T>
  T read_le() {
    auto s = take(sizeof(T));
    // Accumulate in 64 bits: |= on a narrow T would promote to int and then
    // implicitly narrow on assignment.
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<std::uint64_t>(s[i]) << (8 * i);
    }
    return static_cast<T>(v);
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace lo::util
