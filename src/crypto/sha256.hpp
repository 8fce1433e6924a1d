// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used for transaction ids, commitment chain hashes, block hashes and the
// seeded intra-bundle shuffle (Sec. 4.3 of the paper: "order seed value is
// based on the hash of the last created block").
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace lo::crypto {

using Digest256 = std::array<std::uint8_t, 32>;

class Sha256 {
 public:
  Sha256() noexcept { reset(); }

  void reset() noexcept;
  Sha256& update(std::span<const std::uint8_t> data) noexcept;
  Sha256& update(std::string_view s) noexcept {
    return update(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
  }
  // Finalizes and returns the digest. The object must be reset() before reuse.
  Digest256 finalize() noexcept;

 private:
  std::uint32_t h_[8];
  std::uint64_t length_ = 0;       // total bytes absorbed
  std::uint8_t buf_[64];
  std::size_t buf_len_ = 0;
};

Digest256 sha256(std::span<const std::uint8_t> data) noexcept;
Digest256 sha256(std::string_view s) noexcept;

// The compression kernels behind Sha256, declared so tests and benchmarks can
// run each one directly. Sha256 picks one per process: the SHA-NI kernel when
// the CPU has it, else the portable one; both give identical results.
namespace detail {

// Absorbs `blocks` consecutive 64-byte blocks into the eight-word state.
void sha256_compress_portable(std::uint32_t state[8], const std::uint8_t* data,
                              std::size_t blocks) noexcept;
// x86-64 SHA extensions. Call only when sha256_shani_available().
void sha256_compress_shani(std::uint32_t state[8], const std::uint8_t* data,
                           std::size_t blocks) noexcept;
bool sha256_shani_available() noexcept;
// "sha-ni" or "portable": the kernel Sha256 runs in this process.
const char* sha256_kernel_name() noexcept;

}  // namespace detail

}  // namespace lo::crypto
