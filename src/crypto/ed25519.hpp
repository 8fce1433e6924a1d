// Ed25519 (RFC 8032) implemented from scratch: GF(2^255-19) field arithmetic
// with 51-bit limbs, twisted-Edwards point arithmetic in extended coordinates,
// and scalar arithmetic modulo the group order L.
//
// This implementation is NOT constant-time; it exists to make commitments and
// blocks third-party verifiable in the reproduction, not to protect live keys.
// Verification is the hot path at simulation scale, so it uses precomputed
// window tables for the base point and Straus/Shamir w-NAF interleaving for
// the double-scalar check (see DESIGN.md "verify fast path"); the generic
// algorithms are retained as differential-testing references.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>

namespace lo::crypto {

using PublicKey = std::array<std::uint8_t, 32>;
using SecretSeed = std::array<std::uint8_t, 32>;
using Signature = std::array<std::uint8_t, 64>;

// Derives the public key for a 32-byte secret seed.
PublicKey ed25519_public_key(const SecretSeed& seed);

// Produces a deterministic RFC 8032 signature over `msg`. Expands the seed on
// every call; a repeat signer holds an Ed25519SigningKey instead (below).
Signature ed25519_sign(const SecretSeed& seed, std::span<const std::uint8_t> msg);

// Verifies a signature; returns false for malformed points, non-canonical
// scalars (S >= L) and, of course, wrong signatures.
bool ed25519_verify(const PublicKey& pub, std::span<const std::uint8_t> msg,
                    const Signature& sig);

// Pre-optimization verification algorithm (generic double-and-add plus R
// decompression). Retained as a differential-testing oracle and so
// bench_crypto can report the before/after verify throughput in one binary.
// Must accept/reject exactly the same inputs as ed25519_verify.
bool ed25519_verify_reference(const PublicKey& pub,
                              std::span<const std::uint8_t> msg,
                              const Signature& sig);

namespace detail {

// ---- Field GF(2^255 - 19) ----
// Limbs are 51 bits; values may be unnormalized between operations.
struct Fe {
  std::uint64_t v[5]{};
};

Fe fe_zero() noexcept;
Fe fe_one() noexcept;
Fe fe_add(const Fe& a, const Fe& b) noexcept;
Fe fe_sub(const Fe& a, const Fe& b) noexcept;
Fe fe_neg(const Fe& a) noexcept;
Fe fe_mul(const Fe& a, const Fe& b) noexcept;
Fe fe_sq(const Fe& a) noexcept;
// a^e where e is a 32-byte little-endian exponent.
Fe fe_pow(const Fe& a, const std::array<std::uint8_t, 32>& e_le) noexcept;
Fe fe_invert(const Fe& a) noexcept;        // a^(p-2)
Fe fe_pow2523(const Fe& a) noexcept;       // a^((p-5)/8), used for sqrt
Fe fe_from_bytes(const std::array<std::uint8_t, 32>& b) noexcept;  // ignores bit 255
std::array<std::uint8_t, 32> fe_to_bytes(const Fe& a) noexcept;    // canonical
bool fe_is_zero(const Fe& a) noexcept;
bool fe_is_negative(const Fe& a) noexcept;  // lsb of canonical form
bool fe_eq(const Fe& a, const Fe& b) noexcept;

// ---- Group: twisted Edwards curve -x^2 + y^2 = 1 + d x^2 y^2 ----
// Extended coordinates (X : Y : Z : T), T = XY/Z.
struct Ge {
  Fe X, Y, Z, T;
};

Ge ge_identity() noexcept;
Ge ge_add(const Ge& p, const Ge& q) noexcept;
Ge ge_double(const Ge& p) noexcept;
Ge ge_neg(const Ge& p) noexcept;
// Scalar is 32 little-endian bytes (up to 256 bits, no clamping applied here).
// Generic double-and-add; kept as the reference algorithm for the fast paths.
Ge ge_scalarmult(const Ge& p, const std::array<std::uint8_t, 32>& scalar) noexcept;
// Fixed-base multiply via a precomputed 4-bit window table (64 windows x 15
// odd/even multiples of 16^i * B); no doublings in the main loop.
Ge ge_scalarmult_base(const std::array<std::uint8_t, 32>& scalar) noexcept;
// a*A + b*B via Straus/Shamir interleaving: one shared doubling chain, w-NAF
// digits for both scalars (width 5 for A, width 7 for the static B table).
// Variable-time, like everything else here.
Ge ge_double_scalarmult_base_vartime(const std::array<std::uint8_t, 32>& a,
                                     const Ge& A,
                                     const std::array<std::uint8_t, 32>& b) noexcept;
// Width-w non-adjacent form of a 256-bit little-endian scalar, 2 <= w <= 8:
// odd digits naf[i] with |naf[i]| <= 2^(w-1) - 1, at least w-1 zeros after
// every nonzero digit, and sum naf[i] * 2^i == scalar (naf[256] takes the
// final carry). One pass over the scalar's 64-bit words.
void wnaf(std::int8_t naf[257], const std::array<std::uint8_t, 32>& scalar,
          int w) noexcept;
std::array<std::uint8_t, 32> ge_to_bytes(const Ge& p) noexcept;
std::optional<Ge> ge_from_bytes(const std::array<std::uint8_t, 32>& b) noexcept;
bool ge_eq(const Ge& p, const Ge& q) noexcept;

// ---- Scalars modulo L = 2^252 + 27742317777372353535851937790883648493 ----
struct Sc {
  std::uint64_t v[4]{};  // little-endian limbs, always < L after reduction
};

Sc sc_zero() noexcept;
// Reduces a little-endian byte string of any length modulo L, 32 bits at a
// time from the top.
Sc sc_reduce(std::span<const std::uint8_t> bytes_le) noexcept;
Sc sc_add(const Sc& a, const Sc& b) noexcept;
Sc sc_mul(const Sc& a, const Sc& b) noexcept;
Sc sc_neg(const Sc& a) noexcept;  // L - a (0 maps to 0)
std::array<std::uint8_t, 32> sc_to_bytes(const Sc& a) noexcept;
// True iff the 32 little-endian bytes encode a value < L (canonical S check).
bool sc_is_canonical(const std::array<std::uint8_t, 32>& b) noexcept;

}  // namespace detail

// A secret seed expanded once (RFC 8032 Sec. 5.1.5). Signing with it skips
// the per-call SHA-512 of the seed, the fixed-base multiply a*B and the
// inversion that encodes A; signatures are byte-identical to
// ed25519_sign(seed, msg).
struct Ed25519SigningKey {
  detail::Sc scalar;                    // clamped a, reduced mod L
  std::array<std::uint8_t, 32> prefix;  // upper half of SHA-512(seed)
  PublicKey pub;                        // encoding of A = a*B
};

Ed25519SigningKey ed25519_expand(const SecretSeed& seed);
// Same key from a public key derived earlier, without recomputing a*B and
// its encoding: `pub` must be ed25519_public_key(seed).
Ed25519SigningKey ed25519_expand(const SecretSeed& seed, const PublicKey& pub);

Signature ed25519_sign(const Ed25519SigningKey& key,
                       std::span<const std::uint8_t> msg);

// A public key decompressed once and reused across verifications. The
// expensive half of a cold verify is reconstructing A from its 32-byte
// encoding (a field exponentiation for the square root); peers sign many
// messages with the same key, so crypto::VerifyCache keeps these in an LRU.
struct PreparedPublicKey {
  PublicKey encoded;  // original wire encoding; feeds the challenge hash
  detail::Ge point;   // decompressed A
};

// Decompresses `pub`; nullopt on a malformed or non-canonical encoding
// (exactly the inputs ed25519_verify rejects before hashing anything).
std::optional<PreparedPublicKey> ed25519_prepare(const PublicKey& pub);

// Same accept/reject behavior as ed25519_verify(key.encoded, msg, sig) but
// skips the per-call decompression.
bool ed25519_verify_prepared(const PreparedPublicKey& key,
                             std::span<const std::uint8_t> msg,
                             const Signature& sig);

}  // namespace lo::crypto
