// Key management for simulated nodes.
//
// Every miner owns an Ed25519 keypair and is identified by its public key
// (Sec. 3 of the paper). For simulations with thousands of nodes, real curve
// arithmetic on every message would dominate the run time without changing
// any protocol behaviour, so a Signer can also run in kSimFast mode: the
// "signature" is SHA-512(seed ‖ message), still 64 bytes on the wire (so all
// bandwidth numbers are identical) and still verifiable within the simulation
// via the shared key registry. Protocol logic never knows which mode is used.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "crypto/ed25519.hpp"

namespace lo::crypto {

enum class SignatureMode : std::uint8_t {
  kEd25519,  // real RFC 8032 signatures (default in tests and examples)
  kSimFast,  // keyed-hash stand-in with identical wire size (large benches)
};

struct KeyPair {
  SecretSeed seed{};
  PublicKey pub{};
};

// Deterministically derives a keypair from a 64-bit identity seed.
KeyPair derive_keypair(std::uint64_t id_seed, SignatureMode mode);

class Signer {
 public:
  // In kEd25519 mode the seed is expanded here, once, and kp.pub serves as
  // the encoded A: sign() skips the per-call SHA-512 of the seed, a*B and
  // the encoding of A. kp must come from derive_keypair (pub matches seed).
  Signer(KeyPair kp, SignatureMode mode);

  const PublicKey& public_key() const noexcept { return pub_; }
  SignatureMode mode() const noexcept { return mode_; }

  Signature sign(std::span<const std::uint8_t> msg) const;

  // Verification needs only the claimed public key; in kSimFast mode the
  // "public key" doubles as the MAC key (acceptable inside one process).
  static bool verify(SignatureMode mode, const PublicKey& pub,
                     std::span<const std::uint8_t> msg, const Signature& sig);

 private:
  PublicKey pub_;
  SignatureMode mode_;
  Ed25519SigningKey key_{};  // expanded seed; unused in kSimFast mode
};

}  // namespace lo::crypto
