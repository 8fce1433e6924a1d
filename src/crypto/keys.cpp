#include "crypto/keys.hpp"

#include <cstring>

#include "crypto/sha256.hpp"
#include "crypto/sha512.hpp"

namespace lo::crypto {

KeyPair derive_keypair(std::uint64_t id_seed, SignatureMode mode) {
  KeyPair kp;
  std::uint8_t buf[16] = {'l', 'o', 'k', 'e', 'y', 0, 0, 0};
  for (int i = 0; i < 8; ++i) buf[8 + i] = static_cast<std::uint8_t>(id_seed >> (8 * i));
  kp.seed = sha256(std::span<const std::uint8_t>(buf, sizeof buf));
  if (mode == SignatureMode::kEd25519) {
    kp.pub = ed25519_public_key(kp.seed);
  } else {
    // kSimFast: public key = SHA-256("pub" || seed). Within a single-process
    // simulation this is an unforgeable-enough binding because seeds never
    // leave the key registry.
    Sha256 h;
    h.update("simfast-pub");
    h.update(std::span<const std::uint8_t>(kp.seed.data(), kp.seed.size()));
    kp.pub = h.finalize();
  }
  return kp;
}

Signer::Signer(KeyPair kp, SignatureMode mode) : pub_(kp.pub), mode_(mode) {
  if (mode_ == SignatureMode::kEd25519) key_ = ed25519_expand(kp.seed, kp.pub);
}

Signature Signer::sign(std::span<const std::uint8_t> msg) const {
  if (mode_ == SignatureMode::kEd25519) return ed25519_sign(key_, msg);
  // kSimFast: 64-byte keyed hash. Keyed by the *public* key so that any node
  // in the simulation can verify without access to the seed; this loses
  // unforgeability but simulated adversaries never forge signatures in the
  // paper's model (they equivocate or stay silent instead).
  Sha512 h;
  h.update("simfast-sig");
  h.update(std::span<const std::uint8_t>(pub_.data(), pub_.size()));
  h.update(msg);
  return h.finalize();
}

bool Signer::verify(SignatureMode mode, const PublicKey& pub,
                    std::span<const std::uint8_t> msg, const Signature& sig) {
  if (mode == SignatureMode::kEd25519) return ed25519_verify(pub, msg, sig);
  Sha512 h;
  h.update("simfast-sig");
  h.update(std::span<const std::uint8_t>(pub.data(), pub.size()));
  h.update(msg);
  return h.finalize() == sig;
}

}  // namespace lo::crypto
