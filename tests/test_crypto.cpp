// Crypto substrate tests: FIPS 180-4 vectors and pinned known answers for
// SHA-256/512 (both SHA-256 compression kernels, every padding position),
// RFC 8032 vectors and algebraic properties for the from-scratch Ed25519.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "crypto/ed25519.hpp"
#include "crypto/keys.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha512.hpp"
#include "crypto/verify_cache.hpp"
#include "obs/metrics.hpp"
#include "sha_known_answers.hpp"
#include "util/hex.hpp"
#include "util/rng.hpp"

namespace lo::crypto {
namespace {

using util::from_hex_fixed;
using util::to_hex;

// A cache counting into `reg`, whose "verify_cache.*" cells the tests read.
VerifyCache counted_cache(
    obs::Registry& reg,
    std::size_t key_capacity = VerifyCache::kDefaultKeyCapacity,
    std::size_t memo_capacity = VerifyCache::kDefaultMemoCapacity) {
  return VerifyCache(key_capacity, memo_capacity, obs::Scope(&reg, {}));
}

std::uint64_t count(obs::Registry& reg, const char* name) {
  return reg.counter(std::string("verify_cache.") + name);
}

// ------------------------------------------------------------- SHA-256 ----

TEST(Sha256, NistVectors) {
  EXPECT_EQ(to_hex(sha256("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(to_hex(sha256("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(to_hex(sha256(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string msg = "The quick brown fox jumps over the lazy dog";
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.update(msg.substr(0, split));
    h.update(msg.substr(split));
    EXPECT_EQ(h.finalize(), sha256(msg)) << "split at " << split;
  }
}

TEST(Sha256, PaddingBoundaries) {
  // Lengths around the 55/56/64-byte padding edge must all be distinct and
  // reproducible.
  std::set<std::string> seen;
  for (std::size_t len : {54u, 55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u}) {
    const std::string m(len, 'x');
    const auto d = to_hex(sha256(m));
    EXPECT_TRUE(seen.insert(d).second);
    EXPECT_EQ(d, to_hex(sha256(m)));
  }
}

TEST(Sha256, KnownAnswersWholeAndAtEverySplit) {
  for (std::size_t n = 0; n < test::kSha256Kat.size(); ++n) {
    const auto m = test::sha_kat_message(n);
    const std::span<const std::uint8_t> all(m);
    ASSERT_EQ(to_hex(sha256(all)), test::kSha256Kat[n]) << "length " << n;
    for (std::size_t split = 0; split <= n; ++split) {
      Sha256 h;
      h.update(all.first(split));
      h.update(all.subspan(split));
      ASSERT_EQ(to_hex(h.finalize()), test::kSha256Kat[n])
          << "length " << n << " split at " << split;
    }
  }
}

using Sha256Kernel = void (*)(std::uint32_t*, const std::uint8_t*,
                              std::size_t);

// SHA-256 of m through one compression kernel, padded here rather than by
// Sha256::finalize, so the kernels are checked on their own.
std::string sha256_hex_via(Sha256Kernel kernel, std::vector<std::uint8_t> m) {
  const std::uint64_t bits = 8 * static_cast<std::uint64_t>(m.size());
  m.push_back(0x80);
  while (m.size() % 64 != 56) m.push_back(0);
  for (int i = 7; i >= 0; --i) m.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  std::uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  kernel(state, m.data(), m.size() / 64);
  Digest256 out;
  for (int i = 0; i < 32; ++i) {
    out[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  }
  return to_hex(out);
}

TEST(Sha256, PortableKernelMatchesKnownAnswers) {
  for (std::size_t n = 0; n < test::kSha256Kat.size(); ++n) {
    ASSERT_EQ(sha256_hex_via(detail::sha256_compress_portable,
                             test::sha_kat_message(n)),
              test::kSha256Kat[n])
        << "length " << n;
  }
}

TEST(Sha256, ShaNiKernelMatchesKnownAnswers) {
  if (!detail::sha256_shani_available()) {
    GTEST_SKIP() << "CPU lacks SHA-NI: only the portable kernel was checked";
  }
  for (std::size_t n = 0; n < test::kSha256Kat.size(); ++n) {
    ASSERT_EQ(sha256_hex_via(detail::sha256_compress_shani,
                             test::sha_kat_message(n)),
              test::kSha256Kat[n])
        << "length " << n;
  }
}

TEST(Sha256, KernelsAgreeOnRandomBlocks) {
  if (!detail::sha256_shani_available()) {
    GTEST_SKIP() << "CPU lacks SHA-NI: no second kernel to compare with";
  }
  util::Rng rng(256);
  std::vector<std::uint8_t> data(8 * 64);
  for (int trial = 0; trial < 2000; ++trial) {
    std::uint32_t a[8];
    std::uint32_t b[8];
    for (int i = 0; i < 8; ++i) a[i] = b[i] = static_cast<std::uint32_t>(rng.next());
    for (auto& byte : data) byte = static_cast<std::uint8_t>(rng.next());
    const std::size_t blocks = 1 + rng.next() % 8;
    detail::sha256_compress_portable(a, data.data(), blocks);
    detail::sha256_compress_shani(b, data.data(), blocks);
    ASSERT_TRUE(std::equal(a, a + 8, b)) << "trial " << trial;
  }
}

TEST(Sha256, KernelNameMatchesCpu) {
  EXPECT_STREQ(detail::sha256_kernel_name(),
               detail::sha256_shani_available() ? "sha-ni" : "portable");
}

// ------------------------------------------------------------- SHA-512 ----

TEST(Sha512, NistVectors) {
  EXPECT_EQ(to_hex(sha512("")),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
            "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e");
  EXPECT_EQ(to_hex(sha512("abc")),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
}

TEST(Sha512, TwoBlockMessage) {
  EXPECT_EQ(
      to_hex(sha512("abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                    "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")),
      "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018"
      "501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909");
}

TEST(Sha512, IncrementalAcrossBlockBoundary) {
  const std::string msg(300, 'q');
  Sha512 h;
  h.update(msg.substr(0, 127));
  h.update(msg.substr(127, 2));
  h.update(msg.substr(129));
  EXPECT_EQ(h.finalize(), sha512(msg));
}

TEST(Sha512, KnownAnswersWholeAndAtEverySplit) {
  for (std::size_t k = 0; k < test::kSha512KatLengths.size(); ++k) {
    const std::size_t n = test::kSha512KatLengths[k];
    const auto m = test::sha_kat_message(n);
    const std::span<const std::uint8_t> all(m);
    ASSERT_EQ(to_hex(sha512(all)), test::kSha512Kat[k]) << "length " << n;
    for (std::size_t split = 0; split <= n; ++split) {
      Sha512 h;
      h.update(all.first(split));
      h.update(all.subspan(split));
      ASSERT_EQ(to_hex(h.finalize()), test::kSha512Kat[k])
          << "length " << n << " split at " << split;
    }
  }
}

// ------------------------------------------------------------- Ed25519 ----

struct Rfc8032Vector {
  const char* seed;
  const char* pub;
  const char* msg_hex;
  const char* sig;
};

// Test vectors from RFC 8032 Sec. 7.1 (TEST 1, 2, 3).
const Rfc8032Vector kVectors[] = {
    {"9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
     "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a", "",
     "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
     "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"},
    {"4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
     "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c", "72",
     "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
     "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"},
    {"c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
     "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
     "af82",
     "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
     "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"},
};

// A stable instance name; the default byte dump prints the string pointers,
// which move with address-space randomisation.
void PrintTo(const Rfc8032Vector& v, std::ostream* os) {
  *os << "seed=" << std::string(v.seed, 8)
      << " msg_len=" << std::string(v.msg_hex).size() / 2;
}

class Rfc8032Test : public ::testing::TestWithParam<Rfc8032Vector> {};

TEST_P(Rfc8032Test, KeyGenSignVerify) {
  const auto& v = GetParam();
  const auto seed = from_hex_fixed<32>(v.seed);
  const auto msg = util::from_hex(v.msg_hex);

  const auto pub = ed25519_public_key(seed);
  EXPECT_EQ(to_hex(pub), v.pub);

  const auto sig = ed25519_sign(seed, msg);
  EXPECT_EQ(to_hex(sig), v.sig);

  EXPECT_TRUE(ed25519_verify(pub, msg, sig));
}

INSTANTIATE_TEST_SUITE_P(Vectors, Rfc8032Test, ::testing::ValuesIn(kVectors));

TEST(Ed25519, TamperedMessageRejected) {
  const auto seed = from_hex_fixed<32>(kVectors[2].seed);
  const auto pub = ed25519_public_key(seed);
  auto msg = util::from_hex(kVectors[2].msg_hex);
  const auto sig = ed25519_sign(seed, msg);
  msg[0] ^= 1;
  EXPECT_FALSE(ed25519_verify(pub, msg, sig));
}

TEST(Ed25519, TamperedSignatureRejected) {
  const auto seed = from_hex_fixed<32>(kVectors[0].seed);
  const auto pub = ed25519_public_key(seed);
  auto sig = ed25519_sign(seed, {});
  for (std::size_t pos : {0u, 31u, 32u, 63u}) {
    auto bad = sig;
    bad[pos] ^= 0x40;
    EXPECT_FALSE(ed25519_verify(pub, {}, bad)) << "flip at " << pos;
  }
}

TEST(Ed25519, WrongKeyRejected) {
  const auto seed_a = from_hex_fixed<32>(kVectors[0].seed);
  const auto seed_b = from_hex_fixed<32>(kVectors[1].seed);
  const auto pub_b = ed25519_public_key(seed_b);
  const auto sig = ed25519_sign(seed_a, {});
  EXPECT_FALSE(ed25519_verify(pub_b, {}, sig));
}

TEST(Ed25519, NonCanonicalScalarRejected) {
  // S >= L must be rejected (malleability guard). Take a valid signature and
  // add L to S.
  const auto seed = from_hex_fixed<32>(kVectors[0].seed);
  const auto pub = ed25519_public_key(seed);
  auto sig = ed25519_sign(seed, {});
  // L little-endian.
  const auto l_bytes = util::from_hex(
      "edd3f55c1a631258d69cf7a2def9de14000000000000000000000000000000"
      "10");
  unsigned carry = 0;
  for (int i = 0; i < 32; ++i) {
    const unsigned sum = sig[32 + i] + l_bytes[static_cast<std::size_t>(i)] + carry;
    sig[32 + i] = static_cast<std::uint8_t>(sum);
    carry = sum >> 8;
  }
  EXPECT_FALSE(ed25519_verify(pub, {}, sig));
}

TEST(Ed25519, SignatureIsDeterministic) {
  const auto seed = from_hex_fixed<32>(kVectors[1].seed);
  const auto msg = util::from_hex("deadbeef");
  EXPECT_EQ(ed25519_sign(seed, msg), ed25519_sign(seed, msg));
}

TEST(Ed25519, LargeMessage) {
  const auto seed = from_hex_fixed<32>(kVectors[0].seed);
  const auto pub = ed25519_public_key(seed);
  std::vector<std::uint8_t> msg(10000);
  for (std::size_t i = 0; i < msg.size(); ++i) msg[i] = static_cast<std::uint8_t>(i);
  const auto sig = ed25519_sign(seed, msg);
  EXPECT_TRUE(ed25519_verify(pub, msg, sig));
}

// Field and group internals.

TEST(Ed25519Internals, FieldArithmetic) {
  using namespace detail;
  const Fe two = fe_add(fe_one(), fe_one());
  const Fe four = fe_mul(two, two);
  EXPECT_TRUE(fe_eq(four, fe_sq(two)));
  EXPECT_TRUE(fe_eq(fe_sub(four, two), two));
  EXPECT_TRUE(fe_is_zero(fe_sub(two, two)));
  // Inverse: 2 * 2^-1 == 1.
  EXPECT_TRUE(fe_eq(fe_mul(two, fe_invert(two)), fe_one()));
}

TEST(Ed25519Internals, FieldBytesRoundTrip) {
  using namespace detail;
  std::array<std::uint8_t, 32> b{};
  b[0] = 42;
  b[13] = 0xaa;
  b[31] = 0x55;  // below p, top bit clear
  EXPECT_EQ(fe_to_bytes(fe_from_bytes(b)), b);
}

TEST(Ed25519Internals, GroupIdentityAndInverse) {
  using namespace detail;
  std::array<std::uint8_t, 32> k{};
  k[0] = 5;
  const Ge p = ge_scalarmult_base(k);
  EXPECT_TRUE(ge_eq(ge_add(p, ge_identity()), p));
  // p + (-p) == identity.
  EXPECT_TRUE(ge_eq(ge_add(p, ge_neg(p)), ge_identity()));
}

TEST(Ed25519Internals, ScalarMultDistributes) {
  using namespace detail;
  // (a+b)*B == a*B + b*B for small scalars.
  std::array<std::uint8_t, 32> a{}, b{}, ab{};
  a[0] = 100;
  b[0] = 55;
  ab[0] = 155;
  EXPECT_TRUE(ge_eq(ge_scalarmult_base(ab),
                    ge_add(ge_scalarmult_base(a), ge_scalarmult_base(b))));
}

TEST(Ed25519Internals, DoubleMatchesAdd) {
  using namespace detail;
  std::array<std::uint8_t, 32> k{};
  k[0] = 9;
  const Ge p = ge_scalarmult_base(k);
  EXPECT_TRUE(ge_eq(ge_double(p), ge_add(p, p)));
}

TEST(Ed25519Internals, PointCompressionRoundTrip) {
  using namespace detail;
  for (int s : {1, 2, 3, 77, 200}) {
    std::array<std::uint8_t, 32> k{};
    k[0] = static_cast<std::uint8_t>(s);
    const Ge p = ge_scalarmult_base(k);
    const auto enc = ge_to_bytes(p);
    const auto back = ge_from_bytes(enc);
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE(ge_eq(*back, p));
    EXPECT_EQ(ge_to_bytes(*back), enc);
  }
}

TEST(Ed25519Internals, InvalidPointRejected) {
  using namespace detail;
  // A y-coordinate whose curve equation has no solution.
  std::array<std::uint8_t, 32> bad{};
  bad[0] = 2;  // y=2: d*y^2+1 vs y^2-1 — not a square ratio for curve25519
  const auto p = ge_from_bytes(bad);
  // Either decodes (if on curve) or not; flip until one fails to decode.
  bool rejected_some = !p.has_value();
  for (std::uint8_t y = 3; y < 40 && !rejected_some; ++y) {
    std::array<std::uint8_t, 32> b{};
    b[0] = y;
    if (!ge_from_bytes(b)) rejected_some = true;
  }
  EXPECT_TRUE(rejected_some);
}

TEST(Ed25519Internals, ScalarReduceMatchesKnownIdentity) {
  using namespace detail;
  // L reduces to 0.
  const auto l_bytes = util::from_hex(
      "edd3f55c1a631258d69cf7a2def9de14000000000000000000000000000000"
      "10");
  const Sc zero = sc_reduce(l_bytes);
  EXPECT_EQ(sc_to_bytes(zero), sc_to_bytes(sc_zero()));
}

TEST(Ed25519Internals, ScalarMulAddConsistency) {
  using namespace detail;
  // (3 * 5) + 2 == 17 mod L.
  auto sc_from_u64 = [](std::uint64_t v) {
    std::uint8_t b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    return sc_reduce(std::span<const std::uint8_t>(b, 8));
  };
  const Sc lhs = sc_add(sc_mul(sc_from_u64(3), sc_from_u64(5)), sc_from_u64(2));
  EXPECT_EQ(sc_to_bytes(lhs), sc_to_bytes(sc_from_u64(17)));
}

// The bit-serial reduction the library used before the limb-wise one:
// Horner over bits, MSB first, r = 2r + bit (mod L) with r < L throughout.
// Obviously correct and slow; the differential oracle for sc_reduce/sc_mul.
std::array<std::uint8_t, 32> sc_reduce_bitserial(
    std::span<const std::uint8_t> bytes_le) {
  using u64 = std::uint64_t;
  constexpr u64 kL[4] = {0x5812631a5cf5d3edULL, 0x14def9dea2f79cd6ULL, 0ULL,
                         0x1000000000000000ULL};
  u64 r[4] = {};
  auto geq_l = [&] {
    for (int i = 3; i >= 0; --i) {
      if (r[i] != kL[i]) return r[i] > kL[i];
    }
    return true;
  };
  for (int i = static_cast<int>(bytes_le.size()) * 8 - 1; i >= 0; --i) {
    u64 carry = (bytes_le[static_cast<std::size_t>(i) / 8] >> (i % 8)) & 1;
    for (auto& limb : r) {
      const u64 next = (limb << 1) | carry;
      carry = limb >> 63;
      limb = next;
    }
    if (geq_l()) {
      u64 borrow = 0;
      for (int j = 0; j < 4; ++j) {
        const unsigned __int128 d =
            (unsigned __int128)r[j] - kL[j] - borrow;
        r[j] = static_cast<u64>(d);
        borrow = static_cast<u64>(d >> 127);
      }
    }
  }
  std::array<std::uint8_t, 32> out;
  for (int i = 0; i < 32; ++i) {
    out[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(r[i / 8] >> (8 * (i % 8)));
  }
  return out;
}

TEST(Ed25519Internals, ScalarReduceMatchesBitSerialOnEdgeValues) {
  using namespace detail;
  const char* l = "edd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010";
  std::vector<std::vector<std::uint8_t>> cases;
  cases.push_back({});                                       // empty: 0
  cases.push_back(std::vector<std::uint8_t>(32, 0));         // 0
  cases.push_back(std::vector<std::uint8_t>(64, 0));         // 0, 64 bytes
  auto lm1 = util::from_hex(l);
  lm1[0] -= 1;
  cases.push_back(lm1);                                      // L - 1
  cases.push_back(util::from_hex(l));                        // L
  auto lp1 = util::from_hex(l);
  lp1[0] += 1;
  cases.push_back(lp1);                                      // L + 1
  std::vector<std::uint8_t> two252(32, 0);
  two252[31] = 0x10;
  cases.push_back(two252);                                   // 2^252
  cases.push_back(std::vector<std::uint8_t>(32, 0xff));      // 2^256 - 1
  cases.push_back(std::vector<std::uint8_t>(64, 0xff));      // 2^512 - 1
  auto l_times_2 = util::from_hex(l);                        // 2L, 2L - 1
  unsigned carry = 0;
  for (auto& b : l_times_2) {
    const unsigned v = 2u * b + carry;
    b = static_cast<std::uint8_t>(v);
    carry = v >> 8;
  }
  cases.push_back(l_times_2);
  l_times_2[0] -= 1;
  cases.push_back(l_times_2);
  for (std::size_t n = 1; n <= 64; ++n) {                    // every length
    cases.push_back(std::vector<std::uint8_t>(n, 0xff));
  }
  for (const auto& c : cases) {
    EXPECT_EQ(to_hex(sc_to_bytes(sc_reduce(c))), to_hex(sc_reduce_bitserial(c)))
        << "input " << to_hex(c);
  }
  EXPECT_EQ(sc_to_bytes(sc_reduce(util::from_hex(l))), sc_to_bytes(sc_zero()));
  EXPECT_EQ(sc_to_bytes(sc_reduce(lm1)),
            (std::array<std::uint8_t, 32>{0xec, 0xd3, 0xf5, 0x5c, 0x1a, 0x63,
                                          0x12, 0x58, 0xd6, 0x9c, 0xf7, 0xa2,
                                          0xde, 0xf9, 0xde, 0x14, 0, 0, 0, 0,
                                          0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                                          0x10}));
}

TEST(Ed25519Internals, ScalarReduceMatchesBitSerialOnRandomInputs) {
  using namespace detail;
  util::Rng rng(0x5c4ed);
  for (std::size_t len : {32u, 64u}) {
    for (int iter = 0; iter < 100000; ++iter) {
      std::uint8_t b[64];
      for (std::size_t i = 0; i < len; ++i) b[i] = static_cast<std::uint8_t>(rng.next());
      const std::span<const std::uint8_t> in(b, len);
      const auto got = sc_to_bytes(sc_reduce(in));
      const auto want = sc_reduce_bitserial(in);
      ASSERT_EQ(got, want) << "len " << len << " input "
                           << to_hex(std::vector<std::uint8_t>(b, b + len));
    }
  }
}

TEST(Ed25519Internals, ScalarMulMatchesBitSerialReductionOfProduct) {
  using namespace detail;
  util::Rng rng(0x5c3a1);
  auto random_sc = [&] {
    std::uint8_t b[64];
    for (auto& x : b) x = static_cast<std::uint8_t>(rng.next());
    return sc_reduce(std::span<const std::uint8_t>(b, 64));
  };
  for (int iter = 0; iter < 20000; ++iter) {
    const Sc a = random_sc();
    const Sc b = random_sc();
    // 512-bit product, byte-wise schoolbook.
    const auto ab = sc_to_bytes(a);
    const auto bb = sc_to_bytes(b);
    std::uint32_t acc[64] = {};
    for (int i = 0; i < 32; ++i) {
      for (int j = 0; j < 32; ++j) acc[i + j] += static_cast<std::uint32_t>(ab[static_cast<std::size_t>(i)]) * bb[static_cast<std::size_t>(j)];
    }
    std::uint8_t prod[64];
    std::uint64_t carry = 0;
    for (int i = 0; i < 64; ++i) {
      const std::uint64_t v = acc[i] + carry;
      prod[i] = static_cast<std::uint8_t>(v);
      carry = v >> 8;
    }
    ASSERT_EQ(sc_to_bytes(sc_mul(a, b)),
              sc_reduce_bitserial(std::span<const std::uint8_t>(prod, 64)));
  }
}

// Expands a width-w NAF back to the low 257 bits of its value (two's
// complement over five 64-bit words) by Horner from the top digit.
std::array<std::uint64_t, 5> wnaf_value(const std::int8_t naf[257]) {
  std::array<std::uint64_t, 5> v{};
  for (int i = 256; i >= 0; --i) {
    std::uint64_t carry = 0;
    for (auto& word : v) {
      const std::uint64_t next = (word << 1) | carry;
      carry = word >> 63;
      word = next;
    }
    // Add the sign-extended digit.
    const std::uint64_t ext = naf[i] < 0 ? ~0ULL : 0;
    unsigned __int128 s = (unsigned __int128)v[0] +
                          static_cast<std::uint64_t>(static_cast<std::int64_t>(naf[i]));
    v[0] = static_cast<std::uint64_t>(s);
    for (int j = 1; j < 5; ++j) {
      s = (unsigned __int128)v[j] + ext + static_cast<std::uint64_t>(s >> 64);
      v[j] = static_cast<std::uint64_t>(s);
    }
  }
  return v;
}

TEST(Ed25519Internals, WnafDigitsAreOddBoundedSparseAndSumToScalar) {
  using namespace detail;
  util::Rng rng(0x3a5f);
  std::vector<std::array<std::uint8_t, 32>> scalars;
  scalars.push_back({});
  std::array<std::uint8_t, 32> ones;
  ones.fill(0xff);
  scalars.push_back(ones);  // carries out of bit 255 into naf[256]
  std::array<std::uint8_t, 32> one{};
  one[0] = 1;
  scalars.push_back(one);
  for (int i = 0; i < 2000; ++i) {
    std::array<std::uint8_t, 32> s;
    for (auto& b : s) b = static_cast<std::uint8_t>(rng.next());
    if (i % 2) s[31] &= 0x1f;  // below 2^253, like every verify scalar
    scalars.push_back(s);
  }
  for (int w = 2; w <= 8; ++w) {
    const int bound = (1 << (w - 1)) - 1;
    for (const auto& s : scalars) {
      std::int8_t naf[257];
      wnaf(naf, s, w);
      std::array<std::uint64_t, 5> want{};
      for (int i = 0; i < 32; ++i) {
        want[static_cast<std::size_t>(i / 8)] |=
            static_cast<std::uint64_t>(s[static_cast<std::size_t>(i)]) << (8 * (i % 8));
      }
      auto got = wnaf_value(naf);
      got[4] &= 1;  // bit 256; the words above carry only sign extension
      ASSERT_EQ(got, want) << "w=" << w << " scalar " << to_hex(s);
      for (int i = 0; i < 257; ++i) {
        if (naf[i] == 0) continue;
        ASSERT_EQ(naf[i] & 1, 1) << "even digit at " << i << " w=" << w;
        ASSERT_LE(std::abs(naf[i]), bound) << "at " << i << " w=" << w;
        for (int j = i + 1; j < i + w && j < 257; ++j) {
          ASSERT_EQ(naf[j], 0) << "digit " << j << " within w of " << i;
        }
      }
    }
  }
}

TEST(Ed25519Internals, DoubleScalarMultMatchesGenericOnRandomScalars) {
  using namespace detail;
  util::Rng rng(0xd5e);
  auto random_scalar = [&] {
    std::array<std::uint8_t, 32> s;
    for (auto& b : s) b = static_cast<std::uint8_t>(rng.next());
    return s;
  };
  std::array<std::uint8_t, 32> one{};
  one[0] = 1;
  const Ge base = ge_scalarmult_base(one);
  std::array<std::uint8_t, 32> ones;
  ones.fill(0xff);
  for (int iter = 0; iter < 40; ++iter) {
    const Ge A = ge_scalarmult_base(random_scalar());
    auto a = random_scalar();
    auto b = random_scalar();
    if (iter == 0) a = b = ones;
    if (iter == 1) a = std::array<std::uint8_t, 32>{};
    if (iter == 2) b = std::array<std::uint8_t, 32>{};
    const Ge want = ge_add(ge_scalarmult(A, a), ge_scalarmult(base, b));
    const Ge got = ge_double_scalarmult_base_vartime(a, A, b);
    EXPECT_TRUE(ge_eq(got, want)) << "iter " << iter;
    EXPECT_EQ(ge_to_bytes(got), ge_to_bytes(want)) << "iter " << iter;
  }
}

// ----------------------------------------------------- signing key ----

TEST_P(Rfc8032Test, SigningKeyPathsMatchVector) {
  const auto& v = GetParam();
  const auto seed = from_hex_fixed<32>(v.seed);
  const auto msg = util::from_hex(v.msg_hex);
  const auto key = ed25519_expand(seed);
  EXPECT_EQ(to_hex(key.pub), v.pub);
  EXPECT_EQ(to_hex(ed25519_sign(key, msg)), v.sig);
  const Signer signer(KeyPair{seed, from_hex_fixed<32>(v.pub)},
                      SignatureMode::kEd25519);
  EXPECT_EQ(to_hex(signer.sign(msg)), v.sig);
}

TEST(Ed25519SigningKey, SignerAndExpandedKeyMatchSeedPath) {
  util::Rng rng(0x5161);
  for (std::uint64_t id = 0; id < 200; ++id) {
    const auto kp = derive_keypair(id, SignatureMode::kEd25519);
    const Signer signer(kp, SignatureMode::kEd25519);
    const auto key = ed25519_expand(kp.seed);
    EXPECT_EQ(key.pub, kp.pub);
    const auto from_pub = ed25519_expand(kp.seed, kp.pub);
    EXPECT_EQ(detail::sc_to_bytes(from_pub.scalar), detail::sc_to_bytes(key.scalar));
    EXPECT_EQ(from_pub.prefix, key.prefix);
    for (std::size_t len : {0u, 1u, 64u, 250u, 1000u}) {
      std::vector<std::uint8_t> msg(len);
      for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next());
      const auto want = ed25519_sign(kp.seed, msg);
      ASSERT_EQ(signer.sign(msg), want) << "key " << id << " len " << len;
      ASSERT_EQ(ed25519_sign(key, msg), want) << "key " << id << " len " << len;
      ASSERT_TRUE(ed25519_verify(kp.pub, msg, want));
    }
  }
}

// Pinned answers computed with the bit-serial scalar reduction and the
// sliding-window recoding this implementation replaced: SHA-256 over the
// public keys, and over the signatures, of 200 random seeds, each signing
// random messages of 0, 1, 33, 250 and 1027 bytes.
TEST(Ed25519SigningKey, SignaturesMatchPinnedDigests) {
  util::Rng rng(0x5167ed);
  Sha256 pubs, sigs;
  for (int k = 0; k < 200; ++k) {
    SecretSeed seed;
    for (auto& b : seed) b = static_cast<std::uint8_t>(rng.next());
    const Signer signer(KeyPair{seed, ed25519_public_key(seed)},
                        SignatureMode::kEd25519);
    pubs.update(std::span<const std::uint8_t>(signer.public_key().data(), 32));
    for (std::size_t len : {0u, 1u, 33u, 250u, 1027u}) {
      std::vector<std::uint8_t> msg(len);
      for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next());
      const auto sig = signer.sign(msg);
      sigs.update(std::span<const std::uint8_t>(sig.data(), 64));
    }
  }
  EXPECT_EQ(to_hex(pubs.finalize()),
            "56141de01c408264f2e8e9519a519baa6693fa417ba7be7c7250845a7d7d7c21");
  EXPECT_EQ(to_hex(sigs.finalize()),
            "2eace7c041507a53f5d7d6bd0f849126e8f097b6f7c29e5ef89307c95e814181");
}

// ----------------------------------------------------------------- keys ----

TEST(Keys, DeriveIsDeterministic) {
  const auto a = derive_keypair(7, SignatureMode::kEd25519);
  const auto b = derive_keypair(7, SignatureMode::kEd25519);
  EXPECT_EQ(a.pub, b.pub);
  EXPECT_EQ(a.seed, b.seed);
  const auto c = derive_keypair(8, SignatureMode::kEd25519);
  EXPECT_NE(a.pub, c.pub);
}

TEST(Keys, SignerRoundTripBothModes) {
  const std::vector<std::uint8_t> msg{1, 2, 3, 4};
  for (auto mode : {SignatureMode::kEd25519, SignatureMode::kSimFast}) {
    Signer s(derive_keypair(99, mode), mode);
    const auto sig = s.sign(msg);
    EXPECT_TRUE(Signer::verify(mode, s.public_key(), msg, sig));
    auto bad = msg;
    bad[0] ^= 1;
    EXPECT_FALSE(Signer::verify(mode, s.public_key(), bad, sig));
  }
}

TEST(Keys, SimFastRejectsWrongKey) {
  const std::vector<std::uint8_t> msg{9, 9, 9};
  Signer a(derive_keypair(1, SignatureMode::kSimFast), SignatureMode::kSimFast);
  Signer b(derive_keypair(2, SignatureMode::kSimFast), SignatureMode::kSimFast);
  const auto sig = a.sign(msg);
  EXPECT_FALSE(Signer::verify(SignatureMode::kSimFast, b.public_key(), msg, sig));
}

// ------------------------------------------------- negative vectors ---------
// Every rejection below is asserted three ways: the fast verify, the
// pre-optimization reference verify (differential oracle), and twice through
// a VerifyCache (cold, then memoized) — a cache must never turn a reject
// into an accept.

void expect_rejected_everywhere(const PublicKey& pub,
                                std::span<const std::uint8_t> msg,
                                const Signature& sig, const char* what) {
  EXPECT_FALSE(ed25519_verify(pub, msg, sig)) << what << " (fast)";
  EXPECT_FALSE(ed25519_verify_reference(pub, msg, sig)) << what << " (ref)";
  obs::Registry reg;
  VerifyCache cache = counted_cache(reg);
  EXPECT_FALSE(cache.verify(SignatureMode::kEd25519, pub, msg, sig))
      << what << " (cache cold)";
  EXPECT_FALSE(cache.verify(SignatureMode::kEd25519, pub, msg, sig))
      << what << " (cache memoized)";
  EXPECT_EQ(count(reg, "memo_hits"), 1u) << what;
}

// y = p + 2 little-endian: reduces to 2 but is a non-canonical encoding.
std::array<std::uint8_t, 32> non_canonical_encoding(bool sign_bit) {
  std::array<std::uint8_t, 32> enc;
  enc.fill(0xff);
  enc[0] = 0xef;  // (2^255 - 19) + 2
  enc[31] = sign_bit ? 0xff : 0x7f;
  return enc;
}

TEST(Ed25519Negative, NonCanonicalPointEncodingRejected) {
  using namespace detail;
  EXPECT_FALSE(ge_from_bytes(non_canonical_encoding(false)).has_value());
  EXPECT_FALSE(ge_from_bytes(non_canonical_encoding(true)).has_value());
}

TEST(Ed25519Negative, NonCanonicalPublicKeyRejected) {
  const auto seed = from_hex_fixed<32>(kVectors[0].seed);
  const auto sig = ed25519_sign(seed, {});
  for (bool sign_bit : {false, true}) {
    const PublicKey bad_pub = non_canonical_encoding(sign_bit);
    expect_rejected_everywhere(bad_pub, {}, sig, "non-canonical pub");
    EXPECT_FALSE(ed25519_prepare(bad_pub).has_value());
  }
}

TEST(Ed25519Negative, NonCanonicalRRejected) {
  const auto seed = from_hex_fixed<32>(kVectors[1].seed);
  const auto pub = ed25519_public_key(seed);
  const auto msg = util::from_hex(kVectors[1].msg_hex);
  auto sig = ed25519_sign(seed, msg);
  const auto bad_r = non_canonical_encoding(false);
  std::copy(bad_r.begin(), bad_r.end(), sig.begin());
  expect_rejected_everywhere(pub, msg, sig, "non-canonical R");
}

TEST(Ed25519Negative, NonCanonicalScalarThroughCache) {
  // Same S >= L construction as NonCanonicalScalarRejected, plus the cache
  // and reference paths.
  const auto seed = from_hex_fixed<32>(kVectors[0].seed);
  const auto pub = ed25519_public_key(seed);
  auto sig = ed25519_sign(seed, {});
  const auto l_bytes = util::from_hex(
      "edd3f55c1a631258d69cf7a2def9de14000000000000000000000000000000"
      "10");
  unsigned carry = 0;
  for (int i = 0; i < 32; ++i) {
    const unsigned sum =
        sig[32 + static_cast<std::size_t>(i)] + l_bytes[static_cast<std::size_t>(i)] + carry;
    sig[32 + static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(sum);
    carry = sum >> 8;
  }
  expect_rejected_everywhere(pub, {}, sig, "S >= L");
}

TEST(Ed25519Negative, BitFlippedRfcVectorsRejected) {
  // Flip one bit in every byte of signature, message and public key of each
  // RFC 8032 vector; all must fail cold and through the caches.
  for (const auto& v : kVectors) {
    const auto pub = from_hex_fixed<32>(v.pub);
    const auto msg = util::from_hex(v.msg_hex);
    const auto sig = from_hex_fixed<64>(v.sig);
    ASSERT_TRUE(ed25519_verify(pub, msg, sig));

    VerifyCache cache;
    for (std::size_t i = 0; i < 64; ++i) {
      auto bad = sig;
      bad[i] ^= static_cast<std::uint8_t>(1u << (i % 8));
      EXPECT_FALSE(ed25519_verify(pub, msg, bad)) << "sig flip " << i;
      EXPECT_FALSE(cache.verify(SignatureMode::kEd25519, pub, msg, bad))
          << "sig flip " << i << " via cache";
    }
    for (std::size_t i = 0; i < msg.size(); ++i) {
      auto bad = msg;
      bad[i] ^= static_cast<std::uint8_t>(1u << (i % 8));
      EXPECT_FALSE(ed25519_verify(pub, bad, sig)) << "msg flip " << i;
      EXPECT_FALSE(cache.verify(SignatureMode::kEd25519, pub, bad, sig))
          << "msg flip " << i << " via cache";
    }
    for (std::size_t i = 0; i < 32; ++i) {
      auto bad = pub;
      bad[i] ^= static_cast<std::uint8_t>(1u << (i % 8));
      EXPECT_FALSE(ed25519_verify(bad, msg, sig)) << "pub flip " << i;
      EXPECT_FALSE(cache.verify(SignatureMode::kEd25519, bad, msg, sig))
          << "pub flip " << i << " via cache";
    }
    // The genuine vector still verifies through the same, now well-used,
    // cache — the negative entries did not poison it.
    EXPECT_TRUE(cache.verify(SignatureMode::kEd25519, pub, msg, sig));
  }
}

TEST(Ed25519Negative, ReferenceAndFastVerifyAgree) {
  // Differential check across a batch of valid and corrupted inputs.
  util::Rng rng(515151);
  for (int iter = 0; iter < 20; ++iter) {
    std::array<std::uint8_t, 32> seed;
    for (auto& b : seed) b = static_cast<std::uint8_t>(rng.next());
    const auto pub = ed25519_public_key(seed);
    std::vector<std::uint8_t> msg(1 + iter * 3);
    for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next());
    auto sig = ed25519_sign(seed, msg);
    EXPECT_EQ(ed25519_verify(pub, msg, sig),
              ed25519_verify_reference(pub, msg, sig));
    EXPECT_TRUE(ed25519_verify(pub, msg, sig));
    // Corrupt one random byte of the signature.
    sig[rng.next() % 64] ^= static_cast<std::uint8_t>(1 + rng.next() % 255);
    EXPECT_EQ(ed25519_verify(pub, msg, sig),
              ed25519_verify_reference(pub, msg, sig));
  }
}

// ----------------------------------------------------- verify cache ---------

TEST(VerifyCacheTest, MemoizesAcceptsAndRejects) {
  const auto kp = derive_keypair(3, SignatureMode::kEd25519);
  Signer s(kp, SignatureMode::kEd25519);
  const std::vector<std::uint8_t> msg{1, 2, 3};
  const auto sig = s.sign(msg);

  obs::Registry reg;
  VerifyCache cache = counted_cache(reg);
  EXPECT_TRUE(cache.verify(SignatureMode::kEd25519, kp.pub, msg, sig));
  EXPECT_EQ(count(reg, "memo_misses"), 1u);
  EXPECT_TRUE(cache.verify(SignatureMode::kEd25519, kp.pub, msg, sig));
  EXPECT_EQ(count(reg, "memo_hits"), 1u);

  auto bad = sig;
  bad[5] ^= 0x10;
  EXPECT_FALSE(cache.verify(SignatureMode::kEd25519, kp.pub, msg, bad));
  EXPECT_FALSE(cache.verify(SignatureMode::kEd25519, kp.pub, msg, bad));
  EXPECT_EQ(count(reg, "memo_hits"), 2u);
  EXPECT_EQ(cache.memo_size(), 2u);
  // One key decompression served all four calls.
  EXPECT_EQ(count(reg, "key_misses"), 1u);
  EXPECT_EQ(cache.key_cache_size(), 1u);
}

TEST(VerifyCacheTest, MutatedDuplicateTakesColdPathAndRejects) {
  const auto kp = derive_keypair(4, SignatureMode::kEd25519);
  Signer s(kp, SignatureMode::kEd25519);
  const std::vector<std::uint8_t> msg{7, 7, 7, 7};
  const auto sig = s.sign(msg);

  obs::Registry reg;
  VerifyCache cache = counted_cache(reg);
  // Warm the memo with the genuine accept.
  ASSERT_TRUE(cache.verify(SignatureMode::kEd25519, kp.pub, msg, sig));
  const auto warm_misses = count(reg, "memo_misses");
  const auto warm_hits = count(reg, "memo_hits");

  // A mutated duplicate must not ride the cached accept: every single-bit
  // mutation of msg/sig/pub hashes to a fresh memo key (memo_misses grows)
  // and is rejected.
  auto msg2 = msg;
  msg2[0] ^= 0x01;
  EXPECT_FALSE(cache.verify(SignatureMode::kEd25519, kp.pub, msg2, sig));
  auto sig2 = sig;
  sig2[63] ^= 0x80;
  EXPECT_FALSE(cache.verify(SignatureMode::kEd25519, kp.pub, msg, sig2));
  auto pub2 = kp.pub;
  pub2[31] ^= 0x02;
  EXPECT_FALSE(cache.verify(SignatureMode::kEd25519, pub2, msg, sig2));
  EXPECT_EQ(count(reg, "memo_misses"), warm_misses + 3);
  EXPECT_EQ(count(reg, "memo_hits"), warm_hits);

  // And the genuine one still verifies.
  EXPECT_TRUE(cache.verify(SignatureMode::kEd25519, kp.pub, msg, sig));
}

TEST(VerifyCacheTest, KeyCacheEvictsLeastRecentlyUsed) {
  obs::Registry reg;
  VerifyCache cache =
      counted_cache(reg, /*key_capacity=*/2, /*memo_capacity=*/4);
  const std::vector<std::uint8_t> msg{5};
  std::array<KeyPair, 3> kps = {derive_keypair(10, SignatureMode::kEd25519),
                                derive_keypair(11, SignatureMode::kEd25519),
                                derive_keypair(12, SignatureMode::kEd25519)};
  for (const auto& kp : kps) {
    Signer s(kp, SignatureMode::kEd25519);
    const auto sig = s.sign(msg);
    EXPECT_TRUE(cache.verify(SignatureMode::kEd25519, kp.pub, msg, sig));
  }
  EXPECT_EQ(cache.key_cache_size(), 2u);
  EXPECT_EQ(count(reg, "key_misses"), 3u);

  // Key 10 was evicted (LRU); re-verifying costs a fresh decompression but
  // still succeeds. 12 is resident and hits.
  Signer s10(kps[0], SignatureMode::kEd25519);
  const std::vector<std::uint8_t> other{6};
  const auto sig10b = s10.sign(other);
  EXPECT_TRUE(cache.verify(SignatureMode::kEd25519, kps[0].pub, other, sig10b));
  EXPECT_EQ(count(reg, "key_misses"), 4u);
}

TEST(VerifyCacheTest, MemoEvictionForcesReverify) {
  obs::Registry reg;
  VerifyCache cache =
      counted_cache(reg, /*key_capacity=*/4, /*memo_capacity=*/2);
  const auto kp = derive_keypair(20, SignatureMode::kEd25519);
  Signer s(kp, SignatureMode::kEd25519);
  for (std::uint8_t i = 0; i < 3; ++i) {
    const std::vector<std::uint8_t> msg{i};
    EXPECT_TRUE(cache.verify(SignatureMode::kEd25519, kp.pub, msg, s.sign(msg)));
  }
  EXPECT_EQ(cache.memo_size(), 2u);
  // msg{0} was evicted; verifying again is a miss but still correct.
  const std::vector<std::uint8_t> msg0{0};
  EXPECT_TRUE(cache.verify(SignatureMode::kEd25519, kp.pub, msg0, s.sign(msg0)));
  EXPECT_EQ(count(reg, "memo_hits"), 0u);
}

TEST(VerifyCacheTest, MalformedKeyNeverCached) {
  obs::Registry reg;
  VerifyCache cache = counted_cache(reg);
  const auto bad_pub = non_canonical_encoding(false);
  const Signature sig{};
  const std::vector<std::uint8_t> msg{1};
  EXPECT_FALSE(cache.verify(SignatureMode::kEd25519, bad_pub, msg, sig));
  EXPECT_EQ(cache.key_cache_size(), 0u);
  EXPECT_EQ(count(reg, "key_misses"), 1u);
}

TEST(VerifyCacheTest, SimFastBypassesCache) {
  obs::Registry reg;
  VerifyCache cache = counted_cache(reg);
  const auto kp = derive_keypair(30, SignatureMode::kSimFast);
  Signer s(kp, SignatureMode::kSimFast);
  const std::vector<std::uint8_t> msg{1, 2};
  const auto sig = s.sign(msg);
  EXPECT_TRUE(cache.verify(SignatureMode::kSimFast, kp.pub, msg, sig));
  EXPECT_TRUE(cache.verify(SignatureMode::kSimFast, kp.pub, msg, sig));
  EXPECT_EQ(cache.memo_size(), 0u);
  EXPECT_EQ(cache.key_cache_size(), 0u);
  EXPECT_EQ(count(reg, "memo_misses"), 0u);
}

TEST(VerifyCacheTest, ClearKeepsCountersDropsEntries) {
  obs::Registry reg;
  VerifyCache cache = counted_cache(reg);
  const auto kp = derive_keypair(40, SignatureMode::kEd25519);
  Signer s(kp, SignatureMode::kEd25519);
  const std::vector<std::uint8_t> msg{9};
  const auto sig = s.sign(msg);
  EXPECT_TRUE(cache.verify(SignatureMode::kEd25519, kp.pub, msg, sig));
  cache.clear();
  EXPECT_EQ(cache.memo_size(), 0u);
  EXPECT_EQ(cache.key_cache_size(), 0u);
  EXPECT_EQ(count(reg, "memo_misses"), 1u);
  // Still correct after clear.
  EXPECT_TRUE(cache.verify(SignatureMode::kEd25519, kp.pub, msg, sig));
  EXPECT_EQ(count(reg, "memo_misses"), 2u);
}

}  // namespace
}  // namespace lo::crypto
