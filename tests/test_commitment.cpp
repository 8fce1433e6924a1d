// Commitment and commitment-log tests: append-only semantics, signed header
// integrity, and the equivocation consistency check of Sec. 5.2.
#include <gtest/gtest.h>

#include "core/commitment.hpp"
#include "core/commitment_log.hpp"
#include "core/transaction.hpp"
#include "obs/profile.hpp"
#include "util/rng.hpp"

namespace lo::core {
namespace {

constexpr auto kMode = crypto::SignatureMode::kSimFast;

crypto::Signer signer(std::uint64_t id) {
  return crypto::Signer(crypto::derive_keypair(id, kMode), kMode);
}

TxId random_txid(util::Rng& rng) {
  TxId id;
  for (auto& b : id) b = static_cast<std::uint8_t>(rng.next());
  return id;
}

std::vector<TxId> random_txids(util::Rng& rng, std::size_t n) {
  std::vector<TxId> out(n);
  for (auto& id : out) id = random_txid(rng);
  return out;
}

TEST(CommitmentLog, AppendAssignsSeqnosAndBundles) {
  CommitmentLog log(1, CommitmentParams{});
  util::Rng rng(1);
  EXPECT_EQ(log.seqno(), 0u);
  EXPECT_EQ(log.count(), 0u);

  const auto batch1 = random_txids(rng, 3);
  const auto added1 = log.append(batch1, 7);
  EXPECT_EQ(added1.size(), 3u);
  EXPECT_EQ(log.seqno(), 1u);
  EXPECT_EQ(log.count(), 3u);
  ASSERT_EQ(log.bundles().size(), 1u);
  EXPECT_EQ(log.bundles()[0].source, 7u);
  EXPECT_EQ(log.bundles()[0].txids, batch1);

  const auto batch2 = random_txids(rng, 2);
  log.append(batch2, 9);
  EXPECT_EQ(log.seqno(), 2u);
  EXPECT_EQ(log.count(), 5u);
}

TEST(CommitmentLog, DuplicatesAreIgnored) {
  CommitmentLog log(1, CommitmentParams{});
  util::Rng rng(2);
  const auto batch = random_txids(rng, 4);
  log.append(batch, 1);
  const auto re = log.append(batch, 2);
  EXPECT_TRUE(re.empty());
  EXPECT_EQ(log.seqno(), 1u);  // empty bundle does not bump the counter
  EXPECT_EQ(log.count(), 4u);
}

TEST(CommitmentLog, OrderPreservedAcrossBundles) {
  CommitmentLog log(1, CommitmentParams{});
  util::Rng rng(3);
  const auto a = random_txids(rng, 3);
  const auto b = random_txids(rng, 2);
  log.append(a, 1);
  log.append(b, 2);
  std::vector<TxId> expect = a;
  expect.insert(expect.end(), b.begin(), b.end());
  EXPECT_EQ(log.order(), expect);
  EXPECT_EQ(log.ids_after(3), b);
  EXPECT_TRUE(log.ids_after(99).empty());
}

TEST(CommitmentLog, ChainHashChangesWithEveryAppend) {
  CommitmentLog log(1, CommitmentParams{});
  util::Rng rng(4);
  auto prev = log.chain_hash();
  for (int i = 0; i < 5; ++i) {
    log.append(random_txids(rng, 1), 1);
    EXPECT_NE(log.chain_hash(), prev);
    prev = log.chain_hash();
  }
}

TEST(CommitmentLog, ChainHashDependsOnOrder) {
  util::Rng rng(5);
  const auto ids = random_txids(rng, 2);
  CommitmentLog a(1, CommitmentParams{}), b(1, CommitmentParams{});
  a.append(ids, 1);
  std::vector<TxId> rev{ids[1], ids[0]};
  b.append(rev, 1);
  EXPECT_NE(a.chain_hash(), b.chain_hash());
}

TEST(CommitmentLog, ResolveShortRoundTrip) {
  CommitmentLog log(1, CommitmentParams{});
  util::Rng rng(6);
  const auto ids = random_txids(rng, 10);
  log.append(ids, 1);
  for (const auto& id : ids) {
    const auto back = log.resolve_short(txid_short(id));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, id);
  }
  EXPECT_FALSE(log.resolve_short(0xdeadbeefdeadbeefULL).has_value());
}

TEST(CommitmentLog, BundleBySeqno) {
  CommitmentLog log(1, CommitmentParams{});
  util::Rng rng(7);
  log.append(random_txids(rng, 2), 5);
  log.append(random_txids(rng, 3), 6);
  ASSERT_NE(log.bundle_by_seqno(1), nullptr);
  ASSERT_NE(log.bundle_by_seqno(2), nullptr);
  EXPECT_EQ(log.bundle_by_seqno(2)->txids.size(), 3u);
  EXPECT_EQ(log.bundle_by_seqno(0), nullptr);
  EXPECT_EQ(log.bundle_by_seqno(3), nullptr);
}

TEST(CommitmentHeader, SignedAndVerifiable) {
  CommitmentLog log(4, CommitmentParams{});
  util::Rng rng(8);
  log.append(random_txids(rng, 5), 1);
  const auto s = signer(4);
  const auto h = log.make_header(s);
  EXPECT_EQ(h.node, 4u);
  EXPECT_EQ(h.seqno, 1u);
  EXPECT_EQ(h.count, 5u);
  EXPECT_TRUE(h.verify(kMode));
  auto tampered = h;
  tampered.count = 6;
  EXPECT_FALSE(tampered.verify(kMode));
}

// make_header reuses the signature of a header already minted at the same
// seqno, wire capacity and signer. Every header it returns, reused or fresh,
// must carry exactly the signature a fresh sign of its bytes gives.
void expect_signed_fresh(const CommitmentHeader& h, const crypto::Signer& s,
                         const char* what) {
  const auto msg = h.signing_bytes();
  EXPECT_EQ(h.sig, s.sign(msg)) << what;
  EXPECT_EQ(h.key, s.public_key()) << what;
  EXPECT_TRUE(h.verify(s.mode())) << what;
}

std::uint64_t ed25519_signs() {
  return obs::profile::counters(obs::ProfileSite::kEd25519Sign).calls;
}

TEST(CommitmentHeader, ReusedSignatureMatchesFreshSign) {
  for (auto mode : {crypto::SignatureMode::kEd25519, crypto::SignatureMode::kSimFast}) {
    CommitmentLog log(4, CommitmentParams{});
    util::Rng rng(21);
    log.append(random_txids(rng, 5), 1);
    const crypto::Signer s(crypto::derive_keypair(4, mode), mode);
    const auto first = log.make_header(s, 16);
    const auto again = log.make_header(s, 16);
    EXPECT_EQ(again.sig, first.sig);
    EXPECT_EQ(again.serialize(), first.serialize());
    expect_signed_fresh(again, s, "same seqno and capacity");
    expect_signed_fresh(log.make_header(s, 24), s, "other capacity");
    expect_signed_fresh(log.make_header(s), s, "full capacity");
    expect_signed_fresh(log.make_header(s, 16), s, "first capacity again");
    // Another signer over the same log state gets its own signature.
    const crypto::Signer other(crypto::derive_keypair(5, mode), mode);
    expect_signed_fresh(log.make_header(other, 16), other, "other signer");
    // An append moves the seqno: the next header is signed afresh.
    log.append(random_txids(rng, 2), 1);
    const auto after = log.make_header(s, 16);
    EXPECT_EQ(after.seqno, 2u);
    EXPECT_NE(after.sig, first.sig);
    expect_signed_fresh(after, s, "after append");
    // An append of nothing new leaves the seqno, and the reuse, in place.
    log.append(std::vector<TxId>(log.order().begin(), log.order().end()), 1);
    EXPECT_EQ(log.make_header(s, 16).sig, after.sig);
  }
}

TEST(CommitmentHeader, ReusedSignatureNeverReachesSigner) {
  CommitmentLog log(4, CommitmentParams{});
  util::Rng rng(22);
  log.append(random_txids(rng, 5), 1);
  const crypto::Signer s(crypto::derive_keypair(4, crypto::SignatureMode::kEd25519),
                         crypto::SignatureMode::kEd25519);
  const bool was_enabled = obs::profile::enabled();
  obs::profile::set_enabled(true);
  const auto start = ed25519_signs();
  log.make_header(s, 16);
  log.make_header(s, 16);
  log.make_header(s, 16);
  EXPECT_EQ(ed25519_signs() - start, 1u);
  log.make_header(s, 32);
  EXPECT_EQ(ed25519_signs() - start, 2u);
  log.append(random_txids(rng, 1), 1);
  log.make_header(s, 16);
  EXPECT_EQ(ed25519_signs() - start, 3u);
  obs::profile::set_enabled(was_enabled);
}

TEST(CommitmentHeader, SerializeRoundTrip) {
  CommitmentLog log(4, CommitmentParams{});
  util::Rng rng(9);
  log.append(random_txids(rng, 8), 1);
  const auto h = log.make_header(signer(4));
  const auto bytes = h.serialize();
  EXPECT_EQ(bytes.size(), h.wire_size());
  const auto back = CommitmentHeader::deserialize(bytes, CommitmentParams{});
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->node, h.node);
  EXPECT_EQ(back->seqno, h.seqno);
  EXPECT_EQ(back->count, h.count);
  EXPECT_EQ(back->chain_hash, h.chain_hash);
  EXPECT_EQ(back->sketch.syndromes(), h.sketch.syndromes());
  EXPECT_TRUE(back->clock == h.clock);
  EXPECT_TRUE(back->verify(kMode));
}

TEST(CommitmentHeader, DeserializeRejectsTruncation) {
  CommitmentLog log(4, CommitmentParams{});
  const auto h = log.make_header(signer(4));
  auto bytes = h.serialize();
  bytes.pop_back();
  EXPECT_FALSE(
      CommitmentHeader::deserialize(bytes, CommitmentParams{}).has_value());
  bytes.push_back(0);
  bytes.push_back(0);
  EXPECT_FALSE(
      CommitmentHeader::deserialize(bytes, CommitmentParams{}).has_value());
}

// ------------------------------------------------------- consistency ----

class ConsistencyTest : public ::testing::Test {
 protected:
  CommitmentParams params_;
  util::Rng rng_{10};

  CommitmentHeader header_at(CommitmentLog& log, std::uint64_t node) {
    return log.make_header(signer(node));
  }
};

TEST_F(ConsistencyTest, ExtensionIsConsistent) {
  CommitmentLog log(1, params_);
  log.append(random_txids(rng_, 5), 2);
  const auto h1 = header_at(log, 1);
  log.append(random_txids(rng_, 7), 3);
  const auto h2 = header_at(log, 1);
  EXPECT_EQ(check_consistency(h1, h2), Consistency::kConsistent);
  EXPECT_EQ(check_consistency(h2, h1), Consistency::kConsistent);  // symmetric
}

TEST_F(ConsistencyTest, IdenticalHeadersConsistent) {
  CommitmentLog log(1, params_);
  log.append(random_txids(rng_, 5), 2);
  const auto h = header_at(log, 1);
  EXPECT_EQ(check_consistency(h, h), Consistency::kConsistent);
}

TEST_F(ConsistencyTest, ForkWithSameSeqnoIsEquivocation) {
  CommitmentLog a(1, params_), b(1, params_);
  const auto shared = random_txids(rng_, 3);
  a.append(shared, 2);
  b.append(random_txids(rng_, 3), 2);  // same seqno, different content
  EXPECT_EQ(check_consistency(header_at(a, 1), header_at(b, 1)),
            Consistency::kEquivocation);
}

TEST_F(ConsistencyTest, DroppedTxIsEquivocation) {
  // Fork: the "newer" commitment has MORE seqno but misses one of the
  // previously committed txs (classic hide-the-transaction attack).
  const auto batch1 = random_txids(rng_, 4);
  CommitmentLog real(1, params_), fork(1, params_);
  real.append(batch1, 2);
  const auto h_old = header_at(real, 1);

  std::vector<TxId> censored(batch1.begin(), batch1.end() - 1);
  fork.append(censored, 2);
  fork.append(random_txids(rng_, 4), 3);  // grows further
  const auto h_new = header_at(fork, 1);
  ASSERT_GT(h_new.seqno, h_old.seqno);
  ASSERT_GT(h_new.count, h_old.count);
  EXPECT_EQ(check_consistency(h_old, h_new), Consistency::kEquivocation);
}

TEST_F(ConsistencyTest, ShrinkingCountIsEquivocation) {
  CommitmentLog big(1, params_), small(1, params_);
  big.append(random_txids(rng_, 6), 2);
  const auto h_big = header_at(big, 1);
  small.append(random_txids(rng_, 2), 2);
  small.append(random_txids(rng_, 1), 2);  // seqno 2 > 1 but count 3 < 6
  const auto h_small = header_at(small, 1);
  ASSERT_GT(h_small.seqno, h_big.seqno);
  ASSERT_LT(h_small.count, h_big.count);
  EXPECT_EQ(check_consistency(h_big, h_small), Consistency::kEquivocation);
}

TEST_F(ConsistencyTest, HugeDifferenceIsInconclusive) {
  // Difference beyond sketch capacity: the check cannot decide locally.
  CommitmentParams small_params;
  small_params.sketch_capacity = 8;
  CommitmentLog a(1, small_params), b(1, small_params);
  const auto shared = random_txids(rng_, 2);
  a.append(shared, 2);
  b.append(shared, 2);
  b.append(random_txids(rng_, 100), 3);  // 100 > capacity 8
  // Also drop nothing; the growth alone overflows the sketch.
  EXPECT_EQ(check_consistency(a.make_header(signer(1)),
                              b.make_header(signer(1))),
            Consistency::kInconclusive);
}

TEST_F(ConsistencyTest, EmptyToNonEmptyIsConsistent) {
  CommitmentLog log(1, params_);
  const auto h0 = header_at(log, 1);
  log.append(random_txids(rng_, 3), 2);
  const auto h1 = header_at(log, 1);
  EXPECT_EQ(check_consistency(h0, h1), Consistency::kConsistent);
}

TEST(CommitmentMemory, GrowsWithLog) {
  CommitmentLog log(1, CommitmentParams{});
  util::Rng rng(11);
  const auto before = log.memory_bytes();
  std::vector<TxId> ids(100);
  for (auto& id : ids) {
    for (auto& b : id) b = static_cast<std::uint8_t>(rng.next());
  }
  log.append(ids, 1);
  EXPECT_GT(log.memory_bytes(), before + 100 * sizeof(TxId));
}

}  // namespace
}  // namespace lo::core
