// Crypto micro-benchmarks: SHA-256/512 throughput (SHA-256 on the kernel
// Sha256 picks and, as BM_Sha256Portable, on the portable one) and Ed25519
// operations.
// Supporting measurements — the paper's protocol signs every commitment and
// block, so these bound the non-simulated CPU cost per protocol message.
//
// BM_Ed25519Sign and BM_Ed25519Verify repeat one input, so the branch
// predictor learns its data-dependent branches; the *Distinct variants
// rotate through 64 messages and signatures, which is what a live run pays.
// BM_SignerSign signs with the key a Signer expands once; BM_ScReduce is the
// mod-L reduction run once per verify and twice per sign.
//
// The Ed25519 verify path is benchmarked in four tiers (see DESIGN.md
// "verify fast path"):
//   BM_Ed25519VerifyReference — the pre-optimization generic double-and-add
//     verifier, kept in the tree as a differential oracle ("before");
//   BM_Ed25519Verify          — window-table + Straus verify ("after");
//   BM_Ed25519VerifyPrepared  — same, with the public key decompressed once;
//   BM_VerifyCache*           — the node-level LRU/memo layers on top.
//
// Besides the console table, this binary always writes machine-readable
// results to BENCH_crypto.json in the working directory (google-benchmark
// JSON schema; items_per_second is the ops/s figure). CI uploads the file as
// an artifact so verify-throughput regressions show up in the history.
#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "crypto/ed25519.hpp"
#include "crypto/keys.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha512.hpp"
#include "crypto/verify_cache.hpp"
#include "util/rng.hpp"

namespace {

using namespace lo::crypto;

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  lo::util::Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

void BM_Sha256(benchmark::State& state) {
  const auto data = random_bytes(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    auto d = sha256(data);
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(250)->Arg(4096)->Arg(65536);

// SHA-256 on the portable compression kernel, padding included: what
// BM_Sha256 costs on a CPU without SHA-NI. The "sha256_kernel" context entry
// of BENCH_crypto.json names the kernel BM_Sha256 ran.
std::array<std::uint32_t, 8> sha256_portable(const std::vector<std::uint8_t>& m) {
  std::array<std::uint32_t, 8> state = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                        0xa54ff53a, 0x510e527f, 0x9b05688c,
                                        0x1f83d9ab, 0x5be0cd19};
  const std::size_t full = m.size() / 64;
  detail::sha256_compress_portable(state.data(), m.data(), full);
  std::uint8_t tail[128] = {};
  const std::size_t rest = m.size() - 64 * full;
  if (rest > 0) std::memcpy(tail, m.data() + 64 * full, rest);
  tail[rest] = 0x80;
  const std::size_t blocks = rest < 56 ? 1 : 2;
  const std::uint64_t bits = 8 * static_cast<std::uint64_t>(m.size());
  for (std::size_t i = 0; i < 8; ++i) {
    tail[64 * blocks - 1 - i] = static_cast<std::uint8_t>(bits >> (8 * i));
  }
  detail::sha256_compress_portable(state.data(), tail, blocks);
  return state;
}

void BM_Sha256Portable(benchmark::State& state) {
  const auto data = random_bytes(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    auto d = sha256_portable(data);
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256Portable)->Arg(64)->Arg(250)->Arg(4096);

void BM_Sha512(benchmark::State& state) {
  const auto data = random_bytes(static_cast<std::size_t>(state.range(0)), 2);
  for (auto _ : state) {
    auto d = sha512(data);
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha512)->Arg(64)->Arg(250)->Arg(4096)->Arg(65536);

void BM_Ed25519KeyGen(benchmark::State& state) {
  std::uint64_t i = 0;
  for (auto _ : state) {
    auto kp = derive_keypair(++i, SignatureMode::kEd25519);
    benchmark::DoNotOptimize(kp);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Ed25519KeyGen)->Unit(benchmark::kMicrosecond);

void BM_Ed25519Sign(benchmark::State& state) {
  const auto kp = derive_keypair(7, SignatureMode::kEd25519);
  const auto msg = random_bytes(250, 3);  // one paper-sized transaction
  for (auto _ : state) {
    auto sig = ed25519_sign(kp.seed, msg);
    benchmark::DoNotOptimize(sig);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Ed25519Sign)->Unit(benchmark::kMicrosecond);

// 64 distinct 250-byte messages and their signatures under one key.
constexpr std::size_t kDistinct = 64;

struct SignedMessages {
  KeyPair kp;
  std::vector<std::vector<std::uint8_t>> msgs;
  std::vector<Signature> sigs;
};

SignedMessages signed_messages() {
  SignedMessages m;
  m.kp = derive_keypair(7, SignatureMode::kEd25519);
  for (std::size_t i = 0; i < kDistinct; ++i) {
    m.msgs.push_back(random_bytes(250, 200 + i));
    m.sigs.push_back(ed25519_sign(m.kp.seed, m.msgs.back()));
  }
  return m;
}

void BM_Ed25519SignDistinct(benchmark::State& state) {
  const auto m = signed_messages();
  std::size_t i = 0;
  for (auto _ : state) {
    auto sig = ed25519_sign(m.kp.seed, m.msgs[i++ % kDistinct]);
    benchmark::DoNotOptimize(sig);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Ed25519SignDistinct)->Unit(benchmark::kMicrosecond);

// A node's signing path: the Signer expanded its key at construction.
void BM_SignerSign(benchmark::State& state) {
  const auto m = signed_messages();
  const Signer s(m.kp, SignatureMode::kEd25519);
  std::size_t i = 0;
  for (auto _ : state) {
    auto sig = s.sign(m.msgs[i++ % kDistinct]);
    benchmark::DoNotOptimize(sig);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SignerSign)->Unit(benchmark::kMicrosecond);

void BM_Ed25519VerifyDistinct(benchmark::State& state) {
  const auto m = signed_messages();
  std::size_t i = 0;
  for (auto _ : state) {
    const std::size_t k = i++ % kDistinct;
    bool ok = ed25519_verify(m.kp.pub, m.msgs[k], m.sigs[k]);
    benchmark::DoNotOptimize(ok);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Ed25519VerifyDistinct)->Unit(benchmark::kMicrosecond);

void BM_ScReduce(benchmark::State& state) {
  std::vector<std::vector<std::uint8_t>> inputs;
  for (std::size_t i = 0; i < kDistinct; ++i) inputs.push_back(random_bytes(64, 300 + i));
  std::size_t i = 0;
  for (auto _ : state) {
    auto r = detail::sc_reduce(inputs[i++ % kDistinct]);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ScReduce);

// "Before": generic double-and-add for both scalar multiplications, no
// precomputed tables. This is the seed repo's verifier, preserved as
// ed25519_verify_reference for differential testing and this baseline.
void BM_Ed25519VerifyReference(benchmark::State& state) {
  const auto kp = derive_keypair(7, SignatureMode::kEd25519);
  const auto msg = random_bytes(250, 3);
  const auto sig = ed25519_sign(kp.seed, msg);
  for (auto _ : state) {
    bool ok = ed25519_verify_reference(kp.pub, msg, sig);
    benchmark::DoNotOptimize(ok);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Ed25519VerifyReference)->Unit(benchmark::kMicrosecond);

// "After": fixed-base window table + Straus interleaving, including the
// per-call public key decompression.
void BM_Ed25519Verify(benchmark::State& state) {
  const auto kp = derive_keypair(7, SignatureMode::kEd25519);
  const auto msg = random_bytes(250, 3);
  const auto sig = ed25519_sign(kp.seed, msg);
  for (auto _ : state) {
    bool ok = ed25519_verify(kp.pub, msg, sig);
    benchmark::DoNotOptimize(ok);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Ed25519Verify)->Unit(benchmark::kMicrosecond);

// Key decompressed once up front — the steady state for a peer whose key sits
// in the node's key cache.
void BM_Ed25519VerifyPrepared(benchmark::State& state) {
  const auto kp = derive_keypair(7, SignatureMode::kEd25519);
  const auto msg = random_bytes(250, 3);
  const auto sig = ed25519_sign(kp.seed, msg);
  const auto prepared = ed25519_prepare(kp.pub);
  for (auto _ : state) {
    bool ok = ed25519_verify_prepared(*prepared, msg, sig);
    benchmark::DoNotOptimize(ok);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Ed25519VerifyPrepared)->Unit(benchmark::kMicrosecond);

// Full VerifyCache path on fresh messages from one key: every call is a memo
// miss (capacity 1) but a key-cache hit — curve math plus cache overhead.
void BM_VerifyCacheKeyHitFreshMessage(benchmark::State& state) {
  const auto kp = derive_keypair(7, SignatureMode::kEd25519);
  Signer s(kp, SignatureMode::kEd25519);
  constexpr std::size_t kBatch = 64;
  std::vector<std::vector<std::uint8_t>> msgs;
  std::vector<Signature> sigs;
  for (std::size_t i = 0; i < kBatch; ++i) {
    msgs.push_back(random_bytes(250, 100 + i));
    sigs.push_back(s.sign(msgs.back()));
  }
  VerifyCache cache(/*key_capacity=*/8, /*memo_capacity=*/1);
  std::size_t i = 0;
  for (auto _ : state) {
    bool ok = cache.verify(SignatureMode::kEd25519, kp.pub, msgs[i % kBatch],
                           sigs[i % kBatch]);
    benchmark::DoNotOptimize(ok);
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_VerifyCacheKeyHitFreshMessage)->Unit(benchmark::kMicrosecond);

// Duplicate delivery of one already-verified message: pure memo hit, the
// cost a node pays when the same signed commitment arrives via two peers.
void BM_VerifyCacheMemoHit(benchmark::State& state) {
  const auto kp = derive_keypair(7, SignatureMode::kEd25519);
  Signer s(kp, SignatureMode::kEd25519);
  const auto msg = random_bytes(250, 5);
  const auto sig = s.sign(msg);
  VerifyCache cache;
  bool warm = cache.verify(SignatureMode::kEd25519, kp.pub, msg, sig);
  benchmark::DoNotOptimize(warm);
  for (auto _ : state) {
    bool ok = cache.verify(SignatureMode::kEd25519, kp.pub, msg, sig);
    benchmark::DoNotOptimize(ok);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_VerifyCacheMemoHit);

void BM_SimFastSign(benchmark::State& state) {
  const Signer s(derive_keypair(9, SignatureMode::kSimFast),
                 SignatureMode::kSimFast);
  const auto msg = random_bytes(250, 4);
  for (auto _ : state) {
    auto sig = s.sign(msg);
    benchmark::DoNotOptimize(sig);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SimFastSign);

}  // namespace

// Custom main: default --benchmark_out to BENCH_crypto.json (working
// directory) so CI and scripts get machine-readable numbers without having
// to remember the flag; an explicit --benchmark_out still wins. Console
// output is unchanged.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_crypto.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_out=", 0) == 0) has_out = true;
  }
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::AddCustomContext("bench_suite", "lo-crypto");
  benchmark::AddCustomContext("verify_before", "BM_Ed25519VerifyReference");
  benchmark::AddCustomContext("verify_after", "BM_Ed25519Verify");
  benchmark::AddCustomContext("sha256_kernel", detail::sha256_kernel_name());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
