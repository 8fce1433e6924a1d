// Concurrency smoke tests for the library pieces that callers may share
// across threads (DESIGN.md §4d): the lazily-built Field
// registry, Sketch::decode through its per-thread Decoder workspace, and the
// Registry's documented aggregation path (private per-thread registries
// merged into a shared one, serialized by its mutex).
//
// These run in every configuration but earn their keep under
// -DLO_SANITIZE=thread, where TSan turns a latent data race into a hard
// failure. Worker threads only write into preallocated slots; every
// assertion happens on the main thread after join, so interleavings vary but
// the checked totals never do.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "gf/gf2m.hpp"
#include "minisketch/sketch.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace {

constexpr int kThreads = 8;

TEST(ConcurrencySmoke, FieldRegistryFromManyThreads) {
  // Field::get(m) builds ~17 KB of tables lazily behind a magic static;
  // every thread must observe one fully-constructed instance per m.
  static constexpr unsigned kBits[] = {8, 16, 24, 32, 48, 63};
  constexpr std::size_t kNumBits = std::size(kBits);
  std::vector<const lo::gf::Field*> seen(kThreads * kNumBits, nullptr);
  std::vector<std::uint64_t> product(kThreads * kNumBits, 0);

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &seen, &product] {
      for (std::size_t i = 0; i < kNumBits; ++i) {
        const auto& f = lo::gf::Field::get(kBits[i]);
        seen[static_cast<std::size_t>(t) * kNumBits + i] = &f;
        // Exercise the tables, not just the pointer.
        product[static_cast<std::size_t>(t) * kNumBits + i] = f.mul(3, 5);
      }
    });
  }
  for (auto& th : threads) th.join();

  for (std::size_t i = 0; i < kNumBits; ++i) {
    const auto& f = lo::gf::Field::get(kBits[i]);
    const std::uint64_t expect = f.mul(3, 5);
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(seen[static_cast<std::size_t>(t) * kNumBits + i], &f);
      EXPECT_EQ(product[static_cast<std::size_t>(t) * kNumBits + i], expect);
    }
  }
}

TEST(ConcurrencySmoke, ConcurrentSketchDecode) {
  // Sketch::decode goes through a thread-local Decoder: N threads decoding
  // simultaneously must neither share workspaces nor race in the field
  // tables, and every decode of the same sketch yields the same elements.
  lo::sketch::Sketch base(32, 32);
  lo::util::Rng rng(7);
  for (int i = 0; i < 20; ++i) base.add(rng.next());

  const auto expected_opt = base.decode();
  ASSERT_TRUE(expected_opt.has_value());
  std::vector<std::uint64_t> expected = *expected_opt;
  std::sort(expected.begin(), expected.end());
  ASSERT_EQ(expected.size(), 20u);

  constexpr int kDecodesPerThread = 50;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &base, &expected, &mismatches] {
      const lo::sketch::Sketch mine = base;  // value copy, shared field
      for (int i = 0; i < kDecodesPerThread; ++i) {
        auto got = mine.decode();
        if (!got.has_value()) {
          ++mismatches[static_cast<std::size_t>(t)];
          continue;
        }
        std::sort(got->begin(), got->end());
        if (*got != expected) ++mismatches[static_cast<std::size_t>(t)];
      }
    });
  }
  for (auto& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0) << "thread " << t;
  }
}

TEST(ConcurrencySmoke, RegistrySnapshotMergeUnderConcurrentBumps) {
  // The documented aggregation path (metrics.hpp, DESIGN.md §4d): each
  // worker bumps counters in a private registry and merges snapshots into
  // the shared one; the shared registry's mutex serializes concurrent
  // merge/snapshot/registration. Everything that touches `global` here goes
  // through the mutex — that is the invariant TSan certifies.
  lo::obs::Registry global;
  constexpr int kRounds = 50;
  constexpr int kBumpsPerRound = 100;

  std::vector<std::size_t> snapshot_sizes(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &global, &snapshot_sizes] {
      for (int r = 0; r < kRounds; ++r) {
        lo::obs::Registry delta;
        auto& ops = delta.counter("smoke.ops");
        for (int i = 0; i < kBumpsPerRound; ++i) ++ops;
        global.merge(delta.snapshot());
        // Concurrent snapshot while other threads merge: mutex-serialized.
        snapshot_sizes[static_cast<std::size_t>(t)] =
            global.snapshot().size();
      }
    });
  }
  for (auto& th : threads) th.join();

  const auto snap = global.snapshot();
  const auto ops = snap.find("smoke.ops");
  ASSERT_NE(ops, snap.end());
  EXPECT_EQ(ops->second.counter,
            static_cast<std::uint64_t>(kThreads) * kRounds * kBumpsPerRound);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_GE(snapshot_sizes[static_cast<std::size_t>(t)], 1u);
  }
}

TEST(ConcurrencySmoke, RegistrySingleWriterCellsReadAtBarrier) {
  // The other half of the model: cell references returned by counter()
  // escape the lock by design, each owned by the thread that registered it.
  // The contract this encodes — and the part TSan would flag if violated —
  // is that the coordinator reads those cells only at a barrier (here:
  // join), never concurrently with the owners' bumps. Registration itself
  // is concurrent and mutex-guarded; the map's node stability keeps every
  // escaped reference valid while other threads keep inserting.
  lo::obs::Registry reg;
  constexpr int kBumps = 5000;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &reg] {
      auto& owned =
          reg.counter("smoke.owned", {{"node", std::to_string(t)}});
      for (int i = 0; i < kBumps; ++i) ++owned;
    });
  }
  for (auto& th : threads) th.join();

  // Barrier passed: the coordinator may now aggregate.
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), static_cast<std::size_t>(kThreads));
  for (int t = 0; t < kThreads; ++t) {
    const auto it = snap.find("smoke.owned{node=" + std::to_string(t) + "}");
    ASSERT_NE(it, snap.end()) << "thread " << t;
    EXPECT_EQ(it->second.counter, static_cast<std::uint64_t>(kBumps));
  }
}

}  // namespace
