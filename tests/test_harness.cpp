// Harness-level tests: LoNetwork assembly invariants, metric plumbing,
// detection-time computation, coverage helper, workload control.
#include <gtest/gtest.h>

#include <stdexcept>

#include "baselines/flood.hpp"
#include "harness/lo_network.hpp"
#include "test_net_util.hpp"

namespace lo::harness {
namespace {

constexpr auto kMode = test::kFastSig;

using test::net_cfg;

workload::WorkloadConfig load_of(double tps, std::uint64_t seed) {
  return test::load_cfg(tps, seed);
}

TEST(Harness, MaliciousCountMatchesFraction) {
  for (double f : {0.0, 0.1, 0.25, 0.5}) {
    LoNetwork net(net_cfg(20, 3, f));
    std::size_t count = 0;
    for (bool b : net.malicious_mask()) count += b ? 1 : 0;
    EXPECT_EQ(count, net.malicious_count());
    EXPECT_EQ(count, static_cast<std::size_t>(f * 20 + 0.5));
    EXPECT_EQ(net.correct_count(), 20 - count);
  }
}

TEST(Harness, HonestSubgraphIsConnected) {
  auto cfg = net_cfg(30, 5, 0.4);
  cfg.malicious.censor_txs = true;
  LoNetwork net(cfg);
  std::vector<bool> honest(net.size());
  for (std::size_t i = 0; i < net.size(); ++i) {
    honest[i] = !net.malicious_mask()[i];
  }
  EXPECT_TRUE(net.topology().connected_among(honest));
  EXPECT_TRUE(net.topology().connected());
}

TEST(Harness, NeighborsMatchTopology) {
  LoNetwork net(net_cfg(12, 7));
  for (std::size_t i = 0; i < net.size(); ++i) {
    EXPECT_EQ(net.node(i).neighbors(),
              net.topology().neighbors(static_cast<core::NodeId>(i)));
  }
}

TEST(Harness, WorkloadInjectsAtConfiguredRate) {
  LoNetwork net(net_cfg(10, 9));
  net.start_workload(load_of(20.0, 11));
  net.run_for(20.0);
  // Poisson(400): 5-sigma band.
  EXPECT_NEAR(static_cast<double>(net.txs_injected()), 400.0, 100.0);
}

TEST(Harness, StopWorkloadStopsInjection) {
  LoNetwork net(net_cfg(10, 13));
  net.start_workload(load_of(20.0, 15));
  net.run_for(5.0);
  net.stop_workload();
  const auto at_stop = net.txs_injected();
  net.run_for(10.0);
  EXPECT_LE(net.txs_injected(), at_stop + 1);  // at most one in-flight arrival
}

TEST(Harness, WorkloadAvoidsMaliciousEntryNodes) {
  auto cfg = net_cfg(10, 17, 0.3);
  cfg.malicious.censor_txs = true;
  cfg.malicious.ignore_requests = true;
  LoNetwork net(cfg);
  net.start_workload(load_of(10.0, 19));
  net.run_for(5.0);
  for (std::size_t i = 0; i < net.size(); ++i) {
    if (net.malicious_mask()[i]) {
      EXPECT_EQ(net.node(i).log().count(), 0u)
          << "client submitted to a censoring node";
    }
  }
}

TEST(Harness, CoverageReportsFraction) {
  LoNetwork net(net_cfg(8, 21));
  crypto::Signer client(crypto::derive_keypair(50, kMode), kMode);
  const auto tx = core::make_transaction(client, 1, 9, 0);
  EXPECT_EQ(net.coverage(tx.id), 0.0);
  net.node(0).submit_transaction(tx);
  EXPECT_NEAR(net.coverage(tx.id), 1.0 / 8.0, 1e-9);
  net.run_for(8.0);
  EXPECT_EQ(net.coverage(tx.id), 1.0);
}

TEST(Harness, DetectionTimesEmptyWithoutMalicious) {
  LoNetwork net(net_cfg(8, 23));
  net.start_workload(load_of(5.0, 25));
  net.run_for(5.0);
  const auto t = net.detection_times();
  EXPECT_LT(t.suspicion_complete_s, 0.0);
  EXPECT_LT(t.exposure_complete_s, 0.0);
  EXPECT_LT(t.exposure_spread_s, 0.0);
}

TEST(Harness, DetectionTimesOrdering) {
  auto cfg = net_cfg(16, 27, 0.15);
  cfg.malicious.equivocate = true;
  LoNetwork net(cfg);
  net.start_workload(load_of(8.0, 29));
  net.run_for(40.0);
  const auto t = net.detection_times();
  ASSERT_GE(t.exposure_complete_s, 0.0);
  EXPECT_LE(t.first_exposure_s, t.exposure_complete_s);
  ASSERT_GE(t.exposure_spread_s, 0.0);
  EXPECT_LE(t.exposure_spread_s, t.exposure_complete_s - 0.0);
}

TEST(Harness, BlockProductionRespectsCorrectLeaderFilter) {
  auto cfg = net_cfg(12, 31, 0.25);
  cfg.malicious.reorder_block = true;
  LoNetwork net(cfg);
  net.start_workload(load_of(8.0, 33));
  consensus::LeaderConfig lc;
  lc.mean_block_interval = 3 * sim::kSecond;
  lc.exponential_intervals = false;
  net.start_block_production(lc, /*correct_leaders_only=*/true);
  net.run_for(30.0);
  ASSERT_GT(net.chain().height(), 3u);
  for (const auto& block : net.chain().blocks()) {
    EXPECT_FALSE(net.malicious_mask()[block.creator])
        << "malicious leader elected despite filter";
  }
  // With only honest leaders there must be no exposures.
  for (std::size_t i = 0; i < net.size(); ++i) {
    EXPECT_TRUE(net.node(i).registry().exposed().empty());
  }
}

TEST(Harness, BlockLatencyTracksOnlyFirstInclusion) {
  LoNetwork net(net_cfg(10, 35));
  net.start_workload(load_of(10.0, 37));
  consensus::LeaderConfig lc;
  lc.mean_block_interval = 4 * sim::kSecond;
  lc.exponential_intervals = false;
  net.start_block_production(lc);
  net.run_for(30.0);
  // Each injected tx is counted at most once even though later blocks
  // re-include everything (no settlement pruning in the stub).
  EXPECT_LE(net.block_latency().count(), net.txs_injected());
  EXPECT_GT(net.block_latency().count(), 0u);
}

TEST(Harness, SeedsChangeOutcomes) {
  auto run = [](std::uint64_t seed) {
    LoNetwork net(net_cfg(10, seed));
    net.start_workload(load_of(10.0, seed + 1));
    net.run_for(5.0);
    return net.sim().bandwidth().total_bytes();
  };
  EXPECT_NE(run(1), run(2));
}

TEST(Harness, WorkersOtherThanOneAreRejected) {
  // The simulator is one event loop; NetConfig::workers survives only as a
  // field that must say so. Both the LØ network and a baseline network
  // refuse anything else up front, before any node is built.
  baselines::FloodNode::Config flood;
  flood.prevalidation.sig_mode = kMode;
  for (unsigned w : {0u, 2u, 4u}) {
    auto cfg = net_cfg(4, 1);
    cfg.workers = w;
    EXPECT_THROW(LoNetwork{cfg}, std::invalid_argument) << "workers=" << w;
    EXPECT_THROW((Network<baselines::FloodNode>{cfg, flood}),
                 std::invalid_argument)
        << "workers=" << w;
  }
  auto cfg = net_cfg(4, 1);
  cfg.workers = 1;
  EXPECT_NO_THROW(LoNetwork{cfg});
  EXPECT_NO_THROW((Network<baselines::FloodNode>{cfg, flood}));
}

}  // namespace
}  // namespace lo::harness
