// AnomalyMonitor tests: each streaming detector in isolation on a bare
// simulator (dwell watermark, settle clearing, suspicion spike, reconcile
// failure ratio, commit-latency SLO), the lo.anomaly.* counter and kAnomaly
// trace surfaces, and replay determinism of the full alert stream when the
// monitor rides a real LØ run.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "baselines/flood.hpp"
#include "harness/anomaly.hpp"
#include "harness/lo_network.hpp"
#include "sim/simulator.hpp"
#include "test_net_util.hpp"

namespace lo {
namespace {

using harness::AnomalyConfig;
using harness::AnomalyKind;
using harness::AnomalyMonitor;

// ------------------------------------------------------------ censor dwell ----

TEST(Anomaly, CensorDwellAlertsOncePerUnsettledTx) {
  sim::Simulator sim(1);
  AnomalyConfig cfg;
  cfg.censor_dwell_threshold_s = 5.0;
  AnomalyMonitor mon(sim, cfg);
  mon.start();
  mon.on_submit(0xabc, 0);
  sim.run_until(10 * sim::kSecond);

  // Ten ticks fire, six of them past the watermark — but the alert is
  // raised exactly once per tx.
  ASSERT_EQ(mon.alerts().size(), 1u);
  const auto& a = mon.alerts()[0];
  EXPECT_EQ(a.kind, AnomalyKind::kCensorDwell);
  EXPECT_GE(a.value, 5.0);
  EXPECT_DOUBLE_EQ(a.threshold, 5.0);
  EXPECT_NE(a.detail.find("unsettled"), std::string::npos);
  EXPECT_EQ(mon.inflight(), 1u);  // still in flight: a late settle can clear it

  auto& reg = sim.obs().registry;
  EXPECT_EQ(reg.counter("lo.anomaly.alerts"), 1u);
  EXPECT_EQ(reg.counter("lo.anomaly.alerts", {{"kind", "censor_dwell"}}), 1u);
  EXPECT_EQ(reg.counter("lo.anomaly.alerts", {{"kind", "suspicion_spike"}}),
            0u);
}

TEST(Anomaly, SettleClearsInflightBeforeTheWatermark) {
  sim::Simulator sim(1);
  AnomalyConfig cfg;
  cfg.censor_dwell_threshold_s = 5.0;
  AnomalyMonitor mon(sim, cfg);
  mon.start();
  mon.on_submit(0xabc, 0);
  sim.schedule(2 * sim::kSecond, [&] { mon.on_settle(0xabc, sim.now()); });
  mon.on_settle(0xdead, 0);  // unknown tx: ignored, not a crash
  sim.run_until(10 * sim::kSecond);
  EXPECT_TRUE(mon.alerts().empty());
  EXPECT_EQ(mon.inflight(), 0u);
}

// --------------------------------------------------------- suspicion spike ----

TEST(Anomaly, SuspicionSpikeFiresOnlyInTheHotWindow) {
  sim::Simulator sim(1);
  AnomalyConfig cfg;
  cfg.suspicion_spike_threshold = 4;
  AnomalyMonitor mon(sim, cfg);
  mon.start();
  sim.schedule(sim::kSecond / 2, [&] {
    for (int i = 0; i < 10; ++i) mon.on_suspicion();
  });
  sim.run_until(3 * sim::kSecond);
  // Tick at 1s sees 10 > 4; the window resets, so ticks at 2s/3s stay quiet.
  ASSERT_EQ(mon.alerts().size(), 1u);
  EXPECT_EQ(mon.alerts()[0].kind, AnomalyKind::kSuspicionSpike);
  EXPECT_DOUBLE_EQ(mon.alerts()[0].value, 10.0);
}

// ---------------------------------------------------------- reconcile fail ----

TEST(Anomaly, ReconcileFailureNeedsRatioAndMinSamples) {
  sim::Simulator sim(1);
  AnomalyConfig cfg;
  cfg.reconcile_failure_ratio = 0.5;
  cfg.reconcile_min_samples = 8;
  AnomalyMonitor mon(sim, cfg);
  mon.start();
  // Window 1: 4 ok + 4 failed = 8 samples at exactly the ratio bound.
  sim.schedule(sim::kSecond / 2, [&] {
    for (int i = 0; i < 4; ++i) mon.on_reconcile(true);
    for (int i = 0; i < 4; ++i) mon.on_reconcile(false);
  });
  // Window 2: all failures but below the sample floor — no alert.
  sim.schedule(3 * sim::kSecond / 2, [&] {
    for (int i = 0; i < 7; ++i) mon.on_reconcile(false);
  });
  sim.run_until(3 * sim::kSecond);
  ASSERT_EQ(mon.alerts().size(), 1u);
  EXPECT_EQ(mon.alerts()[0].kind, AnomalyKind::kReconcileFailure);
  EXPECT_DOUBLE_EQ(mon.alerts()[0].value, 0.5);
  EXPECT_NE(mon.alerts()[0].detail.find("4/8"), std::string::npos);
}

// -------------------------------------------------------------- commit slo ----

TEST(Anomaly, CommitSloUsesNearestRankP95) {
  sim::Simulator sim(1);
  AnomalyConfig cfg;
  cfg.commit_latency_slo_s = 1.0;
  AnomalyMonitor mon(sim, cfg);
  mon.start();
  // 18 fast settles and 2 slow ones: rank ceil(0.95*20) = 19 lands on the
  // first slow sample, breaching the SLO.
  sim.schedule(sim::kSecond / 2, [&] {
    for (std::uint64_t i = 0; i < 20; ++i) mon.on_submit(i, 0);
    for (std::uint64_t i = 0; i < 18; ++i) {
      mon.on_settle(i, 100 * sim::kMillisecond);
    }
    mon.on_settle(18, 5 * sim::kSecond);
    mon.on_settle(19, 5 * sim::kSecond);
  });
  sim.run_until(2 * sim::kSecond);
  ASSERT_EQ(mon.alerts().size(), 1u);
  EXPECT_EQ(mon.alerts()[0].kind, AnomalyKind::kCommitLatencySlo);
  EXPECT_DOUBLE_EQ(mon.alerts()[0].value, 5.0);
}

TEST(Anomaly, CommitSloToleratesASingleOutlier) {
  sim::Simulator sim(1);
  AnomalyConfig cfg;
  cfg.commit_latency_slo_s = 1.0;
  AnomalyMonitor mon(sim, cfg);
  mon.start();
  // 19 fast + 1 slow: rank 19 of 20 is still a fast sample.
  sim.schedule(sim::kSecond / 2, [&] {
    for (std::uint64_t i = 0; i < 20; ++i) mon.on_submit(i, 0);
    for (std::uint64_t i = 0; i < 19; ++i) {
      mon.on_settle(i, 100 * sim::kMillisecond);
    }
    mon.on_settle(19, 5 * sim::kSecond);
  });
  sim.run_until(2 * sim::kSecond);
  EXPECT_TRUE(mon.alerts().empty());
}

// ----------------------------------------------------------- trace surface ----

TEST(Anomaly, AlertsRideTheTraceStream) {
  sim::Simulator sim(1);
  sim.obs().tracer.enable(true);
  AnomalyConfig cfg;
  cfg.censor_dwell_threshold_s = 2.0;
  AnomalyMonitor mon(sim, cfg);
  mon.start();
  mon.on_submit(0x77, 0);
  sim.run_until(4 * sim::kSecond);
  ASSERT_EQ(mon.alerts().size(), 1u);

  bool found = false;
  for (const auto& ev : sim.obs().tracer.events()) {
    if (ev.kind != static_cast<std::uint16_t>(obs::EventKind::kAnomaly)) {
      continue;
    }
    found = true;
    EXPECT_EQ(ev.peer, static_cast<std::uint32_t>(AnomalyKind::kCensorDwell));
    EXPECT_EQ(ev.b, 2000u);  // threshold in milli-units
    EXPECT_GE(ev.a, 2000u);  // observed dwell in milli-units
  }
  EXPECT_TRUE(found) << "no kAnomaly event reached the tracer";
}

// ------------------------------------------------------------- determinism ----

// Alert stream + registry export from a monitored adversarial LØ run must
// replay byte-for-byte: the feeds run in simulator event order and the tick
// is an ordinary coordinator timer (DESIGN.md §4e).
std::string run_monitored_lo(std::uint64_t seed) {
  auto cfg = test::net_cfg(16, seed, /*malicious_fraction=*/0.125);
  cfg.trace = true;
  cfg.malicious.ignore_requests = true;
  cfg.malicious.censor_txs = true;
  harness::LoNetwork net(cfg);
  AnomalyConfig acfg;
  acfg.suspicion_spike_threshold = 0;  // any suspicion in a window alerts
  acfg.censor_dwell_threshold_s = 5.0;
  net.start_anomaly_monitor(acfg);
  net.start_workload(test::load_cfg(20.0, seed + 1000));
  net.run_for(15.0);

  std::string out;
  char buf[192];
  for (const auto& a : net.anomaly()->alerts()) {
    std::snprintf(buf, sizeof(buf), "%u|%.6f|%.6f|%.6f|%s\n",
                  static_cast<unsigned>(a.kind), a.when_s, a.value, a.threshold,
                  a.detail.c_str());
    out += buf;
  }
  out += std::to_string(net.anomaly()->inflight());
  out += "\n";
  net.publish_metrics();
  out += net.sim().obs().registry.to_json("anomaly");
  return out;
}

// The same detectors ride the baseline stacks (settle = first admit there):
// a healthy flood run with a sane SLO raises nothing, and every tx clears
// the in-flight set — the monitor observes real submit/settle feeds.
TEST(Anomaly, BaselineStackFeedsTheMonitor) {
  harness::NetConfig cfg;
  cfg.num_nodes = 10;
  cfg.seed = 7;
  baselines::FloodNode::Config node_cfg;
  node_cfg.prevalidation.sig_mode = test::kFastSig;
  harness::Network<baselines::FloodNode> net(cfg, node_cfg);
  AnomalyConfig acfg;
  acfg.censor_dwell_threshold_s = 5.0;
  net.start_anomaly_monitor(acfg);
  net.start_workload(test::load_cfg(15.0, 8));
  net.run_for(10.0);
  ASSERT_NE(net.anomaly(), nullptr);
  EXPECT_GT(net.txs_injected(), 0u);
  EXPECT_EQ(net.anomaly()->inflight(), 0u)
      << "flood baseline left submitted txs unsettled";
  EXPECT_TRUE(net.anomaly()->alerts().empty());
}

TEST(Anomaly, MonitoredRunIsWorkerCountInvariant) {
  const std::string first = run_monitored_lo(5);
  // Non-vacuous: sync-ignoring censors must trip at least one detector.
  EXPECT_NE(first.find("|"), std::string::npos)
      << "adversarial run produced no alerts — determinism check is vacuous";
  EXPECT_EQ(first, run_monitored_lo(5)) << "monitored LO replay diverged";
}

}  // namespace
}  // namespace lo
