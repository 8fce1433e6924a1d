// Chaos tests: crash/restart lifecycle, random churn, flaky links and
// latency spikes driven by the deterministic FaultInjector. The protocol
// must stay convergent and accurate (Sec. 3.2) under every schedule, and
// the whole run must replay bit-for-bit from the seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "harness/lo_network.hpp"
#include "test_net_util.hpp"
#include "util/ordered.hpp"

namespace lo {
namespace {

using test::load_cfg;
using test::net_cfg;

double first_suspicion_of(const harness::LoNetwork& net, core::NodeId accused) {
  double first = -1.0;
  for (const auto& ev : net.suspicion_events()) {
    if (ev.accused != accused) continue;
    if (first < 0.0 || ev.when_s < first) first = ev.when_s;
  }
  return first;
}

TEST(Chaos, CrashedNodeIsSilentUntilRestart) {
  harness::LoNetwork net(net_cfg(8, 3));
  net.start_workload(load_cfg(5.0, 5));
  net.run_for(5.0);
  net.crash_node(2);
  EXPECT_TRUE(net.node_down(2));
  EXPECT_TRUE(net.node(2).crashed());
  const auto log_at_crash = net.node(2).log().count();
  const auto pool_at_crash = net.node(2).mempool_size();
  net.run_for(8.0);
  // A dead host neither commits nor receives anything.
  EXPECT_EQ(net.node(2).log().count(), log_at_crash);
  EXPECT_EQ(net.node(2).mempool_size(), pool_at_crash);
  // Crashing twice is a no-op, not a second incarnation.
  net.crash_node(2);
  EXPECT_EQ(test::counter_total(net.sim(), "lo.crashes"), 1u);
  net.restart_node(2);
  EXPECT_FALSE(net.node_down(2));
  EXPECT_FALSE(net.node(2).crashed());
  EXPECT_EQ(test::counter_total(net.sim(), "lo.restarts"), 1u);
}

TEST(Chaos, CrashMidSyncRecoversFullBacklog) {
  // A node loses its entire volatile state — including the mempool — while
  // hundreds of transactions flow past it. On restart it must refetch the
  // content for its surviving commitment log AND catch up on everything it
  // missed through the ordinary sketch/bulk-sync path, without blaming
  // anyone for the gap.
  harness::LoNetwork net(net_cfg(12, 7));
  net.start_invariant_checker(500 * sim::kMillisecond);
  net.start_workload(load_cfg(12.0, 9));
  net.run_for(6.0);  // sync traffic is in full swing
  ASSERT_GT(net.node(5).mempool_size(), 20u);
  net.crash_node(5, /*wipe_mempool=*/true);
  EXPECT_EQ(net.node(5).mempool_size(), 0u);
  EXPECT_GT(net.node(5).log().count(), 0u) << "commitment log is disk";
  net.run_for(10.0);  // backlog builds while the node is down
  net.stop_workload();
  net.run_for(1.0);
  const auto total = net.txs_injected();
  ASSERT_GT(total, 100u);

  net.restart_node(5);
  net.run_for(120.0);  // recovery: content refetch + bulk sync
  EXPECT_EQ(net.node(5).log().count(), total)
      << "restarted node must commit the full backlog";
  EXPECT_EQ(net.node(5).mempool_size(), total)
      << "restarted node must recover all content, including wiped txs";
  // Accuracy: the crash fabricated no evidence against anyone, and the
  // other nodes' transient suspicions of the dead node were retracted.
  for (std::size_t i = 0; i < net.size(); ++i) {
    EXPECT_TRUE(net.node(i).registry().exposed().empty()) << "node " << i;
    EXPECT_FALSE(net.node(i).registry().is_suspected(5)) << "node " << i;
  }
  EXPECT_TRUE(net.invariant_violations().empty());
}

TEST(Chaos, SuspicionsOfCrashedNodeAreRetractedAfterRecovery) {
  harness::LoNetwork net(net_cfg(10, 11));
  net.start_invariant_checker(sim::kSecond);
  net.start_workload(load_cfg(6.0, 13));
  net.run_for(5.0);
  net.crash_node(0);
  net.run_for(25.0);  // timeout + exponential backoff retries, then suspicion
  std::size_t suspecting = 0;
  for (std::size_t i = 1; i < net.size(); ++i) {
    if (net.node(i).registry().is_suspected(0)) ++suspecting;
  }
  EXPECT_GT(suspecting, 0u) << "a crashed node must draw suspicion";

  net.restart_node(0);
  net.run_for(40.0);
  for (std::size_t i = 1; i < net.size(); ++i) {
    EXPECT_FALSE(net.node(i).registry().is_suspected(0))
        << "node " << i << " kept suspecting a recovered node";
    EXPECT_FALSE(net.node(i).registry().is_exposed(0))
        << "a correct node must never be exposed";
  }
  auto total = [&net](const char* name) {
    return test::counter_total(net.sim(), name);
  };
  EXPECT_GT(total("lo.timeouts_fired"), 0u);
  EXPECT_GT(total("lo.retries_sent"), 0u);
  EXPECT_GT(total("lo.suspicions_raised"), 0u);
  EXPECT_EQ(total("lo.suspicions_raised"), total("lo.suspicions_retracted"))
      << "every suspicion of the recovered node must be retracted";
  EXPECT_TRUE(net.invariant_violations().empty());
}

TEST(Chaos, ChurnThreeOfSixteenConvergesAfterChurnStops) {
  harness::LoNetwork net(net_cfg(16, 17));
  net.start_invariant_checker(500 * sim::kMillisecond);
  net.start_workload(load_cfg(8.0, 19));
  sim::ChurnConfig churn;
  churn.mean_gap = 2 * sim::kSecond;
  churn.min_down = 2 * sim::kSecond;
  churn.max_down = 5 * sim::kSecond;
  churn.max_concurrent_down = 3;
  net.start_churn(churn);
  net.run_for(25.0);
  EXPECT_GT(net.faults().crashes_injected(), 3u);
  net.stop_churn();
  net.stop_workload();
  // Scheduled restarts drain within max_down; then recovery syncs run.
  net.run_for(60.0);
  EXPECT_EQ(net.faults().down_count(), 0u);
  EXPECT_EQ(net.faults().crashes_injected(), net.faults().restarts_injected());

  const auto total = net.txs_injected();
  ASSERT_GT(total, 50u);
  for (std::size_t i = 0; i < net.size(); ++i) {
    EXPECT_EQ(net.node(i).log().count(), total) << "node " << i;
    EXPECT_EQ(net.node(i).mempool_size(), total) << "node " << i;
    EXPECT_TRUE(net.node(i).registry().exposed().empty())
        << "churn must never produce exposure evidence (node " << i << ")";
  }
  EXPECT_TRUE(net.invariant_violations().empty());
}

TEST(Chaos, FlakyLinksAndLatencySpikesStillConverge) {
  harness::LoNetwork net(net_cfg(12, 23));
  net.start_invariant_checker(sim::kSecond);
  auto& faults = net.faults();
  // Heavy loss on a few links plus a 4x latency spike mid-run.
  faults.flaky_link(0, 1, 2 * sim::kSecond, 12 * sim::kSecond, 0.6);
  faults.flaky_link(3, 7, 0, 15 * sim::kSecond, 0.5);
  faults.latency_spike(4 * sim::kSecond, 9 * sim::kSecond, 4.0);
  net.start_workload(load_cfg(8.0, 29));
  net.run_for(15.0);
  net.stop_workload();
  net.run_for(30.0);
  EXPECT_GT(faults.link_drops(), 0u);
  const auto total = net.txs_injected();
  for (std::size_t i = 0; i < net.size(); ++i) {
    EXPECT_EQ(net.node(i).mempool_size(), total) << "node " << i;
    EXPECT_TRUE(net.node(i).registry().exposed().empty());
  }
  EXPECT_TRUE(net.invariant_violations().empty());
}

TEST(Chaos, ExponentialBackoffDefersSuspicion) {
  // With exponential backoff (1+2+4+8 s before the retry budget runs out),
  // an unreachable peer draws first suspicion much later than under the
  // legacy fixed-interval schedule (1+1+1+1 s). Jitter is disabled so both
  // timelines are exact.
  auto run = [](double factor) {
    auto cfg = net_cfg(6, 31);
    cfg.node.backoff_factor = factor;
    cfg.node.backoff_jitter = 0.0;
    harness::LoNetwork net(cfg);
    net.sim().set_delivery_filter(
        [](core::NodeId, core::NodeId to) { return to != 0; });
    net.run_for(30.0);
    return first_suspicion_of(net, 0);
  };
  const double fixed = run(1.0);
  const double backoff = run(2.0);
  ASSERT_GE(fixed, 0.0);
  ASSERT_GE(backoff, 0.0);
  EXPECT_LT(fixed, 9.0);
  EXPECT_GT(backoff, 11.0);
  EXPECT_GT(backoff, fixed + 5.0);
}

TEST(Chaos, ScheduledCrashWindowFiresOnTime) {
  harness::LoNetwork net(net_cfg(8, 37));
  net.faults().crash_at(3 * sim::kSecond, 4, 2 * sim::kSecond);
  net.run_for(2.9);
  EXPECT_FALSE(net.node_down(4));
  net.run_for(0.2);
  EXPECT_TRUE(net.node_down(4));
  EXPECT_TRUE(net.faults().is_down(4));
  net.run_for(2.0);
  EXPECT_FALSE(net.node_down(4));
  EXPECT_EQ(net.faults().crashes_injected(), 1u);
  EXPECT_EQ(net.faults().restarts_injected(), 1u);
}

TEST(Chaos, DeterministicReplay) {
  // The full chaos machinery — churn, flaky links, latency spikes, crash
  // recovery — must replay bit-for-bit from the (network, workload) seeds.
  auto run = [] {
    harness::LoNetwork net(net_cfg(12, 41));
    net.start_invariant_checker(sim::kSecond);
    auto& faults = net.faults();
    faults.flaky_link(1, 2, sim::kSecond, 10 * sim::kSecond, 0.4);
    faults.latency_spike(3 * sim::kSecond, 6 * sim::kSecond, 3.0);
    sim::ChurnConfig churn;
    churn.mean_gap = 3 * sim::kSecond;
    churn.max_concurrent_down = 2;
    churn.wipe_mempool = true;
    net.start_churn(churn);
    net.start_workload(load_cfg(8.0, 43));
    net.run_for(20.0);
    net.stop_churn();
    net.stop_workload();
    net.run_for(30.0);
    std::vector<std::size_t> pools;
    for (std::size_t i = 0; i < net.size(); ++i) {
      pools.push_back(net.node(i).mempool_size());
    }
    auto total = [&net](const char* name) {
      return test::counter_total(net.sim(), name);
    };
    return std::tuple{net.txs_injected(),
                      net.sim().bandwidth().total_bytes(),
                      pools,
                      net.faults().crashes_injected(),
                      net.faults().link_drops(),
                      total("lo.retries_sent"),
                      total("lo.timeouts_fired"),
                      total("lo.suspicions_raised"),
                      net.suspicion_events().size()};
  };
  EXPECT_EQ(run(), run());
}

TEST(Chaos, InvariantSweepIsCleanOnHealthyNetwork) {
  harness::LoNetwork net(net_cfg(8, 47));
  net.start_workload(load_cfg(5.0, 53));
  net.run_for(8.0);
  EXPECT_TRUE(net.check_invariants().empty());
  EXPECT_TRUE(net.invariant_violations().empty());
}

TEST(Chaos, PreCrashTimersNeverFireIntoNewIncarnation) {
  // Regression: request/retry timers armed before a crash must be dead on
  // arrival after restart() — the epoch bump has to swallow them, or a
  // restarted node would fire timeouts (and potentially suspicions) that
  // belong to its previous life.
  harness::LoNetwork net(net_cfg(6, 61));
  // Total blackout: every sync request stays pending, arming full retry
  // chains (timers due up to ~15 s out) on every node.
  net.sim().set_delivery_filter(
      [](core::NodeId, core::NodeId) { return false; });
  net.run_for(3.0);
  auto node0 = [&net](const char* name) {
    return test::node_counter(net.sim(), name, 0);
  };
  auto suppressed = [&net] {
    return net.sim().obs().registry.counter("sim.suppressed_callbacks");
  };
  ASSERT_GT(node0("lo.requests_sent"), 0u);
  ASSERT_GT(node0("lo.timeouts_fired"), 0u);

  // Heal the network, then bounce node 0. All its pre-crash timers are still
  // scheduled inside the simulator — they must all hit the epoch wall.
  net.sim().set_delivery_filter(nullptr);
  const auto suppressed_before = suppressed();
  net.crash_node(0);
  net.restart_node(0);
  const auto timeouts_at_restart = node0("lo.timeouts_fired");
  net.run_for(20.0);  // past every pre-crash retry deadline
  EXPECT_GT(suppressed(), suppressed_before)
      << "stale pre-crash timers must be suppressed, not silently dropped";
  // Post-restart the network is healthy: every request node 0 arms is
  // answered well inside its timeout, so any timeout increment would have to
  // come from a pre-crash timer leaking into the new incarnation.
  EXPECT_EQ(node0("lo.timeouts_fired"), timeouts_at_restart);
  EXPECT_EQ(node0("lo.suspicions_raised"), 0u);
}

// ------------------------------------------------- membership-enabled runs ----

// Membership timing used by the chaos scenarios: constant 50 ms latency keeps
// the direct probe RTT (100 ms) inside the ping timeout, and the period leaves
// room for the full indirect round (timeout + four 50 ms hops = 320 ms) so a
// reachable peer is never suspected merely because only the proxy path works.
harness::NetworkConfig membership_cfg(std::size_t n, std::uint64_t seed) {
  auto cfg = net_cfg(n, seed);
  cfg.city_latency = false;
  cfg.node.membership.enabled = true;
  cfg.node.membership.protocol_period = 500 * sim::kMillisecond;
  cfg.node.membership.ping_timeout = 120 * sim::kMillisecond;
  return cfg;
}

TEST(Chaos, MembershipConfirmsCrashAndAbsolvesTimeouts) {
  auto cfg = membership_cfg(16, 71);
  harness::LoNetwork net(cfg);
  net.start_invariant_checker(sim::kSecond);
  net.start_workload(load_cfg(5.0, 73));
  net.run_for(5.0);
  ASSERT_NE(net.node(0).swim(), nullptr);

  net.crash_node(3);
  // Worst-case first probe: one full rotation (n-1 periods); then the
  // suspicion window (suspicion_periods periods) plus dissemination slack.
  const double bound_s =
      sim::to_seconds(cfg.node.membership.protocol_period) *
      (static_cast<double>(cfg.num_nodes) +
       cfg.node.membership.suspicion_periods + 8);
  net.run_for(bound_s + 15.0);  // also past the pre-confirm retry chains

  std::size_t confirms = 0;
  for (std::size_t i = 0; i < net.size(); ++i) {
    if (i == 3) continue;
    ASSERT_NE(net.node(i).swim(), nullptr) << "node " << i;
    if (net.node(i).swim()->confirmed_faulty(3)) ++confirms;
  }
  EXPECT_EQ(confirms, net.size() - 1)
      << "every live node must confirm the crashed one";
  ASSERT_GT(net.membership_detection_latency().count(), 0u);
  for (double s : net.membership_detection_latency().values()) {
    EXPECT_LE(s, bound_s) << "detection latency must be bounded";
  }
  // Accuracy in a loss-free run: the only member ever suspected or confirmed
  // anywhere is the node that actually crashed.
  for (const auto& ev : net.member_events()) {
    if (ev.state != membership::MemberState::kAlive) {
      EXPECT_EQ(ev.member, 3u) << "false " << member_state_name(ev.state)
                               << " of live node " << ev.member;
    }
  }
  // Liveness/misbehavior separation: request timeouts that expired after the
  // detector confirmed the crash were absolved instead of raising blame.
  std::uint64_t absolved = 0;
  for (std::size_t i = 0; i < net.size(); ++i) {
    absolved += net.node(i).suspicions_absolved();
  }
  EXPECT_GT(absolved, 0u);
  EXPECT_TRUE(net.invariant_violations().empty());

  // Rejoin: the restarted node announces a strictly higher incarnation,
  // which overrides confirmed everywhere — no manual membership reset.
  net.restart_node(3);
  net.run_for(15.0);
  EXPECT_GT(net.node(3).member_incarnation(), 0u);
  for (std::size_t i = 0; i < net.size(); ++i) {
    if (i == 3) continue;
    EXPECT_TRUE(net.node(i).swim()->presumed_live(3))
        << "node " << i << " still thinks the rejoined node is faulty";
  }
}

TEST(Chaos, AsymmetricPartitionCausesNoMembershipSuspicion) {
  // One-way loss 2 -> 9: pings from 2 die, acks from 9 die, but every
  // indirect path is intact. SWIM's ping-req round must mask the broken
  // direction completely — neither endpoint may ever be suspected, let alone
  // confirmed, by anyone.
  auto cfg = membership_cfg(12, 79);
  harness::LoNetwork net(cfg);
  net.start_invariant_checker(sim::kSecond);
  net.faults().flaky_link(2, 9, 0, 40 * sim::kSecond, 1.0,
                          /*bidirectional=*/false);
  net.start_workload(load_cfg(4.0, 83));
  net.run_for(30.0);
  net.stop_workload();
  net.run_for(30.0);  // link heals at 40 s; accountability drains after

  for (const auto& ev : net.member_events()) {
    EXPECT_EQ(ev.state, membership::MemberState::kAlive)
        << "membership " << member_state_name(ev.state) << " of node "
        << ev.member << " under a one-way link";
  }
  // The accountability layer may transiently blame across the broken
  // direction (requests really were lost) but must retract once the link
  // heals and the logs reconverge; nothing hardens into exposure.
  for (std::size_t i = 0; i < net.size(); ++i) {
    EXPECT_TRUE(net.node(i).registry().exposed().empty()) << "node " << i;
    for (std::size_t j = 0; j < net.size(); ++j) {
      EXPECT_FALSE(net.node(i).registry().is_suspected(
          static_cast<core::NodeId>(j)))
          << i << " still suspects " << j;
    }
  }
  EXPECT_TRUE(net.invariant_violations().empty());
}

TEST(Chaos, FlappingPeerRejoinsWithGrowingIncarnation) {
  auto cfg = membership_cfg(10, 89);
  harness::LoNetwork net(cfg);
  net.start_invariant_checker(sim::kSecond);
  net.start_workload(load_cfg(4.0, 97));
  net.run_for(3.0);
  // Five down/up cycles, each long enough for suspicion to set in but short
  // enough that confirms and rejoins interleave aggressively.
  for (int cycle = 0; cycle < 5; ++cycle) {
    net.crash_node(7);
    net.run_for(3.0);
    net.restart_node(7);
    net.run_for(3.0);
  }
  net.stop_workload();
  net.run_for(25.0);

  // The durable incarnation grew monotonically across the flaps (one bump
  // per restart, plus any refutations of in-flight suspicions).
  EXPECT_GE(net.node(7).member_incarnation(), 5u);
  for (std::size_t i = 0; i < net.size(); ++i) {
    if (i == 7) continue;
    EXPECT_TRUE(net.node(i).swim()->presumed_live(7)) << "node " << i;
    EXPECT_TRUE(net.node(i).registry().exposed().empty()) << "node " << i;
  }
  // No stale confirm of the flapper may survive the final rejoin, and no
  // live node was ever suspected or confirmed.
  for (const auto& ev : net.member_events()) {
    if (ev.state != membership::MemberState::kAlive) {
      EXPECT_EQ(ev.member, 7u);
    }
  }
  EXPECT_TRUE(net.invariant_violations().empty());
}

TEST(Chaos, MassChurnWithMembershipStaysAccurateAndConverges) {
  // 20% of the network flapping at once: the detector must track each life
  // cycle without ever confirming a node that never crashed, and the mempool
  // must still converge once the churn stops.
  auto cfg = membership_cfg(20, 101);
  harness::LoNetwork net(cfg);
  net.start_invariant_checker(sim::kSecond);
  net.start_workload(load_cfg(6.0, 103));
  sim::ChurnConfig churn;
  churn.mean_gap = sim::kSecond;
  churn.min_down = 2 * sim::kSecond;
  churn.max_down = 6 * sim::kSecond;
  churn.max_concurrent_down = 4;  // 20% of 20 nodes
  net.start_churn(churn);
  net.run_for(30.0);
  EXPECT_GT(net.faults().crashes_injected(), 5u);
  net.stop_churn();
  net.stop_workload();
  net.run_for(90.0);
  EXPECT_EQ(net.faults().down_count(), 0u);

  // Accuracy under churn: anything beyond alive only ever hit nodes that
  // really crashed at some point.
  for (const auto& ev : net.member_events()) {
    if (ev.state != membership::MemberState::kAlive) {
      EXPECT_TRUE(net.ever_crashed(ev.member))
          << "node " << ev.member << " was "
          << member_state_name(ev.state) << " but never crashed";
    }
  }
  // Convergence: everyone is presumed alive again and holds the full set.
  const auto total = net.txs_injected();
  ASSERT_GT(total, 50u);
  for (std::size_t i = 0; i < net.size(); ++i) {
    EXPECT_EQ(net.node(i).mempool_size(), total) << "node " << i;
    EXPECT_TRUE(net.node(i).registry().exposed().empty()) << "node " << i;
    for (std::size_t j = 0; j < net.size(); ++j) {
      if (i == j) continue;
      EXPECT_TRUE(net.node(i).swim()->presumed_live(
          static_cast<core::NodeId>(j)))
          << i << " still distrusts " << j;
    }
  }
  EXPECT_TRUE(net.invariant_violations().empty());
}

TEST(Chaos, MembershipScalesToThousandNodes) {
  // The scalability claim: detection latency is governed by protocol periods,
  // not by per-peer request timeouts — at n=1000 a single crash is confirmed
  // network-wide within a bounded number of periods, and a loss-free run
  // produces zero false suspicion. No workload: this isolates the
  // SWIM traffic itself.
  auto cfg = membership_cfg(1000, 107);
  cfg.node.membership.protocol_period = sim::kSecond;
  cfg.node.membership.ping_timeout = 300 * sim::kMillisecond;
  harness::LoNetwork net(cfg);
  net.run_for(3.0);
  net.crash_node(123);
  // With 999 independent probers the first probe of the victim lands within
  // a couple of periods; the suspicion window plus gossip spread bounds the
  // rest. 25 periods is generous and still far below the ~999-period bound
  // a single prober would need.
  net.run_for(25.0);

  std::size_t confirms = 0;
  for (std::size_t i = 0; i < net.size(); ++i) {
    if (i == 123) continue;
    if (net.node(i).swim()->confirmed_faulty(123)) ++confirms;
  }
  EXPECT_EQ(confirms, net.size() - 1);
  for (const auto& ev : net.member_events()) {
    if (ev.state != membership::MemberState::kAlive) {
      EXPECT_EQ(ev.member, 123u)
          << "false " << member_state_name(ev.state) << " at scale";
    }
  }
  EXPECT_TRUE(net.check_invariants().empty());
}

// ---------------------------------------------- cross-shard accountability ----

TEST(Chaos, CrossShardCensorIsSuspectedDespiteHonestShards) {
  // A Byzantine node censors exactly one of four shards while serving the
  // other three honestly (DESIGN.md §7). The per-shard coverage watches must
  // converge on suspicion anyway, and the content-acknowledgement resolution
  // path — which the honest shards keep exercising — must NOT lift the
  // complaint: only shard snapshots the suspect's own commitments dominate
  // resolve, and the censored shard's never does.
  auto cfg = net_cfg(12, 211, /*malicious_fraction=*/0.08);  // exactly 1 node
  cfg.node.mempool_shards = 4;
  cfg.malicious.censor_shard = 2;
  harness::LoNetwork net(cfg);
  ASSERT_EQ(net.malicious_count(), 1u);
  net.start_invariant_checker(sim::kSecond);
  net.start_workload(load_cfg(20.0, 213));
  net.run_for(45.0);
  net.stop_workload();
  net.run_for(15.0);

  std::size_t bad = net.size();
  for (std::size_t i = 0; i < net.size(); ++i) {
    if (net.malicious_mask()[i]) bad = i;
  }
  ASSERT_LT(bad, net.size());
  const auto bad_id = static_cast<core::NodeId>(bad);

  // Detection converges network-wide and within the run.
  const auto times = net.detection_times();
  EXPECT_GE(times.suspicion_complete_s, 0.0)
      << "not every correct node suspected the cross-shard censor";
  EXPECT_LT(times.suspicion_complete_s, 45.0);
  const double first = first_suspicion_of(net, bad_id);
  EXPECT_GE(first, 0.0);

  for (std::size_t i = 0; i < net.size(); ++i) {
    if (i == bad) continue;
    // The complaint survives the censor's honest service in shards 0/1/3.
    EXPECT_TRUE(net.node(i).registry().is_suspected(bad_id))
        << "node " << i << " let honest service in other shards lift the "
        << "censored shard's complaint";
    // Accuracy: suspicion only; censorship without a block leaves no
    // transferable evidence, so the censor must not be *exposed* — and no
    // correct node may be blamed at all.
    EXPECT_FALSE(net.node(i).registry().is_exposed(bad_id));
    for (core::NodeId s : util::sorted_keys(net.node(i).registry().suspected())) {
      EXPECT_EQ(s, bad_id) << "correct node " << s << " falsely suspected";
    }
  }

  // The attack itself worked as configured: the censor's honest shard logs
  // track the workload while its censored shard log stays empty of foreign
  // transactions (it committed only what it originated, if anything).
  std::size_t honest_total = 0;
  for (std::uint32_t s : {0u, 1u, 3u}) {
    honest_total += net.node(bad).log(s).count();
  }
  EXPECT_GT(honest_total, 0u) << "censor should participate in other shards";
  for (const auto& id : net.node(bad).log(2).order()) {
    EXPECT_TRUE(net.node(bad).has_tx(id));
  }
  EXPECT_TRUE(net.invariant_violations().empty());
}

TEST(Chaos, EquivocationInAnyShardExposesGlobally) {
  // Composable accountability (DESIGN.md §7): equivocation evidence is
  // shard-local (two conflicting headers of the SAME shard log), but a peer
  // exposed in any shard is exposed everywhere — the registry's exposed set
  // is global, so one forked shard burns the identity for all shards.
  auto cfg = net_cfg(16, 223, /*malicious_fraction=*/0.06);  // 1 node
  cfg.node.mempool_shards = 4;
  cfg.malicious.equivocate = true;
  harness::LoNetwork net(cfg);
  ASSERT_EQ(net.malicious_count(), 1u);
  net.start_workload(load_cfg(15.0, 227));
  net.run_for(40.0);

  const auto times = net.detection_times();
  EXPECT_GE(times.exposure_complete_s, 0.0)
      << "sharded equivocator not exposed at every correct node";
  EXPECT_GE(times.first_exposure_s, 0.0);
  EXPECT_LE(times.first_exposure_s, times.exposure_complete_s);
}

}  // namespace
}  // namespace lo
