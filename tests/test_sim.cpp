// Discrete-event simulator tests: event ordering, latency models, bandwidth
// accounting, message loss, delivery filters, metrics.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "crypto/sha256.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "util/hex.hpp"

namespace lo::sim {
namespace {

struct TestPayload final : Payload {
  explicit TestPayload(std::size_t size = 100, int tag = 0)
      : size_(size), tag_(tag) {}
  const char* type_name() const noexcept override { return "test.msg"; }
  std::size_t wire_size() const noexcept override { return size_; }
  std::size_t size_;
  int tag_;
};

struct RecordingNode final : INode {
  void on_start() override { started = true; }
  void on_message(NodeId from, const PayloadPtr& msg) override {
    senders.push_back(from);
    tags.push_back(dynamic_cast<const TestPayload&>(*msg).tag_);
  }
  bool started = false;
  std::vector<NodeId> senders;
  std::vector<int> tags;
};

TEST(Simulator, TimersFireInOrder) {
  Simulator sim(1);
  std::vector<int> order;
  sim.schedule(300, [&] { order.push_back(3); });
  sim.schedule(100, [&] { order.push_back(1); });
  sim.schedule(200, [&] { order.push_back(2); });
  sim.run_until(1000);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 1000);
}

TEST(Simulator, SimultaneousEventsFifo) {
  Simulator sim(1);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(500, [&order, i] { order.push_back(i); });
  }
  sim.run_until(1000);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, StartCallsEveryNodeOnce) {
  Simulator sim(1);
  RecordingNode a, b;
  sim.add_node(&a);
  sim.add_node(&b);
  sim.run_until(1);
  EXPECT_TRUE(a.started);
  EXPECT_TRUE(b.started);
}

TEST(Simulator, MessageDeliveredWithLatency) {
  Simulator sim(1);
  sim.set_latency_model(std::make_shared<ConstantLatency>(250));
  RecordingNode a, b;
  const NodeId ida = sim.add_node(&a);
  const NodeId idb = sim.add_node(&b);
  sim.start();
  sim.send(ida, idb, std::make_shared<TestPayload>(64, 7));
  sim.run_until(249);
  EXPECT_TRUE(b.senders.empty());
  sim.run_until(250);
  ASSERT_EQ(b.senders.size(), 1u);
  EXPECT_EQ(b.senders[0], ida);
  EXPECT_EQ(b.tags[0], 7);
}

TEST(Simulator, BandwidthChargedToSenderByClass) {
  Simulator sim(1);
  RecordingNode a, b;
  const NodeId ida = sim.add_node(&a);
  const NodeId idb = sim.add_node(&b);
  sim.start();
  sim.send(ida, idb, std::make_shared<TestPayload>(111));
  sim.send(ida, idb, std::make_shared<TestPayload>(222));
  sim.run_until(sim::kSecond);
  EXPECT_EQ(sim.bandwidth().sent_by(ida), 333u);
  EXPECT_EQ(sim.bandwidth().sent_by(idb), 0u);
  EXPECT_EQ(sim.bandwidth().total_bytes(), 333u);
  EXPECT_EQ(sim.bandwidth().total_messages(), 2u);
  const auto& cls = sim.bandwidth().by_class();
  ASSERT_TRUE(cls.count("test.msg"));
  EXPECT_EQ(cls.at("test.msg").bytes, 333u);
}

TEST(Simulator, BytesExcludingFiltersClasses) {
  BandwidthAccountant acc;
  acc.reset(2);
  acc.record(0, "a", 100);
  acc.record(0, "b", 50);
  acc.record(1, "c", 7);
  EXPECT_EQ(acc.bytes_excluding({"b"}), 107u);
  EXPECT_EQ(acc.bytes_excluding({"a", "c"}), 50u);
  EXPECT_EQ(acc.bytes_excluding({}), 157u);
}

TEST(Simulator, DropProbabilityOneDropsAll) {
  Simulator sim(1);
  sim.set_latency_model(std::make_shared<ConstantLatency>(10));
  sim.set_drop_probability(1.0);
  RecordingNode a, b;
  const NodeId ida = sim.add_node(&a);
  const NodeId idb = sim.add_node(&b);
  sim.start();
  for (int i = 0; i < 20; ++i) sim.send(ida, idb, std::make_shared<TestPayload>());
  sim.run_until(kSecond);
  EXPECT_TRUE(b.senders.empty());
  // Bandwidth is still charged: the bytes left the sender.
  EXPECT_EQ(sim.bandwidth().total_messages(), 20u);
}

TEST(Simulator, DeliveryFilterPartitions) {
  Simulator sim(1);
  sim.set_latency_model(std::make_shared<ConstantLatency>(10));
  RecordingNode a, b, c;
  const NodeId ida = sim.add_node(&a);
  const NodeId idb = sim.add_node(&b);
  const NodeId idc = sim.add_node(&c);
  sim.set_delivery_filter([idb](NodeId, NodeId to) { return to != idb; });
  sim.start();
  sim.send(ida, idb, std::make_shared<TestPayload>());
  sim.send(ida, idc, std::make_shared<TestPayload>());
  sim.run_until(kSecond);
  EXPECT_TRUE(b.senders.empty());
  EXPECT_EQ(c.senders.size(), 1u);
}

TEST(Simulator, SendToUnknownNodeThrows) {
  Simulator sim(1);
  RecordingNode a;
  const NodeId ida = sim.add_node(&a);
  EXPECT_THROW(sim.send(ida, 99, std::make_shared<TestPayload>()),
               std::out_of_range);
}

TEST(Simulator, DeterministicEventCount) {
  auto run = [] {
    Simulator sim(42);
    RecordingNode a, b;
    const NodeId ida = sim.add_node(&a);
    const NodeId idb = sim.add_node(&b);
    sim.set_latency_model(std::make_shared<ConstantLatency>(100));
    sim.start();
    for (int i = 0; i < 50; ++i) sim.send(ida, idb, std::make_shared<TestPayload>());
    return sim.run_until(kSecond);
  };
  EXPECT_EQ(run(), run());
}

// --------------------------------------------- delivery-edge semantics ----

TEST(Simulator, DeliveryFilterEvaluatedAtSendTimeNotDeliveryTime) {
  // The filter decides a message's fate when it is SENT. Healing a partition
  // while a dropped message would still have been in flight must not
  // resurrect it, and cutting the link under an in-flight message must not
  // destroy it.
  Simulator sim(1);
  sim.set_latency_model(std::make_shared<ConstantLatency>(1000));
  RecordingNode a, b;
  const NodeId ida = sim.add_node(&a);
  const NodeId idb = sim.add_node(&b);
  bool blocked = true;
  sim.set_delivery_filter([&blocked](NodeId, NodeId) { return !blocked; });
  sim.start();

  sim.send(ida, idb, std::make_shared<TestPayload>(64, 1));  // dropped at send
  sim.run_until(500);
  blocked = false;  // heal mid-flight: too late for tag 1
  sim.send(ida, idb, std::make_shared<TestPayload>(64, 2));  // passes at send
  sim.run_until(1200);
  blocked = true;  // cut mid-flight: tag 2 is already committed to deliver
  sim.run_until(3000);
  ASSERT_EQ(b.tags.size(), 1u);
  EXPECT_EQ(b.tags[0], 2);
}

TEST(Simulator, RunUntilAdvancesClockOnEmptyQueue) {
  Simulator sim(1);
  EXPECT_EQ(sim.run_until(5000), 0u);  // no events at all
  EXPECT_EQ(sim.now(), 5000);
  // A later horizon keeps advancing; time never runs backwards.
  sim.run_until(6000);
  EXPECT_EQ(sim.now(), 6000);
  sim.run_until(100);
  EXPECT_EQ(sim.now(), 6000);
}

TEST(Simulator, SimultaneousSendAndTimerInterleaveFifo) {
  // Events with equal timestamps fire in insertion order regardless of kind
  // (timer vs delivery) — the tie-break is the global sequence number.
  Simulator sim(1);
  sim.set_latency_model(std::make_shared<ConstantLatency>(100));
  std::vector<int> order;
  struct Sink final : INode {
    explicit Sink(std::vector<int>& o) : order(&o) {}
    void on_message(NodeId, const PayloadPtr& msg) override {
      order->push_back(dynamic_cast<const TestPayload&>(*msg).tag_);
    }
    std::vector<int>* order;
  };
  Sink sink(order);
  const NodeId src = sim.add_node(&sink);
  const NodeId dst = sim.add_node(&sink);
  sim.start();
  sim.send(src, dst, std::make_shared<TestPayload>(8, 10));  // arrives t=100
  sim.schedule(100, [&order] { order.push_back(20); });
  sim.send(src, dst, std::make_shared<TestPayload>(8, 30));  // arrives t=100
  sim.run_until(200);
  EXPECT_EQ(order, (std::vector<int>{10, 20, 30}));
}

TEST(Simulator, DownSenderDropsWithoutBandwidthCharge) {
  Simulator sim(1);
  sim.set_latency_model(std::make_shared<ConstantLatency>(10));
  RecordingNode a, b;
  const NodeId ida = sim.add_node(&a);
  const NodeId idb = sim.add_node(&b);
  sim.start();
  sim.set_node_up(ida, false);
  sim.send(ida, idb, std::make_shared<TestPayload>());
  sim.run_until(kSecond);
  EXPECT_TRUE(b.senders.empty());
  EXPECT_EQ(sim.bandwidth().total_messages(), 0u)
      << "a dead host emits no bytes";
  EXPECT_EQ(sim.obs().registry.counter("sim.dropped_sender_down"), 1u);
}

TEST(Simulator, InFlightMessageToCrashedReceiverIsLost) {
  // Receiver liveness is checked at DELIVERY time: packets racing toward a
  // host that dies mid-flight land on a dead machine.
  Simulator sim(1);
  sim.set_latency_model(std::make_shared<ConstantLatency>(1000));
  RecordingNode a, b;
  const NodeId ida = sim.add_node(&a);
  const NodeId idb = sim.add_node(&b);
  sim.start();
  sim.send(ida, idb, std::make_shared<TestPayload>(64, 1));
  sim.run_until(500);
  sim.set_node_up(idb, false);  // dies with the packet halfway
  sim.run_until(2000);
  EXPECT_TRUE(b.tags.empty());
  EXPECT_EQ(sim.obs().registry.counter("sim.dropped_receiver_down"), 1u);
  // Bandwidth was charged: the bytes did leave the sender.
  EXPECT_EQ(sim.bandwidth().total_messages(), 1u);

  // A receiver that restarts before delivery DOES get the message.
  sim.send(ida, idb, std::make_shared<TestPayload>(64, 2));
  sim.set_node_up(idb, true);
  sim.run_until(4000);
  ASSERT_EQ(b.tags.size(), 1u);
  EXPECT_EQ(b.tags[0], 2);
}

TEST(Simulator, ScheduleForSuppressedAcrossEpochs) {
  Simulator sim(1);
  RecordingNode a;
  const NodeId ida = sim.add_node(&a);
  sim.start();
  int fired = 0;
  sim.schedule_for(ida, 100, [&fired] { ++fired; });   // epoch 0, fires
  sim.run_until(200);
  EXPECT_EQ(fired, 1);

  sim.schedule_for(ida, 100, [&fired] { ++fired; });   // armed in epoch 0
  sim.set_node_up(ida, false);                         // epoch -> 1
  sim.run_until(400);
  EXPECT_EQ(fired, 1) << "timer owned by a down node must not fire";

  sim.set_node_up(ida, true);                          // still epoch 1
  sim.schedule_for(ida, 100, [&fired] { ++fired; });   // armed in epoch 1
  sim.run_until(600);
  EXPECT_EQ(fired, 2) << "only the new incarnation's timers fire";
  EXPECT_EQ(sim.obs().registry.counter("sim.suppressed_callbacks"), 1u);
}

TEST(Simulator, FaultFilterComposesWithDeliveryFilter) {
  // The fault filter (used by FaultInjector) is a second, independent veto:
  // a message passes only if BOTH filters allow it, and drops are counted.
  Simulator sim(1);
  sim.set_latency_model(std::make_shared<ConstantLatency>(10));
  RecordingNode a, b, c;
  const NodeId ida = sim.add_node(&a);
  const NodeId idb = sim.add_node(&b);
  const NodeId idc = sim.add_node(&c);
  sim.set_delivery_filter([idb](NodeId, NodeId to) { return to != idb; });
  sim.set_fault_filter([idc](NodeId, NodeId to) { return to != idc; });
  sim.start();
  sim.send(ida, idb, std::make_shared<TestPayload>());
  sim.send(ida, idc, std::make_shared<TestPayload>());
  sim.send(idb, ida, std::make_shared<TestPayload>());
  sim.run_until(kSecond);
  EXPECT_TRUE(b.senders.empty());
  EXPECT_TRUE(c.senders.empty());
  EXPECT_EQ(a.senders.size(), 1u);
  EXPECT_EQ(sim.obs().registry.counter("sim.dropped_by_fault_filter"), 1u);
}

TEST(Simulator, LatencyShaperStretchesDelivery) {
  Simulator sim(1);
  sim.set_latency_model(std::make_shared<ConstantLatency>(100));
  RecordingNode a, b;
  const NodeId ida = sim.add_node(&a);
  const NodeId idb = sim.add_node(&b);
  sim.set_latency_shaper(
      [](NodeId, NodeId, Duration base) { return base * 5; });
  sim.start();
  sim.send(ida, idb, std::make_shared<TestPayload>(64, 9));
  sim.run_until(499);
  EXPECT_TRUE(b.tags.empty());
  sim.run_until(500);
  ASSERT_EQ(b.tags.size(), 1u);
}

TEST(Simulator, NodeUpQueriesAndDownCount) {
  Simulator sim(1);
  RecordingNode a, b;
  const NodeId ida = sim.add_node(&a);
  sim.add_node(&b);
  EXPECT_TRUE(sim.node_up(ida));
  // Read side matches the write side: unknown ids throw instead of being
  // presumed up/epoch-0 (regression — out-of-range senders used to pass the
  // liveness check).
  EXPECT_THROW(sim.node_up(999), std::out_of_range);
  EXPECT_THROW(sim.node_epoch(999), std::out_of_range);
  EXPECT_EQ(sim.down_count(), 0u);
  sim.set_node_up(ida, false);
  EXPECT_FALSE(sim.node_up(ida));
  EXPECT_EQ(sim.down_count(), 1u);
  EXPECT_EQ(sim.node_epoch(ida), 1u);
  sim.set_node_up(ida, false);  // idempotent: no extra epoch bump
  EXPECT_EQ(sim.node_epoch(ida), 1u);
  sim.set_node_up(ida, true);
  EXPECT_EQ(sim.down_count(), 0u);
  EXPECT_EQ(sim.node_epoch(ida), 1u) << "epoch bumps on up->down only";
  EXPECT_THROW(sim.set_node_up(999, false), std::out_of_range);
}

TEST(Simulator, SendFromUnknownSenderThrows) {
  // Regression: send() validated `to` but not `from`, so an out-of-range
  // sender slipped past the liveness check into the bandwidth table.
  Simulator sim(1);
  RecordingNode a;
  const NodeId ida = sim.add_node(&a);
  EXPECT_THROW(sim.send(99, ida, std::make_shared<TestPayload>()),
               std::out_of_range);
  EXPECT_EQ(sim.bandwidth().total_bytes(), 0u);
}

TEST(Simulator, ScheduleForUnknownOwnerThrows) {
  // Regression: an out-of-range owner used to silently degrade to an
  // unpinned plain schedule() — a timer that would survive any crash.
  Simulator sim(1);
  RecordingNode a;
  sim.add_node(&a);
  EXPECT_THROW(sim.schedule_for(99, 10, [] {}), std::out_of_range);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, RunUntilPastHorizonIsNoOp) {
  Simulator sim(1);
  std::size_t fired = 0;
  sim.schedule(100, [&] { ++fired; });
  sim.run_until(1000);
  EXPECT_EQ(fired, 1u);
  EXPECT_EQ(sim.now(), 1000);
  // A horizon in the past executes nothing and never rewinds the clock.
  sim.schedule(50, [&] { ++fired; });  // at t=1050, beyond the past horizon
  EXPECT_EQ(sim.run_until(500), 0u);
  EXPECT_EQ(fired, 1u);
  EXPECT_EQ(sim.now(), 1000);
  EXPECT_EQ(sim.pending_events(), 1u);
  // The event is still intact and fires once the horizon really advances.
  sim.run_until(2000);
  EXPECT_EQ(fired, 2u);
  EXPECT_EQ(sim.now(), 2000);
}

TEST(Simulator, StepMatchesRunUntil) {
  // Stepping one event at a time traverses exactly the order run_until uses.
  auto drive = [](bool use_step) {
    Simulator sim(7);
    sim.set_latency_model(std::make_shared<ConstantLatency>(75));
    RecordingNode a, b;
    const NodeId ida = sim.add_node(&a);
    const NodeId idb = sim.add_node(&b);
    sim.start();
    for (int i = 0; i < 5; ++i) {
      sim.send(ida, idb, std::make_shared<TestPayload>(32, i));
      sim.send(idb, ida, std::make_shared<TestPayload>(32, 100 + i));
      sim.schedule(50 * (i + 1), [] {});
    }
    std::size_t processed = 0;
    if (use_step) {
      while (sim.step()) ++processed;
    } else {
      processed = sim.run_until(10 * kSecond);
    }
    std::vector<int> tags = a.tags;
    tags.insert(tags.end(), b.tags.begin(), b.tags.end());
    return std::make_pair(processed, tags);
  };
  const auto stepped = drive(true);
  const auto ran = drive(false);
  EXPECT_EQ(stepped.first, ran.first);
  EXPECT_EQ(stepped.second, ran.second);
}

// ------------------------------------------------------------- latency ----

TEST(CityLatency, SymmetricAndPositive) {
  CityLatencyModel m(0.0);
  const std::size_t n = CityLatencyModel::city_count();
  EXPECT_EQ(n, 32u);  // paper: 32 cities
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_EQ(m.base_us(i, j), m.base_us(j, i));
      EXPECT_GE(m.base_us(i, j), 0);
    }
  }
}

TEST(CityLatency, IntercontinentalSlowerThanRegional) {
  CityLatencyModel m(0.0);
  // Amsterdam(0) <-> London(18) vs Amsterdam <-> Sydney(29).
  EXPECT_LT(m.base_us(0, 18), m.base_us(0, 29));
  // London <-> Sydney should be in the high tens of ms one-way.
  EXPECT_GT(m.base_us(18, 29), 50 * kMillisecond);
  EXPECT_LT(m.base_us(18, 29), 400 * kMillisecond);
}

TEST(CityLatency, RoundRobinAssignmentAndFloor) {
  CityLatencyModel m(0.0);
  util::Rng rng(1);
  // Same city pair (0, 32) maps to cities (0, 0): floor applies.
  EXPECT_GE(m.latency_us(0, 32, rng), 200);
  // Deterministic without jitter.
  EXPECT_EQ(m.latency_us(3, 700, rng), m.latency_us(3, 700, rng));
}

TEST(CityLatency, JitterVariesLatency) {
  CityLatencyModel m(0.2);
  util::Rng rng(1);
  const auto a = m.latency_us(0, 5, rng);
  const auto b = m.latency_us(0, 5, rng);
  EXPECT_NE(a, b);
}

// ------------------------------------------------------------- metrics ----

TEST(Samples, SummaryStatistics) {
  Samples s;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 5.0);
  EXPECT_NEAR(s.stddev(), 1.5811, 1e-3);
}

TEST(Samples, EmptyIsSafe) {
  Samples s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.percentile(0.5), 0.0);
  EXPECT_TRUE(s.empty());
}

TEST(Samples, HistogramDensityIntegratesToOne) {
  Samples s;
  util::Rng rng(5);
  for (int i = 0; i < 10000; ++i) s.add(rng.next_double() * 10.0);
  const auto h = s.histogram(20, 0.0, 10.0);
  double integral = 0.0;
  for (const auto& bin : h) integral += bin.density * (bin.hi - bin.lo);
  EXPECT_NEAR(integral, 1.0, 1e-9);
}

TEST(Samples, HistogramIgnoresOutOfRange) {
  Samples s;
  s.add(-5.0);
  s.add(0.5);
  s.add(100.0);
  const auto h = s.histogram(2, 0.0, 1.0);
  EXPECT_EQ(h[0].count + h[1].count, 1u);
}

TEST(Samples, HistogramTopBinIncludesHi) {
  // Regression: samples exactly equal to hi were skipped by a `v >= hi`
  // guard even though the idx clamp was written to land them in the last
  // bin. Both range endpoints must be counted.
  Samples s;
  s.add(0.0);   // lo -> first bin
  s.add(1.0);   // hi -> last bin, not dropped
  s.add(0.25);  // interior control
  const auto h = s.histogram(4, 0.0, 1.0);
  EXPECT_EQ(h[0].count, 1u);
  EXPECT_EQ(h[1].count, 1u);
  EXPECT_EQ(h[3].count, 1u);
  std::size_t total = 0;
  for (const auto& b : h) total += b.count;
  EXPECT_EQ(total, 3u);
  // Slightly above hi still falls outside.
  s.add(1.0 + 1e-9);
  const auto h2 = s.histogram(4, 0.0, 1.0);
  std::size_t total2 = 0;
  for (const auto& b : h2) total2 += b.count;
  EXPECT_EQ(total2, 3u);
}

TEST(Samples, BadHistogramSpecThrows) {
  Samples s;
  EXPECT_THROW(s.histogram(0, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(s.histogram(4, 1.0, 1.0), std::invalid_argument);
}

// -------------------------------------------------------- per-node streams ----

TEST(Simulator, NodeRngStreamsAreIndependentAndStable) {
  // Streams derive from (seed, node id) alone: re-creating the simulator
  // reproduces them, distinct nodes get distinct streams, and drawing from
  // one stream never perturbs another.
  Simulator sim_a(5), sim_b(5);
  struct Nop final : INode {
    void on_message(NodeId, const PayloadPtr&) override {}
  } nop;
  for (int i = 0; i < 3; ++i) {
    sim_a.add_node(&nop);
    sim_b.add_node(&nop);
  }
  // Interleave draws in a, draw straight in b: per-node sequences match.
  std::vector<std::uint64_t> a0, a1, b0, b1;
  for (int i = 0; i < 4; ++i) {
    a0.push_back(sim_a.node_rng(0).next());
    a1.push_back(sim_a.node_rng(1).next());
  }
  for (int i = 0; i < 4; ++i) b0.push_back(sim_b.node_rng(0).next());
  for (int i = 0; i < 4; ++i) b1.push_back(sim_b.node_rng(1).next());
  EXPECT_EQ(a0, b0);
  EXPECT_EQ(a1, b1);
  EXPECT_NE(a0, a1) << "distinct nodes must not share a stream";
  EXPECT_THROW(sim_a.node_rng(99), std::out_of_range);
}

// ------------------------------------------------------ storm golden digest ----

struct GossipPayload final : Payload {
  GossipPayload(std::size_t size, int tag) : size_(size), tag_(tag) {}
  const char* type_name() const noexcept override { return "test.gossip"; }
  std::size_t wire_size() const noexcept override { return size_; }
  std::size_t size_;
  int tag_;
};

// A gossip storm over every surface of the event loop: epoch-pinned periodic
// timers, per-node RNG draws, dense sends, random message loss
// (sender-stream coins), a coordinator crash/restart whose timestamps
// coincide with node events (so coordinator-vs-node tie order matters), the
// receiver-down drop counter, timer suppression, and the tracer.
struct GossipNode final : INode {
  GossipNode(Simulator& sim, NodeId id, std::size_t n)
      : sim_(&sim), id_(id), n_(n) {}

  void on_start() override { arm(); }

  void arm() {
    const auto jitter = static_cast<Duration>(
        sim_->node_rng(id_).next_below(2 * kMillisecond));
    sim_->schedule_for(id_, 5 * kMillisecond + jitter, [this] { tick(); });
  }

  void tick() {
    ++ticks;
    const auto peer = static_cast<NodeId>(sim_->node_rng(id_).next_below(n_));
    if (peer != id_) {
      sim_->send(id_, peer, std::make_shared<GossipPayload>(64, 0));
    }
    sim_->send(id_, static_cast<NodeId>((id_ + 1) % n_),
               std::make_shared<GossipPayload>(48, 1));
    arm();
  }

  void on_message(NodeId from, const PayloadPtr& msg) override {
    ++received;
    if (dynamic_cast<const GossipPayload&>(*msg).tag_ == 1) {
      // One bounded reply hop, so deliveries themselves send.
      sim_->send(id_, from, std::make_shared<GossipPayload>(32, 2));
    }
  }

  Simulator* sim_;
  NodeId id_;
  std::size_t n_;
  std::uint64_t ticks = 0;
  std::uint64_t received = 0;
};

// Condenses a storm run into a SHA-256 over per-node counters, bandwidth
// totals, the binary trace and the registry export.
std::string storm_digest(std::uint64_t seed) {
  constexpr std::size_t kNodes = 24;
  Simulator sim(seed);
  sim.obs().tracer.enable(true);
  sim.set_latency_model(std::make_shared<ConstantLatency>(3 * kMillisecond));
  sim.set_drop_probability(0.05);
  std::vector<std::unique_ptr<GossipNode>> nodes;
  for (std::size_t i = 0; i < kNodes; ++i) {
    nodes.push_back(
        std::make_unique<GossipNode>(sim, static_cast<NodeId>(i), kNodes));
    sim.add_node(nodes.back().get());
  }
  // Node 3 loses its in-flight traffic and its pinned timers for 80 ms.
  sim.schedule(200 * kMillisecond, [&sim] { sim.set_node_up(3, false); });
  sim.schedule(280 * kMillisecond, [&sim, &nodes] {
    sim.set_node_up(3, true);
    nodes[3]->arm();  // restart re-arms under the new epoch
  });
  sim.run_until(250 * kMillisecond);
  sim.run_until(500 * kMillisecond);

  std::ostringstream out;
  out << sim.now() << '|';
  for (const auto& n : nodes) out << n->ticks << ',' << n->received << ';';
  out << '|' << sim.bandwidth().total_messages() << ','
      << sim.bandwidth().total_bytes() << '|'
      << util::to_hex(sim.obs().tracer.bytes()) << '|'
      << sim.obs().registry.to_json("storm");
  return util::to_hex(crypto::sha256(out.str()));
}

// Pins the event loop itself: the (at, seq) order, the key scheme and the
// span ids derived from it. The LØ-level goldens in test_determinism cover
// this only through the protocol; a change to tie-breaking between
// coordinator and node events at one timestamp fails here first.
TEST(Simulator, GossipStormGoldenDigest) {
  EXPECT_EQ(storm_digest(11),
            "5e8815eafbe0bd1615614ba5734add1a8256eb7e6dca87805c2484930841dddc");
  EXPECT_EQ(storm_digest(13),
            "8127ec528ea577c05f32955a0e77001d6057454fdb98267d8224fcdf4611bf5e");
}

}  // namespace
}  // namespace lo::sim
