// Network<NodeT> — the one experiment harness: simulator + latency model +
// overlay topology + one NodeT per id + Poisson workload + anomaly monitor +
// mempool-latency samples. LØ (harness::LoNetwork) and the Sec. 6.4
// baselines (Flood, PeerReview, Narwhal) all run on it, so the Fig. 9
// bandwidth comparison holds every condition but the protocol fixed.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/node.hpp"  // for core::Hooks
#include "harness/anomaly.hpp"
#include "overlay/topology.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "workload/txgen.hpp"

namespace lo::harness {

// The settings every network shares; NetworkConfig adds LØ's own.
struct NetConfig {
  std::size_t num_nodes = 64;
  std::uint64_t seed = 1;

  overlay::TopologyConfig topology;

  // Latency model: true = 32-city geographic model (paper setup); false =
  // constant latency (useful for deterministic unit tests).
  bool city_latency = true;
  sim::Duration constant_latency = 50 * sim::kMillisecond;

  // Observability: enable the simulator's deterministic event tracer before
  // any node is constructed (so node-construction events are captured too).
  // `trace_capacity` sizes the ring; 0 keeps the tracer default.
  bool trace = false;
  std::size_t trace_capacity = 0;

  // Must be 1: the simulator is a single-threaded event loop, and any other
  // value makes the Network constructor throw std::invalid_argument. Kept so
  // existing configs that set it to 1 still compile; scale out by running
  // seeds or replicas as separate processes.
  unsigned workers = 1;
};

// NodeT requirements:
//   void set_neighbors(std::vector<core::NodeId>)
//   void submit_transaction(const core::Transaction&)
// plus the sim::INode interface. The public constructor also needs
//   NodeT(sim::Simulator&, core::NodeId, const NodeConfig&, core::Hooks*).
template <typename NodeT>
class Network {
 public:
  // Builds the whole network: random overlay, then one NodeT per id.
  template <typename NodeConfig>
  Network(const NetConfig& cfg, const NodeConfig& node_cfg) : Network(cfg) {
    build_topology(cfg);
    add_nodes([&](core::NodeId id) {
      return std::make_unique<NodeT>(sim_, id, node_cfg, &hooks_);
    });
  }
  virtual ~Network() = default;

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  sim::Simulator& sim() noexcept { return sim_; }
  std::size_t size() const noexcept { return nodes_.size(); }
  NodeT& node(std::size_t i) { return *nodes_.at(i); }
  const overlay::Topology& topology() const noexcept { return topology_; }

  // --- workload ---
  // Starts Poisson transaction injection; each tx goes to `submit_fanout`
  // entry nodes (see submit()). Runs until the simulation stops.
  void start_workload(const workload::WorkloadConfig& cfg,
                      std::size_t submit_fanout = 1) {
    txgen_ = std::make_unique<workload::TxGenerator>(cfg);
    submit_fanout_ = std::max<std::size_t>(1, submit_fanout);
    schedule_next_tx();
  }
  // Stops injection after the currently scheduled arrival (for drain phases).
  void stop_workload() noexcept { workload_stopped_ = true; }
  std::uint64_t txs_injected() const noexcept { return txs_injected_; }

  // --- online anomaly detection ---
  // Arms the streaming anomaly detectors (DESIGN.md §5): censor-dwell
  // watermark, suspicion-spike, reconcile-failure-rate and commit-latency
  // SLO. Alerts land in anomaly()->alerts(), lo.anomaly.* counters and
  // kAnomaly trace events. Settle is first mempool admit anywhere unless a
  // subclass settles elsewhere (LoNetwork: block inclusion once block
  // production runs). Idempotent.
  AnomalyMonitor& start_anomaly_monitor(const AnomalyConfig& cfg = {}) {
    if (!anomaly_) {
      anomaly_ = std::make_unique<AnomalyMonitor>(sim_, cfg);
      anomaly_->start();
    }
    return *anomaly_;
  }
  const AnomalyMonitor* anomaly() const noexcept { return anomaly_.get(); }

  // --- running ---
  void run_for(double seconds) {
    sim_.run_until(sim_.now() + sim::from_seconds(seconds));
  }

  // Fig. 7: per-(node, tx) mempool admission latencies, seconds.
  sim::Samples& mempool_latency() noexcept { return mempool_latency_; }

 protected:
  // Scaffolding only: simulator, tracer, latency model and the admit hook.
  // A subclass draws whatever must precede the overlay from sim_.rng(),
  // then calls build_topology() and add_nodes().
  explicit Network(const NetConfig& cfg) : sim_(cfg.seed) {
    if (cfg.workers != 1) {
      throw std::invalid_argument("NetConfig::workers must be 1");
    }
    // Tracing goes live before nodes exist so construction-time events
    // (cache binds, first timers) land in the stream too.
    if (cfg.trace_capacity > 0) {
      sim_.obs().tracer.set_capacity(cfg.trace_capacity);
    }
    if (cfg.trace) sim_.obs().tracer.enable(true);
    if (cfg.city_latency) {
      sim_.set_latency_model(std::make_shared<sim::CityLatencyModel>());
    } else {
      sim_.set_latency_model(
          std::make_shared<sim::ConstantLatency>(cfg.constant_latency));
    }
    hooks_.on_mempool_admit = [this](core::NodeId, const core::Transaction& tx,
                                     sim::TimePoint when) {
      mempool_latency_.add(sim::to_seconds(when - tx.created_at));
      if (anomaly_ && settle_on_admit_) {
        anomaly_->on_settle(core::txid_short(tx.id), when);
      }
    };
  }

  void build_topology(const NetConfig& cfg) {
    topology_ = overlay::Topology::random(cfg.num_nodes, cfg.topology,
                                          sim_.rng());
  }

  // One node per topology vertex: make(id) builds node `id`, which is
  // registered with the simulator, then every node gets its neighbors.
  template <typename Make>
  void add_nodes(Make make) {
    const std::size_t n = topology_.size();
    nodes_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      nodes_.push_back(make(static_cast<core::NodeId>(i)));
      sim_.add_node(nodes_.back().get());
    }
    for (std::size_t i = 0; i < n; ++i) {
      nodes_[i]->set_neighbors(
          topology_.neighbors(static_cast<core::NodeId>(i)));
    }
  }

  // Hands one injected transaction to its entry nodes: `submit_fanout_`
  // uniformly random ones. The tx counts as submitted (anomaly feed) before
  // any node sees it, so the entry node's own admit settles it.
  virtual void submit(const core::Transaction& tx) {
    const std::uint64_t tid = core::txid_short(tx.id);
    if (anomaly_) anomaly_->on_submit(tid, tx.created_at);
    for (std::size_t k = 0; k < submit_fanout_; ++k) {
      const auto i = sim_.rng().next_below(nodes_.size());
      enter(i, tx);
    }
  }

  // Client -> node `i` submission, traced as kTxSubmit.
  void enter(std::size_t i, const core::Transaction& tx) {
    sim_.obs().tracer.emit(obs::EventKind::kTxSubmit,
                           static_cast<std::uint32_t>(i), 0,
                           core::txid_short(tx.id));
    nodes_[i]->submit_transaction(tx);
  }

  sim::Simulator sim_;
  overlay::Topology topology_;
  std::vector<std::unique_ptr<NodeT>> nodes_;
  core::Hooks hooks_;
  std::unique_ptr<AnomalyMonitor> anomaly_;
  std::size_t submit_fanout_ = 1;
  // Whether a mempool admit settles a tx for the anomaly monitor.
  bool settle_on_admit_ = true;

 private:
  void schedule_next_tx() {
    sim_.schedule(txgen_->next_gap_us(), [this] {
      if (workload_stopped_) return;
      const auto tx = txgen_->next(sim_.now());
      ++txs_injected_;
      submit(tx);
      schedule_next_tx();
    });
  }

  std::unique_ptr<workload::TxGenerator> txgen_;
  std::uint64_t txs_injected_ = 0;
  bool workload_stopped_ = false;
  sim::Samples mempool_latency_;
};

}  // namespace lo::harness
