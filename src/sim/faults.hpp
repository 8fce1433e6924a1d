// FaultInjector — deterministic, seed-driven fault schedules on top of the
// simulator's node-lifecycle and delivery hooks.
//
// Four pathology classes, all replayable bit-for-bit from the injector seed:
//   * scripted crash/restart windows (crash_at),
//   * random churn — exponential inter-crash gaps, uniform down-time, bounded
//     concurrent downtime (start_churn / stop_churn),
//   * per-link flaky windows — probabilistic loss on one link for a bounded
//     interval (flaky_link),
//   * latency-degradation spikes — the model latency is scaled by a factor
//     while the window is active (latency_spike).
//
// The injector's schedule (churn gaps, victims, down-times) draws from its
// OWN Rng (not the simulator's), so adding or removing fault schedules never
// perturbs the protocol's randomness stream; a schedule replays identically
// regardless of what the workload does. The one exception is the per-message
// flaky-link coin, which is flipped at send time and therefore draws from the
// SENDER's node stream (Simulator::node_rng), like every other send-time
// draw — the draw order then depends only on that sender's send history.
//
// Crash/restart policy lives with the caller: the injector invokes the
// CrashFn/RestartFn handlers (LoNetwork wires them to LoNode::crash/restart
// plus Simulator::set_node_up) and only tracks which nodes IT took down so
// churn never double-crashes or resurrects someone else's victim.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace lo::sim {

struct ChurnConfig {
  // Nodes eligible for churn; empty means every node registered at the time
  // a victim is drawn.
  std::vector<NodeId> candidates;
  // Mean gap between consecutive crash events (exponential distribution).
  Duration mean_gap = 5 * kSecond;
  // Down-time per crash, uniform in [min_down, max_down].
  Duration min_down = 2 * kSecond;
  Duration max_down = 8 * kSecond;
  // Never take more than this many nodes down at once.
  std::size_t max_concurrent_down = 1;
  // Whether churn crashes also wipe the victim's mempool (content must then
  // be re-fetched on restart; the commitment log always survives as "disk").
  bool wipe_mempool = false;
};

class FaultInjector {
 public:
  using CrashFn = std::function<void(NodeId node, bool wipe_mempool)>;
  using RestartFn = std::function<void(NodeId node)>;

  // Installs the injector's fault filter and latency shaper into `sim`.
  FaultInjector(Simulator& sim, std::uint64_t seed, CrashFn crash,
                RestartFn restart);

  // --- scripted windows ---
  // Crash `node` at absolute sim time `at` and restart it `down_for` later.
  // Times in the past are clamped to now.
  void crash_at(TimePoint at, NodeId node, Duration down_for,
                bool wipe_mempool = false);

  // Crash `node` immediately; restart after `down_for`.
  void crash_now(NodeId node, Duration down_for, bool wipe_mempool = false);

  // --- random churn ---
  void start_churn(const ChurnConfig& cfg);
  void stop_churn() noexcept { churn_active_ = false; }
  bool churn_active() const noexcept { return churn_active_; }

  // --- network pathology windows ---
  // Drop each message on the a->b link (and b->a when bidirectional) with
  // probability `drop_prob` while now() is in [from, until).
  void flaky_link(NodeId a, NodeId b, TimePoint from, TimePoint until,
                  double drop_prob, bool bidirectional = true);
  // Scale every delivery latency by `factor` while now() is in [from, until).
  // Overlapping spikes compose by taking the largest factor.
  void latency_spike(TimePoint from, TimePoint until, double factor);

  // --- introspection ---
  // The injector counters live in the simulator's metrics registry
  // ("faults.crashes_injected", ...); these accessors are read shims over
  // the registry cells.
  bool is_down(NodeId node) const { return down_.count(node) != 0; }
  std::size_t down_count() const noexcept { return down_.size(); }
  std::uint64_t crashes_injected() const noexcept { return *c_crashes_; }
  std::uint64_t restarts_injected() const noexcept { return *c_restarts_; }
  std::uint64_t link_drops() const noexcept { return *c_link_drops_; }

 private:
  struct FlakyWindow {
    NodeId a, b;
    TimePoint from, until;
    double drop_prob;
    bool bidirectional;
  };
  struct LatencyWindow {
    TimePoint from, until;
    double factor;
  };

  void restart_now(NodeId node);
  void churn_tick();
  bool should_drop(NodeId from, NodeId to);
  Duration shape_latency(NodeId from, NodeId to, Duration base) const;

  Simulator& sim_;
  util::Rng rng_;
  CrashFn crash_fn_;
  RestartFn restart_fn_;

  std::unordered_set<NodeId> down_;  // nodes THIS injector took down
  std::vector<FlakyWindow> flaky_;
  std::vector<LatencyWindow> spikes_;

  bool churn_active_ = false;
  ChurnConfig churn_;

  // Registry cell handles (stable addresses; see obs::Registry::counter).
  std::uint64_t* c_crashes_;
  std::uint64_t* c_restarts_;
  std::uint64_t* c_link_drops_;
};

}  // namespace lo::sim
