#include "sim/faults.hpp"

#include <algorithm>
#include <stdexcept>

namespace lo::sim {

FaultInjector::FaultInjector(Simulator& sim, std::uint64_t seed, CrashFn crash,
                             RestartFn restart)
    : sim_(sim),
      rng_(seed),
      crash_fn_(std::move(crash)),
      restart_fn_(std::move(restart)) {
  if (!crash_fn_ || !restart_fn_) {
    throw std::invalid_argument("FaultInjector needs crash and restart handlers");
  }
  c_crashes_ = &sim_.obs().registry.counter("faults.crashes_injected");
  c_restarts_ = &sim_.obs().registry.counter("faults.restarts_injected");
  c_link_drops_ = &sim_.obs().registry.counter("faults.link_drops");
  sim_.set_fault_filter(
      [this](NodeId from, NodeId to) { return !should_drop(from, to); });
  sim_.set_latency_shaper([this](NodeId from, NodeId to, Duration base) {
    return shape_latency(from, to, base);
  });
}

void FaultInjector::crash_now(NodeId node, Duration down_for,
                              bool wipe_mempool) {
  if (down_.count(node) != 0 || !sim_.node_up(node)) return;
  crash_fn_(node, wipe_mempool);
  down_.insert(node);
  ++*c_crashes_;
  sim_.obs().tracer.emit(obs::EventKind::kFaultCrash, node, 0,
                         static_cast<std::uint64_t>(std::max<Duration>(0, down_for)),
                         wipe_mempool ? 1 : 0);
  sim_.schedule(std::max<Duration>(0, down_for),
                [this, node] { restart_now(node); });
}

void FaultInjector::restart_now(NodeId node) {
  if (down_.erase(node) == 0) return;
  restart_fn_(node);
  ++*c_restarts_;
  sim_.obs().tracer.emit(obs::EventKind::kFaultRestart, node);
}

void FaultInjector::crash_at(TimePoint at, NodeId node, Duration down_for,
                             bool wipe_mempool) {
  const Duration delay = std::max<Duration>(0, at - sim_.now());
  sim_.schedule(delay, [this, node, down_for, wipe_mempool] {
    crash_now(node, down_for, wipe_mempool);
  });
}

void FaultInjector::start_churn(const ChurnConfig& cfg) {
  churn_ = cfg;
  if (churn_.max_down < churn_.min_down) churn_.max_down = churn_.min_down;
  churn_active_ = true;
  const auto gap = static_cast<Duration>(
      rng_.next_exponential(static_cast<double>(churn_.mean_gap)));
  sim_.schedule(std::max<Duration>(1, gap), [this] { churn_tick(); });
}

void FaultInjector::churn_tick() {
  if (!churn_active_) return;
  if (down_.size() < churn_.max_concurrent_down) {
    // Draw the victim among up candidates, in id order for determinism.
    std::vector<NodeId> up;
    if (churn_.candidates.empty()) {
      for (NodeId n = 0; n < sim_.node_count(); ++n) {
        if (sim_.node_up(n)) up.push_back(n);
      }
    } else {
      for (NodeId n : churn_.candidates) {
        if (sim_.node_up(n)) up.push_back(n);
      }
    }
    if (!up.empty()) {
      const NodeId victim = up[rng_.next_below(up.size())];
      const Duration spread = churn_.max_down - churn_.min_down;
      const Duration down_for =
          churn_.min_down +
          (spread > 0 ? static_cast<Duration>(rng_.next_below(
                            static_cast<std::uint64_t>(spread) + 1))
                      : 0);
      crash_now(victim, down_for, churn_.wipe_mempool);
    }
  }
  const auto gap = static_cast<Duration>(
      rng_.next_exponential(static_cast<double>(churn_.mean_gap)));
  sim_.schedule(std::max<Duration>(1, gap), [this] { churn_tick(); });
}

void FaultInjector::flaky_link(NodeId a, NodeId b, TimePoint from,
                               TimePoint until, double drop_prob,
                               bool bidirectional) {
  flaky_.push_back(FlakyWindow{a, b, from, until, drop_prob, bidirectional});
}

void FaultInjector::latency_spike(TimePoint from, TimePoint until,
                                  double factor) {
  spikes_.push_back(LatencyWindow{from, until, std::max(1.0, factor)});
}

bool FaultInjector::should_drop(NodeId from, NodeId to) {
  const TimePoint now = sim_.now();
  for (const auto& w : flaky_) {
    if (now < w.from || now >= w.until) continue;
    const bool match = (w.a == from && w.b == to) ||
                       (w.bidirectional && w.a == to && w.b == from);
    // The coin comes from the sender's stream, not the injector's: this
    // runs inside send(), and per-sender draws keep the sequence a function
    // of that sender's own send history.
    if (match && sim_.node_rng(from).next_bool(w.drop_prob)) {
      ++*c_link_drops_;
      return true;
    }
  }
  return false;
}

Duration FaultInjector::shape_latency(NodeId, NodeId, Duration base) const {
  const TimePoint now = sim_.now();
  double factor = 1.0;
  for (const auto& w : spikes_) {
    if (now >= w.from && now < w.until) factor = std::max(factor, w.factor);
  }
  return factor == 1.0
             ? base
             : static_cast<Duration>(static_cast<double>(base) * factor);
}

}  // namespace lo::sim
