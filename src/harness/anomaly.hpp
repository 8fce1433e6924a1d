// AnomalyMonitor — online accountability anomaly detection over the harness
// feeds (DESIGN.md §5). Four streaming detectors run on a fixed tick:
//
//   censor-dwell     a submitted transaction has been in flight (no settle)
//                    longer than the dwell watermark — the primary online
//                    symptom of mempool censorship;
//   suspicion-spike  more new suspicions landed in one tick window than the
//                    churn threshold — an accountability storm in progress;
//   reconcile-fail   the sketch-decode failure ratio over a tick window
//                    exceeded the configured bound — reconciliation is
//                    operating past its capacity;
//   commit-slo       the p95 submit->settle latency of the tick window
//                    breached the commit-latency SLO.
//
// Determinism: feeds run from harness hooks and coordinator-scheduled
// closures, in simulator event order; state uses ordered containers, and the
// tick itself is an ordinary coordinator timer — so the alert stream, the
// lo.anomaly.* counters and the kAnomaly trace events replay byte-for-byte
// from the seed. Feed bodies never emit trace events; only tick() does, from
// its own (coordinator) dispatch.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "sim/simulator.hpp"

namespace lo::harness {

struct AnomalyConfig {
  double tick_interval_s = 1.0;
  // censor-dwell: alert when a tx stays unsettled this long (once per tx).
  double censor_dwell_threshold_s = 30.0;
  // suspicion-spike: alert when one tick window sees more new suspicions.
  std::uint64_t suspicion_spike_threshold = 16;
  // reconcile-fail: alert when fail/(ok+fail) >= ratio with enough samples.
  double reconcile_failure_ratio = 0.5;
  std::uint64_t reconcile_min_samples = 8;
  // commit-slo: alert when the window's p95 settle latency exceeds this.
  double commit_latency_slo_s = 10.0;
};

enum class AnomalyKind : std::uint32_t {
  kCensorDwell = 1,
  kSuspicionSpike = 2,
  kReconcileFailure = 3,
  kCommitLatencySlo = 4,
};

const char* anomaly_kind_name(AnomalyKind k) noexcept;

struct Alert {
  AnomalyKind kind;
  double when_s = 0.0;
  double value = 0.0;      // observed statistic
  double threshold = 0.0;  // configured bound it crossed
  std::string detail;      // human-readable one-liner
};

class AnomalyMonitor {
 public:
  AnomalyMonitor(sim::Simulator& sim, const AnomalyConfig& cfg);

  // Arms the recurring tick (coordinator timer). Call once.
  void start();

  // --- feeds (coordinator context only) ---
  void on_submit(std::uint64_t txid_short, sim::TimePoint created_at);
  void on_settle(std::uint64_t txid_short, sim::TimePoint when);
  void on_suspicion();
  void on_reconcile(bool decode_ok);

  const std::vector<Alert>& alerts() const noexcept { return alerts_; }
  std::uint64_t inflight() const noexcept { return inflight_.size(); }

 private:
  void schedule_tick();
  void tick();
  void raise(AnomalyKind kind, double value, double threshold,
             std::string detail);

  sim::Simulator& sim_;
  AnomalyConfig cfg_;
  bool started_ = false;
  sim::Duration period_ = 0;

  // Submitted-but-unsettled txs, keyed by short id (ordered: the dwell scan
  // iterates it, and iteration order is part of the determinism surface).
  std::map<std::uint64_t, sim::TimePoint> inflight_;
  std::set<std::uint64_t> dwell_alerted_;  // one dwell alert per tx

  // Per-tick windows, reset by tick().
  std::uint64_t window_suspicions_ = 0;
  std::uint64_t window_reconcile_ok_ = 0;
  std::uint64_t window_reconcile_fail_ = 0;
  std::vector<double> window_settle_latency_s_;

  std::vector<Alert> alerts_;

  // lo.anomaly.* counters (single-writer: coordinator only).
  std::uint64_t* c_alerts_[5] = {nullptr, nullptr, nullptr, nullptr, nullptr};
};

}  // namespace lo::harness
