#include "obs/profile.hpp"

#include "obs/metrics.hpp"

namespace lo::obs {

const char* profile_site_name(ProfileSite s) noexcept {
  switch (s) {
    case ProfileSite::kEd25519Verify: return "ed25519_verify";
    case ProfileSite::kEd25519Sign: return "ed25519_sign";
    case ProfileSite::kSketchDecode: return "sketch_decode";
    case ProfileSite::kSketchAddAll: return "sketch_add_all";
    case ProfileSite::kReconcileRound: return "reconcile_round";
    case ProfileSite::kVerifyCacheProbe: return "verify_cache_probe";
    case ProfileSite::kCount: break;
  }
  return "unknown";
}

namespace profile {

// lolint:allow(mutable-static) reason=process-global profile table; slots are relaxed atomics so hits from concurrent threads commute and publish() reads settled sums
bool g_enabled = false;
// lolint:allow(mutable-static) reason=process-global profile table; slots are relaxed atomics so hits from concurrent threads commute and publish() reads settled sums
std::array<AtomicProfileCounters, static_cast<std::size_t>(ProfileSite::kCount)>
    g_counters{};

void set_enabled(bool on) noexcept { g_enabled = on; }

bool enabled() noexcept { return g_enabled; }

void reset() noexcept {
  for (auto& c : g_counters) {
    c.calls.store(0, std::memory_order_relaxed);
    c.items.store(0, std::memory_order_relaxed);
  }
}

ProfileCounters counters(ProfileSite s) noexcept {
  const auto& c = g_counters[static_cast<std::size_t>(s)];
  return ProfileCounters{c.calls.load(std::memory_order_relaxed),
                         c.items.load(std::memory_order_relaxed)};
}

void publish(Registry& reg) {
  for (std::size_t i = 0; i < g_counters.size(); ++i) {
    const auto site = static_cast<ProfileSite>(i);
    const Labels labels{{"site", profile_site_name(site)}};
    reg.counter("profile.calls", labels) =
        g_counters[i].calls.load(std::memory_order_relaxed);
    reg.counter("profile.items", labels) =
        g_counters[i].items.load(std::memory_order_relaxed);
  }
}

}  // namespace profile
}  // namespace lo::obs
