// Shared helpers for the figure-reproduction benches. Each bench binary
// regenerates one table/figure of the paper's evaluation (Sec. 6) and prints
// the same series the paper reports. Scales default to laptop-friendly sizes
// (see DESIGN.md, substitution 3) and are overridable via argv:
//   bench_figX [num_nodes] [seconds] [seed]
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "harness/lo_network.hpp"

namespace lo::bench {

struct Args {
  std::size_t num_nodes;
  double seconds;
  std::uint64_t seed;
};

inline Args parse_args(int argc, char** argv, std::size_t def_nodes,
                       double def_seconds, std::uint64_t def_seed = 1) {
  Args a{def_nodes, def_seconds, def_seed};
  if (argc > 1) a.num_nodes = static_cast<std::size_t>(std::atoll(argv[1]));
  if (argc > 2) a.seconds = std::atof(argv[2]);
  if (argc > 3) a.seed = static_cast<std::uint64_t>(std::atoll(argv[3]));
  return a;
}

// All benches run with kSimFast signatures: identical wire sizes and protocol
// behavior, no curve arithmetic dominating wall-clock (bench_crypto measures
// the real Ed25519 separately).
inline harness::NetworkConfig base_config(std::size_t n, std::uint64_t seed) {
  harness::NetworkConfig cfg;
  cfg.num_nodes = n;
  cfg.seed = seed;
  cfg.city_latency = true;
  cfg.node.sig_mode = crypto::SignatureMode::kSimFast;
  cfg.node.prevalidation.sig_mode = crypto::SignatureMode::kSimFast;
  return cfg;
}

inline workload::WorkloadConfig base_workload(double tps, std::uint64_t seed) {
  workload::WorkloadConfig w;
  w.tps = tps;
  w.seed = seed;
  w.sig_mode = crypto::SignatureMode::kSimFast;
  return w;
}

inline void print_header(const char* title, const char* paper_ref) {
  std::printf("================================================================\n");
  std::printf("%s\n", title);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("================================================================\n");
}

// Minimal machine-readable results writer for the figure-reproduction
// binaries, mirroring the google-benchmark JSON schema that bench_crypto and
// bench_minisketch emit (top-level "context" + "benchmarks" array with
// name/iterations/real_time/items_per_second), so one parser handles every
// BENCH_*.json artifact CI uploads.
class JsonReport {
 public:
  JsonReport(std::string path, std::string suite)
      : path_(std::move(path)), suite_(std::move(suite)) {}

  // `real_time_ns` is the (simulated or measured) duration backing the rate;
  // `items_per_second` is the headline series value for the figure. Pass
  // lower_is_better for values such as latencies, byte counts and overhead
  // ratios: the entry then carries "better": "lower" and lobench-diff
  // inverts its ratio, so a rise reads as a regression.
  void add(const std::string& name, double real_time_ns,
           double items_per_second, bool lower_is_better = false) {
    entries_.push_back({name, real_time_ns, items_per_second, lower_is_better});
  }

  // Writes the file; returns false (and prints to stderr) on I/O failure so
  // smoke runs notice a missing artifact.
  bool write() const {
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path_.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"context\": {\n    \"bench_suite\": \"%s\"\n  },\n",
                 suite_.c_str());
    std::fprintf(f, "  \"benchmarks\": [\n");
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const auto& e = entries_[i];
      std::fprintf(f,
                   "    {\n"
                   "      \"name\": \"%s\",\n"
                   "      \"run_name\": \"%s\",\n"
                   "      \"run_type\": \"iteration\",\n"
                   "      \"iterations\": 1,\n"
                   "      \"real_time\": %.6g,\n"
                   "      \"cpu_time\": %.6g,\n"
                   "      \"time_unit\": \"ns\",\n"
                   "      \"items_per_second\": %.6g%s\n"
                   "    }%s\n",
                   e.name.c_str(), e.name.c_str(), e.real_time_ns,
                   e.real_time_ns, e.items_per_second,
                   e.lower_is_better ? ",\n      \"better\": \"lower\"" : "",
                   i + 1 < entries_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    return true;
  }

 private:
  struct Entry {
    std::string name;
    double real_time_ns;
    double items_per_second;
    bool lower_is_better;
  };
  std::string path_;
  std::string suite_;
  std::vector<Entry> entries_;
};

}  // namespace lo::bench
