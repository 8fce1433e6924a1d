// lobench-diff — regression gate comparing freshly produced BENCH_*.json
// files against committed baselines (bench/baselines/) with tolerance bands.
//
// Both the bench_common JsonReport shape and full google-benchmark output
// carry a "benchmarks" array whose entries have "name" and (for throughput
// benches) "items_per_second"; entries without items_per_second fall back to
// "real_time" (lower is better, so the ratio inverts). A JsonReport entry
// whose value is a latency, byte count or overhead ratio carries
// "better": "lower", and its items_per_second ratio inverts the same way. The parser is a
// tolerant scanner over exactly that subset — not a general JSON parser —
// so context blocks of any shape pass through unharmed.
//
// A comparison FAILS when a benchmark present in the baseline is missing
// from the fresh file, or when fresh/baseline drifts outside
// [min_ratio, max_ratio]. New benchmarks (fresh-only) are reported but pass:
// growing the suite must not need a baseline edit in the same PR.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace lo::benchdiff {

struct BenchEntry {
  std::string name;
  double items_per_second = 0.0;  // 0 when absent
  double real_time = 0.0;         // 0 when absent
  bool lower_is_better = false;   // "better": "lower" on items_per_second
};

// Extracts entries from a BENCH_*.json document. Throws std::runtime_error
// on input that does not contain a recognizable "benchmarks" array.
std::vector<BenchEntry> parse_bench_json(const std::string& text);

struct Tolerance {
  // Acceptable fresh/baseline ratio band on the better-is-higher metric.
  // Generous by default: CI machines are noisy; the gate is for order-of-
  // magnitude regressions, not single-digit jitter.
  double min_ratio = 0.5;
  double max_ratio = 2.0;
};

struct DiffLine {
  std::string name;
  double baseline = 0.0;
  double fresh = 0.0;
  double ratio = 0.0;  // fresh/baseline on the better-is-higher metric:
                       // < 1 is a regression in either direction
  enum class Status { kOk, kMissing, kNew, kOutOfBand } status = Status::kOk;
};

struct DiffResult {
  std::vector<DiffLine> lines;
  std::size_t failures = 0;  // kMissing + kOutOfBand
  bool ok() const noexcept { return failures == 0; }
};

// An entry is lower-is-better when either side declares it, so a baseline
// written before the entry declared its direction still compares correctly.
DiffResult diff(const std::vector<BenchEntry>& baseline,
                const std::vector<BenchEntry>& fresh, const Tolerance& tol);

std::string render(const DiffResult& r);

// Reads a whole file; nullopt when unreadable.
std::optional<std::string> read_file(const std::string& path);

}  // namespace lo::benchdiff
