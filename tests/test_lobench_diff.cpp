// lobench-diff tests: tolerant parsing of both BENCH_*.json shapes the repo
// emits (the bench_common JsonReport and full google-benchmark output),
// hostile/degenerate inputs, tolerance-band semantics (ok / missing / new /
// drift, inclusive edges, inverted real_time metric, "better": "lower"
// entries) and the rendered report.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "benchdiff.hpp"

namespace lo {
namespace {

using namespace lo::benchdiff;

// ----------------------------------------------------------------- parsing ----

TEST(BenchDiffParse, ReadsJsonReportShape) {
  const std::string doc = R"({
  "bench_suite": "obs",
  "benchmarks": [
    {"name": "tracer_emit", "items_per_second": 2.5e7, "real_time": 40.0,
     "time_unit": "ns"},
    {"name": "registry_to_json", "items_per_second": 1.0e4}
  ]
})";
  const auto entries = parse_bench_json(doc);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].name, "tracer_emit");
  EXPECT_DOUBLE_EQ(entries[0].items_per_second, 2.5e7);
  EXPECT_DOUBLE_EQ(entries[0].real_time, 40.0);
  EXPECT_EQ(entries[1].name, "registry_to_json");
}

TEST(BenchDiffParse, ReadsGoogleBenchmarkShape) {
  // Context object before the array, nested values inside entries, and
  // fields we do not care about — all skipped bracket-counted.
  const std::string doc = R"({
  "context": {"date": "2026-08-09", "caches": [{"type": "Data", "level": 1}]},
  "benchmarks": [
    {"name": "BM_sketch/64", "run_type": "iteration", "repetitions": 1,
     "counters": {"x": 1}, "real_time": 1.25e3, "cpu_time": 1.2e3,
     "time_unit": "ns"}
  ]
})";
  const auto entries = parse_bench_json(doc);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].name, "BM_sketch/64");
  EXPECT_DOUBLE_EQ(entries[0].real_time, 1.25e3);
  EXPECT_DOUBLE_EQ(entries[0].items_per_second, 0.0);
}

TEST(BenchDiffParse, ReadsDeclaredDirection) {
  const auto entries = parse_bench_json(R"({"benchmarks": [
    {"name": "obs/overhead_ratio", "items_per_second": 1.04,
     "better": "lower"},
    {"name": "obs/traced", "items_per_second": 9.0e4, "better": "higher"},
    {"name": "obs/disabled", "items_per_second": 3.0e3}
  ]})");
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_TRUE(entries[0].lower_is_better);
  EXPECT_FALSE(entries[1].lower_is_better);
  EXPECT_FALSE(entries[2].lower_is_better);
}

TEST(BenchDiffParse, RejectsDocumentsWithoutBenchmarks) {
  EXPECT_THROW(parse_bench_json("{}"), std::runtime_error);
  EXPECT_THROW(parse_bench_json(R"({"benchmarks": 3})"), std::runtime_error);
  EXPECT_THROW(parse_bench_json(R"({"benchmarks": [{"name")"),
               std::runtime_error);
  EXPECT_THROW(parse_bench_json(R"({"benchmarks": [{"name": "x", "real_time":
  "not-a-number"}]})"),
               std::runtime_error);
}

TEST(BenchDiffParse, SkipsNamelessEntries) {
  const auto entries =
      parse_bench_json(R"({"benchmarks": [{"real_time": 1.0}]})");
  EXPECT_TRUE(entries.empty());
}

// -------------------------------------------------------------------- diff ----

std::vector<BenchEntry> one(const std::string& name, double ips) {
  BenchEntry e;
  e.name = name;
  e.items_per_second = ips;
  return {e};
}

TEST(BenchDiff, WithinBandPasses) {
  const auto r = diff(one("a", 100.0), one("a", 120.0), Tolerance{});
  ASSERT_EQ(r.lines.size(), 1u);
  EXPECT_EQ(r.lines[0].status, DiffLine::Status::kOk);
  EXPECT_DOUBLE_EQ(r.lines[0].ratio, 1.2);
  EXPECT_EQ(r.failures, 0u);
  EXPECT_TRUE(r.ok());
}

TEST(BenchDiff, BandEdgesAreInclusive) {
  // Default band is [0.5, 2.0]; landing exactly on an edge passes.
  EXPECT_TRUE(diff(one("a", 100.0), one("a", 50.0), Tolerance{}).ok());
  EXPECT_TRUE(diff(one("a", 100.0), one("a", 200.0), Tolerance{}).ok());
  EXPECT_FALSE(diff(one("a", 100.0), one("a", 49.0), Tolerance{}).ok());
  EXPECT_FALSE(diff(one("a", 100.0), one("a", 201.0), Tolerance{}).ok());
}

TEST(BenchDiff, MissingBaselineEntryFails) {
  const auto r = diff(one("a", 100.0), one("b", 100.0), Tolerance{});
  ASSERT_EQ(r.lines.size(), 2u);
  EXPECT_EQ(r.lines[0].status, DiffLine::Status::kMissing);
  EXPECT_EQ(r.lines[1].status, DiffLine::Status::kNew);
  // A vanished benchmark is a failure; a new one is informational only.
  EXPECT_EQ(r.failures, 1u);
}

TEST(BenchDiff, InvertedRealTimeMetricMeansFasterIsHigher) {
  BenchEntry base;
  base.name = "t";
  base.real_time = 2.0;
  BenchEntry fresh = base;
  fresh.real_time = 1.0;  // twice as fast -> ratio 2.0, still inside the band
  auto r = diff({base}, {fresh}, Tolerance{});
  ASSERT_EQ(r.lines.size(), 1u);
  EXPECT_DOUBLE_EQ(r.lines[0].ratio, 2.0);
  EXPECT_TRUE(r.ok());

  fresh.real_time = 5.0;  // 2.5x slower -> ratio 0.4, drift
  r = diff({base}, {fresh}, Tolerance{});
  EXPECT_EQ(r.lines[0].status, DiffLine::Status::kOutOfBand);
  EXPECT_FALSE(r.ok());
}

std::vector<BenchEntry> lower(const std::string& name, double value) {
  auto e = one(name, value);
  e[0].lower_is_better = true;
  return e;
}

TEST(BenchDiff, LowerIsBetterRiseReadsAsRegression) {
  // Overhead ratio 1.04 -> 1.56: worse, so the ratio drops below 1.
  auto r = diff(lower("obs/overhead_ratio", 1.04),
                lower("obs/overhead_ratio", 1.56), Tolerance{});
  ASSERT_EQ(r.lines.size(), 1u);
  EXPECT_NEAR(r.lines[0].ratio, 1.04 / 1.56, 1e-12);
  EXPECT_TRUE(r.ok());
  // A latency that triples falls out of the band on the low side.
  r = diff(lower("membership/detect_latency_s", 3.5),
           lower("membership/detect_latency_s", 10.5), Tolerance{0.5, 10.0});
  EXPECT_NEAR(r.lines[0].ratio, 1.0 / 3.0, 1e-12);
  EXPECT_EQ(r.lines[0].status, DiffLine::Status::kOutOfBand);
}

TEST(BenchDiff, LowerIsBetterFallReadsAsImprovement) {
  // Detection latency 3.5 s -> 1.75 s: better, ratio 2.
  auto r = diff(lower("membership/detect_latency_s", 3.5),
                lower("membership/detect_latency_s", 1.75), Tolerance{});
  ASSERT_EQ(r.lines.size(), 1u);
  EXPECT_DOUBLE_EQ(r.lines[0].ratio, 2.0);
  EXPECT_TRUE(r.ok());
  // Tightened to forbid big improvements, the same halving is out of band,
  // while a higher-is-better value that halves is out of band on the low side.
  r = diff(lower("membership/detect_latency_s", 3.5),
           lower("membership/detect_latency_s", 1.75), Tolerance{0.1, 1.5});
  EXPECT_EQ(r.lines[0].status, DiffLine::Status::kOutOfBand);
  r = diff(one("obs/traced", 100.0), one("obs/traced", 50.0),
           Tolerance{0.9, 10.0});
  EXPECT_DOUBLE_EQ(r.lines[0].ratio, 0.5);
  EXPECT_EQ(r.lines[0].status, DiffLine::Status::kOutOfBand);
}

TEST(BenchDiff, DirectionDeclaredOnEitherSideApplies) {
  // A baseline written before the entry declared its direction.
  const auto base = one("obs/overhead_ratio", 2.0);
  const auto r = diff(base, lower("obs/overhead_ratio", 4.0), Tolerance{});
  EXPECT_DOUBLE_EQ(r.lines[0].ratio, 0.5);
  const auto back = diff(lower("obs/overhead_ratio", 2.0),
                         one("obs/overhead_ratio", 4.0), Tolerance{});
  EXPECT_DOUBLE_EQ(back.lines[0].ratio, 0.5);
}

TEST(BenchDiff, CustomToleranceTightensTheBand) {
  Tolerance tight{0.9, 1.1};
  EXPECT_TRUE(diff(one("a", 100.0), one("a", 105.0), tight).ok());
  EXPECT_FALSE(diff(one("a", 100.0), one("a", 80.0), tight).ok());
}

// ------------------------------------------------------------------ render ----

TEST(BenchDiffRender, TagsEveryOutcome) {
  std::vector<BenchEntry> base = one("stays", 100.0);
  base.push_back(one("vanishes", 50.0)[0]);
  base.push_back(one("drifts", 10.0)[0]);
  std::vector<BenchEntry> fresh = one("stays", 110.0);
  fresh.push_back(one("drifts", 100.0)[0]);
  fresh.push_back(one("appears", 7.0)[0]);

  const auto r = diff(base, fresh, Tolerance{});
  const std::string text = render(r);
  EXPECT_NE(text.find("ok"), std::string::npos);
  EXPECT_NE(text.find("MISSING"), std::string::npos);
  EXPECT_NE(text.find("DRIFT"), std::string::npos);
  EXPECT_NE(text.find("new"), std::string::npos);
  EXPECT_NE(text.find("2 failure(s)"), std::string::npos);
}

TEST(BenchDiffRender, ReadFileReportsMissingAsNullopt) {
  EXPECT_FALSE(read_file("/nonexistent/BENCH_nope.json").has_value());
}

}  // namespace
}  // namespace lo
