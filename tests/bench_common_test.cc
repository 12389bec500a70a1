// The shared bench harness: its JSON round trip, its quartiles, and the
// baseline checks that decide whether a perf-smoke gate passes.

#include "bench/bench_common.h"

#include <gtest/gtest.h>

#include <string>

namespace rainbow::bench {
namespace {

TEST(BenchCommonTest, EmitJsonRoundTripsThroughParseFlatJson) {
  const std::string path = testing::TempDir() + "bench_common_test.json";
  std::vector<std::pair<std::string, double>> fields = {
      {"msgs_per_sec", 16368091.40099372},
      {"allocs_per_txn", 106.748},
      {"committed", 73},
      {"zero", 0}};
  ASSERT_TRUE(EmitJson(path, fields));
  Fields parsed = ParseFlatJson(path);
  EXPECT_EQ(parsed, Fields(fields.begin(), fields.end()));
  EXPECT_TRUE(ParseFlatJson(path + ".missing").empty());
}

TEST(BenchCommonTest, QuartilesOfAKnownSample) {
  Spread s = Quartiles({9, 1, 8, 2, 7, 3, 6, 4, 5});
  EXPECT_DOUBLE_EQ(s.median, 5);
  EXPECT_DOUBLE_EQ(s.p25, 3);
  EXPECT_DOUBLE_EQ(s.p75, 7);
  // Even counts interpolate between the two nearest ranks.
  Spread even = Quartiles({4, 1, 3, 2});
  EXPECT_DOUBLE_EQ(even.median, 2.5);
  EXPECT_DOUBLE_EQ(even.p25, 1.75);
  EXPECT_DOUBLE_EQ(even.p75, 3.25);
  // As a rate, the slowest repetition becomes the lowest quartile.
  Spread rate = Quartiles({1, 2, 4}).Rate(8);
  EXPECT_DOUBLE_EQ(rate.median, 4);
  EXPECT_DOUBLE_EQ(rate.p25, 8.0 / 3.0);
  EXPECT_DOUBLE_EQ(rate.p75, 16.0 / 3.0);
}

TEST(BenchCommonTest, KeyMissingFromBaselineIsSkipped) {
  Fields baseline = {{"old", 1}};
  Fields current = {{"old", 1}, {"new", 5}};
  EXPECT_TRUE(CheckMetric(baseline, current, "new", 1.5, true));
  EXPECT_TRUE(CheckExact(baseline, current, "new"));
}

TEST(BenchCommonTest, KeyMissingFromCurrentRunFails) {
  Fields baseline = {{"renamed", 10}};
  Fields current = {{"renamed_now", 10}};
  EXPECT_FALSE(CheckMetric(baseline, current, "renamed", 1.5, true));
  EXPECT_FALSE(CheckExact(baseline, current, "renamed"));
}

TEST(BenchCommonTest, ChecksCompareAgainstTheirBounds) {
  Fields baseline = {{"per_sec", 100}, {"wall_ms", 10}, {"count", 73}};
  EXPECT_TRUE(CheckMetric(baseline, {{"per_sec", 67}}, "per_sec", 1.5, true));
  EXPECT_FALSE(CheckMetric(baseline, {{"per_sec", 66}}, "per_sec", 1.5, true));
  EXPECT_TRUE(CheckMetric(baseline, {{"wall_ms", 15}}, "wall_ms", 1.5, false));
  EXPECT_FALSE(CheckMetric(baseline, {{"wall_ms", 16}}, "wall_ms", 1.5, false));
  EXPECT_TRUE(CheckExact(baseline, {{"count", 73}}, "count"));
  EXPECT_FALSE(CheckExact(baseline, {{"count", 74}}, "count"));
}

TEST(BenchCommonTest, RepeatedCountFailsWhenARepetitionDiffers) {
  RepeatedCount same;
  for (int i = 0; i < 3; ++i) same.Record(106);
  EXPECT_TRUE(same.Check("allocations"));
  EXPECT_EQ(same.value, 106u);
  RepeatedCount drift;
  drift.Record(106);
  drift.Record(107);
  drift.Record(106);
  EXPECT_FALSE(drift.Check("allocations"));
}

}  // namespace
}  // namespace rainbow::bench
