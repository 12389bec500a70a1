#include "harness.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

namespace rainbow::bench {
namespace {

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i > 0; --i) v.push_back(static_cast<double>(i));
  return v;  // n, n-1, ..., 1: Percentile must sort
}

TEST(HarnessTest, PercentileIsNearestRankWithTailEvidence) {
  Tail p50 = Percentile(Ramp(100), 0.5);
  EXPECT_EQ(p50.value, 50);
  EXPECT_EQ(p50.samples, 100u);
  EXPECT_EQ(p50.beyond, 50u);
  EXPECT_TRUE(p50.supported);

  // p99 of 1000 samples leaves exactly kMinBeyond above it.
  Tail p99 = Percentile(Ramp(1000), 0.99);
  EXPECT_EQ(p99.value, 990);
  EXPECT_EQ(p99.beyond, kMinBeyond);
  EXPECT_TRUE(p99.supported);

  // With 999 samples only 9 lie beyond: reported, but unsupported.
  Tail thin = Percentile(Ramp(999), 0.99);
  EXPECT_EQ(thin.beyond, 9u);
  EXPECT_FALSE(thin.supported);
}

TEST(HarnessTest, PercentileEdgeCases) {
  Tail empty = Percentile({}, 0.5);
  EXPECT_EQ(empty.value, 0);
  EXPECT_EQ(empty.samples, 0u);
  EXPECT_FALSE(empty.supported);
  EXPECT_EQ(Percentile({7}, 0.0).value, 7);
  EXPECT_EQ(Percentile({1, 2, 3}, 1.0).value, 3);
  EXPECT_EQ(Percentile({1, 2, 3}, 1.0).beyond, 0u);
}

TEST(HarnessTest, Median) {
  EXPECT_EQ(Median({}), 0);
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
}

TEST(HarnessTest, CountsAllocations) {
  uint64_t before = AllocCount();
  auto p = std::make_unique<int>(1);
  std::vector<int> v(10);
  EXPECT_GE(AllocCount() - before, 2u);
}

TEST(HarnessTest, FingerprintDescribesThisBuild) {
  Fingerprint f = MachineFingerprint();
  EXPECT_GT(f.hardware_threads, 0u);
  EXPECT_FALSE(f.compiler.empty());
  EXPECT_FALSE(f.build_type.empty());
  std::string json = f.ToJson();
  EXPECT_EQ(json, MachineFingerprint().ToJson());
  Fingerprint other = f;
  other.hardware_threads += 1;
  EXPECT_NE(json, other.ToJson());
  EXPECT_NE(json.find("\"hardware_threads\": "), std::string::npos);
  EXPECT_NE(json.find(JsonString(f.compiler)), std::string::npos);
}

TEST(HarnessTest, NumbersRoundTrip) {
  for (double v : {0.1, 1.0 / 3.0, 12345.678901234567, 1e-300, 6.02e23}) {
    EXPECT_EQ(std::strtod(JsonNumber(v).c_str(), nullptr), v) << v;
  }
  EXPECT_EQ(JsonNumber(1.0 / 0.0), "0");
}

TEST(HarnessTest, StringsAreEscaped) {
  EXPECT_EQ(JsonString("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
  EXPECT_EQ(JsonString(std::string(1, '\x01')), "\"\\u0001\"");
}

TEST(HarnessTest, ResultLineHasTheContractShape) {
  std::string line = ResultLine(true, 100, 2,
                                {Metric{"latency_ms", 1.5, "ms"},
                                 Metric{"setup_s", 0.25, "s"}});
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 100, \"failed\": 2, "
            "\"metrics\": {\"latency_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, "
            "\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}");
  EXPECT_EQ(ResultLine(false, 1, 1, {}),
            "{\"correct\": false, \"attempted\": 1, \"failed\": 1, "
            "\"metrics\": {}}");
}

}  // namespace
}  // namespace rainbow::bench
