#include <gtest/gtest.h>

#include "common/histogram.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/table.h"
#include "common/trace.h"
#include "common/types.h"

namespace rainbow {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing item");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "missing item");
  EXPECT_EQ(s.ToString(), "not_found: missing item");
}

TEST(ResultTest, HoldsValue) {
  Result<int64_t> r = ParseInt("42");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int64_t> r = ParseInt("forty-two");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, UintBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextUint(10), 10u);
  }
}

TEST(RngTest, IntInclusiveRange) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.NextInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(ZipfTest, UniformWhenThetaZero) {
  Rng rng(1);
  ZipfSampler z(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) counts[z.Sample(rng)]++;
  for (int c : counts) EXPECT_GT(c, 700);
}

TEST(ZipfTest, SkewedWhenThetaLarge) {
  Rng rng(2);
  ZipfSampler z(100, 0.99);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) counts[z.Sample(rng)]++;
  // Rank 0 must dominate rank 50 heavily.
  EXPECT_GT(counts[0], counts[50] * 5);
}

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.Add(i);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 100);
  EXPECT_NEAR(h.mean(), 50.5, 0.01);
  EXPECT_NEAR(static_cast<double>(h.Percentile(0.5)), 50, 5);
  EXPECT_NEAR(static_cast<double>(h.Percentile(0.95)), 95, 7);
}

TEST(HistogramTest, PercentileZeroIsMin) {
  Histogram h;
  h.Add(37);
  h.Add(9000);
  EXPECT_EQ(h.Percentile(0.0), 37);
  EXPECT_EQ(h.Percentile(1.0), 9000);
}

TEST(HistogramTest, PercentileBoundedByMinMax) {
  // Property: for any recorded data and any quantile, the approximate
  // percentile stays within the exact [min, max] envelope — the bucket
  // upper bound must never leak above max or below min.
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    Histogram h;
    int n = static_cast<int>(rng.NextInt(1, 200));
    for (int i = 0; i < n; ++i) {
      // Spread across several powers of two to hit many buckets.
      h.Add(rng.NextInt(0, int64_t{1} << rng.NextInt(1, 40)));
    }
    for (double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0}) {
      int64_t p = h.Percentile(q);
      EXPECT_GE(p, h.min()) << "trial " << trial << " q=" << q;
      EXPECT_LE(p, h.max()) << "trial " << trial << " q=" << q;
    }
    EXPECT_EQ(h.Percentile(0.0), h.min()) << "trial " << trial;
  }
}

TEST(HistogramTest, PercentileOfSingleValueIsExact) {
  for (int64_t v : {0, 1, 5, 1000, 123456789}) {
    Histogram h;
    h.Add(v);
    for (double q : {0.0, 0.5, 1.0}) {
      EXPECT_EQ(h.Percentile(q), v) << "v=" << v << " q=" << q;
    }
  }
}

TEST(HistogramTest, MergeCombines) {
  Histogram a, b;
  a.Add(10);
  b.Add(20);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10);
  EXPECT_EQ(a.max(), 20);
}

TEST(StringUtilTest, SplitAndTrim) {
  auto parts = SplitAndTrim(" a , b ,, c ", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StringUtilTest, ParseBool) {
  EXPECT_TRUE(*ParseBool("true"));
  EXPECT_TRUE(*ParseBool("YES"));
  EXPECT_FALSE(*ParseBool("0"));
  EXPECT_FALSE(ParseBool("maybe").ok());
}

TEST(TableTest, RendersAligned) {
  TablePrinter t({"name", "count"});
  t.AddRow({"alpha", "10"});
  t.AddRow({"b", "2"});
  std::string out = t.ToString();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("| name"), std::string::npos);
}

TEST(TxnIdTest, OrderingAndHash) {
  TxnId a{0, 1}, b{1, 1}, c{0, 2};
  EXPECT_TRUE(a < b);
  EXPECT_TRUE(b < c);
  EXPECT_EQ(a, (TxnId{0, 1}));
  EXPECT_EQ(a.ToString(), "T1@0");
}

TEST(TxnTimestampTest, TotalOrder) {
  TxnTimestamp a{5, 0}, b{5, 1}, c{6, 0};
  EXPECT_TRUE(a < b);
  EXPECT_TRUE(b < c);
  EXPECT_FALSE(b < a);
}

}  // namespace
}  // namespace rainbow
