#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "stats/progress_monitor.h"

namespace rainbow {
namespace {

TxnOutcome Outcome(uint64_t seq, bool committed, AbortCause cause,
                   SimTime submitted, SimTime finished, SiteId home = 0) {
  TxnOutcome o;
  o.id = TxnId{home, seq};
  o.committed = committed;
  o.abort_cause = committed ? AbortCause::kNone : cause;
  o.submitted_at = submitted;
  o.finished_at = finished;
  o.home = home;
  o.num_ops = 3;
  o.round_trips = 5;
  return o;
}

TEST(ProgressMonitorTest, CountsByOutcome) {
  ProgressMonitor pm;
  pm.OnSubmit(0, 0);
  pm.OnSubmit(1, 0);
  pm.OnSubmit(0, 0);
  pm.OnComplete(Outcome(1, true, AbortCause::kNone, 0, 1000));
  pm.OnComplete(Outcome(2, false, AbortCause::kCcp, 0, 500));
  pm.OnComplete(Outcome(3, false, AbortCause::kRcp, 0, 700));
  EXPECT_EQ(pm.submitted(), 3u);
  EXPECT_EQ(pm.committed(), 1u);
  EXPECT_EQ(pm.aborted_total(), 2u);
  EXPECT_EQ(pm.aborted(AbortCause::kCcp), 1u);
  EXPECT_EQ(pm.aborted(AbortCause::kRcp), 1u);
  EXPECT_EQ(pm.aborted(AbortCause::kAcp), 0u);
  EXPECT_NEAR(pm.commit_rate(), 1.0 / 3, 1e-9);
  EXPECT_NEAR(pm.abort_rate(AbortCause::kCcp), 1.0 / 3, 1e-9);
  EXPECT_EQ(pm.round_trips(), 15u);
}

TEST(ProgressMonitorTest, ResponseTimeOnlyCommitted) {
  ProgressMonitor pm;
  pm.OnComplete(Outcome(1, true, AbortCause::kNone, 0, 2000));
  pm.OnComplete(Outcome(2, false, AbortCause::kCcp, 0, 99999));
  EXPECT_EQ(pm.response_times().count(), 1u);
  EXPECT_NEAR(pm.response_times().mean(), 2000, 1);
  EXPECT_EQ(pm.response_times_all().count(), 2u);
}

TEST(ProgressMonitorTest, ThroughputUsesVirtualSeconds) {
  ProgressMonitor pm;
  for (uint64_t i = 0; i < 10; ++i) {
    pm.OnComplete(Outcome(i, true, AbortCause::kNone, 0, Millis(10)));
  }
  EXPECT_NEAR(pm.throughput_tps(Seconds(2)), 5.0, 1e-9);
  EXPECT_EQ(pm.throughput_tps(0), 0.0);
}

TEST(ProgressMonitorTest, CommitBuckets) {
  ProgressMonitor pm;
  pm.set_bucket_width(Millis(10));
  pm.OnComplete(Outcome(1, true, AbortCause::kNone, 0, Millis(5)));
  pm.OnComplete(Outcome(2, true, AbortCause::kNone, 0, Millis(15)));
  pm.OnComplete(Outcome(3, true, AbortCause::kNone, 0, Millis(16)));
  ASSERT_EQ(pm.commits_per_bucket().size(), 2u);
  EXPECT_EQ(pm.commits_per_bucket()[0], 1u);
  EXPECT_EQ(pm.commits_per_bucket()[1], 2u);
}

TEST(ProgressMonitorTest, LoadCv) {
  ProgressMonitor pm;
  for (int i = 0; i < 10; ++i) pm.OnSubmit(0, 0);
  for (int i = 0; i < 10; ++i) pm.OnSubmit(1, 0);
  EXPECT_NEAR(pm.home_load_cv(), 0.0, 1e-9);
  for (int i = 0; i < 20; ++i) pm.OnSubmit(1, 0);
  EXPECT_GT(pm.home_load_cv(), 0.3);
}

// Regression (rainbow_lint D1): home_load_cv() accumulates doubles in
// table-iteration order. With the old unordered_map that order — and
// hence the float accumulation order — depended on the order sites were
// first seen; with the sorted map the CV is bit-identical either way.
TEST(ProgressMonitorTest, HomeLoadCvIndependentOfSubmitOrder) {
  // (home site, submissions): site 3 appears twice, so the two feeds
  // below first see the sites in different orders (3,1,2 vs 3,2,1).
  const std::vector<std::pair<SiteId, int>> batches = {
      {3, 7}, {1, 11}, {2, 5}, {3, 2}};
  ProgressMonitor forward;
  for (const auto& [site, n] : batches) {
    for (int i = 0; i < n; ++i) forward.OnSubmit(site, 0);
  }
  ProgressMonitor backward;
  for (auto it = batches.rbegin(); it != batches.rend(); ++it) {
    for (int i = 0; i < it->second; ++i) backward.OnSubmit(it->first, 0);
  }

  EXPECT_EQ(forward.homed_per_site(), backward.homed_per_site());
  EXPECT_EQ(forward.home_load_cv(), backward.home_load_cv());
  EXPECT_GT(forward.home_load_cv(), 0.0);
}

TEST(ProgressMonitorTest, OrphansAndBlockedTimes) {
  ProgressMonitor pm;
  pm.OnOrphanCleanup(TxnId{0, 1}, 2);
  pm.OnOrphanCleanup(TxnId{0, 2}, 2);
  EXPECT_EQ(pm.orphans(), 2u);
  pm.OnBlockedTime(TxnId{0, 1}, Millis(5));
  pm.OnBlockedTime(TxnId{0, 2}, Millis(15));
  EXPECT_EQ(pm.blocked_times().count(), 2u);
  EXPECT_NEAR(pm.blocked_times().mean(), Millis(10), 100);
}

TEST(ProgressMonitorTest, SessionLogKeptOnlyWhenEnabled) {
  ProgressMonitor pm;
  pm.OnComplete(Outcome(1, true, AbortCause::kNone, 0, 100));
  EXPECT_TRUE(pm.outcomes().empty());
  pm.set_keep_outcomes(true);
  pm.OnComplete(Outcome(2, true, AbortCause::kNone, 0, 100));
  ASSERT_EQ(pm.outcomes().size(), 1u);
  std::string log = pm.RenderSessionLog();
  EXPECT_NE(log.find("T2@0"), std::string::npos);
  EXPECT_NE(log.find("COMMIT"), std::string::npos);
}

TEST(ProgressMonitorTest, RenderStatisticsIncludesEverySection) {
  ProgressMonitor pm;
  pm.OnSubmit(0, 0);
  pm.OnComplete(Outcome(1, true, AbortCause::kNone, 0, 1000));
  NetworkStats net;
  std::string table = pm.RenderStatistics(net, Seconds(1));
  for (const char* needle :
       {"committed transactions", "aborts due to CCP", "aborts due to RCP",
        "aborts due to ACP", "commit rate", "orphan transactions",
        "round-trip message pairs", "throughput", "mean response time",
        "home-load imbalance"}) {
    EXPECT_NE(table.find(needle), std::string::npos) << needle;
  }
}

TEST(ProgressMonitorTest, NetLoadCvIgnoresNameServer) {
  NetworkStats net;
  net.per_site_delivered[0] = 100;
  net.per_site_delivered[1] = 100;
  net.per_site_delivered[kNameServerId] = 100000;  // must not skew
  EXPECT_NEAR(ProgressMonitor::net_load_cv(net), 0.0, 1e-9);
  net.per_site_delivered[2] = 400;
  EXPECT_GT(ProgressMonitor::net_load_cv(net), 0.5);
  NetworkStats empty;
  EXPECT_EQ(ProgressMonitor::net_load_cv(empty), 0.0);
}

TEST(ProgressMonitorTest, ThroughputChartRenders) {
  ProgressMonitor pm;
  pm.set_bucket_width(Millis(10));
  for (int i = 0; i < 6; ++i) {
    pm.OnComplete(Outcome(static_cast<uint64_t>(i), true, AbortCause::kNone,
                          0, Millis(i * 5)));
  }
  std::string chart = pm.RenderThroughputChart();
  EXPECT_NE(chart.find("commits per bucket"), std::string::npos);
  EXPECT_NE(chart.find('#'), std::string::npos);
}

TEST(ProgressMonitorTest, MessageChartRenders) {
  NetworkStats net;
  net.bucket_width = Millis(10);
  net.per_bucket = {3, 0, 7};
  std::string chart = ProgressMonitor::RenderMessageChart(net);
  EXPECT_NE(chart.find("network messages per bucket"), std::string::npos);
  EXPECT_NE(chart.find("7.000"), std::string::npos);
}

TEST(ProgressMonitorTest, ResetClears) {
  ProgressMonitor pm;
  pm.OnSubmit(0, 0);
  pm.OnComplete(Outcome(1, true, AbortCause::kNone, 0, 100));
  pm.Reset();
  EXPECT_EQ(pm.submitted(), 0u);
  EXPECT_EQ(pm.committed(), 0u);
  EXPECT_EQ(pm.response_times().count(), 0u);
}

}  // namespace
}  // namespace rainbow
