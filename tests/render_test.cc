// Coverage of the human-facing rendering surfaces: name functions for
// every enum, ToString forms, tables, CSV, charts, network stats.

#include <gtest/gtest.h>

#include "cc/cc_engine.h"
#include "common/histogram.h"
#include "common/table.h"
#include "common/trace.h"
#include "net/network.h"
#include "rcp/rcp_policy.h"
#include "txn/transaction.h"

namespace rainbow {
namespace {

TEST(NamesTest, EveryEnumValueHasAName) {
  for (int k = 0; k < static_cast<int>(MessageKind::kCount); ++k) {
    EXPECT_STRNE(MessageKindName(static_cast<MessageKind>(k)), "?")
        << "MessageKind " << k;
  }
  for (auto c : {AbortCause::kNone, AbortCause::kCcp, AbortCause::kRcp,
                 AbortCause::kAcp, AbortCause::kSiteFailure,
                 AbortCause::kOther}) {
    EXPECT_STRNE(AbortCauseName(c), "?");
  }
  for (auto r :
       {DenyReason::kNone, DenyReason::kTsoTooLate,
        DenyReason::kDeadlockVictim, DenyReason::kSiteBusy,
        DenyReason::kUnknownTxn, DenyReason::kWounded,
        DenyReason::kWaitTimeout}) {
    EXPECT_STRNE(DenyReasonName(r), "?");
  }
  for (auto k : {RcpKind::kRowa, RcpKind::kRowaAvailable,
                 RcpKind::kQuorumConsensus, RcpKind::kPrimaryCopy}) {
    EXPECT_STRNE(RcpKindName(k), "?");
  }
  for (auto k : {CcKind::kTwoPhaseLocking, CcKind::kTimestampOrdering,
                 CcKind::kMultiversionTso}) {
    EXPECT_STRNE(CcKindName(k), "?");
  }
  for (auto p : {DeadlockPolicy::kWaitDie, DeadlockPolicy::kWoundWait,
                 DeadlockPolicy::kLocalWfg, DeadlockPolicy::kTimeoutOnly,
                 DeadlockPolicy::kEdgeChasing}) {
    EXPECT_STRNE(DeadlockPolicyName(p), "?");
  }
  for (auto s : {AcpState::kUnknown, AcpState::kActive, AcpState::kPrepared,
                 AcpState::kPreCommitted, AcpState::kCommitted,
                 AcpState::kAborted}) {
    EXPECT_STRNE(AcpStateName(s), "?");
  }
}

TEST(OpToStringTest, AllKinds) {
  EXPECT_EQ(Op::Read(3).ToString(), "R(3)");
  EXPECT_EQ(Op::Write(4, 17).ToString(), "W(4=17)");
  EXPECT_EQ(Op::Increment(5, -2).ToString(), "I(5+=-2)");
  TxnProgram p;
  p.label = "demo";
  p.ops = {Op::Read(1), Op::Write(2, 9)};
  EXPECT_EQ(p.ToString(), "demo: R(1) W(2=9)");
  EXPECT_FALSE(p.read_only());
  TxnProgram ro;
  ro.ops = {Op::Read(1)};
  EXPECT_TRUE(ro.read_only());
}

TEST(TxnOutcomeToStringTest, CommitAndAbortForms) {
  TxnOutcome o;
  o.id = TxnId{2, 5};
  o.committed = true;
  o.submitted_at = 1000;
  o.finished_at = 4000;
  o.num_ops = 3;
  o.round_trips = 7;
  std::string s = o.ToString();
  EXPECT_NE(s.find("T5@2"), std::string::npos);
  EXPECT_NE(s.find("COMMIT"), std::string::npos);
  EXPECT_NE(s.find("rt=3000us"), std::string::npos);

  o.committed = false;
  o.abort_cause = AbortCause::kRcp;
  o.abort_detail = "quorum unattainable";
  s = o.ToString();
  EXPECT_NE(s.find("ABORT(rcp)"), std::string::npos);
  EXPECT_NE(s.find("quorum unattainable"), std::string::npos);
}

TEST(TablePrinterTest, CsvAndAlignment) {
  TablePrinter t({"name", "value"});
  t.AddRow({TablePrinter::Cell("alpha"), TablePrinter::Cell(int64_t{42})});
  t.AddRow({TablePrinter::Cell("beta"), TablePrinter::Cell(3.14159)});
  EXPECT_EQ(t.num_rows(), 2u);
  std::string csv = t.ToCsv();
  EXPECT_EQ(csv, "name,value\nalpha,42\nbeta,3.14\n");
  std::string rendered = t.ToString();
  // Numeric cells right-align: "42" ends at the column edge.
  EXPECT_NE(rendered.find("   42 |"), std::string::npos);
  EXPECT_NE(rendered.find("| alpha"), std::string::npos);
}

TEST(AsciiChartTest, ScalesBars) {
  std::string chart =
      AsciiChart("demo", {{0, 1.0}, {1, 2.0}, {2, 4.0}}, /*width=*/20);
  EXPECT_NE(chart.find("demo"), std::string::npos);
  // The max row has a full-width bar; the min row a quarter of it.
  EXPECT_NE(chart.find(std::string(20, '#')), std::string::npos);
  EXPECT_NE(chart.find(std::string(5, '#') + " "), std::string::npos);
}

TEST(AsciiChartTest, EmptyAndZeroSeries) {
  EXPECT_NE(AsciiChart("empty", {}).find("empty"), std::string::npos);
  std::string zeros = AsciiChart("zeros", {{0, 0.0}, {1, 0.0}});
  EXPECT_EQ(zeros.find('#'), std::string::npos);
}

TEST(HistogramTest, PercentileExtremes) {
  Histogram h;
  h.Add(0);
  h.Add(1'000'000'000);  // ~1e9: deep into the log buckets
  EXPECT_EQ(h.Percentile(0.0), 0);
  EXPECT_EQ(h.Percentile(1.0), 1'000'000'000);
  // Approximate percentile stays within the bucket's ~4.5% resolution.
  EXPECT_NEAR(static_cast<double>(h.Percentile(0.99)), 1e9, 1e9 * 0.05);
  EXPECT_EQ(h.Percentile(-1.0), 0);   // clamped
  Histogram empty;
  EXPECT_EQ(empty.Percentile(0.5), 0);
  EXPECT_EQ(empty.Summary().substr(0, 3), "n=0");
}

TEST(HistogramTest, NegativeClampedToZero) {
  Histogram h;
  h.Add(-5);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.count(), 1u);
}

TEST(NetworkStatsTest, RenderSummarizes) {
  NetworkStats stats;
  Message m;
  m.from = 0;
  m.to = 1;
  m.payload = Ack{TxnId{0, 1}};
  stats.RecordSend(m, Millis(5), 60);
  stats.RecordDeliver(m);
  stats.RecordDrop(DropCause::kPartition);
  std::string out = stats.Render();
  EXPECT_NE(out.find("sent=1"), std::string::npos);
  EXPECT_NE(out.find("delivered=1"), std::string::npos);
  EXPECT_NE(out.find("dropped=1"), std::string::npos);
  EXPECT_NE(out.find("Ack=1"), std::string::npos);
  EXPECT_EQ(stats.per_site_delivered.Get(1), 1u);
}

TEST(NetworkStatsTest, RenderListsPerSiteDeliveriesInSiteOrder) {
  NetworkStats stats;
  // Deliver in scrambled site order; the render must not depend on
  // unordered_map iteration order.
  for (SiteId to : {SiteId{7}, SiteId{2}, kNameServerId, SiteId{5},
                    SiteId{2}}) {
    Message m;
    m.from = 0;
    m.to = to;
    m.payload = Ack{TxnId{0, 1}};
    stats.RecordSend(m, Millis(1), 60);
    stats.RecordDeliver(m);
  }
  std::string out = stats.Render();
  size_t line = out.find("per-site delivered:");
  ASSERT_NE(line, std::string::npos);
  std::string tail = out.substr(line);
  tail = tail.substr(0, tail.find('\n'));
  EXPECT_EQ(tail, "per-site delivered: s2=2 s5=1 s7=1 ns=1");
  size_t s2 = tail.find("s2="), s5 = tail.find("s5="), s7 = tail.find("s7=");
  EXPECT_LT(s2, s5);
  EXPECT_LT(s5, s7);
}

}  // namespace
}  // namespace rainbow
