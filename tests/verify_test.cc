// Tests for the offline protocol-invariant checker (verify/checker.h):
// unit tests feed hand-built traces that violate exactly one invariant
// class and assert the checker names it; end-to-end tests run whole
// sessions through the checker gate and a multi-seed protocol sweep
// under random faults.

#include <gtest/gtest.h>

#include "core/session.h"
#include "core/system.h"
#include "verify/checker.h"

namespace rainbow {
namespace {

TxnId Txn(uint64_t seq, SiteId home = 0) { return TxnId{home, seq}; }

TraceRecord Rec(TraceEventKind kind, TxnId txn, SiteId site = 0,
                ItemId item = kInvalidItem, int64_t arg = 0,
                std::string detail = "") {
  TraceRecord r;
  r.kind = kind;
  r.txn = txn;
  r.site = site;
  r.item = item;
  r.arg = arg;
  r.detail = std::move(detail);
  return r;
}

/// A checker over a plain 3-site 2PL/QC configuration (sound quorums).
HistoryChecker MakeChecker(CcKind cc = CcKind::kTwoPhaseLocking) {
  SystemConfig cfg;
  cfg.num_sites = 3;
  cfg.protocols.cc = cc;
  cfg.protocols.rcp = RcpKind::kQuorumConsensus;
  cfg.AddUniformItems(4, 0, 3);
  return HistoryChecker(cfg);
}

TraceCollector Collect(const std::vector<TraceRecord>& records) {
  TraceCollector trace;
  trace.set_detail(TraceDetail::kProtocol);
  for (const TraceRecord& r : records) trace.Emit(r);
  return trace;
}

bool HasCode(const CheckReport& report, const std::string& code) {
  for (const Violation& v : report.violations) {
    if (v.code == code) return true;
  }
  return false;
}

// --- serializability ---

TEST(VerifyTest, CleanSerializableHistoryPasses) {
  TxnId t1 = Txn(1), t2 = Txn(2);
  // t1 installs version 1 of item 0; t2 reads it afterwards: acyclic.
  auto trace = Collect({
      Rec(TraceEventKind::kWriteApplied, t1, 0, 0, 1),
      Rec(TraceEventKind::kTxnCommit, t1),
      Rec(TraceEventKind::kReadDone, t2, 0, 0, 1),
      Rec(TraceEventKind::kTxnCommit, t2),
  });
  CheckReport report = MakeChecker().Check(trace);
  EXPECT_TRUE(report.ok()) << report.Render();
  EXPECT_EQ(report.committed, 2u);
  EXPECT_EQ(report.graph_edges, 1u);  // the wr edge t1 -> t2
}

TEST(VerifyTest, PrecedenceCycleDetected) {
  TxnId t1 = Txn(1), t2 = Txn(2);
  // Classic write skew: each reads the version the other overwrites.
  // rw: t1 -> t2 (item 1), rw: t2 -> t1 (item 0) — a 2-cycle.
  auto trace = Collect({
      Rec(TraceEventKind::kReadDone, t1, 0, 0, 0),
      Rec(TraceEventKind::kWriteApplied, t1, 0, 1, 1),
      Rec(TraceEventKind::kReadDone, t2, 1, 1, 0),
      Rec(TraceEventKind::kWriteApplied, t2, 1, 0, 1),
      Rec(TraceEventKind::kTxnCommit, t1),
      Rec(TraceEventKind::kTxnCommit, t2),
  });
  CheckReport report = MakeChecker().Check(trace);
  ASSERT_TRUE(HasCode(report, "precedence-cycle")) << report.Render();
  // The message prints the offending cycle.
  for (const Violation& v : report.violations) {
    if (v.code == "precedence-cycle") {
      EXPECT_NE(v.message.find("->"), std::string::npos) << v.message;
    }
  }
}

TEST(VerifyTest, AbortedTransactionsAreExemptFromTheGraph) {
  TxnId t1 = Txn(1), t2 = Txn(2);
  // Same write skew as above, but t2 aborted: no cycle among committed.
  auto trace = Collect({
      Rec(TraceEventKind::kReadDone, t1, 0, 0, 0),
      Rec(TraceEventKind::kWriteApplied, t1, 0, 1, 1),
      Rec(TraceEventKind::kReadDone, t2, 1, 1, 0),
      Rec(TraceEventKind::kTxnCommit, t1),
      Rec(TraceEventKind::kTxnAbort, t2),
  });
  CheckReport report = MakeChecker().Check(trace);
  EXPECT_TRUE(report.ok()) << report.Render();
}

TEST(VerifyTest, ReadOfUninstalledVersionDetected) {
  TxnId t1 = Txn(1);
  auto trace = Collect({
      Rec(TraceEventKind::kReadDone, t1, 0, 0, 5),  // version 5 from nowhere
      Rec(TraceEventKind::kTxnCommit, t1),
  });
  CheckReport report = MakeChecker().Check(trace);
  EXPECT_TRUE(HasCode(report, "read-uninstalled-version")) << report.Render();
}

// Regression (rainbow_lint D1): the checker used to build its per-item
// history in an unordered_map, so with several violations the report
// order depended on hash order. Violations must come out in ItemId
// order no matter what order the trace touches the items in.
TEST(VerifyTest, ViolationOrderIsItemOrderNotInsertionOrder) {
  TxnId t1 = Txn(1);
  // Touch items 3, 1, 2 in that order, each with an uninstalled read.
  auto trace = Collect({
      Rec(TraceEventKind::kReadDone, t1, 0, 3, 9),
      Rec(TraceEventKind::kReadDone, t1, 0, 1, 9),
      Rec(TraceEventKind::kReadDone, t1, 0, 2, 9),
      Rec(TraceEventKind::kTxnCommit, t1),
  });
  CheckReport report = MakeChecker().Check(trace);
  std::vector<ItemId> flagged;
  for (const Violation& v : report.violations) {
    if (v.code == "read-uninstalled-version") flagged.push_back(v.item);
  }
  EXPECT_EQ(flagged, (std::vector<ItemId>{1, 2, 3})) << report.Render();
}

TEST(VerifyTest, EmptyTracePasses) {
  CheckReport report = MakeChecker().Check(Collect({}));
  EXPECT_TRUE(report.ok()) << report.Render();
  EXPECT_EQ(report.committed, 0u);
  EXPECT_EQ(report.graph_edges, 0u);
}

TEST(VerifyTest, ReadModifyWriteChainPasses) {
  TxnId t1 = Txn(1), t2 = Txn(2), t3 = Txn(3);
  // Each transaction reads the version its predecessor installed and
  // installs the next; its own rw edge is a self-loop and is ignored.
  auto trace = Collect({
      Rec(TraceEventKind::kReadDone, t1, 0, 0, 0),
      Rec(TraceEventKind::kWriteApplied, t1, 0, 0, 1),
      Rec(TraceEventKind::kTxnCommit, t1),
      Rec(TraceEventKind::kReadDone, t2, 0, 0, 1),
      Rec(TraceEventKind::kWriteApplied, t2, 0, 0, 2),
      Rec(TraceEventKind::kTxnCommit, t2),
      Rec(TraceEventKind::kReadDone, t3, 0, 0, 2),
      Rec(TraceEventKind::kTxnCommit, t3),
  });
  CheckReport report = MakeChecker().Check(trace);
  EXPECT_TRUE(report.ok()) << report.Render();
  EXPECT_EQ(report.graph_edges, 2u);  // t1 -> t2 -> t3
}

TEST(VerifyTest, WwOrderRespected) {
  TxnId t1 = Txn(1), t2 = Txn(2);
  // Both items see t1's version before t2's: ww t1 -> t2 twice.
  auto trace = Collect({
      Rec(TraceEventKind::kWriteApplied, t1, 0, 0, 1),
      Rec(TraceEventKind::kWriteApplied, t1, 0, 1, 1),
      Rec(TraceEventKind::kTxnCommit, t1),
      Rec(TraceEventKind::kWriteApplied, t2, 0, 0, 2),
      Rec(TraceEventKind::kWriteApplied, t2, 0, 1, 2),
      Rec(TraceEventKind::kTxnCommit, t2),
  });
  CheckReport report = MakeChecker().Check(trace);
  EXPECT_TRUE(report.ok()) << report.Render();
  EXPECT_EQ(report.graph_edges, 1u);
}

TEST(VerifyTest, WwCrossCycleDetected) {
  TxnId t1 = Txn(1), t2 = Txn(2);
  // t1 installs x@1 and y@2, t2 installs y@1 and x@2: ww edges both
  // ways, a cycle with no read in it.
  auto trace = Collect({
      Rec(TraceEventKind::kWriteApplied, t1, 0, 0, 1),
      Rec(TraceEventKind::kWriteApplied, t2, 0, 1, 1),
      Rec(TraceEventKind::kWriteApplied, t1, 0, 1, 2),
      Rec(TraceEventKind::kWriteApplied, t2, 0, 0, 2),
      Rec(TraceEventKind::kTxnCommit, t1),
      Rec(TraceEventKind::kTxnCommit, t2),
  });
  CheckReport report = MakeChecker().Check(trace);
  EXPECT_TRUE(HasCode(report, "precedence-cycle")) << report.Render();
}

TEST(VerifyTest, ConcurrentReadersShareVersion) {
  TxnId t1 = Txn(1), t2 = Txn(2), t3 = Txn(3);
  // Two readers of the initial version, then a writer: rw t1 -> t3 and
  // rw t2 -> t3, no edge between the readers.
  auto trace = Collect({
      Rec(TraceEventKind::kReadDone, t1, 0, 0, 0),
      Rec(TraceEventKind::kReadDone, t2, 1, 0, 0),
      Rec(TraceEventKind::kTxnCommit, t1),
      Rec(TraceEventKind::kTxnCommit, t2),
      Rec(TraceEventKind::kWriteApplied, t3, 0, 0, 1),
      Rec(TraceEventKind::kTxnCommit, t3),
  });
  CheckReport report = MakeChecker().Check(trace);
  EXPECT_TRUE(report.ok()) << report.Render();
  EXPECT_EQ(report.graph_edges, 2u);
}

TEST(VerifyTest, SnapshotStyleReadOk) {
  TxnId t1 = Txn(1), t2 = Txn(2), t3 = Txn(3);
  // t3 reads x@1 after t2 installed x@2, as MVTO allows: t3 serializes
  // between t1 and t2. Edges: ww t1 -> t2, wr t1 -> t3, rw t3 -> t2.
  auto trace = Collect({
      Rec(TraceEventKind::kWriteApplied, t1, 0, 0, 1),
      Rec(TraceEventKind::kTxnCommit, t1),
      Rec(TraceEventKind::kWriteApplied, t2, 0, 0, 2),
      Rec(TraceEventKind::kTxnCommit, t2),
      Rec(TraceEventKind::kReadDone, t3, 1, 0, 1),
      Rec(TraceEventKind::kTxnCommit, t3),
  });
  CheckReport report = MakeChecker().Check(trace);
  EXPECT_TRUE(report.ok()) << report.Render();
  EXPECT_EQ(report.graph_edges, 3u);
}

// The anomaly cases below keep the scenarios of the serializability
// suite that once ran against a separate access recorder; the trace
// checker is now the only oracle, so they feed it the same histories.

TEST(SerializabilityTest, RwCycleDetected) {
  TxnId t1 = Txn(1), t2 = Txn(2);
  // t1 reads x@0 and writes y@1; t2 reads y@0 and writes x@1.
  // rw edges: t1 -> t2 (t1 read x@0, t2 wrote x@1)
  //           t2 -> t1 (t2 read y@0, t1 wrote y@1)  => cycle.
  auto trace = Collect({
      Rec(TraceEventKind::kReadDone, t1, 0, 0, 0),
      Rec(TraceEventKind::kWriteApplied, t1, 0, 1, 1),
      Rec(TraceEventKind::kTxnCommit, t1),
      Rec(TraceEventKind::kReadDone, t2, 0, 1, 0),
      Rec(TraceEventKind::kWriteApplied, t2, 0, 0, 1),
      Rec(TraceEventKind::kTxnCommit, t2),
  });
  CheckReport report = MakeChecker().Check(trace);
  EXPECT_FALSE(report.ok());
  ASSERT_TRUE(HasCode(report, "precedence-cycle")) << report.Render();
  EXPECT_NE(report.Render().find("cycle"), std::string::npos);
}

TEST(SerializabilityTest, LostUpdateDetected) {
  TxnId t1 = Txn(1), t2 = Txn(2);
  // Two committed transactions installed the same version of one item.
  auto trace = Collect({
      Rec(TraceEventKind::kWriteApplied, t1, 0, 0, 1),
      Rec(TraceEventKind::kTxnCommit, t1),
      Rec(TraceEventKind::kWriteApplied, t2, 0, 0, 1),
      Rec(TraceEventKind::kTxnCommit, t2),
  });
  CheckReport report = MakeChecker().Check(trace);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasCode(report, "divergent-install")) << report.Render();
}

TEST(SerializabilityTest, DirtyReadDetected) {
  TxnId t1 = Txn(1);
  // A read of a version nobody committed (other than the initial 0).
  auto trace = Collect({
      Rec(TraceEventKind::kReadDone, t1, 0, 0, 5),
      Rec(TraceEventKind::kTxnCommit, t1),
  });
  CheckReport report = MakeChecker().Check(trace);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasCode(report, "read-uninstalled-version")) << report.Render();
}

// Regression (rainbow_lint D1): with two inconsistencies in one history
// the first one reported must be the lowest ItemId, independent of the
// order in which the history touches the items.
TEST(SerializabilityTest, FirstErrorIsLowestItemNotHashOrder) {
  TxnId t1 = Txn(1), t2 = Txn(2);
  auto trace = Collect({
      Rec(TraceEventKind::kReadDone, t1, 0, 3, 7),  // dirty read on item 3, seen first
      Rec(TraceEventKind::kTxnCommit, t1),
      Rec(TraceEventKind::kReadDone, t2, 0, 2, 9),  // dirty read on item 2
      Rec(TraceEventKind::kTxnCommit, t2),
  });
  CheckReport report = MakeChecker().Check(trace);
  ASSERT_FALSE(report.violations.empty()) << report.Render();
  EXPECT_EQ(report.violations.front().code, "read-uninstalled-version");
  EXPECT_EQ(report.violations.front().item, 2u) << report.Render();
}

// --- atomicity ---

TEST(VerifyTest, SplitDecisionDetected) {
  TxnId t1 = Txn(1);
  auto trace = Collect({
      Rec(TraceEventKind::kDecisionApplied, t1, 0, kInvalidItem, 1),
      Rec(TraceEventKind::kDecisionApplied, t1, 1, kInvalidItem, 0),
  });
  CheckReport report = MakeChecker().Check(trace);
  EXPECT_TRUE(HasCode(report, "split-decision")) << report.Render();
}

TEST(VerifyTest, CommitWithoutFullVoteSetDetected) {
  TxnId t1 = Txn(1);
  // Prepare names a cohort of 2 but only one YES vote is on record.
  auto trace = Collect({
      Rec(TraceEventKind::kPrepare, t1, 0, kInvalidItem, 2),
      Rec(TraceEventKind::kVote, t1, 1, kInvalidItem, 1),
      Rec(TraceEventKind::kDecision, t1, 0, kInvalidItem, 1),
  });
  CheckReport report = MakeChecker().Check(trace);
  EXPECT_TRUE(HasCode(report, "commit-without-votes")) << report.Render();
}

TEST(VerifyTest, CommitDespiteNoVoteDetected) {
  TxnId t1 = Txn(1);
  auto trace = Collect({
      Rec(TraceEventKind::kPrepare, t1, 0, kInvalidItem, 2),
      Rec(TraceEventKind::kVote, t1, 1, kInvalidItem, 1),
      Rec(TraceEventKind::kVote, t1, 2, kInvalidItem, 0),  // NO vote
      Rec(TraceEventKind::kDecision, t1, 0, kInvalidItem, 1),
  });
  CheckReport report = MakeChecker().Check(trace);
  EXPECT_TRUE(HasCode(report, "commit-despite-no-vote")) << report.Render();
}

TEST(VerifyTest, CleanTwoPhaseCommitPasses) {
  TxnId t1 = Txn(1);
  auto trace = Collect({
      Rec(TraceEventKind::kPrepare, t1, 0, kInvalidItem, 2),
      Rec(TraceEventKind::kVote, t1, 1, kInvalidItem, 1),
      Rec(TraceEventKind::kVote, t1, 2, kInvalidItem, 1),
      Rec(TraceEventKind::kDecision, t1, 0, kInvalidItem, 1),
      Rec(TraceEventKind::kDecisionApplied, t1, 1, kInvalidItem, 1),
      Rec(TraceEventKind::kDecisionApplied, t1, 2, kInvalidItem, 1),
      Rec(TraceEventKind::kTxnCommit, t1),
  });
  CheckReport report = MakeChecker().Check(trace);
  EXPECT_TRUE(report.ok()) << report.Render();
}

// --- replication ---

TEST(VerifyTest, ReplicaVersionRegressionDetected) {
  TxnId t1 = Txn(1), t2 = Txn(2);
  auto trace = Collect({
      Rec(TraceEventKind::kWriteApplied, t1, 0, 0, 2),
      Rec(TraceEventKind::kWriteApplied, t2, 0, 0, 1),  // goes backwards
  });
  CheckReport report = MakeChecker().Check(trace);
  EXPECT_TRUE(HasCode(report, "replica-regression")) << report.Render();
}

TEST(VerifyTest, DivergentInstallDetected) {
  TxnId t1 = Txn(1), t2 = Txn(2);
  // Two transactions install the same (item, version) — disjoint write
  // quorums, the lost-update anomaly QC intersection rules out.
  auto trace = Collect({
      Rec(TraceEventKind::kWriteApplied, t1, 0, 0, 1),
      Rec(TraceEventKind::kWriteApplied, t2, 1, 0, 1),
  });
  CheckReport report = MakeChecker().Check(trace);
  EXPECT_TRUE(HasCode(report, "divergent-install")) << report.Render();
}

// --- 2PL lock discipline ---

TEST(VerifyTest, GrantAfterReleaseDetected) {
  TxnId t1 = Txn(1);
  auto trace = Collect({
      Rec(TraceEventKind::kCcGrant, t1, 0, 0),
      Rec(TraceEventKind::kDecisionApplied, t1, 0, kInvalidItem, 1),
      // Growing phase re-entered after the release point — 2PL broken.
      Rec(TraceEventKind::kCcGrant, t1, 0, 1),
  });
  CheckReport report = MakeChecker().Check(trace);
  EXPECT_TRUE(HasCode(report, "grant-after-release")) << report.Render();
}

TEST(VerifyTest, LockDisciplineSkippedForNonLockingEngines) {
  TxnId t1 = Txn(1);
  auto trace = Collect({
      Rec(TraceEventKind::kCcGrant, t1, 0, 0),
      Rec(TraceEventKind::kDecisionApplied, t1, 0, kInvalidItem, 1),
      Rec(TraceEventKind::kCcGrant, t1, 0, 1),
  });
  CheckReport report =
      MakeChecker(CcKind::kTimestampOrdering).Check(trace);
  EXPECT_FALSE(HasCode(report, "grant-after-release")) << report.Render();
}

TEST(VerifyTest, SurplusGrantAtNonParticipantIsExempt) {
  TxnId t1 = Txn(1);
  // The late grant happens at site 2, which never voted or applied a
  // decision for t1 — a cancelled surplus broadcast grant, not a 2PL
  // violation by the transaction.
  auto trace = Collect({
      Rec(TraceEventKind::kCcGrant, t1, 0, 0),
      Rec(TraceEventKind::kDecisionApplied, t1, 0, kInvalidItem, 1),
      Rec(TraceEventKind::kCcGrant, t1, 2, 1),
  });
  CheckReport report = MakeChecker().Check(trace);
  EXPECT_TRUE(report.ok()) << report.Render();
}

// --- static quorum configuration ---

TEST(VerifyTest, NonIntersectingQuorumsDetected) {
  SystemConfig cfg;
  cfg.num_sites = 4;
  cfg.protocols.rcp = RcpKind::kQuorumConsensus;
  ItemConfig item;
  item.name = "bad";
  item.copies = {0, 1, 2, 3};
  item.read_quorum = 1;   // R + W = 3 <= 4: reads can miss writes
  item.write_quorum = 2;  // 2W = 4 <= 4: write quorums can be disjoint
  cfg.items.push_back(item);
  HistoryChecker checker(cfg);
  CheckReport report = checker.Check(TraceCollector{});
  EXPECT_TRUE(HasCode(report, "rw-no-intersect")) << report.Render();
  EXPECT_TRUE(HasCode(report, "ww-no-intersect")) << report.Render();
  EXPECT_EQ(report.CountFor(InvariantKind::kQuorumConfig), 2u);
}

TEST(VerifyTest, MajorityQuorumsPass) {
  CheckReport report = MakeChecker().Check(TraceCollector{});
  EXPECT_TRUE(report.ok()) << report.Render();
  // Votes summing to INT_MAX validate; their majority quorums add up
  // past INT_MAX and still intersect.
  SystemConfig heavy;
  heavy.num_sites = 2;
  heavy.protocols.rcp = RcpKind::kQuorumConsensus;
  ItemConfig item;
  item.name = "heavy";
  item.copies = {0, 1};
  item.votes = {2147483646, 1};
  heavy.items.push_back(item);
  ASSERT_TRUE(heavy.Validate().ok());
  report = HistoryChecker(heavy).Check(TraceCollector{});
  EXPECT_TRUE(report.ok()) << report.Render();
}

// --- truncation handling ---

TEST(VerifyTest, TruncatedTraceSkipsHistoryPasses) {
  TraceCollector trace;
  trace.set_detail(TraceDetail::kProtocol);
  trace.set_capacity(4);
  TxnId t1 = Txn(1);
  for (int i = 0; i < 10; ++i) {
    trace.Emit(Rec(TraceEventKind::kCcGrant, t1, 0, 0));
  }
  ASSERT_GT(trace.dropped(), 0u);
  // Include a would-be violation: it must NOT be reported, because
  // absence-based reasoning over an evicted prefix is unsound.
  trace.Emit(Rec(TraceEventKind::kDecisionApplied, t1, 0, kInvalidItem, 1));
  trace.Emit(Rec(TraceEventKind::kDecisionApplied, t1, 1, kInvalidItem, 0));
  CheckReport report = MakeChecker().Check(trace);
  EXPECT_TRUE(report.truncated);
  EXPECT_TRUE(report.ok()) << report.Render();
  EXPECT_NE(report.Render().find("truncated"), std::string::npos);
}

// --- report rendering ---

TEST(VerifyTest, ReportRenderNamesEveryInvariant) {
  CheckReport report = MakeChecker().Check(TraceCollector{});
  std::string text = report.Render();
  EXPECT_NE(text.find("serializability"), std::string::npos);
  EXPECT_NE(text.find("atomicity"), std::string::npos);
  EXPECT_NE(text.find("replication"), std::string::npos);
  EXPECT_NE(text.find("lock-discipline"), std::string::npos);
  EXPECT_NE(text.find("quorum-config"), std::string::npos);
  EXPECT_NE(text.find("all invariants hold"), std::string::npos);
}

// --- end-to-end: the session gate ---

SystemConfig SweepSystemConfig(uint64_t seed, CcKind cc, RcpKind rcp) {
  SystemConfig cfg;
  cfg.seed = seed;
  cfg.num_sites = 4;
  cfg.protocols.cc = cc;
  cfg.protocols.rcp = rcp;
  cfg.trace_enabled = true;
  cfg.trace_detail = TraceDetail::kProtocol;
  cfg.AddUniformItems(12, 100, 3);
  return cfg;
}

TEST(VerifyTest, SessionGatePassesOnHealthyRun) {
  SystemConfig cfg = SweepSystemConfig(11, CcKind::kTwoPhaseLocking,
                                       RcpKind::kQuorumConsensus);
  cfg.verify_history = true;
  WorkloadConfig wl;
  wl.seed = 12;
  wl.num_txns = 60;
  wl.mpl = 4;
  wl.max_retries = 3;
  auto r = RunSession(cfg, wl);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r->verify_report.find("all invariants hold"), std::string::npos)
      << r->verify_report;
}

TEST(VerifyTest, SessionGateEnablesTracingAutomatically) {
  SystemConfig cfg = SweepSystemConfig(13, CcKind::kTwoPhaseLocking,
                                       RcpKind::kRowa);
  cfg.trace_enabled = false;  // the gate must turn this on itself
  cfg.trace_detail = TraceDetail::kOff;
  cfg.verify_history = true;
  WorkloadConfig wl;
  wl.seed = 14;
  wl.num_txns = 40;
  wl.mpl = 4;
  auto r = RunSession(cfg, wl);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r->verify_report.empty());
}

TEST(VerifyTest, SessionGateFailsWhenTraceTruncated) {
  // A checker that skipped its trace passes reports ok(); the gate must
  // not pass on that. Full detail records every message: 2500
  // eight-op transactions over 16 full replicas emit about 1.25 Mi
  // records, past the collector's default capacity of 1 Mi.
  SystemConfig cfg;
  cfg.seed = 15;
  cfg.num_sites = 16;
  cfg.protocols.rcp = RcpKind::kRowa;
  cfg.trace_enabled = true;
  cfg.trace_detail = TraceDetail::kFull;
  cfg.verify_history = true;
  cfg.AddFullyReplicatedItems(1000, 100);
  WorkloadConfig wl;
  wl.seed = 16;
  wl.num_txns = 2500;
  wl.mpl = 8;
  wl.ops_min = 8;
  wl.ops_max = 8;
  auto r = RunSession(cfg, wl);
  ASSERT_FALSE(r.ok()) << r->verify_report;
  const std::string& msg = r.status().message();
  const std::string prefix = "trace truncated, ";
  size_t at = msg.find(prefix);
  ASSERT_NE(at, std::string::npos) << msg;
  // The dropped count is named and nonzero.
  size_t dropped = std::stoul(msg.substr(at + prefix.size()));
  EXPECT_GT(dropped, 0u) << msg;
  EXPECT_NE(msg.find(" records dropped"), std::string::npos) << msg;
}

// --- end-to-end: multi-seed sweep across CC x RCP with faults ---

class VerifySweep
    : public ::testing::TestWithParam<std::tuple<CcKind, RcpKind>> {};

TEST_P(VerifySweep, InvariantsHoldAcrossSeedsUnderFaults) {
  auto [cc, rcp] = GetParam();
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SystemConfig cfg = SweepSystemConfig(seed, cc, rcp);
    cfg.message_loss = 0.01;
    cfg.verify_history = true;
    WorkloadConfig wl;
    wl.seed = seed * 7919 + 13;
    wl.num_txns = 60;
    wl.mpl = 6;
    wl.max_retries = 3;
    SessionOptions opts;
    opts.random_mttf = Millis(600);
    opts.random_mttr = Millis(150);
    opts.max_duration = Seconds(120);
    auto r = RunSession(cfg, wl, opts);
    ASSERT_TRUE(r.ok()) << "seed " << seed << ": " << r.status().ToString();
    EXPECT_TRUE(r->verify_report.find("all invariants hold") !=
                std::string::npos)
        << "seed " << seed << ":\n"
        << r->verify_report;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, VerifySweep,
    ::testing::Values(
        std::make_tuple(CcKind::kTwoPhaseLocking, RcpKind::kRowa),
        std::make_tuple(CcKind::kTwoPhaseLocking, RcpKind::kQuorumConsensus),
        std::make_tuple(CcKind::kTimestampOrdering,
                        RcpKind::kRowa),
        std::make_tuple(CcKind::kTimestampOrdering,
                        RcpKind::kQuorumConsensus)));

}  // namespace
}  // namespace rainbow
