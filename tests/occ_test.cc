// Optimistic concurrency control: engine unit tests plus end-to-end
// validation behaviour (lock-free execution, backward validation and
// commit-window locks at 2PC prepare).

#include <gtest/gtest.h>

#include "cc/occ_manager.h"
#include "core/system.h"
#include "verify/checker.h"
#include "workload/workload.h"

namespace rainbow {
namespace {

TxnId T(uint64_t n) { return TxnId{0, n}; }
TxnTimestamp Ts(int64_t n) { return TxnTimestamp{n, 0}; }

TEST(OccManagerTest, ExecutionPhaseIsLockFree) {
  OccManager occ;
  int grants = 0;
  auto count = [&](const CcGrant& g) { grants += g.granted; };
  // Conflicting reads and writes all pass during execution.
  occ.RequestWrite(T(1), Ts(1), 7, count);
  occ.RequestWrite(T(2), Ts(2), 7, count);
  occ.RequestRead(T(3), Ts(3), 7, count);
  EXPECT_EQ(grants, 3);
  EXPECT_FALSE(occ.Tracks(T(1)));  // nothing recorded
}

TEST(OccManagerTest, CommitLocksConflict) {
  OccManager occ;
  EXPECT_TRUE(occ.TryCommitLock(T(1), 7, /*exclusive=*/true));
  // Another writer or reader must fail while T1 is in its window.
  EXPECT_FALSE(occ.TryCommitLock(T(2), 7, true));
  EXPECT_FALSE(occ.TryCommitLock(T(2), 7, false));
  EXPECT_EQ(occ.validation_conflicts(), 2u);
  // Unrelated item is fine.
  EXPECT_TRUE(occ.TryCommitLock(T(2), 8, true));
  occ.Finish(T(1), true);
  EXPECT_TRUE(occ.TryCommitLock(T(2), 7, true));
}

TEST(OccManagerTest, SharedCommitLocksCoexist) {
  OccManager occ;
  EXPECT_TRUE(occ.TryCommitLock(T(1), 7, false));
  EXPECT_TRUE(occ.TryCommitLock(T(2), 7, false));
  // A writer must fail against foreign readers...
  EXPECT_FALSE(occ.TryCommitLock(T(3), 7, true));
  // ...but a transaction may upgrade over its own shared lock once the
  // other reader is gone.
  occ.Finish(T(2), false);
  EXPECT_TRUE(occ.TryCommitLock(T(1), 7, true));
  occ.Finish(T(1), true);
  EXPECT_EQ(occ.num_commit_locks(), 0u);
}

TEST(OccManagerTest, FinishReleasesEverything) {
  OccManager occ;
  occ.TryCommitLock(T(1), 1, true);
  occ.TryCommitLock(T(1), 2, false);
  EXPECT_TRUE(occ.Tracks(T(1)));
  EXPECT_EQ(occ.num_commit_locks(), 2u);
  occ.Finish(T(1), false);
  EXPECT_FALSE(occ.Tracks(T(1)));
  EXPECT_EQ(occ.num_commit_locks(), 0u);
}

class OccSystemTest : public ::testing::Test {
 protected:
  static SystemConfig Config() {
    SystemConfig cfg;
    cfg.seed = 404;
    cfg.num_sites = 3;
    cfg.latency.distribution = LatencyDistribution::kFixed;
    cfg.latency.mean = Millis(1);
    cfg.trace_enabled = true;
    cfg.protocols.cc = CcKind::kOptimistic;
    cfg.AddFullyReplicatedItems(10, 100);
    return cfg;
  }
};

TEST_F(OccSystemTest, UncontendedTransactionsCommit) {
  auto sys = RainbowSystem::Create(Config());
  ASSERT_TRUE(sys.ok());
  RainbowSystem& s = **sys;
  int committed = 0;
  for (int i = 0; i < 5; ++i) {
    TxnProgram p;
    p.ops = {Op::Read(static_cast<ItemId>(i)),
             Op::Increment(static_cast<ItemId>(i + 5), 1)};
    ASSERT_TRUE(s.Submit(static_cast<SiteId>(i % 3), p,
                         [&](const TxnOutcome& o) { committed += o.committed; })
                    .ok());
    s.RunFor(Millis(100));
  }
  EXPECT_EQ(committed, 5);
  CheckReport report = s.VerifyHistory();
  EXPECT_TRUE(report.ok()) << report.Render();
}

TEST_F(OccSystemTest, StaleReadFailsValidation) {
  auto sys = RainbowSystem::Create(Config());
  ASSERT_TRUE(sys.ok());
  RainbowSystem& s = **sys;

  // T-slow reads item 0 early, then does two more reads (slow), then
  // increments item 1. T-fast overwrites item 0 in the middle. T-slow's
  // validation of item 0 must fail at prepare.
  TxnOutcome slow, fast;
  bool slow_done = false, fast_done = false;
  TxnProgram slow_p;
  slow_p.ops = {Op::Read(0), Op::Read(2), Op::Read(3), Op::Increment(1, 5)};
  TxnProgram fast_p;
  fast_p.ops = {Op::Write(0, 999)};
  s.sim().At(Micros(10), [&] {
    ASSERT_TRUE(s.Submit(0, slow_p, [&](const TxnOutcome& o) {
                   slow = o;
                   slow_done = true;
                 }).ok());
  });
  s.sim().At(Millis(3), [&] {
    ASSERT_TRUE(s.Submit(1, fast_p, [&](const TxnOutcome& o) {
                   fast = o;
                   fast_done = true;
                 }).ok());
  });
  s.RunFor(Seconds(2));
  ASSERT_TRUE(slow_done && fast_done);
  EXPECT_TRUE(fast.committed) << fast.ToString();
  EXPECT_FALSE(slow.committed) << slow.ToString();
  EXPECT_EQ(slow.abort_cause, AbortCause::kAcp);  // NO vote at prepare
  EXPECT_NE(slow.abort_detail.find("validation_failed"), std::string::npos)
      << slow.abort_detail;
  // The failed transaction wrote nothing.
  EXPECT_EQ(s.LatestCommitted(1)->version, 0u);
  CheckReport report = s.VerifyHistory();
  EXPECT_TRUE(report.ok()) << report.Render();
}

TEST_F(OccSystemTest, NoBlockingDuringExecution) {
  // Under OCC the slow reader never delays the writer (no read locks):
  // the writer commits at full speed while the reader is still running.
  auto sys = RainbowSystem::Create(Config());
  ASSERT_TRUE(sys.ok());
  RainbowSystem& s = **sys;
  SimTime fast_finish = 0;
  TxnProgram slow_p;
  slow_p.ops = {Op::Read(0), Op::Read(2), Op::Read(3), Op::Read(4),
                Op::Read(5)};
  TxnProgram fast_p;
  fast_p.ops = {Op::Write(0, 1)};
  ASSERT_TRUE(s.Submit(0, slow_p, nullptr).ok());
  s.sim().At(Millis(2), [&] {
    ASSERT_TRUE(s.Submit(1, fast_p, [&](const TxnOutcome& o) {
                   fast_finish = o.finished_at;
                 }).ok());
  });
  s.RunFor(Seconds(1));
  ASSERT_GT(fast_finish, 0);
  // With 1ms hops the writer needs ~8-12ms; a 2PL reader holding item 0
  // would have stalled it until the reader finished (~14ms+).
  EXPECT_LT(fast_finish, Millis(14));
}

TEST_F(OccSystemTest, ContendedWorkloadStaysSerializable) {
  SystemConfig cfg = Config();
  cfg.latency.distribution = LatencyDistribution::kUniform;
  cfg.latency.mean = Millis(2);
  auto sys = RainbowSystem::Create(cfg);
  ASSERT_TRUE(sys.ok());
  RainbowSystem& s = **sys;
  WorkloadConfig wl;
  wl.seed = 405;
  wl.num_txns = 150;
  wl.mpl = 8;
  wl.read_fraction = 0.5;
  WorkloadGenerator wlg(&s, wl);
  bool done = false;
  wlg.Run([&] { done = true; });
  s.RunFor(Seconds(60));
  ASSERT_TRUE(done);
  s.RunFor(Seconds(2));
  CheckReport report = s.VerifyHistory();
  EXPECT_TRUE(report.ok()) << report.Render();
  EXPECT_TRUE(s.CheckReplicaConsistency(false).ok());
  EXPECT_GT(s.monitor().committed(), 30u);
  // Validation failures surface as ACP aborts (NO votes).
  EXPECT_GT(s.monitor().aborted(AbortCause::kAcp), 0u);
  for (SiteId id = 0; id < 3; ++id) {
    EXPECT_EQ(s.site(id)->active_coordinators(), 0u);
    EXPECT_EQ(s.site(id)->active_participants(), 0u);
  }
}

}  // namespace
}  // namespace rainbow
