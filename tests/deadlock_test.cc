// Tests of the edge-chasing (Chandy–Misra–Haas) distributed deadlock
// detector: a genuinely distributed cycle — each transaction holds a
// lock at one site and waits at another — that no site-local policy can
// see, resolved by probes well before any timeout.

#include <gtest/gtest.h>

#include "cc/lock_manager.h"
#include "core/system.h"
#include "verify/checker.h"
#include "workload/workload.h"

namespace rainbow {
namespace {

TEST(LockManagerEdgeChasing, WaitingForReportsHolders) {
  LockManager lm(DeadlockPolicy::kEdgeChasing);
  TxnId t1{0, 1}, t2{1, 1}, t3{2, 1};
  lm.RequestWrite(t1, TxnTimestamp{1, 0}, 7, [](const CcGrant&) {});
  bool t2_pending = true;
  lm.RequestWrite(t2, TxnTimestamp{2, 1}, 7,
                  [&](const CcGrant&) { t2_pending = false; });
  EXPECT_TRUE(t2_pending);
  auto waits = lm.WaitingFor(t2);
  ASSERT_EQ(waits.size(), 1u);
  EXPECT_EQ(waits[0], t1);
  // t3 queues behind t2: waits for the holder AND the queued-ahead t2.
  lm.RequestWrite(t3, TxnTimestamp{3, 2}, 7, [](const CcGrant&) {});
  auto waits3 = lm.WaitingFor(t3);
  EXPECT_EQ(waits3.size(), 2u);
  // Non-blocked transactions wait for nobody.
  EXPECT_TRUE(lm.WaitingFor(t1).empty());
  EXPECT_TRUE(lm.WaitingFor(TxnId{9, 9}).empty());
}

class EdgeChasingTest : public ::testing::Test {
 protected:
  static SystemConfig Config() {
    SystemConfig cfg;
    cfg.seed = 77;
    cfg.num_sites = 2;
    cfg.latency.distribution = LatencyDistribution::kFixed;
    cfg.latency.mean = Millis(1);
    cfg.protocols.deadlock = DeadlockPolicy::kEdgeChasing;
    cfg.protocols.probe_delay = Millis(5);
    // Long fallback timeouts: if probes fail, the test's own deadline
    // catches it long before these fire.
    cfg.protocols.lock_wait_timeout = Seconds(30);
    cfg.protocols.op_timeout = Seconds(60);
    // Two single-copy items, one per site: T-a locks x(at site 0) then
    // wants y(at site 1); T-b locks y then wants x.
    ItemConfig x;
    x.name = "x";
    x.initial = 0;
    x.copies = {0};
    cfg.items.push_back(x);
    ItemConfig y;
    y.name = "y";
    y.initial = 0;
    y.copies = {1};
    cfg.items.push_back(y);
    return cfg;
  }
};

TEST_F(EdgeChasingTest, ResolvesDistributedCycle) {
  auto sys = RainbowSystem::Create(Config());
  ASSERT_TRUE(sys.ok()) << sys.status();
  RainbowSystem& s = **sys;

  TxnOutcome out_a, out_b;
  bool done_a = false, done_b = false;
  // T-a homed at 0: writes x (local grant) then y.
  TxnProgram a;
  a.ops = {Op::Write(0, 1), Op::Write(1, 1)};
  // T-b homed at 1: writes y (local grant) then x.
  TxnProgram b;
  b.ops = {Op::Write(1, 2), Op::Write(0, 2)};

  ASSERT_TRUE(s.Submit(0, a, [&](const TxnOutcome& o) {
                 out_a = o;
                 done_a = true;
               }).ok());
  ASSERT_TRUE(s.Submit(1, b, [&](const TxnOutcome& o) {
                 out_b = o;
                 done_b = true;
               }).ok());
  // Probes must break the cycle within tens of milliseconds — far
  // below the 30s lock-wait fallback.
  s.RunFor(Millis(500));
  ASSERT_TRUE(done_a && done_b) << "deadlock was not broken by probes";
  // At least one of the two died as a deadlock victim; they cannot both
  // have committed.
  EXPECT_FALSE(out_a.committed && out_b.committed);
  int aborted_by_probe =
      (!out_a.committed &&
       out_a.abort_detail.find("deadlock") != std::string::npos) +
      (!out_b.committed &&
       out_b.abort_detail.find("deadlock") != std::string::npos);
  EXPECT_GE(aborted_by_probe, 1) << out_a.ToString() << " / "
                                 << out_b.ToString();
  // Probe traffic actually flowed.
  const NetworkStats& net = s.net().stats();
  EXPECT_GT(net.by_kind[static_cast<size_t>(MessageKind::kDeadlockProbe)],
            0u);
  EXPECT_GT(
      net.by_kind[static_cast<size_t>(MessageKind::kDeadlockProbeCheck)], 0u);
  // Locks were released: a follow-up transaction touching both items
  // commits quickly.
  bool follow_up = false;
  TxnProgram c;
  c.ops = {Op::Write(0, 9), Op::Write(1, 9)};
  ASSERT_TRUE(s.Submit(0, c,
                       [&](const TxnOutcome& o) { follow_up = o.committed; })
                  .ok());
  s.RunFor(Millis(500));
  EXPECT_TRUE(follow_up);
}

TEST_F(EdgeChasingTest, NoFalsePositivesOnPlainContention) {
  // A chain (no cycle): many writers of the same item. Probes flow but
  // nobody should be aborted as a deadlock victim.
  SystemConfig cfg = Config();
  auto sys = RainbowSystem::Create(cfg);
  ASSERT_TRUE(sys.ok());
  RainbowSystem& s = **sys;
  // Blind writes only: concurrent increments would S->X upgrade into a
  // *real* deadlock; a pure writer chain has no cycle.
  int committed = 0, aborted = 0;
  for (int i = 0; i < 5; ++i) {
    TxnProgram p;
    p.ops = {Op::Write(0, i + 1)};
    ASSERT_TRUE(s.Submit(static_cast<SiteId>(i % 2), p,
                         [&](const TxnOutcome& o) {
                           (o.committed ? committed : aborted)++;
                         })
                    .ok());
  }
  s.RunFor(Seconds(2));
  EXPECT_EQ(committed, 5);
  EXPECT_EQ(aborted, 0);
  EXPECT_EQ(s.LatestCommitted(0)->version, 5u);
}

TEST_F(EdgeChasingTest, OrderedAccessPreventsTheCycleEntirely) {
  // The same two transactions that deadlock in ResolvesDistributedCycle
  // cannot deadlock under conservative ordered access: both acquire
  // item 0 before item 1, so the waits form a chain, never a cycle —
  // and both commit.
  SystemConfig cfg = Config();
  cfg.protocols.deadlock = DeadlockPolicy::kTimeoutOnly;  // no detector
  cfg.protocols.ordered_access = true;
  cfg.protocols.lock_wait_timeout = Seconds(30);  // nothing should trip it
  auto sys = RainbowSystem::Create(cfg);
  ASSERT_TRUE(sys.ok());
  RainbowSystem& s = **sys;

  TxnOutcome out_a, out_b;
  bool done_a = false, done_b = false;
  TxnProgram a;
  a.ops = {Op::Write(0, 1), Op::Write(1, 1)};
  TxnProgram b;
  b.ops = {Op::Write(1, 2), Op::Write(0, 2)};  // reversed program order
  ASSERT_TRUE(s.Submit(0, a, [&](const TxnOutcome& o) {
                 out_a = o;
                 done_a = true;
               }).ok());
  ASSERT_TRUE(s.Submit(1, b, [&](const TxnOutcome& o) {
                 out_b = o;
                 done_b = true;
               }).ok());
  s.RunFor(Millis(500));
  ASSERT_TRUE(done_a && done_b);
  EXPECT_TRUE(out_a.committed) << out_a.ToString();
  EXPECT_TRUE(out_b.committed) << out_b.ToString();
  // No probes were even needed.
  EXPECT_EQ(s.net().stats().by_kind[static_cast<size_t>(
                MessageKind::kDeadlockProbe)],
            0u);
}

TEST_F(EdgeChasingTest, OrderedAccessPreservesClientSemantics) {
  // Read values come back in PROGRAM order even though execution was
  // reordered by item id.
  SystemConfig cfg = Config();
  cfg.protocols.ordered_access = true;
  auto sys = RainbowSystem::Create(cfg);
  ASSERT_TRUE(sys.ok());
  RainbowSystem& s = **sys;
  // Seed distinct values.
  ASSERT_TRUE(
      s.Submit(0, TxnProgram{{Op::Write(0, 111), Op::Write(1, 222)}, ""},
               nullptr)
          .ok());
  s.RunFor(Millis(200));

  TxnOutcome out;
  bool done = false;
  TxnProgram p;
  // Program reads y (item 1) FIRST, then x (item 0); execution order
  // flips them, but reads[0] must still be y's value.
  p.ops = {Op::Read(1), Op::Read(0), Op::Increment(1, 1)};
  ASSERT_TRUE(s.Submit(1, p, [&](const TxnOutcome& o) {
                 out = o;
                 done = true;
               }).ok());
  s.RunFor(Millis(300));
  ASSERT_TRUE(done);
  ASSERT_TRUE(out.committed);
  ASSERT_EQ(out.reads.size(), 3u);
  EXPECT_EQ(out.reads[0], 222);  // R(y) — program order preserved
  EXPECT_EQ(out.reads[1], 111);  // R(x)
  EXPECT_EQ(out.reads[2], 222);  // I(y) observed y before incrementing
  EXPECT_EQ(s.LatestCommitted(1)->value, 223);
}

TEST_F(EdgeChasingTest, SerializableUnderContendedWorkload) {
  // Whole-system soak with the edge-chasing policy: cycles form and are
  // broken; the usual invariants must hold.
  SystemConfig cfg;
  cfg.seed = 78;
  cfg.num_sites = 4;
  cfg.trace_enabled = true;
  cfg.protocols.deadlock = DeadlockPolicy::kEdgeChasing;
  cfg.protocols.probe_delay = Millis(5);
  cfg.protocols.lock_wait_timeout = Millis(200);
  cfg.AddUniformItems(15, 0, 3);

  auto sys = RainbowSystem::Create(cfg);
  ASSERT_TRUE(sys.ok());
  RainbowSystem& s = **sys;
  WorkloadConfig wl;
  wl.seed = 79;
  wl.num_txns = 120;
  wl.mpl = 8;
  wl.read_fraction = 0.4;
  WorkloadGenerator wlg(&s, wl);
  bool done = false;
  wlg.Run([&] { done = true; });
  s.RunFor(Seconds(120));
  ASSERT_TRUE(done);
  s.RunFor(Seconds(2));

  CheckReport report = s.VerifyHistory();
  EXPECT_TRUE(report.ok()) << report.Render();
  EXPECT_TRUE(s.CheckReplicaConsistency(false).ok());
  for (SiteId id = 0; id < 4; ++id) {
    EXPECT_EQ(s.site(id)->active_coordinators(), 0u);
    EXPECT_EQ(s.site(id)->active_participants(), 0u);
  }
  EXPECT_GT(s.monitor().committed(), 30u);
}

}  // namespace
}  // namespace rainbow
