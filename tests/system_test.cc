#include <gtest/gtest.h>

#include "core/session.h"
#include "core/system.h"
#include "fault/fault_injector.h"
#include "verify/checker.h"
#include "workload/workload.h"

namespace rainbow {
namespace {

SystemConfig SmallSystem(uint32_t sites = 3, int items = 10,
                         int replication = 3) {
  SystemConfig cfg;
  cfg.seed = 1234;
  cfg.num_sites = sites;
  cfg.AddUniformItems(items, 100, replication);
  return cfg;
}

TEST(SystemTest, CreateValidatesConfig) {
  SystemConfig cfg;  // no items
  cfg.num_sites = 2;
  auto sys = RainbowSystem::Create(cfg);
  EXPECT_FALSE(sys.ok());
}

TEST(SystemTest, SingleTransactionCommits) {
  auto sys = RainbowSystem::Create(SmallSystem());
  ASSERT_TRUE(sys.ok()) << sys.status();
  RainbowSystem& s = **sys;

  TxnProgram p;
  p.ops = {Op::Read(0), Op::Write(1, 55)};
  TxnOutcome outcome;
  bool done = false;
  ASSERT_TRUE(s.Submit(0, p, [&](const TxnOutcome& o) {
                 outcome = o;
                 done = true;
               }).ok());
  s.RunToQuiescence(1'000'000);
  ASSERT_TRUE(done);
  EXPECT_TRUE(outcome.committed) << outcome.ToString();
  ASSERT_EQ(outcome.reads.size(), 1u);
  EXPECT_EQ(outcome.reads[0], 100);  // initial value

  auto latest = s.LatestCommitted(1);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->value, 55);
  EXPECT_EQ(latest->version, 1u);
}

TEST(SystemTest, IncrementReadsThenWrites) {
  auto sys = RainbowSystem::Create(SmallSystem());
  ASSERT_TRUE(sys.ok()) << sys.status();
  RainbowSystem& s = **sys;

  TxnProgram p;
  p.ops = {Op::Increment(0, 7)};
  bool committed = false;
  ASSERT_TRUE(
      s.Submit(1, p, [&](const TxnOutcome& o) { committed = o.committed; })
          .ok());
  s.RunToQuiescence(1'000'000);
  EXPECT_TRUE(committed);
  auto latest = s.LatestCommitted(0);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->value, 107);
}

TEST(SystemTest, SequentialTransactionsSerializable) {
  SystemConfig cfg = SmallSystem();
  cfg.trace_enabled = true;
  auto sys = RainbowSystem::Create(cfg);
  ASSERT_TRUE(sys.ok()) << sys.status();
  RainbowSystem& s = **sys;
  for (int i = 0; i < 20; ++i) {
    TxnProgram p;
    p.ops = {Op::Increment(static_cast<ItemId>(i % 5), 1)};
    ASSERT_TRUE(s.Submit(static_cast<SiteId>(i % 3), p, nullptr).ok());
    s.RunToQuiescence(1'000'000);
  }
  EXPECT_EQ(s.monitor().committed(), 20u);
  CheckReport report = s.VerifyHistory();
  EXPECT_TRUE(report.ok()) << report.Render();
  EXPECT_TRUE(s.CheckReplicaConsistency(false).ok());
}

TEST(SystemTest, WeightedQuorumSingleSiteCanDecide) {
  // Site 0 holds 3 of 5 votes: with R=W=3 it alone forms both quorums,
  // so transactions homed there never need the other copies.
  SystemConfig cfg;
  cfg.seed = 5;
  cfg.num_sites = 3;
  ItemConfig item;
  item.name = "heavy";
  item.initial = 7;
  item.copies = {0, 1, 2};
  item.votes = {3, 1, 1};
  item.read_quorum = 3;
  item.write_quorum = 3;
  cfg.items.push_back(item);
  auto sys = RainbowSystem::Create(cfg);
  ASSERT_TRUE(sys.ok()) << sys.status();
  RainbowSystem& s = **sys;
  // Even with both minor copies down, the heavy site commits.
  s.CrashSite(1);
  s.CrashSite(2);
  bool committed = false;
  ASSERT_TRUE(s.Submit(0, TxnProgram{{Op::Increment(0, 1)}, ""},
                       [&](const TxnOutcome& o) { committed = o.committed; })
                  .ok());
  s.RunToQuiescence(1'000'000);
  EXPECT_TRUE(committed);
  EXPECT_EQ(s.site(0)->store().Get(0)->value, 8);
}

TEST(SessionTest, ClosedLoopWorkloadDrains) {
  SystemConfig sys_cfg = SmallSystem(4, 200, 3);
  sys_cfg.verify_history = true;
  WorkloadConfig wl;
  wl.num_txns = 100;
  wl.mpl = 4;
  auto r = RunSession(sys_cfg, wl);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->committed + r->aborted, 100u);
  EXPECT_GT(r->committed, 80u);
  EXPECT_GT(r->net_messages, 0u);
  EXPECT_GT(r->throughput_tps, 0.0);
}

TEST(SessionTest, CrashAndRecoveryWithQuorum) {
  SystemConfig sys_cfg = SmallSystem(5, 200, 5);
  WorkloadConfig wl;
  wl.num_txns = 150;
  wl.mpl = 6;
  SessionOptions opt;
  opt.faults = {FaultEvent::Crash(Millis(50), 2),
                FaultEvent::Recover(Millis(400), 2)};
  auto r = RunSession(sys_cfg, wl, opt);
  ASSERT_TRUE(r.ok()) << r.status();
  // Quorum consensus keeps committing through a single-site outage.
  EXPECT_GT(r->committed, 110u);
}

}  // namespace
}  // namespace rainbow
