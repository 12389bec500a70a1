// Property-style tests: seed-parameterized whole-system runs checking
// the invariants every correct configuration must uphold —
// conflict-serializability of the committed history, atomic visibility
// of writes, replica agreement, conservation of money in transfer
// workloads, message conservation, and full quiescence.

#include <gtest/gtest.h>

#include "core/system.h"
#include "fault/fault_injector.h"
#include "verify/checker.h"
#include "workload/workload.h"

namespace rainbow {
namespace {

struct ProtoCase {
  RcpKind rcp;
  CcKind cc;
  DeadlockPolicy deadlock;
  const char* name;
};

const ProtoCase kProtoCases[] = {
    {RcpKind::kQuorumConsensus, CcKind::kTwoPhaseLocking,
     DeadlockPolicy::kWaitDie, "QC_2PL_waitdie"},
    {RcpKind::kQuorumConsensus, CcKind::kTwoPhaseLocking,
     DeadlockPolicy::kWoundWait, "QC_2PL_woundwait"},
    {RcpKind::kQuorumConsensus, CcKind::kTwoPhaseLocking,
     DeadlockPolicy::kLocalWfg, "QC_2PL_wfg"},
    {RcpKind::kQuorumConsensus, CcKind::kTwoPhaseLocking,
     DeadlockPolicy::kTimeoutOnly, "QC_2PL_timeout"},
    {RcpKind::kQuorumConsensus, CcKind::kTimestampOrdering,
     DeadlockPolicy::kWaitDie, "QC_TSO"},
    {RcpKind::kQuorumConsensus, CcKind::kMultiversionTso,
     DeadlockPolicy::kWaitDie, "QC_MVTO"},
    {RcpKind::kRowa, CcKind::kTwoPhaseLocking, DeadlockPolicy::kWaitDie,
     "ROWA_2PL"},
    {RcpKind::kRowa, CcKind::kTimestampOrdering, DeadlockPolicy::kWaitDie,
     "ROWA_TSO"},
    {RcpKind::kPrimaryCopy, CcKind::kTwoPhaseLocking,
     DeadlockPolicy::kWoundWait, "PRIMARY_2PL"},
    {RcpKind::kPrimaryCopy, CcKind::kTimestampOrdering,
     DeadlockPolicy::kWaitDie, "PRIMARY_TSO"},
    {RcpKind::kQuorumConsensus, CcKind::kOptimistic,
     DeadlockPolicy::kWaitDie, "QC_OCC"},
    {RcpKind::kRowa, CcKind::kOptimistic, DeadlockPolicy::kWaitDie,
     "ROWA_OCC"},
};

class SerializabilityProperty
    : public ::testing::TestWithParam<std::tuple<ProtoCase, uint64_t>> {};

TEST_P(SerializabilityProperty, CommittedHistoryIsSerializable) {
  const auto& [proto, seed] = GetParam();
  SystemConfig cfg;
  cfg.seed = seed;
  cfg.num_sites = 4;
  cfg.trace_enabled = true;
  cfg.protocols.rcp = proto.rcp;
  cfg.protocols.cc = proto.cc;
  cfg.protocols.deadlock = proto.deadlock;
  cfg.AddUniformItems(12, 50, 3);  // small database: heavy conflicts

  auto sys = RainbowSystem::Create(cfg);
  ASSERT_TRUE(sys.ok()) << sys.status();
  RainbowSystem& s = **sys;

  WorkloadConfig wl;
  wl.seed = seed * 31 + 7;
  wl.num_txns = 120;
  wl.mpl = 8;
  wl.read_fraction = 0.5;
  wl.ops_min = 2;
  wl.ops_max = 5;
  WorkloadGenerator wlg(&s, wl);
  bool done = false;
  wlg.Run([&] { done = true; });
  s.RunFor(Seconds(120));
  ASSERT_TRUE(done) << "workload did not drain";
  s.RunFor(Seconds(2));  // let closers/acks settle

  CheckReport report = s.VerifyHistory();
  EXPECT_TRUE(report.ok()) << proto.name << " seed " << seed << ":\n"
                           << report.Render();
  // Replica agreement: no two copies disagree at the same version.
  EXPECT_TRUE(s.CheckReplicaConsistency(false).ok());
  // Quiescence: no transaction state left anywhere.
  for (SiteId id = 0; id < 4; ++id) {
    EXPECT_EQ(s.site(id)->active_coordinators(), 0u) << proto.name;
    EXPECT_EQ(s.site(id)->active_participants(), 0u) << proto.name;
  }
  // Message conservation.
  const NetworkStats& net = s.net().stats();
  EXPECT_EQ(net.delivered + net.total_dropped(), net.sent);
  // Sanity: the run actually did something. (Commit rates are low by
  // design here — a 12-item database at MPL 8 is a conflict furnace.)
  EXPECT_GT(s.monitor().committed(), 10u) << proto.name << " seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(
    ProtocolMatrix, SerializabilityProperty,
    ::testing::Combine(::testing::ValuesIn(kProtoCases),
                       ::testing::Values(1u, 2u, 3u)),
    [](const ::testing::TestParamInfo<SerializabilityProperty::ParamType>&
           info) {
      return std::string(std::get<0>(info.param).name) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// --- money conservation under concurrent transfers ---

class TransferProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TransferProperty, TotalBalanceConserved) {
  uint64_t seed = GetParam();
  constexpr int kAccounts = 10;
  constexpr Value kInitial = 1000;

  SystemConfig cfg;
  cfg.seed = seed;
  cfg.num_sites = 3;
  cfg.trace_enabled = true;
  cfg.AddFullyReplicatedItems(kAccounts, kInitial);

  auto sys = RainbowSystem::Create(cfg);
  ASSERT_TRUE(sys.ok());
  RainbowSystem& s = **sys;

  // Fire 60 concurrent transfers: move a random amount between two
  // random accounts. INCREMENT ops make them read-modify-write.
  Rng rng(seed * 7919);
  int launched = 0;
  for (int i = 0; i < 60; ++i) {
    ItemId from = static_cast<ItemId>(rng.NextUint(kAccounts));
    ItemId to = static_cast<ItemId>(rng.NextUint(kAccounts));
    if (from == to) to = (to + 1) % kAccounts;
    Value amount = rng.NextInt(1, 50);
    TxnProgram p;
    p.ops = {Op::Increment(from, -amount), Op::Increment(to, amount)};
    p.label = "transfer";
    SiteId home = static_cast<SiteId>(rng.NextUint(3));
    s.sim().At(Micros(static_cast<SimTime>(rng.NextUint(20000))), [&s, p, home] {
      ASSERT_TRUE(s.Submit(home, p, nullptr).ok());
    });
    ++launched;
  }
  s.RunFor(Seconds(60));
  ASSERT_EQ(s.monitor().committed() + s.monitor().aborted_total(),
            static_cast<uint64_t>(launched));

  // The sum over latest committed values must be exactly conserved.
  Value total = 0;
  for (ItemId i = 0; i < kAccounts; ++i) {
    auto latest = s.LatestCommitted(i);
    ASSERT_TRUE(latest.ok());
    total += latest->value;
  }
  EXPECT_EQ(total, kAccounts * kInitial);
  CheckReport report = s.VerifyHistory();
  EXPECT_TRUE(report.ok()) << report.Render();
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransferProperty,
                         ::testing::Range<uint64_t>(1, 9));

// --- atomicity & convergence under random crash/recovery ---

class FaultProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FaultProperty, SerializableAndConsistentUnderRandomFaults) {
  uint64_t seed = GetParam();
  SystemConfig cfg;
  cfg.seed = seed;
  cfg.num_sites = 5;
  cfg.trace_enabled = true;
  cfg.AddUniformItems(30, 100, 5);  // full replication, quorum 3

  auto sys = RainbowSystem::Create(cfg);
  ASSERT_TRUE(sys.ok());
  RainbowSystem& s = **sys;

  FaultInjector inject(&s);
  inject.EnableRandomFaults(Millis(400), Millis(120), Seconds(2), seed * 13);

  WorkloadConfig wl;
  wl.seed = seed * 17;
  wl.num_txns = 200;
  wl.mpl = 6;
  wl.read_fraction = 0.5;
  WorkloadGenerator wlg(&s, wl);
  bool done = false;
  wlg.Run([&] { done = true; });
  s.RunFor(Seconds(6));
  // Workloads may stall if homes crash at the wrong moment; either way
  // the committed prefix must be correct. Give recovery time to settle.
  s.RunFor(Seconds(4));

  CheckReport report = s.VerifyHistory();
  EXPECT_TRUE(report.ok()) << "seed " << seed << ":\n" << report.Render();
  EXPECT_TRUE(s.CheckReplicaConsistency(false).ok())
      << s.CheckReplicaConsistency(false).ToString();
  EXPECT_GT(s.monitor().committed(), 5u) << "seed " << seed;
  const NetworkStats& net = s.net().stats();
  EXPECT_EQ(net.delivered + net.total_dropped(), net.sent);
  (void)done;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultProperty,
                         ::testing::Range<uint64_t>(1, 7));

// --- correctness under message loss ---

class LossProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LossProperty, SerializableUnderMessageLoss) {
  uint64_t seed = GetParam();
  SystemConfig cfg;
  cfg.seed = seed;
  cfg.num_sites = 4;
  cfg.trace_enabled = true;
  cfg.message_loss = 0.03;  // 3% of messages silently vanish
  cfg.verify_codec = true;  // and everything rides the wire codec
  cfg.AddUniformItems(40, 100, 3);

  auto sys = RainbowSystem::Create(cfg);
  ASSERT_TRUE(sys.ok());
  RainbowSystem& s = **sys;

  WorkloadConfig wl;
  wl.seed = seed * 41;
  wl.num_txns = 150;
  wl.mpl = 5;
  WorkloadGenerator wlg(&s, wl);
  bool done = false;
  wlg.Run([&] { done = true; });
  s.RunFor(Seconds(30));
  EXPECT_TRUE(done) << "workload did not drain under loss";
  s.RunFor(Seconds(3));

  CheckReport report = s.VerifyHistory();
  EXPECT_TRUE(report.ok()) << "seed " << seed << ":\n" << report.Render();
  EXPECT_TRUE(s.CheckReplicaConsistency(false).ok())
      << s.CheckReplicaConsistency(false).ToString();
  // Losses really happened and the protocols survived them.
  EXPECT_GT(s.net().stats().dropped[static_cast<size_t>(
                DropCause::kRandomLoss)],
            0u);
  EXPECT_EQ(s.net().stats().codec_failures, 0u);
  EXPECT_GT(s.monitor().committed(), 25u) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, LossProperty,
                         ::testing::Range<uint64_t>(1, 6));

// --- 3PC under random faults ---

class ThreePcFaultProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ThreePcFaultProperty, AtomicUnderRandomCrashes) {
  uint64_t seed = GetParam();
  SystemConfig cfg;
  cfg.seed = seed;
  cfg.num_sites = 4;
  cfg.trace_enabled = true;
  cfg.trace_detail = TraceDetail::kProtocol;
  cfg.protocols.acp = AcpKind::kThreePhaseCommit;
  cfg.AddUniformItems(20, 100, 4);

  auto sys = RainbowSystem::Create(cfg);
  ASSERT_TRUE(sys.ok());
  RainbowSystem& s = **sys;

  FaultInjector inject(&s);
  inject.EnableRandomFaults(Millis(500), Millis(150), Seconds(2), seed * 29);

  WorkloadConfig wl;
  wl.seed = seed * 37;
  wl.num_txns = 120;
  wl.mpl = 5;
  WorkloadGenerator wlg(&s, wl);
  wlg.Run();
  s.RunFor(Seconds(10));

  // The trace checker sees participant decisions, so it also classifies
  // transactions the 3PC termination protocol committed after their
  // coordinator crashed.
  CheckReport report = s.VerifyHistory();
  EXPECT_TRUE(report.ok()) << "seed " << seed << ":\n" << report.Render();
  EXPECT_TRUE(s.CheckReplicaConsistency(false).ok());
  EXPECT_GT(s.monitor().committed(), 3u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ThreePcFaultProperty,
                         ::testing::Range<uint64_t>(1, 5));

}  // namespace
}  // namespace rainbow
