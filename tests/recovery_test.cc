#include <gtest/gtest.h>

#include <algorithm>

#include "core/system.h"
#include "fault/fault_injector.h"
#include "workload/workload.h"

namespace rainbow {
namespace {

/// Fixed latency makes protocol phase timing predictable enough to place
/// crashes inside specific windows.
SystemConfig FixedLatencySystem(uint32_t sites, AcpKind acp,
                                RcpKind rcp = RcpKind::kQuorumConsensus) {
  SystemConfig cfg;
  cfg.seed = 99;
  cfg.num_sites = sites;
  cfg.latency.distribution = LatencyDistribution::kFixed;
  cfg.latency.mean = Millis(1);
  cfg.latency.min = Micros(100);
  cfg.latency.per_kb = 0;
  cfg.protocols.acp = acp;
  cfg.protocols.rcp = rcp;
  cfg.AddFullyReplicatedItems(10, 100);
  return cfg;
}

/// Asserts every copy of every item carries the same (version, value) —
/// full convergence, which holds in these tests after recovery+refresh.
void ExpectConverged(RainbowSystem& sys) {
  EXPECT_TRUE(sys.CheckReplicaConsistency(true).ok())
      << sys.CheckReplicaConsistency(true).ToString();
}

TEST(RecoveryTest, SubmitToCrashedSiteFailsFast) {
  auto sys = RainbowSystem::Create(FixedLatencySystem(3, AcpKind::kTwoPhaseCommit));
  ASSERT_TRUE(sys.ok());
  RainbowSystem& s = **sys;
  s.CrashSite(0);
  TxnOutcome outcome;
  bool done = false;
  ASSERT_TRUE(s.Submit(0, TxnProgram{{Op::Read(0)}, ""},
                       [&](const TxnOutcome& o) {
                         outcome = o;
                         done = true;
                       })
                  .ok());
  s.RunFor(Millis(10));
  ASSERT_TRUE(done);
  EXPECT_FALSE(outcome.committed);
  EXPECT_EQ(outcome.abort_cause, AbortCause::kSiteFailure);
}

TEST(RecoveryTest, HomeCrashMidFlightIsAtomic) {
  // Sweep the crash over the whole transaction lifetime: whatever the
  // instant, after recovery every replica must agree (all version 0 or
  // all version 1 with value 777).
  for (SimTime crash_at = Millis(1); crash_at <= Millis(12);
       crash_at += Micros(500)) {
    auto sys =
        RainbowSystem::Create(FixedLatencySystem(3, AcpKind::kTwoPhaseCommit));
    ASSERT_TRUE(sys.ok());
    RainbowSystem& s = **sys;
    FaultInjector inject(&s);
    inject.Schedule(FaultEvent::Crash(crash_at, 0));
    inject.Schedule(FaultEvent::Recover(Millis(700), 0));

    ASSERT_TRUE(
        s.Submit(0, TxnProgram{{Op::Write(3, 777)}, ""}, nullptr).ok());
    s.RunFor(Seconds(3));

    // The write quorum was {site 0, site 1} (preferred subset). Either
    // the transaction committed — both quorum copies at version 1 with
    // the new value — or it aborted and no copy changed. Site 2 may
    // legitimately stay at version 0 under QC.
    Version v0 = s.site(0)->store().Get(3)->version;
    Version v1 = s.site(1)->store().Get(3)->version;
    EXPECT_EQ(v0, v1) << "crash_at=" << crash_at
                      << ": quorum copies diverged";
    if (v0 == 1) {
      EXPECT_EQ(s.site(0)->store().Get(3)->value, 777);
      EXPECT_EQ(s.site(1)->store().Get(3)->value, 777);
    } else {
      EXPECT_EQ(s.site(0)->store().Get(3)->value, 100);
    }
    EXPECT_TRUE(s.CheckReplicaConsistency(false).ok());
  }
}

TEST(RecoveryTest, ParticipantCrashMidFlightIsAtomic) {
  for (SimTime crash_at = Millis(1); crash_at <= Millis(12);
       crash_at += Micros(500)) {
    auto sys =
        RainbowSystem::Create(FixedLatencySystem(3, AcpKind::kTwoPhaseCommit));
    ASSERT_TRUE(sys.ok());
    RainbowSystem& s = **sys;
    FaultInjector inject(&s);
    inject.Schedule(FaultEvent::Crash(crash_at, 2));
    inject.Schedule(FaultEvent::Recover(Millis(700), 2));

    bool committed = false;
    ASSERT_TRUE(s.Submit(0, TxnProgram{{Op::Write(3, 555)}, ""},
                         [&](const TxnOutcome& o) { committed = o.committed; })
                    .ok());
    s.RunFor(Seconds(3));

    // Atomicity across the surviving + recovered replicas: a committed
    // transaction's write must be at every copy (refresh heals the
    // crashed one); an aborted one must be nowhere.
    for (SiteId id = 0; id < 3; ++id) {
      auto copy = s.site(id)->store().Get(3);
      ASSERT_TRUE(copy.ok());
      if (committed) {
        EXPECT_EQ(copy->value, 555) << "crash_at=" << crash_at;
        EXPECT_EQ(copy->version, 1u);
      } else {
        EXPECT_EQ(copy->version, 0u) << "crash_at=" << crash_at;
      }
    }
  }
}

TEST(RecoveryTest, CoordinatorCrashAfterCommitResendsDecision) {
  auto sys =
      RainbowSystem::Create(FixedLatencySystem(3, AcpKind::kTwoPhaseCommit));
  ASSERT_TRUE(sys.ok());
  RainbowSystem& s = **sys;

  bool committed = false;
  ASSERT_TRUE(s.Submit(0, TxnProgram{{Op::Write(1, 42)}, ""},
                       [&](const TxnOutcome& o) {
                         committed = o.committed;
                         // Crash the home the instant the commit is
                         // reported: decision logged, acks not yet in.
                         s.CrashSite(0);
                       })
                  .ok());
  s.RunFor(Millis(300));
  EXPECT_TRUE(committed);
  s.RecoverSite(0);
  s.RunFor(Millis(500));
  // The recovered coordinator must re-propagate the commit to its write
  // quorum {0, 1} and redo its own copy.
  for (SiteId id = 0; id < 2; ++id) {
    auto copy = s.site(id)->store().Get(1);
    ASSERT_TRUE(copy.ok());
    EXPECT_EQ(copy->value, 42) << "site " << id;
    EXPECT_EQ(copy->version, 1u) << "site " << id;
  }
  auto latest = s.LatestCommitted(1);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->value, 42);
  EXPECT_TRUE(s.CheckReplicaConsistency(false).ok());
}

TEST(RecoveryTest, PreparedParticipantBlocksUntilCoordinatorReturns) {
  // 2PC's defining weakness: crash the coordinator between prepare and
  // decision; the prepared participants stay blocked (holding locks)
  // until it recovers and answers with presumed abort.
  auto sys =
      RainbowSystem::Create(FixedLatencySystem(3, AcpKind::kTwoPhaseCommit));
  ASSERT_TRUE(sys.ok());
  RainbowSystem& s = **sys;
  FaultInjector inject(&s);
  // Timeline with 1ms fixed latency: lookup ~2ms, prewrite ~4ms,
  // prepare sent ~4ms, votes back ~6ms. Crash at 5.5ms: after votes
  // were sent by participants, before the decision went out.
  inject.Schedule(FaultEvent::Crash(Micros(5500), 0));
  inject.Schedule(FaultEvent::Recover(Millis(400), 0));

  ASSERT_TRUE(s.Submit(0, TxnProgram{{Op::Write(2, 9)}, ""}, nullptr).ok());
  s.RunFor(Millis(200));
  // While the coordinator is down, at least one remote participant is
  // still prepared (in doubt), holding its write lock.
  size_t prepared_sites = 0;
  for (SiteId id = 1; id < 3; ++id) {
    prepared_sites += s.site(id)->active_participants() > 0;
  }
  EXPECT_GT(prepared_sites, 0u) << "participants resolved without coordinator";

  s.RunFor(Seconds(2));
  // After recovery: presumed abort. No copy changed.
  for (SiteId id = 0; id < 3; ++id) {
    EXPECT_EQ(s.site(id)->store().Get(2)->version, 0u);
    EXPECT_EQ(s.site(id)->active_participants(), 0u);
  }
  // Blocking was measured and spans (roughly) the outage.
  EXPECT_GT(s.monitor().blocked_times().max(), Millis(300));
}

TEST(RecoveryTest, ThreePcTerminatesWithoutCoordinator) {
  auto sys =
      RainbowSystem::Create(FixedLatencySystem(3, AcpKind::kThreePhaseCommit));
  ASSERT_TRUE(sys.ok());
  RainbowSystem& s = **sys;
  FaultInjector inject(&s);
  inject.Schedule(FaultEvent::Crash(Micros(5500), 0));
  // Coordinator never recovers within the run.

  ASSERT_TRUE(s.Submit(0, TxnProgram{{Op::Write(2, 9)}, ""}, nullptr).ok());
  s.RunFor(Seconds(2));

  // The surviving participants resolved the transaction on their own.
  for (SiteId id = 1; id < 3; ++id) {
    EXPECT_EQ(s.site(id)->active_participants(), 0u) << "site " << id;
  }
  // And they agree with each other.
  auto c1 = s.site(1)->store().Get(2);
  auto c2 = s.site(2)->store().Get(2);
  EXPECT_EQ(c1->version, c2->version);
  EXPECT_EQ(c1->value, c2->value);
  // Blocking is bounded by the termination timeout, far below the 2PC
  // blocking in the test above.
  EXPECT_LT(s.monitor().blocked_times().max(), Millis(600));
}

TEST(RecoveryTest, ThreePcDecidesOnlyAfterEveryPreCommitAck) {
  // ROWA write: participants {0, 1, 2}, home 0 coordinates. The link
  // 0-2 goes down between the votes (~6ms) and the PreCommit's arrival
  // (~7ms), so site 2's PreCommit is lost and resent after the RPC
  // timeout. The coordinator must not decide until site 2 acked it: at
  // every instant, a logged commit decision implies a pre-committed
  // record at every participant.
  auto sys = RainbowSystem::Create(
      FixedLatencySystem(3, AcpKind::kThreePhaseCommit, RcpKind::kRowa));
  ASSERT_TRUE(sys.ok());
  RainbowSystem& s = **sys;
  FaultInjector inject(&s);
  inject.Schedule(FaultEvent::LinkDown(Micros(6300), 0, 2));
  inject.Schedule(FaultEvent::LinkUp(Millis(9), 0, 2));

  TxnOutcome outcome;
  bool done = false;
  ASSERT_TRUE(s.Submit(0, TxnProgram{{Op::Write(3, 31)}, ""},
                       [&](const TxnOutcome& o) {
                         outcome = o;
                         done = true;
                       })
                  .ok());
  auto logged = [&](SiteId site, WalRecordKind kind) {
    const Wal& wal = s.site(site)->wal();
    for (Lsn lsn = wal.base() + 1; lsn <= wal.LastLsn(); ++lsn) {
      WalRecord rec = wal.At(lsn);
      if (rec.kind == kind && rec.txn.home == 0) return true;
    }
    return false;
  };
  bool decided = false;
  for (int step = 0; step < 2000 && !decided; ++step) {
    s.RunFor(Micros(100));
    decided = logged(0, WalRecordKind::kCommitDecision);
    if (decided) {
      for (SiteId p = 0; p < 3; ++p) {
        EXPECT_TRUE(logged(p, WalRecordKind::kPreCommitted))
            << "commit decided before site " << p << " pre-committed";
      }
    }
  }
  ASSERT_TRUE(decided);
  // Site 2's PreCommit really was resent, so the decision waited for it.
  EXPECT_GT(s.net().stats().rpc_retries, 0u);
  s.RunFor(Seconds(1));
  ASSERT_TRUE(done);
  EXPECT_TRUE(outcome.committed);
  ExpectConverged(s);
}

TEST(RecoveryTest, ThreePcDivergesUnderPartitionTheKnownLimitation) {
  // 3PC's correctness assumes crash-stop failures WITHOUT network
  // partitions. This test engineers the textbook counterexample and
  // asserts the divergence happens — documenting the limitation (and
  // giving lab exercise #8 its failing baseline):
  //  * ROWA write => participants {0, 1, 2} (home 0 coordinates);
  //  * the link 0-1 drops just before PreCommit, so participant 1 stays
  //    prepared while participant 2 reaches pre-committed;
  //  * the coordinator crashes; sites 1 and 2 are partitioned apart;
  //  * each runs the termination protocol alone: 1 (all-prepared) decides
  //    ABORT, 2 (pre-committed) decides COMMIT.
  SystemConfig cfg =
      FixedLatencySystem(3, AcpKind::kThreePhaseCommit, RcpKind::kRowa);
  cfg.protocols.recovery_refresh = false;  // keep the divergence visible
  auto sys = RainbowSystem::Create(cfg);
  ASSERT_TRUE(sys.ok());
  RainbowSystem& s = **sys;
  FaultInjector inject(&s);
  // Timeline (1ms fixed latency): lookup ~2ms, prewrite ~4ms, prepare
  // ~5ms, votes ~6ms, PreCommit leaves the coordinator at ~6ms.
  // Votes arrive at the coordinator at ~6.0ms and PreCommit departs in
  // the same instant; cutting the link at 6.3ms lets the votes through
  // but drops the PreCommit in flight to site 1 (connectivity is
  // re-checked at delivery time, ~7.0ms).
  inject.Schedule(FaultEvent::LinkDown(Micros(6300), 0, 1));
  inject.Schedule(FaultEvent::Crash(Micros(7500), 0));
  inject.Schedule(FaultEvent::Partition(Micros(7600), {{1}, {2}}));

  ASSERT_TRUE(s.Submit(0, TxnProgram{{Op::Write(3, 666)}, ""}, nullptr).ok());
  s.RunFor(Seconds(2));

  Version v1 = s.site(1)->store().Get(3)->version;
  Version v2 = s.site(2)->store().Get(3)->version;
  // The split brain: one participant aborted, the other committed.
  EXPECT_EQ(v1, 0u) << "site 1 should have terminated with ABORT";
  EXPECT_EQ(v2, 1u) << "site 2 should have terminated with COMMIT";
  EXPECT_EQ(s.site(2)->store().Get(3)->value, 666);
  // Both sides consider the transaction fully resolved.
  EXPECT_EQ(s.site(1)->active_participants(), 0u);
  EXPECT_EQ(s.site(2)->active_participants(), 0u);
}

TEST(RecoveryTest, OrphanedParticipantsCleanUp) {
  auto sys =
      RainbowSystem::Create(FixedLatencySystem(3, AcpKind::kTwoPhaseCommit));
  ASSERT_TRUE(sys.ok());
  RainbowSystem& s = **sys;
  FaultInjector inject(&s);
  // Crash the home right after its prewrites went out (~3ms), before
  // prepare: remote participants hold locks for an orphan.
  inject.Schedule(FaultEvent::Crash(Micros(3200), 0));

  ASSERT_TRUE(s.Submit(0, TxnProgram{{Op::Write(4, 1)}, ""}, nullptr).ok());
  s.RunFor(Seconds(5));

  EXPECT_GT(s.monitor().orphans(), 0u);
  for (SiteId id = 1; id < 3; ++id) {
    EXPECT_EQ(s.site(id)->active_participants(), 0u);
    EXPECT_EQ(s.site(id)->store().Get(4)->version, 0u);
  }
  // The released locks let later transactions commit without site 0 —
  // after one attempt primes the failure detector (the first write may
  // pick the dead site for its quorum and time out).
  bool committed = false;
  for (int attempt = 0; attempt < 2 && !committed; ++attempt) {
    ASSERT_TRUE(s.Submit(1, TxnProgram{{Op::Write(4, 2)}, ""},
                         [&](const TxnOutcome& o) { committed = o.committed; })
                    .ok());
    s.RunFor(Seconds(1));
  }
  EXPECT_TRUE(committed);
}

TEST(RecoveryTest, RecoveryRefreshCatchesUpMissedWrites) {
  auto sys =
      RainbowSystem::Create(FixedLatencySystem(3, AcpKind::kTwoPhaseCommit));
  ASSERT_TRUE(sys.ok());
  RainbowSystem& s = **sys;
  s.CrashSite(2);
  // Commit writes while site 2 is down (quorum 2 of 3 suffices).
  for (int i = 0; i < 5; ++i) {
    bool committed = false;
    ASSERT_TRUE(
        s.Submit(0, TxnProgram{{Op::Increment(static_cast<ItemId>(i), 10)}, ""},
                 [&](const TxnOutcome& o) { committed = o.committed; })
            .ok());
    s.RunFor(Millis(100));
    ASSERT_TRUE(committed) << "write " << i << " failed with a site down";
  }
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(s.site(2)->store().Get(static_cast<ItemId>(i))->version, 0u);
  }
  s.RecoverSite(2);
  s.RunFor(Millis(200));
  for (int i = 0; i < 5; ++i) {
    auto copy = s.site(2)->store().Get(static_cast<ItemId>(i));
    EXPECT_EQ(copy->version, 1u) << "item " << i << " not refreshed";
    EXPECT_EQ(copy->value, 110);
  }
  ExpectConverged(s);
}

TEST(RecoveryTest, RecoveryRefreshAsksEachLiveSiteSharingAnItem) {
  // Site 0 shares x with sites 1 and 2 and y with site 3; site 4 shares
  // nothing with it, and site 2 is down when site 0 recovers.
  SystemConfig cfg = FixedLatencySystem(5, AcpKind::kTwoPhaseCommit);
  cfg.items.clear();
  cfg.items.push_back(ItemConfig{"x", 1, {0, 1, 2}, {}, 0, 0});
  cfg.items.push_back(ItemConfig{"y", 2, {3, 0}, {}, 0, 0});
  cfg.items.push_back(ItemConfig{"z", 3, {4}, {}, 0, 0});
  auto sys = RainbowSystem::Create(cfg);
  ASSERT_TRUE(sys.ok()) << sys.status();
  RainbowSystem& s = **sys;
  ASSERT_TRUE(s.config().protocols.recovery_refresh);
  s.CrashSite(2);
  s.CrashSite(0);
  s.RunFor(Millis(10));
  std::vector<uint64_t> before;
  for (SiteId p = 0; p < 5; ++p) {
    before.push_back(s.net().stats().per_site_delivered.Get(p));
  }
  s.RecoverSite(0);
  s.RunFor(Millis(100));
  const NetworkStats& st = s.net().stats();
  EXPECT_EQ(st.by_kind[static_cast<size_t>(MessageKind::kRefreshRequest)],
            2u);
  // Nothing else reaches the peers of an idle system: each delivery to
  // one of them is a refresh request.
  const uint64_t expected[] = {0, 1, 0, 1, 0};
  for (SiteId p = 1; p < 5; ++p) {
    EXPECT_EQ(st.per_site_delivered.Get(p) - before[p], expected[p])
        << "site " << p;
  }
}

TEST(RecoveryTest, RowaWritesBlockWhileCopyDownThenResume) {
  auto sys = RainbowSystem::Create(
      FixedLatencySystem(3, AcpKind::kTwoPhaseCommit, RcpKind::kRowa));
  ASSERT_TRUE(sys.ok());
  RainbowSystem& s = **sys;
  s.CrashSite(2);

  bool write_committed = true;
  ASSERT_TRUE(s.Submit(0, TxnProgram{{Op::Write(0, 5)}, ""},
                       [&](const TxnOutcome& o) {
                         write_committed = o.committed;
                       })
                  .ok());
  // Reads still work (read-one).
  bool read_committed = false;
  ASSERT_TRUE(s.Submit(0, TxnProgram{{Op::Read(1)}, ""},
                       [&](const TxnOutcome& o) {
                         read_committed = o.committed;
                       })
                  .ok());
  s.RunFor(Seconds(1));
  EXPECT_FALSE(write_committed) << "ROWA write must fail with a copy down";
  EXPECT_TRUE(read_committed);

  s.RecoverSite(2);
  s.RunFor(Millis(100));
  bool committed = false;
  ASSERT_TRUE(s.Submit(0, TxnProgram{{Op::Write(0, 6)}, ""},
                       [&](const TxnOutcome& o) { committed = o.committed; })
                  .ok());
  s.RunFor(Seconds(1));
  EXPECT_TRUE(committed);
  ExpectConverged(s);
}

TEST(RecoveryTest, MvtoRecoverySeedsVersionChainFromStore) {
  SystemConfig cfg = FixedLatencySystem(3, AcpKind::kTwoPhaseCommit);
  cfg.protocols.cc = CcKind::kMultiversionTso;
  auto sys = RainbowSystem::Create(cfg);
  ASSERT_TRUE(sys.ok());
  RainbowSystem& s = **sys;

  // Commit a write, crash+recover a replica, then read THROUGH the
  // recovered site's fresh MVTO engine: it must serve the redone value
  // at the correct version, not a stale initial.
  bool committed = false;
  ASSERT_TRUE(s.Submit(0, TxnProgram{{Op::Write(2, 333)}, ""},
                       [&](const TxnOutcome& o) { committed = o.committed; })
                  .ok());
  s.RunFor(Millis(100));
  ASSERT_TRUE(committed);
  s.CrashSite(1);
  s.RunFor(Millis(50));
  s.RecoverSite(1);
  s.RunFor(Millis(100));

  TxnOutcome out;
  bool done = false;
  ASSERT_TRUE(s.Submit(1, TxnProgram{{Op::Read(2)}, ""},
                       [&](const TxnOutcome& o) {
                         out = o;
                         done = true;
                       })
                  .ok());
  s.RunFor(Millis(200));
  ASSERT_TRUE(done);
  ASSERT_TRUE(out.committed);
  ASSERT_EQ(out.reads.size(), 1u);
  EXPECT_EQ(out.reads[0], 333);
}

TEST(RecoveryTest, PrimaryCopyUnavailableWhilePrimaryDown) {
  auto sys = RainbowSystem::Create(FixedLatencySystem(
      3, AcpKind::kTwoPhaseCommit, RcpKind::kPrimaryCopy));
  ASSERT_TRUE(sys.ok());
  RainbowSystem& s = **sys;
  // Items are fully replicated with primary = first copy. Item 0's
  // primary is site 0 (AddUniformItems places copies round-robin from
  // the item index).
  s.CrashSite(0);
  bool committed = true;
  ASSERT_TRUE(s.Submit(1, TxnProgram{{Op::Read(0)}, ""},
                       [&](const TxnOutcome& o) { committed = o.committed; })
                  .ok());
  s.RunFor(Seconds(1));
  EXPECT_FALSE(committed) << "reads must fail while the primary is down";

  s.RecoverSite(0);
  s.RunFor(Millis(100));
  bool after = false;
  ASSERT_TRUE(s.Submit(1, TxnProgram{{Op::Increment(0, 5)}, ""},
                       [&](const TxnOutcome& o) { after = o.committed; })
                  .ok());
  s.RunFor(Seconds(1));
  EXPECT_TRUE(after);
  // The eager write reached every copy.
  for (SiteId id = 0; id < 3; ++id) {
    EXPECT_EQ(s.site(id)->store().Get(0)->value, 105);
  }
}

TEST(RecoveryTest, NameServerOutageHiddenBySchemaCache) {
  auto sys =
      RainbowSystem::Create(FixedLatencySystem(3, AcpKind::kTwoPhaseCommit));
  ASSERT_TRUE(sys.ok());
  RainbowSystem& s = **sys;
  // Warm the cache.
  bool c1 = false;
  ASSERT_TRUE(s.Submit(0, TxnProgram{{Op::Read(0)}, ""},
                       [&](const TxnOutcome& o) { c1 = o.committed; })
                  .ok());
  s.RunFor(Millis(100));
  ASSERT_TRUE(c1);
  s.name_server().Crash();
  bool c2 = false;
  ASSERT_TRUE(s.Submit(0, TxnProgram{{Op::Read(0)}, ""},
                       [&](const TxnOutcome& o) { c2 = o.committed; })
                  .ok());
  s.RunFor(Millis(200));
  EXPECT_TRUE(c2) << "cached schema should mask the name-server outage";
  // A cold item at another site cannot be resolved: aborts with RCP/other.
  bool c3 = true;
  ASSERT_TRUE(s.Submit(1, TxnProgram{{Op::Read(7)}, ""},
                       [&](const TxnOutcome& o) { c3 = o.committed; })
                  .ok());
  s.RunFor(Millis(500));
  EXPECT_FALSE(c3);
  // A recovered site has forgotten what it looked up: the warm item is
  // cold again, and the lookup times out.
  s.CrashSite(0);
  s.RecoverSite(0);
  TxnOutcome o5;
  ASSERT_TRUE(s.Submit(0, TxnProgram{{Op::Read(0)}, ""},
                       [&](const TxnOutcome& o) { o5 = o; })
                  .ok());
  s.RunFor(Millis(500));
  EXPECT_FALSE(o5.committed);
  EXPECT_EQ(o5.abort_cause, AbortCause::kRcp) << o5.abort_detail;
  s.name_server().Recover();
  bool c4 = false;
  ASSERT_TRUE(s.Submit(1, TxnProgram{{Op::Read(7)}, ""},
                       [&](const TxnOutcome& o) { c4 = o.committed; })
                  .ok());
  s.RunFor(Millis(500));
  EXPECT_TRUE(c4);
}

TEST(RecoveryTest, PartitionPreventsCrossGroupCommits) {
  auto sys =
      RainbowSystem::Create(FixedLatencySystem(5, AcpKind::kTwoPhaseCommit));
  ASSERT_TRUE(sys.ok());
  RainbowSystem& s = **sys;
  // Warm schema caches first so the name server is not the bottleneck.
  for (SiteId h = 0; h < 5; ++h) {
    ASSERT_TRUE(s.Submit(h, TxnProgram{{Op::Read(0), Op::Read(1)}, ""},
                         nullptr)
                    .ok());
  }
  s.RunFor(Millis(200));

  s.net().SetPartitions({{0, 1}, {2, 3, 4}});
  // Items are on all 5 sites with majority quorum 3: the minority side
  // can never write; the majority side succeeds once its failure
  // detector has learned which sites are unreachable.
  bool minority_committed = false, majority_committed = false;
  for (int attempt = 0; attempt < 3; ++attempt) {
    ASSERT_TRUE(s.Submit(0, TxnProgram{{Op::Write(0, 1)}, ""},
                         [&](const TxnOutcome& o) {
                           minority_committed |= o.committed;
                         })
                    .ok());
    if (!majority_committed) {
      ASSERT_TRUE(s.Submit(2, TxnProgram{{Op::Write(1, 2)}, ""},
                           [&](const TxnOutcome& o) {
                             majority_committed |= o.committed;
                           })
                      .ok());
    }
    s.RunFor(Seconds(1));
  }
  EXPECT_FALSE(minority_committed);
  EXPECT_TRUE(majority_committed);

  s.net().HealPartitions();
  bool healed = false;
  ASSERT_TRUE(s.Submit(0, TxnProgram{{Op::Write(0, 3)}, ""},
                       [&](const TxnOutcome& o) { healed = o.committed; })
                  .ok());
  s.RunFor(Seconds(1));
  EXPECT_TRUE(healed);
}

TEST(RecoveryTest, FaultInjectorApplyIsIdempotent) {
  // Regression: a scripted crash racing the random-fault process used to
  // crash an already-down site (double-counting the fault and restarting
  // the downtime window). Duplicate events must now be silent no-ops.
  auto sys =
      RainbowSystem::Create(FixedLatencySystem(3, AcpKind::kTwoPhaseCommit));
  ASSERT_TRUE(sys.ok());
  RainbowSystem& s = **sys;
  FaultInjector inject(&s);
  inject.Schedule(FaultEvent::Crash(Millis(1), 1));
  inject.Schedule(FaultEvent::Crash(Millis(2), 1));  // duplicate
  inject.Schedule(FaultEvent::Crash(Millis(3), 1));  // duplicate
  inject.Schedule(FaultEvent::Recover(Millis(10), 1));
  inject.Schedule(FaultEvent::Recover(Millis(11), 1));  // duplicate
  s.RunFor(Millis(20));

  EXPECT_TRUE(s.net().IsSiteUp(1));
  EXPECT_EQ(inject.crashes_injected(), 1u);
  EXPECT_EQ(inject.recoveries_injected(), 1u);
  EXPECT_EQ(s.monitor().faults_injected(FaultEvent::Kind::kCrashSite), 1u);
  EXPECT_EQ(s.monitor().faults_injected(FaultEvent::Kind::kRecoverSite), 1u);
}

TEST(RecoveryTest, RandomFaultsAlwaysEndRecovered) {
  // Regression: EnableRandomFaults could leave a site down past `until`
  // when its recovery event fell outside the window. The injector now
  // sweeps at `until` and recovers every downed site.
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    auto sys = RainbowSystem::Create(
        FixedLatencySystem(3, AcpKind::kTwoPhaseCommit));
    ASSERT_TRUE(sys.ok());
    RainbowSystem& s = **sys;
    FaultInjector inject(&s);
    // Short up-times and long down-times maximize the chance a recovery
    // would have been scheduled past the window end.
    inject.EnableRandomFaults(Millis(40), Millis(300), Millis(500), seed);
    s.RunFor(Millis(500));
    for (SiteId id = 0; id < 3; ++id) {
      EXPECT_TRUE(s.net().IsSiteUp(id))
          << "seed " << seed << ": site " << id << " left down past until";
    }
    // The recovered system still commits.
    bool committed = false;
    ASSERT_TRUE(s.Submit(0, TxnProgram{{Op::Write(2, 1)}, ""},
                         [&](const TxnOutcome& o) { committed = o.committed; })
                    .ok());
    s.RunFor(Seconds(1));
    EXPECT_TRUE(committed) << "seed " << seed;
  }
}

TEST(RecoveryTest, DupStormDuringVoteCollectionIsHarmless) {
  // Satellite of the nemesis fault vocabulary: duplicate every message
  // between the coordinator and its participants exactly while 2PC
  // collects votes. Duplicate suppression must keep the exchange
  // idempotent: one commit, converged replicas, clean checker.
  SystemConfig cfg = FixedLatencySystem(3, AcpKind::kTwoPhaseCommit);
  cfg.trace_enabled = true;
  cfg.trace_detail = TraceDetail::kProtocol;
  auto sys = RainbowSystem::Create(cfg);
  ASSERT_TRUE(sys.ok());
  RainbowSystem& s = **sys;
  FaultInjector inject(&s);
  // Votes fly at ~4-6ms (1ms fixed latency); storm from the start so
  // prewrites, prepares, votes and decisions are all duplicated.
  for (SiteId p = 1; p < 3; ++p) {
    inject.Schedule(FaultEvent::LinkDup(0, 0, p, 1.0));
    inject.Schedule(FaultEvent::LinkDup(0, p, 0, 1.0));
    inject.Schedule(FaultEvent::LinkDup(Millis(50), 0, p, 0.0));
    inject.Schedule(FaultEvent::LinkDup(Millis(50), p, 0, 0.0));
  }
  bool committed = false;
  ASSERT_TRUE(s.Submit(0, TxnProgram{{Op::Write(3, 777), Op::Write(4, 888)}, ""},
                       [&](const TxnOutcome& o) { committed = o.committed; })
                  .ok());
  s.RunFor(Seconds(1));
  EXPECT_TRUE(committed);
  EXPECT_GT(s.net().stats().duplicated, 0u);
  EXPECT_GT(s.net().stats().rpc_duplicates_suppressed, 0u);
  EXPECT_TRUE(s.CheckReplicaConsistency(false).ok());
  CheckReport report = s.VerifyHistory();
  EXPECT_TRUE(report.ok()) << report.Render();
  auto latest = s.LatestCommitted(3);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->value, 777);
}

TEST(RecoveryTest, AsymmetricLossCoordinatorToParticipant) {
  // Grey failure: the coordinator's requests to one participant all
  // vanish while the reverse direction stays healthy. The RPC layer
  // retries, times out, and the transaction aborts cleanly; after the
  // link heals the same program commits.
  SystemConfig cfg = FixedLatencySystem(3, AcpKind::kTwoPhaseCommit);
  cfg.trace_enabled = true;
  cfg.trace_detail = TraceDetail::kProtocol;
  cfg.protocols.rcp = RcpKind::kRowa;  // the write needs every copy
  auto sys = RainbowSystem::Create(cfg);
  ASSERT_TRUE(sys.ok());
  RainbowSystem& s = **sys;
  FaultInjector inject(&s);
  inject.Schedule(FaultEvent::LinkLoss(0, 0, 2, 1.0));

  bool done = false;
  TxnOutcome outcome;
  ASSERT_TRUE(s.Submit(0, TxnProgram{{Op::Write(3, 9)}, ""},
                       [&](const TxnOutcome& o) {
                         outcome = o;
                         done = true;
                       })
                  .ok());
  s.RunFor(Seconds(1));
  ASSERT_TRUE(done);
  EXPECT_FALSE(outcome.committed);
  EXPECT_GT(s.net()
                .stats()
                .dropped[static_cast<size_t>(DropCause::kLinkLoss)],
            0u);

  inject.ApplyNow(FaultEvent::LinkLoss(0, 0, 2, 0.0));
  bool committed = false;
  ASSERT_TRUE(s.Submit(0, TxnProgram{{Op::Write(3, 9)}, ""},
                       [&](const TxnOutcome& o) { committed = o.committed; })
                  .ok());
  s.RunFor(Seconds(1));
  EXPECT_TRUE(committed);
  EXPECT_TRUE(s.CheckReplicaConsistency(false).ok());
  CheckReport report = s.VerifyHistory();
  EXPECT_TRUE(report.ok()) << report.Render();
}

TEST(RecoveryTest, DelaySpikeBeyondRetryBudgetGivesUp) {
  // A delay spike larger than rpc_max_attempts x backoff: every attempt
  // of an operation RPC is still in flight when the op timeout fires.
  // The workload's retries also exhaust (gave_up moves), yet the
  // checker stays clean — slow is not incorrect.
  SystemConfig cfg = FixedLatencySystem(3, AcpKind::kTwoPhaseCommit);
  cfg.trace_enabled = true;
  cfg.trace_detail = TraceDetail::kProtocol;
  cfg.protocols.rcp = RcpKind::kRowa;
  auto sys = RainbowSystem::Create(cfg);
  ASSERT_TRUE(sys.ok());
  RainbowSystem& s = **sys;
  FaultInjector inject(&s);
  // One-way delay becomes ~300ms > op_timeout (80ms); both directions
  // of the 0-2 link spike for the first 2 simulated seconds.
  inject.Schedule(FaultEvent::LinkDelay(0, 0, 2, 300.0));
  inject.Schedule(FaultEvent::LinkDelay(0, 2, 0, 300.0));
  inject.Schedule(FaultEvent::LinkDelay(Seconds(2), 0, 2, 1.0));
  inject.Schedule(FaultEvent::LinkDelay(Seconds(2), 2, 0, 1.0));

  WorkloadConfig wl;
  wl.seed = 11;
  wl.num_txns = 10;
  wl.mpl = 2;
  wl.read_fraction = 0.0;
  WorkloadGenerator wlg(&s, wl);
  wlg.Run();
  s.RunFor(Seconds(4));

  EXPECT_GT(wlg.gave_up(), 0u);
  CheckReport report = s.VerifyHistory();
  EXPECT_TRUE(report.ok()) << report.Render();
  EXPECT_TRUE(s.CheckReplicaConsistency(false).ok());
}

TEST(RecoveryTest, StrandedParticipantReadmitsStaleDecisionQuery) {
  // Sever both reply paths into participant 2 (asymmetric cuts 0->2 and
  // 1->2) right after it voted: its decision queries to the coordinator
  // keep retransmitting with the same rpc_id while answers die on the
  // severed direction. Meanwhile a churn of doomed writes from site 2
  // rotates site 0's per-sender duplicate window (capacity 256) past
  // that rpc_id, so the retransmission is readmitted as stale and
  // re-executed — the rpc_stale_readmitted counter must move, and the
  // re-execution must stay harmless once the links heal.
  SystemConfig cfg = FixedLatencySystem(3, AcpKind::kTwoPhaseCommit,
                                        RcpKind::kRowa);
  cfg.seed = 9;
  cfg.latency.min = 0;
  cfg.trace_enabled = true;
  cfg.trace_detail = TraceDetail::kProtocol;
  auto sys = RainbowSystem::Create(cfg);
  ASSERT_TRUE(sys.ok());
  RainbowSystem& s = **sys;
  FaultInjector inject(&s);
  inject.Schedule(FaultEvent::LinkDownOneWay(Micros(6300), 0, 2));
  inject.Schedule(FaultEvent::LinkDownOneWay(Micros(6300), 1, 2));
  inject.Schedule(FaultEvent::LinkUpOneWay(Seconds(5), 0, 2));
  inject.Schedule(FaultEvent::LinkUpOneWay(Seconds(5), 1, 2));

  bool committed = false;
  s.sim().At(0, [&] {
    (void)s.Submit(0, TxnProgram{{Op::Write(3, 9)}, "stranded"},
                   [&](const TxnOutcome& out) { committed = out.committed; });
  });
  for (int i = 0; i < 400; ++i) {
    s.sim().At(Millis(10) + i * Millis(10), [&s, i] {
      (void)s.Submit(
          2, TxnProgram{{Op::Write(4 + static_cast<ItemId>(i % 6), i)}, ""},
          nullptr);
    });
  }
  s.RunFor(Seconds(8));

  EXPECT_GT(s.net().stats().rpc_stale_readmitted, 0u);
  EXPECT_TRUE(committed);
  EXPECT_EQ(s.site(2)->active_participants(), 0u);
  EXPECT_TRUE(s.CheckReplicaConsistency(false).ok());
  CheckReport report = s.VerifyHistory();
  EXPECT_TRUE(report.ok()) << report.Render();
}

// --- page-engine ARIES restart -------------------------------------------

size_t CountStoreKind(const Wal& wal, WalRecordKind kind) {
  size_t n = 0;
  for (Lsn lsn = wal.base() + 1; lsn <= wal.LastLsn(); ++lsn) {
    if (wal.At(lsn).kind == kind) ++n;
  }
  return n;
}

TEST(RecoveryTest, RedoRestoresCommittedWritesLostWithThePool) {
  // Commit a write, then crash the site before anything is flushed: the
  // new value exists only in the WAL. The restart pass's redo must
  // rebuild the page from the log (its summary reports redo > 0), and the
  // page must carry the committed value before refresh even runs.
  SystemConfig cfg = FixedLatencySystem(3, AcpKind::kTwoPhaseCommit);
  auto sys = RainbowSystem::Create(cfg);
  ASSERT_TRUE(sys.ok());
  RainbowSystem& s = **sys;

  bool committed = false;
  ASSERT_TRUE(s.Submit(0, TxnProgram{{Op::Write(3, 777)}, ""},
                       [&](const TxnOutcome& o) { committed = o.committed; })
                  .ok());
  s.RunFor(Millis(100));
  ASSERT_TRUE(committed);
  ASSERT_EQ(s.site(1)->store().Get(3)->value, 777);

  // The participant logged real ARIES records for the commit.
  EXPECT_GT(CountStoreKind(s.site(1)->wal(), WalRecordKind::kStoreUpdate), 0u);
  EXPECT_GT(CountStoreKind(s.site(1)->wal(), WalRecordKind::kStoreCommit), 0u);

  s.CrashSite(1);  // drops the buffer pool: committed pages were dirty
  s.RunFor(Millis(5));
  s.RecoverSite(1);
  s.RunFor(Millis(100));

  const RestartSummary& rs = s.site(1)->last_restart();
  EXPECT_GT(rs.log_scanned, 0u) << "recovery did not run the restart pass";
  EXPECT_GT(rs.redo_applied, 0u);
  EXPECT_EQ(s.site(1)->store().Get(3)->value, 777);
  EXPECT_EQ(s.site(1)->store().Get(3)->version, 1u);
  EXPECT_TRUE(s.CheckReplicaConsistency(false).ok());
}

TEST(RecoveryTest, CrashSweepAlwaysRestartsCleanAndSometimesUndoes) {
  // Sweep the crash over the transaction lifetime. Every recovery must
  // run the analysis->redo->undo pass; across the sweep at least one
  // crash point must catch a granted-but-undecided prewrite, whose
  // rollback appends genuine CLR + end records to the log.
  size_t restarts_seen = 0;
  size_t undo_runs = 0;
  for (SimTime crash_at = Millis(1); crash_at <= Millis(12);
       crash_at += Micros(500)) {
    SystemConfig cfg = FixedLatencySystem(3, AcpKind::kTwoPhaseCommit);
    auto sys = RainbowSystem::Create(cfg);
    ASSERT_TRUE(sys.ok());
    RainbowSystem& s = **sys;
    FaultInjector inject(&s);
    inject.Schedule(FaultEvent::Crash(crash_at, 1));
    inject.Schedule(FaultEvent::Recover(Millis(700), 1));

    ASSERT_TRUE(
        s.Submit(0, TxnProgram{{Op::Write(3, 777), Op::Write(5, 888)}, ""},
                 nullptr)
            .ok());
    s.RunFor(Seconds(3));

    ASSERT_EQ(s.site(1)->epoch(), 1u) << "crash_at=" << crash_at;
    ++restarts_seen;
    if (s.site(1)->last_restart().losers > 0) {
      ++undo_runs;
      EXPECT_GT(CountStoreKind(s.site(1)->wal(), WalRecordKind::kStoreClr), 0u)
          << "crash_at=" << crash_at;
      EXPECT_GT(CountStoreKind(s.site(1)->wal(), WalRecordKind::kStoreEnd), 0u)
          << "crash_at=" << crash_at;
    }
    EXPECT_TRUE(s.CheckReplicaConsistency(false).ok())
        << "crash_at=" << crash_at;
  }
  EXPECT_GT(restarts_seen, 0u);
  EXPECT_GT(undo_runs, 0u) << "no crash point exercised the undo pass";
}

TEST(RecoveryTest, CrashDuringCheckpointSweep) {
  // Sweep the crash over every phase of a fuzzy checkpoint — before
  // begin, between begin and end, after end, and deep into the next
  // batch of commits — and check the restarted store against a shadow
  // map at every cut. A checkpoint must never make recovery wrong, only
  // cheaper.
  for (int cut = 0; cut < 5; ++cut) {
    Wal wal;
    PageStoreOptions opts;
    opts.page_size = 128;
    opts.pool_pages = 8;
    PageStore store(&wal, opts);
    std::map<ItemId, ItemCopy> shadow;
    for (ItemId i = 0; i < 16; ++i) {
      store.Load(i, 0);
      shadow[i] = ItemCopy{0, 0};
    }
    store.FlushAll();

    Version ver = 1;
    auto commit = [&](ItemId item, Value value) {
      TxnId txn{0, ver};
      store.LogPrewrite(txn, item, value);
      ASSERT_TRUE(store.Apply(item, value, ver, txn));
      store.CommitStorageTxn(txn);
      shadow[item] = ItemCopy{value, ver};
      ++ver;
    };

    for (ItemId i = 0; i < 16; ++i) commit(i, static_cast<Value>(i + 100));
    // One in-flight loser at the crash, whatever the cut.
    store.LogPrewrite(TxnId{0, 999}, 3, 3333);

    if (cut >= 1) {
      Lsn begin = store.BeginCheckpoint();
      if (cut >= 2) store.EndCheckpoint(begin);
    }
    if (cut >= 3) {
      for (ItemId i = 0; i < 6; ++i) commit(i, static_cast<Value>(i + 200));
    }
    if (cut >= 4) store.Checkpoint();

    store.OnCrash();
    RestartSummary rs = store.Restart();
    ASSERT_EQ(rs.tentative_leaks, 0u) << "cut=" << cut;
    EXPECT_GE(rs.losers, 1u) << "cut=" << cut;
    ASSERT_EQ(store.Snapshot(), shadow) << "cut=" << cut;

    // A second crash right after restart must also converge (the CLRs
    // appended by undo are themselves recoverable).
    store.OnCrash();
    RestartSummary again = store.Restart();
    ASSERT_EQ(again.tentative_leaks, 0u) << "cut=" << cut;
    EXPECT_EQ(again.losers, 0u) << "cut=" << cut;
    ASSERT_EQ(store.Snapshot(), shadow) << "cut=" << cut;
  }
}

TEST(RecoveryTest, TruncatedLogCrashSweep) {
  // Checkpoint-end truncation reclaims the WAL head while transactions
  // keep committing. Sweep the crash over an increasing number of
  // commit rounds (so it lands before the first checkpoint, right
  // after one, and deep into a heavily truncated log) with one
  // in-flight loser at every cut: restart must converge on the shadow
  // map from the retained suffix alone, twice in a row.
  Lsn max_base_seen = 0;
  for (int crash_round = 1; crash_round <= 6; ++crash_round) {
    Wal wal;
    PageStoreOptions opts;
    opts.page_size = 128;
    opts.pool_pages = 8;
    opts.checkpoint_interval = 16;
    PageStore store(&wal, opts);
    std::map<ItemId, ItemCopy> shadow;
    for (ItemId i = 0; i < 16; ++i) {
      store.Load(i, 0);
      shadow[i] = ItemCopy{0, 0};
    }
    store.FlushAll();

    Version ver = 1;
    auto commit = [&](ItemId item, Value value) {
      TxnId txn{0, ver};
      store.LogPrewrite(txn, item, value);
      ASSERT_TRUE(store.Apply(item, value, ver, txn));
      store.CommitStorageTxn(txn);
      shadow[item] = ItemCopy{value, ver};
      ++ver;
    };
    for (int round = 0; round < crash_round; ++round) {
      for (ItemId i = 0; i < 16; i += 2) {
        commit(i, static_cast<Value>(100 * round + i));
      }
    }
    // One granted-but-undecided prewrite in flight at the crash.
    store.LogPrewrite(TxnId{0, 999}, 3, 3333);

    const Lsn base_at_crash = wal.base();
    max_base_seen = std::max(max_base_seen, base_at_crash);
    store.OnCrash();
    RestartSummary rs = store.Restart();
    ASSERT_EQ(rs.tentative_leaks, 0u) << "crash_round=" << crash_round;
    EXPECT_GE(rs.losers, 1u) << "crash_round=" << crash_round;
    ASSERT_EQ(store.Snapshot(), shadow) << "crash_round=" << crash_round;
    // Restart never resurrects reclaimed head records.
    EXPECT_GE(wal.base(), base_at_crash);
    // Analysis started no earlier than the retained head.
    EXPECT_GT(rs.redo_start, base_at_crash) << "crash_round=" << crash_round;

    store.OnCrash();
    RestartSummary again = store.Restart();
    ASSERT_EQ(again.tentative_leaks, 0u) << "crash_round=" << crash_round;
    EXPECT_EQ(again.losers, 0u) << "crash_round=" << crash_round;
    ASSERT_EQ(store.Snapshot(), shadow) << "crash_round=" << crash_round;
  }
  // The sweep must actually have exercised a truncated log.
  EXPECT_GT(max_base_seen, 0u);
}

TEST(RecoveryTest, DoubleCrashDuringRedoConverges) {
  // Crash a second time WHILE the redo pass is writing pages back: the
  // faulty disk drops every write (journal included) after the first k,
  // modelling the machine dying mid-recovery. Repeating history must
  // make the third restart land on the same committed state regardless
  // of where the second crash cut the write-back sequence.
  for (uint64_t k = 0; k <= 6; ++k) {
    Wal wal;
    PageStoreOptions opts;
    opts.page_size = 128;
    opts.pool_pages = 8;  // small pool: redo evicts, so it writes early
    opts.checkpoint_interval = 64;
    PageStore store(&wal, opts);
    std::map<ItemId, ItemCopy> shadow;
    for (ItemId i = 0; i < 32; ++i) {
      store.Load(i, 0);
      shadow[i] = ItemCopy{0, 0};
    }
    store.FlushAll();

    Version ver = 1;
    for (int round = 0; round < 3; ++round) {
      for (ItemId i = 0; i < 32; i += 2) {
        TxnId txn{0, ver};
        Value value = static_cast<Value>(1000 * round + i);
        store.LogPrewrite(txn, i, value);
        ASSERT_TRUE(store.Apply(i, value, ver, txn));
        store.CommitStorageTxn(txn);
        shadow[i] = ItemCopy{value, ver};
        ++ver;
      }
    }

    store.OnCrash();
    store.mutable_disk().ArmWriteLimit(k);
    RestartSummary first = store.Restart();
    ASSERT_EQ(first.tentative_leaks, 0u) << "k=" << k;

    // Second crash: whatever restart managed to write back beyond the
    // first k page writes never reached the disk.
    store.OnCrash();
    store.mutable_disk().DisarmWriteLimit();
    RestartSummary second = store.Restart();
    ASSERT_EQ(second.tentative_leaks, 0u) << "k=" << k;
    ASSERT_EQ(store.Snapshot(), shadow) << "k=" << k;
  }
  // Sanity: small k really did drop writes in at least one iteration.
}

TEST(RecoveryTest, StorageFaultsDuringWorkloadStayInvisible) {
  // End-to-end: torn writes armed on a live site's disk via the fault
  // injector, a crash while armed, and recovery — with checksums on,
  // the doublewrite heals every mangled page and replicas converge.
  SystemConfig cfg = FixedLatencySystem(3, AcpKind::kTwoPhaseCommit);
  cfg.AddFullyReplicatedItems(20, 100);  // 30 items total: the tree
  cfg.protocols.page_size = 64;          // spans ~2x the pool, so every
  cfg.protocols.buffer_pool_pages = 8;   // txn causes real evictions
  cfg.protocols.checkpoint_interval = 32;
  auto sys = RainbowSystem::Create(cfg);
  ASSERT_TRUE(sys.ok());
  RainbowSystem& s = **sys;
  FaultInjector inject(&s);
  inject.Schedule(FaultEvent::StorageTorn(Millis(1), 1, 0.5));
  inject.Schedule(FaultEvent::Crash(Millis(20), 1));
  inject.Schedule(FaultEvent::Recover(Millis(60), 1));
  inject.Schedule(FaultEvent::StorageTorn(Millis(2500), 1, 0.0));

  WorkloadConfig wl;
  wl.seed = 11;
  wl.num_txns = 60;
  wl.mpl = 3;
  WorkloadGenerator wlg(&s, wl);
  wlg.Run();
  s.RunFor(Seconds(3));

  EXPECT_TRUE(s.CheckReplicaConsistency(false).ok())
      << s.CheckReplicaConsistency(false).ToString();
  // The armed window really tore writes (and survived the crash).
  EXPECT_GT(s.site(1)->store().disk().torn_writes(), 0u);
}

}  // namespace
}  // namespace rainbow
