// Message-level tests of the Site actor: protocol edge paths that the
// whole-system tests only hit probabilistically. A "probe" handler is
// registered on the shared network under an unused site id so tests can
// inject raw protocol messages and capture the replies.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "core/system.h"
#include "workload/workload.h"

namespace rainbow {
namespace {

constexpr SiteId kProbe = 90;

/// Trace records of `kind` that also satisfy `pred`.
template <typename Pred>
size_t CountIf(const TraceCollector& trace, TraceEventKind kind, Pred pred) {
  return static_cast<size_t>(std::count_if(
      trace.records().begin(), trace.records().end(),
      [&](const TraceRecord& r) { return r.kind == kind && pred(r); }));
}

size_t QuorumPlans(const TraceCollector& trace, const std::string& op) {
  return CountIf(trace, TraceEventKind::kQuorumPlan,
                 [&](const TraceRecord& r) { return r.detail == op; });
}

class SiteTest : public ::testing::Test {
 protected:
  void Build(SystemConfig cfg) {
    auto sys = RainbowSystem::Create(std::move(cfg));
    ASSERT_TRUE(sys.ok()) << sys.status();
    sys_ = std::move(sys).value();
    sys_->net().RegisterHandler(
        kProbe, [this](const Message& m) { probe_inbox_.push_back(m); });
  }

  static SystemConfig BaseConfig() {
    SystemConfig cfg;
    cfg.seed = 5;
    cfg.num_sites = 3;
    cfg.latency.distribution = LatencyDistribution::kFixed;
    cfg.latency.mean = Millis(1);
    cfg.latency.per_kb = 0;
    cfg.AddFullyReplicatedItems(10, 100);
    return cfg;
  }

  /// Messages of one kind received by the probe.
  std::vector<Message> ProbeReceived(MessageKind kind) const {
    std::vector<Message> out;
    for (const Message& m : probe_inbox_) {
      if (m.kind() == kind) out.push_back(m);
    }
    return out;
  }

  std::unique_ptr<RainbowSystem> sys_;
  std::vector<Message> probe_inbox_;
};

TEST_F(SiteTest, DuplicateDecisionIsAckedIdempotently) {
  Build(BaseConfig());
  // A Decision for a transaction this site never heard of (e.g. a
  // resend after the participant already applied and forgot) must be
  // acked so the coordinator's closer completes.
  sys_->net().Send(kProbe, 1, Decision{TxnId{0, 77}, true});
  sys_->RunFor(Millis(10));
  auto acks = ProbeReceived(MessageKind::kAck);
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(std::get<Ack>(acks[0].payload).txn, (TxnId{0, 77}));
  // And nothing was applied.
  EXPECT_EQ(sys_->site(1)->store().Get(0)->version, 0u);
}

TEST_F(SiteTest, PresumedAbortForUnknownHomeTxn) {
  Build(BaseConfig());
  // Ask site 0 (as home) about a transaction it has no record of: 2PC
  // presumed abort must answer "known, abort".
  sys_->net().Send(kProbe, 0, DecisionQuery{TxnId{0, 1234}, kProbe});
  sys_->RunFor(Millis(10));
  auto infos = ProbeReceived(MessageKind::kDecisionInfo);
  ASSERT_EQ(infos.size(), 1u);
  const auto& info = std::get<DecisionInfo>(infos[0].payload);
  EXPECT_TRUE(info.known);
  EXPECT_FALSE(info.commit);
}

TEST_F(SiteTest, DecisionsSurviveHeadTruncationAndCrash) {
  // A site answers "what happened to T?" from its WAL digest alone.
  // Commit transactions under a short checkpoint interval until the
  // head of both logs is truncated past one of them, crash and recover
  // its home and a participant, and both must still answer for it.
  SystemConfig cfg = BaseConfig();
  cfg.protocols.checkpoint_interval = 8;
  Build(std::move(cfg));
  std::vector<TxnId> committed;
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(sys_->Submit(0, TxnProgram{{Op::Write(i % 10, i)}, ""},
                             [&](const TxnOutcome& o) {
                               if (o.committed) committed.push_back(o.id);
                             })
                    .ok());
    sys_->RunFor(Millis(20));
  }
  // A transaction site 1 prepared, whose records both logs reclaimed.
  auto truncated = [](const Wal& wal, TxnId t) {
    auto st = wal.Scan().find(t);
    return st && st->first_lsn <= wal.base();
  };
  const Wal& home_wal = sys_->site(0)->wal();
  const Wal& part_wal = sys_->site(1)->wal();
  auto it = std::find_if(committed.begin(), committed.end(), [&](TxnId t) {
    return truncated(home_wal, t) && truncated(part_wal, t) &&
           part_wal.Scan().at(t).prepared;
  });
  ASSERT_NE(it, committed.end());
  const TxnId txn = *it;

  for (SiteId s : {0u, 1u}) sys_->CrashSite(s);
  sys_->RunFor(Millis(10));
  for (SiteId s : {0u, 1u}) sys_->RecoverSite(s);
  sys_->RunFor(Millis(10));

  const TxnId stranger{0, 999};
  sys_->net().Send(kProbe, 0, DecisionQuery{txn, kProbe});
  sys_->net().Send(kProbe, 0, DecisionQuery{stranger, kProbe});
  sys_->net().Send(kProbe, 1, StateQuery{txn, kProbe});
  sys_->RunFor(Millis(10));
  std::map<TxnId, DecisionInfo> infos;
  for (const Message& m : ProbeReceived(MessageKind::kDecisionInfo)) {
    const auto& info = std::get<DecisionInfo>(m.payload);
    infos[info.txn] = info;
  }
  ASSERT_EQ(infos.size(), 2u);
  EXPECT_TRUE(infos[txn].known);
  EXPECT_TRUE(infos[txn].commit);
  // Presumed abort still covers a transaction the home never logged.
  EXPECT_TRUE(infos[stranger].known);
  EXPECT_FALSE(infos[stranger].commit);
  auto states = ProbeReceived(MessageKind::kStateReply);
  ASSERT_EQ(states.size(), 1u);
  EXPECT_EQ(std::get<StateReply>(states[0].payload).state,
            AcpState::kCommitted);
}

TEST_F(SiteTest, PeerWithoutRecordAnswersUnknown) {
  Build(BaseConfig());
  // Site 1 is not the home of T9@0 and has no participant state.
  sys_->net().Send(kProbe, 1, DecisionQuery{TxnId{0, 9}, kProbe});
  sys_->RunFor(Millis(10));
  auto infos = ProbeReceived(MessageKind::kDecisionInfo);
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_FALSE(std::get<DecisionInfo>(infos[0].payload).known);
}

TEST_F(SiteTest, StateQueryReportsUnknownForStrangers) {
  Build(BaseConfig());
  sys_->net().Send(kProbe, 2, StateQuery{TxnId{1, 5}, kProbe});
  sys_->RunFor(Millis(10));
  auto replies = ProbeReceived(MessageKind::kStateReply);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(std::get<StateReply>(replies[0].payload).state,
            AcpState::kUnknown);
}

TEST_F(SiteTest, PrepareForUnknownTxnVotesNo) {
  Build(BaseConfig());
  PrepareRequest prep;
  prep.txn = TxnId{0, 55};
  prep.participants = {1, kProbe};
  sys_->net().Send(kProbe, 1, prep);
  sys_->RunFor(Millis(10));
  auto votes = ProbeReceived(MessageKind::kVoteReply);
  ASSERT_EQ(votes.size(), 1u);
  const auto& v = std::get<VoteReply>(votes[0].payload);
  EXPECT_FALSE(v.yes);
  EXPECT_EQ(v.reason, DenyReason::kUnknownTxn);
}

TEST_F(SiteTest, DirectReadRequestServedUnderCc) {
  Build(BaseConfig());
  ReadRequest req;
  req.txn = TxnId{kProbe, 1};
  req.ts = TxnTimestamp{1, kProbe};
  req.item = 3;
  sys_->net().Send(kProbe, 2, req);
  sys_->RunFor(Millis(10));
  auto replies = ProbeReceived(MessageKind::kReadReply);
  ASSERT_EQ(replies.size(), 1u);
  const auto& r = std::get<ReadReply>(replies[0].payload);
  EXPECT_TRUE(r.granted);
  EXPECT_EQ(r.value, 100);
  EXPECT_EQ(r.version, 0u);
  // The probe transaction now holds a read lock at site 2.
  EXPECT_EQ(sys_->site(2)->active_participants(), 1u);
  // An abort request cleans it up.
  sys_->net().Send(kProbe, 2, AbortRequest{req.txn});
  sys_->RunFor(Millis(10));
  EXPECT_EQ(sys_->site(2)->active_participants(), 0u);
}

TEST_F(SiteTest, StrayPrewriteIsNotAppliedAfterRecovery) {
  // A site can buffer a prewrite its coordinator never credits (the
  // grant arrived after the call was cancelled): the prepare names no
  // version for it, and the kPrepared record keeps it at version 0. A
  // commit must skip it both at runtime and after a crash, or MVTO would
  // serve the uncommitted value as a version.
  SystemConfig cfg = BaseConfig();
  cfg.protocols.cc = CcKind::kMultiversionTso;
  cfg.trace_enabled = true;
  Build(cfg);
  constexpr ItemId kCredited = 2;
  constexpr ItemId kStray = 3;
  const TxnId txn{kProbe, 1};
  sys_->net().Send(kProbe, 1,
                   PrewriteRequest{txn, TxnTimestamp{1, kProbe}, kCredited,
                                   555});
  sys_->net().Send(kProbe, 1,
                   PrewriteRequest{txn, TxnTimestamp{1, kProbe}, kStray,
                                   777});
  sys_->RunFor(Millis(10));
  ASSERT_EQ(ProbeReceived(MessageKind::kPrewriteReply).size(), 2u);
  PrepareRequest prep;
  prep.txn = txn;
  prep.versions = {{kCredited, 1}};
  prep.participants = {1};
  sys_->net().Send(kProbe, 1, prep);
  sys_->RunFor(Millis(10));
  auto votes = ProbeReceived(MessageKind::kVoteReply);
  ASSERT_EQ(votes.size(), 1u);
  ASSERT_TRUE(std::get<VoteReply>(votes[0].payload).yes);

  sys_->CrashSite(1);
  sys_->RunFor(Millis(10));
  sys_->RecoverSite(1);
  sys_->RunFor(Millis(10));
  sys_->net().Send(kProbe, 1, Decision{txn, true});
  sys_->RunFor(Millis(10));
  ASSERT_EQ(sys_->site(1)->active_participants(), 0u);

  const PageStore& store = sys_->site(1)->store();
  EXPECT_EQ(store.Get(kCredited)->value, 555);
  EXPECT_EQ(store.Get(kCredited)->version, 1u);
  EXPECT_EQ(store.Get(kStray)->value, 100);
  EXPECT_EQ(store.Get(kStray)->version, 0u);
  const auto& records = sys_->collector().records();
  auto applied = [&](ItemId item) {
    return std::count_if(records.begin(), records.end(),
                         [&](const TraceRecord& r) {
                           return r.kind == TraceEventKind::kWriteApplied &&
                                  r.txn == txn && r.item == item;
                         });
  };
  EXPECT_EQ(applied(kCredited), 1);
  EXPECT_EQ(applied(kStray), 0);

  // A later MVTO read of the stray item sees the value from before.
  ReadRequest read;
  read.txn = TxnId{kProbe, 2};
  read.ts = TxnTimestamp{sys_->sim().Now(), kProbe};
  read.item = kStray;
  sys_->net().Send(kProbe, 1, read);
  sys_->RunFor(Millis(10));
  auto replies = ProbeReceived(MessageKind::kReadReply);
  ASSERT_EQ(replies.size(), 1u);
  const auto& r = std::get<ReadReply>(replies[0].payload);
  EXPECT_TRUE(r.granted);
  EXPECT_EQ(r.value, 100);
  EXPECT_EQ(r.version, 0u);
}

TEST_F(SiteTest, MvtoRecoveryTurnsAwayTransactionsBegunBeforeIt) {
  // A crash loses MVTO's read timestamps. Before it, a prewrite older
  // than a served read is rejected; after it, the site must still not
  // let that writer slip in under the lost read, nor serve its reseeded
  // copy to a reader older than the restart.
  SystemConfig cfg = BaseConfig();
  cfg.protocols.cc = CcKind::kMultiversionTso;
  Build(cfg);
  constexpr ItemId kItem = 4;
  auto access = [&](Payload request) {
    probe_inbox_.clear();
    sys_->net().Send(kProbe, 1, std::move(request));
    sys_->RunFor(Millis(10));
  };
  access(ReadRequest{TxnId{kProbe, 1}, TxnTimestamp{5, kProbe}, kItem});
  ASSERT_TRUE(std::get<ReadReply>(
                  ProbeReceived(MessageKind::kReadReply).at(0).payload)
                  .granted);
  access(AbortRequest{TxnId{kProbe, 1}});
  access(PrewriteRequest{TxnId{kProbe, 2}, TxnTimestamp{3, kProbe}, kItem, 9});
  ASSERT_FALSE(std::get<PrewriteReply>(
                   ProbeReceived(MessageKind::kPrewriteReply).at(0).payload)
                   .granted);

  sys_->CrashSite(1);
  sys_->RunFor(Millis(10));
  sys_->RecoverSite(1);
  sys_->RunFor(Millis(10));
  access(PrewriteRequest{TxnId{kProbe, 3}, TxnTimestamp{3, kProbe}, kItem, 9});
  const PrewriteReply w = std::get<PrewriteReply>(
      ProbeReceived(MessageKind::kPrewriteReply).at(0).payload);
  EXPECT_FALSE(w.granted);
  EXPECT_EQ(w.reason, DenyReason::kTsoTooLate);
  access(ReadRequest{TxnId{kProbe, 4}, TxnTimestamp{4, kProbe}, kItem});
  EXPECT_FALSE(std::get<ReadReply>(
                   ProbeReceived(MessageKind::kReadReply).at(0).payload)
                   .granted);
  access(ReadRequest{TxnId{kProbe, 5}, TxnTimestamp{sys_->sim().Now(), kProbe},
                     kItem});
  const ReadReply r = std::get<ReadReply>(
      ProbeReceived(MessageKind::kReadReply).at(0).payload);
  EXPECT_TRUE(r.granted);
  EXPECT_EQ(r.value, 100);
}

TEST_F(SiteTest, SchemaCacheOffIssuesLookupPerTransaction) {
  SystemConfig cfg = BaseConfig();
  cfg.protocols.cache_schema = false;
  Build(cfg);
  for (int i = 0; i < 3; ++i) {
    bool committed = false;
    ASSERT_TRUE(sys_->Submit(0, TxnProgram{{Op::Read(0)}, ""},
                             [&](const TxnOutcome& o) {
                               committed = o.committed;
                             })
                    .ok());
    sys_->RunFor(Millis(50));
    ASSERT_TRUE(committed);
  }
  uint64_t lookups_off = sys_->name_server().lookups_served();
  EXPECT_EQ(lookups_off, 3u);  // one per transaction

  // Within one transaction the first lookup serves every later op on
  // the item.
  Build(cfg);
  bool committed = false;
  ASSERT_TRUE(sys_->Submit(0, TxnProgram{{Op::Read(0), Op::Write(0, 7)}, ""},
                           [&](const TxnOutcome& o) {
                             committed = o.committed;
                           })
                  .ok());
  sys_->RunFor(Millis(50));
  ASSERT_TRUE(committed);
  EXPECT_EQ(sys_->name_server().lookups_served(), 1u);

  // Same workload with caching: one lookup total.
  Build(BaseConfig());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(sys_->Submit(0, TxnProgram{{Op::Read(0)}, ""}, nullptr).ok());
    sys_->RunFor(Millis(50));
  }
  EXPECT_EQ(sys_->name_server().lookups_served(), 1u);
}

TEST_F(SiteTest, BroadcastReadsContactEveryCopy) {
  SystemConfig cfg = BaseConfig();
  cfg.protocols.rcp_broadcast = true;
  Build(cfg);
  bool committed = false;
  ASSERT_TRUE(sys_->Submit(0, TxnProgram{{Op::Read(0)}, ""},
                           [&](const TxnOutcome& o) {
                             committed = o.committed;
                           })
                  .ok());
  sys_->RunFor(Millis(100));
  ASSERT_TRUE(committed);
  // All three copies were asked (vs 2 in subset mode).
  EXPECT_EQ(sys_->net().stats().by_kind[static_cast<size_t>(
                MessageKind::kReadRequest)],
            3u);
  // Every replica that granted was included in the commit and released.
  for (SiteId s = 0; s < 3; ++s) {
    EXPECT_EQ(sys_->site(s)->active_participants(), 0u);
  }
}

TEST_F(SiteTest, WoundWaitAbortsRemoteYoungerTransaction) {
  SystemConfig cfg = BaseConfig();
  cfg.protocols.deadlock = DeadlockPolicy::kWoundWait;
  Build(cfg);
  RainbowSystem& s = *sys_;

  // The younger transaction (submitted second but from another site —
  // timestamps order by submission time) grabs the lock first by virtue
  // of a faster local path; then the older one wounds it.
  TxnOutcome young_outcome;
  bool young_done = false, old_done = false;
  // Young txn homed at site 1, writes item 0 (copies at 0,1,2; its
  // quorum prefers {1,0}).
  // The young transaction writes item 0 early and then keeps working
  // (two more reads), so it still holds the exclusive lock — and is not
  // yet prepared — when the older transaction's prewrite arrives.
  s.sim().At(Micros(10), [&] {
    ASSERT_TRUE(s.Submit(1,
                         TxnProgram{{Op::Write(0, 1), Op::Read(7), Op::Read(8)},
                                    "young"},
                         [&](const TxnOutcome& o) {
                           young_outcome = o;
                           young_done = true;
                         })
                    .ok());
  });
  // Wait — timestamps: earlier submission = older. Submit the OLD one
  // first at site 2, but delay its lock acquisition by giving it a
  // longer program so the young one grabs the item lock first.
  TxnOutcome old_outcome;
  s.sim().At(Micros(1), [&] {
    ASSERT_TRUE(s.Submit(2,
                         TxnProgram{{Op::Read(5), Op::Read(6), Op::Write(0, 2)},
                                    "old"},
                         [&](const TxnOutcome& o) {
                           old_outcome = o;
                           old_done = true;
                         })
                    .ok());
  });
  s.RunFor(Seconds(2));
  ASSERT_TRUE(young_done);
  ASSERT_TRUE(old_done);
  // The older transaction must win under wound-wait; the younger one is
  // wounded at the shared replica and aborts globally with a CCP cause.
  EXPECT_TRUE(old_outcome.committed) << old_outcome.ToString();
  EXPECT_FALSE(young_outcome.committed) << young_outcome.ToString();
  EXPECT_EQ(young_outcome.abort_cause, AbortCause::kCcp);
  // Nothing leaks.
  for (SiteId id = 0; id < 3; ++id) {
    EXPECT_EQ(s.site(id)->active_participants(), 0u);
  }
  auto latest = s.LatestCommitted(0);
  EXPECT_EQ(latest->value, 2);
}

TEST_F(SiteTest, SuspicionExpiresAfterTtl) {
  SystemConfig cfg = BaseConfig();
  cfg.protocols.suspicion_ttl = Millis(50);
  Build(cfg);
  sys_->site(0)->Suspect(2);
  EXPECT_TRUE(sys_->site(0)->IsSuspected(2));
  sys_->RunFor(Millis(60));
  EXPECT_FALSE(sys_->site(0)->IsSuspected(2));
}

TEST_F(SiteTest, HearingFromSiteClearsSuspicion) {
  Build(BaseConfig());
  sys_->site(0)->Suspect(2);
  ASSERT_TRUE(sys_->site(0)->IsSuspected(2));
  // Any message from site 2 unsuspects it.
  sys_->net().Send(2, 0, Ack{TxnId{2, 1}});
  sys_->RunFor(Millis(10));
  EXPECT_FALSE(sys_->site(0)->IsSuspected(2));
}

TEST_F(SiteTest, TraceRecordsProtocolFlow) {
  SystemConfig cfg = BaseConfig();
  cfg.trace_enabled = true;
  Build(cfg);
  ASSERT_TRUE(
      sys_->Submit(0, TxnProgram{{Op::Increment(1, 5)}, ""}, nullptr).ok());
  sys_->RunFor(Millis(100));
  const TraceCollector& trace = sys_->collector();
  const TxnId txn{0, 1};
  EXPECT_EQ(trace.CountKind(TraceEventKind::kTxnSubmit), 1u);
  EXPECT_GT(QuorumPlans(trace, "read"), 0u);
  EXPECT_GT(QuorumPlans(trace, "write"), 0u);
  EXPECT_EQ(trace.CountKind(TraceEventKind::kPrepare), 1u);
  auto yes = [](const TraceRecord& r) { return r.arg == 1; };
  EXPECT_GT(CountIf(trace, TraceEventKind::kVote, yes), 0u);
  EXPECT_EQ(CountIf(trace, TraceEventKind::kDecision, yes), 1u);
  // Every participant acknowledged: the home site logged kEnd.
  const Wal& wal = sys_->site(0)->wal();
  bool ended = false;
  for (Lsn lsn = wal.base() + 1; lsn <= wal.LastLsn(); ++lsn) {
    const WalRecord r = wal.At(lsn);
    ended = ended || (r.kind == WalRecordKind::kEnd && r.txn == txn);
  }
  EXPECT_TRUE(ended);
  // Every record above belongs to the one transaction.
  EXPECT_EQ(trace.Transactions(), std::vector<TxnId>{txn});
}

TEST_F(SiteTest, RecoverTraceNamesTentativeLeaks) {
  // Page bytes that pass their CRC can still be forged. A restart that
  // finds tentative versions in the tree counts them, and the site's
  // kSiteRecover record must say so; a clean restart's detail does not
  // mention them at all.
  SystemConfig cfg = BaseConfig();
  cfg.trace_enabled = true;
  Build(cfg);
  Site* site = sys_->site(1);
  site->mutable_store().FlushAll();
  sys_->CrashSite(1);
  sys_->CrashSite(2);

  // Tag the first entry of every leaf with the tentative bit. The page
  // layout is b_plus_tree.cc's: node type at byte 12 (1 = leaf), entry
  // count at 16, 20-byte entries from 24 with the version at +12.
  // WritePage stamps a fresh CRC over the forged bytes.
  DiskManager& disk = site->mutable_store().mutable_disk();
  size_t forged = 0;
  for (PageId id = 0; id < disk.allocated_pages(); ++id) {
    Page page(disk.page_size());
    disk.ReadPage(id, page);
    if (page.ReadU8(12) != 1 || page.ReadU32(16) == 0) continue;
    page.WriteU64(24 + 12, page.ReadU64(24 + 12) | kTentativeBit);
    disk.WritePage(id, page);
    ++forged;
  }
  ASSERT_GT(forged, 0u);

  sys_->RecoverSite(1);
  sys_->RecoverSite(2);
  EXPECT_EQ(site->last_restart().tentative_leaks, forged);
  EXPECT_EQ(sys_->site(2)->last_restart().tentative_leaks, 0u);
  std::map<SiteId, std::string> details;
  for (const TraceRecord& r : sys_->collector().records()) {
    if (r.kind == TraceEventKind::kSiteRecover) details[r.site] = r.detail;
  }
  ASSERT_EQ(details.size(), 2u);
  const std::string tag = " tentative=" + std::to_string(forged);
  EXPECT_TRUE(details[1].ends_with(tag)) << details[1];
  EXPECT_EQ(details[2].find("tentative"), std::string::npos) << details[2];
}

TEST_F(SiteTest, ReadOwnWriteServedFromBuffer) {
  SystemConfig cfg = BaseConfig();
  cfg.trace_enabled = true;
  Build(cfg);
  TxnOutcome outcome;
  bool done = false;
  TxnProgram p;
  p.ops = {Op::Write(4, 1234), Op::Read(4), Op::Increment(4, 1)};
  ASSERT_TRUE(sys_->Submit(0, p, [&](const TxnOutcome& o) {
                     outcome = o;
                     done = true;
                   })
                  .ok());
  sys_->RunFor(Millis(200));
  ASSERT_TRUE(done);
  ASSERT_TRUE(outcome.committed);
  // The read and the increment's read both observed the buffered write.
  ASSERT_EQ(outcome.reads.size(), 2u);
  EXPECT_EQ(outcome.reads[0], 1234);
  EXPECT_EQ(outcome.reads[1], 1234);
  EXPECT_EQ(sys_->LatestCommitted(4)->value, 1235);
  // Only ONE read quorum was ever built (none: both reads were local).
  EXPECT_EQ(QuorumPlans(sys_->collector(), "read"), 0u);
}

TEST_F(SiteTest, ReadOnlyOptimizationSkipsPhaseTwo) {
  // Items with single copies on distinct sites: the transaction reads
  // at site 1 and writes at site 2, so site 1 is a read-only
  // participant and site 2 a writing one.
  auto make_cfg = [](bool opt) {
    SystemConfig cfg;
    cfg.seed = 5;
    cfg.num_sites = 3;
    cfg.latency.distribution = LatencyDistribution::kFixed;
    cfg.latency.mean = Millis(1);
    cfg.protocols.readonly_optimization = opt;
    ItemConfig a;
    a.name = "at1";
    a.initial = 10;
    a.copies = {1};
    cfg.items.push_back(a);
    ItemConfig b;
    b.name = "at2";
    b.initial = 20;
    b.copies = {2};
    cfg.items.push_back(b);
    return cfg;
  };

  auto run = [&](bool opt) {
    Build(make_cfg(opt));
    bool committed = false;
    TxnProgram p;
    p.ops = {Op::Read(0), Op::Write(1, 99)};
    EXPECT_TRUE(sys_->Submit(0, p, [&](const TxnOutcome& o) {
                       committed = o.committed;
                     })
                    .ok());
    sys_->RunFor(Millis(200));
    EXPECT_TRUE(committed);
    EXPECT_EQ(sys_->LatestCommitted(1)->value, 99);
    for (SiteId s = 0; s < 3; ++s) {
      EXPECT_EQ(sys_->site(s)->active_participants(), 0u);
    }
    return sys_->net()
        .stats()
        .by_kind[static_cast<size_t>(MessageKind::kDecision)];
  };

  uint64_t decisions_with = run(true);
  uint64_t decisions_without = run(false);
  EXPECT_EQ(decisions_with, 1u);     // only the writer gets the decision
  EXPECT_EQ(decisions_without, 2u);  // both participants do
}

TEST_F(SiteTest, PrepareListsEachParticipantsPrewritesAtQuorumMaxPlusOne) {
  // Five sites, items on different copy subsets (one vote per copy):
  //   a: {1,2,3} quorums 2/2   b: {2,3} read 1, write 2
  //   c: {1,3} read 1, write 2  d: {4}   e: {3,4} quorums 2/2
  // Site 4 holds only the two items the transaction reads.
  SystemConfig cfg;
  cfg.seed = 5;
  cfg.num_sites = 5;
  cfg.latency.distribution = LatencyDistribution::kFixed;
  cfg.latency.mean = Millis(1);
  cfg.latency.per_kb = 0;
  auto add = [&](std::string name, std::vector<SiteId> copies, int rq,
                 int wq) {
    ItemConfig it;
    it.name = std::move(name);
    it.initial = 100;
    it.copies = std::move(copies);
    it.read_quorum = rq;
    it.write_quorum = wq;
    cfg.items.push_back(it);
  };
  add("a", {1, 2, 3}, 2, 2);
  add("b", {2, 3}, 1, 2);
  add("c", {1, 3}, 1, 2);
  add("d", {4}, 1, 1);
  add("e", {3, 4}, 2, 2);
  Build(std::move(cfg));
  constexpr ItemId a = 0, b = 1, c = 2, d = 3, e = 4;

  // Site 3 writes `a` through its own copy and site 1's, so a's copies
  // disagree: version 1 at sites 1 and 3, 0 at site 2.
  bool setup_committed = false;
  ASSERT_TRUE(sys_->Submit(3, TxnProgram{{Op::Write(a, 7)}, ""},
                           [&](const TxnOutcome& o) {
                             setup_committed = o.committed;
                           })
                  .ok());
  sys_->RunFor(Millis(100));
  ASSERT_TRUE(setup_committed);
  auto version_at = [&](SiteId s, ItemId item) {
    return sys_->site(s)->store().Get(item)->version;
  };
  ASSERT_EQ(version_at(1, a), 1u);
  ASSERT_EQ(version_at(2, a), 0u);

  // Home site 0 holds no copy, so its write quorums are the lowest
  // sites: a -> {1,2}, b -> {2,3}, c -> {1,3}.
  const std::map<ItemId, std::vector<SiteId>> quorum = {
      {a, {1, 2}}, {b, {2, 3}}, {c, {1, 3}}};
  std::map<ItemId, Version> next_version;
  for (const auto& [item, sites] : quorum) {
    Version max = 0;
    for (SiteId s : sites) max = std::max(max, version_at(s, item));
    next_version[item] = max + 1;
  }
  ASSERT_EQ(next_version[a], 2u);  // one above site 1's copy, not site 2's

  TxnOutcome outcome;
  bool done = false;
  TxnProgram p{{Op::Write(a, 11), Op::Read(d), Op::Write(b, 22), Op::Read(e),
                Op::Write(c, 33)},
               ""};
  ASSERT_TRUE(sys_->Submit(0, p, [&](const TxnOutcome& o) {
                     outcome = o;
                     done = true;
                   })
                  .ok());
  sys_->RunFor(Millis(200));
  ASSERT_TRUE(done);
  ASSERT_TRUE(outcome.committed) << outcome.abort_detail;

  const std::map<ItemId, Value> value = {{a, 11}, {b, 22}, {c, 33}};
  const std::map<SiteId, std::vector<ItemId>> prewrote = {
      {1, {a, c}}, {2, {a, b}}, {3, {b, c}}, {4, {}}};
  for (const auto& [site, items] : prewrote) {
    const Wal& wal = sys_->site(site)->wal();
    std::vector<WalRecord> prepared;
    for (Lsn lsn = wal.base() + 1; lsn <= wal.LastLsn(); ++lsn) {
      WalRecord rec = wal.At(lsn);
      if (rec.txn != outcome.id) continue;
      if (rec.kind == WalRecordKind::kPrepared) prepared.push_back(rec);
      if (rec.kind == WalRecordKind::kStoreUpdate) {
        EXPECT_FALSE(items.empty())
            << "read-only site " << site << " logged a write";
      }
    }
    ASSERT_EQ(prepared.size(), 1u) << "site " << site;
    EXPECT_EQ(prepared[0].participants, (std::vector<SiteId>{1, 2, 3, 4}));
    std::vector<ItemId> listed;
    for (const WalRecord::Write& w : prepared[0].writes) {
      listed.push_back(w.item);
      EXPECT_EQ(w.value, value.at(w.item)) << "site " << site;
      EXPECT_EQ(w.version, next_version.at(w.item))
          << "site " << site << " item " << w.item;
    }
    EXPECT_EQ(listed, items) << "site " << site;
  }
}

TEST_F(SiteTest, FullyReadOnlyTransactionUnderOptimization) {
  SystemConfig cfg = BaseConfig();
  cfg.protocols.readonly_optimization = true;
  Build(cfg);
  bool committed = false;
  TxnOutcome outcome;
  ASSERT_TRUE(sys_->Submit(0, TxnProgram{{Op::Read(0), Op::Read(1)}, ""},
                           [&](const TxnOutcome& o) {
                             outcome = o;
                             committed = o.committed;
                           })
                  .ok());
  sys_->RunFor(Millis(200));
  ASSERT_TRUE(committed);
  EXPECT_EQ(outcome.reads.size(), 2u);
  // No decisions or acks at all.
  EXPECT_EQ(sys_->net().stats().by_kind[static_cast<size_t>(
                MessageKind::kDecision)],
            0u);
  EXPECT_EQ(
      sys_->net().stats().by_kind[static_cast<size_t>(MessageKind::kAck)],
      0u);
  for (SiteId s = 0; s < 3; ++s) {
    EXPECT_EQ(sys_->site(s)->active_participants(), 0u);
  }
}

TEST_F(SiteTest, EmptyProgramCommitsTrivially) {
  Build(BaseConfig());
  TxnOutcome outcome;
  bool done = false;
  ASSERT_TRUE(sys_->Submit(0, TxnProgram{}, [&](const TxnOutcome& o) {
                     outcome = o;
                     done = true;
                   })
                  .ok());
  sys_->RunFor(Millis(10));
  ASSERT_TRUE(done);
  EXPECT_TRUE(outcome.committed);
  EXPECT_EQ(outcome.round_trips, 0u);
}

TEST_F(SiteTest, UnknownItemAborts) {
  Build(BaseConfig());
  TxnOutcome outcome;
  bool done = false;
  ASSERT_TRUE(sys_->Submit(0, TxnProgram{{Op::Read(999)}, ""},
                           [&](const TxnOutcome& o) {
                             outcome = o;
                             done = true;
                           })
                  .ok());
  sys_->RunFor(Millis(100));
  ASSERT_TRUE(done);
  EXPECT_FALSE(outcome.committed);
  EXPECT_EQ(outcome.abort_cause, AbortCause::kOther);
}

}  // namespace
}  // namespace rainbow
