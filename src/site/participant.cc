#include "site/participant.h"

#include <algorithm>
#include <cassert>
#include <type_traits>

#include "site/site.h"

namespace rainbow {

namespace {

/// An access reply (ReadReply or PrewriteReply) without value or version.
template <typename Reply>
Reply MakeReply(TxnId txn, ItemId item, bool granted, DenyReason reason,
                uint64_t epoch) {
  Reply reply;
  reply.txn = txn;
  reply.item = item;
  reply.granted = granted;
  reply.reason = reason;
  reply.epoch = epoch;
  return reply;
}

/// Orders a transaction's write rows against an item, for lower_bound.
bool RowBefore(const WalRecord::Write& row, ItemId item) {
  return row.item < item;
}

}  // namespace

ParticipantManager::ParticipantManager(Site* site) : site_(site) {}

ParticipantManager::~ParticipantManager() { Shutdown(); }

void ParticipantManager::Shutdown() {
  for (auto& [id, t] : txns_) CancelAll(t);
  txns_.clear();
}

void ParticipantManager::CancelAll(PTxn& t) {
  t.decision_timer.Cancel();
  t.activity_timer.Cancel();
  t.window_timer.Cancel();
  t.wait_timer.Cancel();
  t.probe_timer.Cancel();
  for (uint64_t c : t.query_calls) site_->rpc().Cancel(c);
  t.query_calls.clear();
  if (t.coord_query_call != 0) {
    site_->rpc().Cancel(t.coord_query_call);
    t.coord_query_call = 0;
  }
}

void ParticipantManager::EmitCcOutcome(TxnId txn, ItemId item,
                                       const CcGrant& g) {
  if (!site_->tracing()) return;
  TraceRecord rec;
  rec.kind = g.granted ? TraceEventKind::kCcGrant : TraceEventKind::kCcDeny;
  rec.txn = txn;
  rec.item = item;
  if (!g.granted) rec.detail = DenyReasonName(g.reason);
  site_->EmitTrace(std::move(rec));
}

void ParticipantManager::EmitCcBlocked(TxnId txn, ItemId item) {
  if (!site_->tracing()) return;
  TraceRecord rec;
  rec.kind = TraceEventKind::kCcBlock;
  rec.txn = txn;
  rec.item = item;
  site_->EmitTrace(std::move(rec));
}

void ParticipantManager::EmitVote(TxnId txn, SiteId coordinator, bool yes,
                                  const char* note) {
  if (!site_->tracing()) return;
  TraceRecord rec;
  rec.kind = TraceEventKind::kVote;
  rec.txn = txn;
  rec.peer = coordinator;
  rec.arg = yes ? 1 : 0;
  rec.detail = note;
  site_->EmitTrace(std::move(rec));
}

ParticipantManager::PTxn& ParticipantManager::Ensure(TxnId txn,
                                                     TxnTimestamp ts,
                                                     SiteId coordinator) {
  auto [it, inserted] = txns_.try_emplace(txn);
  PTxn& t = it->second;
  if (inserted) {
    t.id = txn;
    t.ts = ts;
    t.coordinator = coordinator;
    t.state = AcpState::kActive;
  }
  return t;
}

void ParticipantManager::ArmActivityTimer(PTxn& t) {
  t.activity_timer.Cancel();
  TxnId id = t.id;
  t.activity_timer = site_->env().sim->After(
      site_->config().active_timeout, [this, id] { OnActivityTimeout(id); });
}

void ParticipantManager::ArmDecisionTimer(PTxn& t) {
  t.decision_timer.Cancel();
  TxnId id = t.id;
  t.decision_timer = site_->env().sim->After(
      site_->config().decision_timeout, [this, id] { OnDecisionTimeout(id); });
}

void ParticipantManager::ArmProbeTimer(TxnId txn) {
  if (site_->config().deadlock != DeadlockPolicy::kEdgeChasing) return;
  auto it = txns_.find(txn);
  if (it == txns_.end()) return;
  it->second.probe_timer.Cancel();
  it->second.probe_timer =
      site_->env().sim->After(site_->config().probe_delay, [this, txn] {
        auto it2 = txns_.find(txn);
        if (it2 == txns_.end()) return;
        std::vector<TxnId> holders = site_->cc()->WaitingFor(txn);
        if (holders.empty()) return;  // wait resolved meanwhile
        for (TxnId h : holders) {
          site_->SendTo(h.home, DeadlockProbe{txn, h, 0});
        }
        // Re-arm: long waits keep probing (the graph may only later
        // close into a cycle).
        ArmProbeTimer(txn);
      });
}

template <typename Request>
void ParticipantManager::OnAccess(SiteId from, const Request& req,
                                  const RpcContext& ctx) {
  constexpr bool kWrite = std::is_same_v<Request, PrewriteRequest>;
  using Reply = std::conditional_t<kWrite, PrewriteReply, ReadReply>;
  const TxnId id = req.txn;
  const ItemId item = req.item;
  if (doomed_.contains(id)) {
    // This site already aborted the transaction unilaterally; recreating
    // state for it now would resurrect it after its locks were freed.
    site_->Respond(ctx, from,
                   MakeReply<Reply>(id, item, false, DenyReason::kUnknownTxn,
                                    site_->epoch()));
    return;
  }
  PTxn& t = Ensure(id, req.ts, from);
  if (t.state != AcpState::kActive) return;  // stray after prepare
  ArmActivityTimer(t);

  bool skip_cc = false;
  if constexpr (kWrite) skip_cc = req.skip_cc;
  if (site_->tracing()) {
    TraceRecord rec;
    rec.kind = kWrite ? TraceEventKind::kPrewriteRequest
                      : TraceEventKind::kReadRequest;
    rec.txn = id;
    rec.peer = from;
    rec.item = item;
    if (skip_cc) rec.detail = "skip_cc";
    site_->EmitTrace(std::move(rec));
  }
  if (skip_cc) {
    // Primary-copy backup path: buffer the write without CC — the
    // primary's lock serialized conflicting transactions already.
    t.granted_any = true;
    site_->Respond(ctx, from, Answer(t, req, CcGrant::Granted()));
    return;
  }

  const uint64_t access = ++last_access_;
  in_cc_call_ = access;
  auto on_answer = [this, access, req, from, ctx](const CcGrant& g) {
    if (in_cc_call_ == access) in_cc_call_ = 0;
    auto it = txns_.find(req.txn);
    if (it == txns_.end()) return;  // aborted while waiting
    PTxn& waiter = it->second;
    waiter.wait_timer.Cancel();
    waiter.probe_timer.Cancel();
    if (g.granted) waiter.granted_any = true;
    EmitCcOutcome(req.txn, req.item, g);
    Reply reply = Answer(waiter, req, g);
    site_->Respond(ctx, from, reply);
    if (!reply.granted) {
      if (waiter.granted_any) doomed_.insert(req.txn);
      LocalAbort(req.txn);
    }
  };
  if constexpr (kWrite) {
    site_->cc()->RequestWrite(id, req.ts, item, std::move(on_answer));
  } else {
    site_->cc()->RequestRead(id, req.ts, item, std::move(on_answer));
  }
  // Answered inside the call, or parked behind a conflict: then a
  // lock-wait timer bounds the wait.
  const bool parked = in_cc_call_ == access;
  in_cc_call_ = 0;
  if (!parked) return;
  auto it = txns_.find(id);
  if (it == txns_.end()) return;
  EmitCcBlocked(id, item);
  ArmProbeTimer(id);
  it->second.wait_timer = site_->env().sim->After(
      site_->config().lock_wait_timeout, [this, id, item, from, ctx] {
        auto it2 = txns_.find(id);
        if (it2 == txns_.end()) return;
        if (it2->second.granted_any) doomed_.insert(id);
        LocalAbort(id);
        site_->Respond(ctx, from,
                       MakeReply<Reply>(id, item, false,
                                        DenyReason::kWaitTimeout,
                                        site_->epoch()));
      });
}

template void ParticipantManager::OnAccess(SiteId, const ReadRequest&,
                                           const RpcContext&);
template void ParticipantManager::OnAccess(SiteId, const PrewriteRequest&,
                                           const RpcContext&);

ReadReply ParticipantManager::Answer(PTxn& /*t*/, const ReadRequest& req,
                                     const CcGrant& g) {
  auto reply = MakeReply<ReadReply>(req.txn, req.item, g.granted, g.reason,
                                    site_->epoch());
  if (!g.granted) return reply;
  if (g.has_value) {
    reply.value = g.value;
    reply.version = g.version;
    return reply;
  }
  auto copy = site_->store().Get(req.item);
  if (!copy.ok()) {
    reply.granted = false;
    reply.reason = DenyReason::kSiteBusy;
  } else {
    reply.value = copy->value;
    reply.version = copy->version;
  }
  return reply;
}

PrewriteReply ParticipantManager::Answer(PTxn& t, const PrewriteRequest& req,
                                         const CcGrant& g) {
  auto reply = MakeReply<PrewriteReply>(req.txn, req.item, g.granted, g.reason,
                                        site_->epoch());
  if (!g.granted) return reply;
  auto row =
      std::lower_bound(t.writes.begin(), t.writes.end(), req.item, RowBefore);
  if (row == t.writes.end() || row->item != req.item) {
    t.writes.insert(row, WalRecord::Write{req.item, req.value, 0});
  } else {
    row->value = req.value;
  }
  site_->mutable_store().LogPrewrite(req.txn, req.item, req.value);
  auto copy = site_->store().Get(req.item);
  reply.version = copy.ok() ? copy->version : 0;
  return reply;
}

void ParticipantManager::OnAbortRequest(const AbortRequest& req) {
  auto it = txns_.find(req.txn);
  if (it == txns_.end()) return;
  if (it->second.state == AcpState::kPrepared ||
      it->second.state == AcpState::kPreCommitted) {
    // A coordinator never plain-aborts a prepared participant, but a
    // recovered one might; treat as an abort decision (logged).
    ApplyDecision(req.txn, false);
    return;
  }
  LocalAbort(req.txn);
}

void ParticipantManager::OnPrepare(SiteId from, const PrepareRequest& req,
                                   const RpcContext& ctx) {
  auto it = txns_.find(req.txn);
  if (it == txns_.end()) {
    // We lost this transaction (crash, victim, orphan cleanup): vote NO.
    EmitVote(req.txn, from, false, DenyReasonName(DenyReason::kUnknownTxn));
    site_->Respond(ctx, from,
                   VoteReply{req.txn, false, DenyReason::kUnknownTxn});
    return;
  }
  PTxn& t = it->second;
  if (t.state != AcpState::kActive) {
    // Duplicate prepare; re-vote YES if prepared.
    if (t.state == AcpState::kPrepared || t.state == AcpState::kPreCommitted) {
      site_->Respond(ctx, from, VoteReply{req.txn, true, DenyReason::kNone});
    }
    return;
  }
  t.coordinator = from;
  t.participants = req.participants;
  t.three_phase = req.three_phase;
  // The coordinator lists versions in ascending item order, as the rows
  // are kept; an item without a row here gets none.
  assert(std::is_sorted(req.versions.begin(), req.versions.end(),
                        [](const auto& a, const auto& b) {
                          return a.item < b.item;
                        }));
  auto row = t.writes.begin();
  for (const auto& wv : req.versions) {
    row = std::lower_bound(row, t.writes.end(), wv.item, RowBefore);
    if (row != t.writes.end() && row->item == wv.item) {
      row->version = wv.version;
    }
  }
  // OCC backward validation: every read this transaction performed here
  // must still be current, and the commit window needs non-waiting
  // shared (reads) / exclusive (writes) locks. Any conflict => NO vote.
  // Pessimistic engines send no validations and grant all commit locks.
  bool valid = true;
  for (const auto& rv : req.validations) {
    auto copy = site_->store().Get(rv.item);
    if (!copy.ok() || copy->version != rv.version) {
      valid = false;
      break;
    }
  }
  if (valid) {
    for (const auto& rv : req.validations) {
      if (!site_->cc()->TryCommitLock(req.txn, rv.item, false)) {
        valid = false;
        break;
      }
    }
  }
  if (valid) {
    for (const auto& w : t.writes) {
      if (!site_->cc()->TryCommitLock(req.txn, w.item, true)) {
        valid = false;
        break;
      }
    }
  }
  if (!valid) {
    EmitVote(req.txn, from, false,
             DenyReasonName(DenyReason::kValidationFailed));
    site_->Respond(ctx, from,
                   VoteReply{req.txn, false, DenyReason::kValidationFailed});
    if (t.granted_any) doomed_.insert(req.txn);
    LocalAbort(req.txn);  // releases any commit locks taken above
    return;
  }
  // The read-only optimization is 2PC-only: under 3PC a vanished
  // read-only participant would be indistinguishable from a crashed
  // unprepared one during termination, which decides ABORT on kUnknown.
  if (site_->config().readonly_optimization && !req.three_phase &&
      t.writes.empty()) {
    // Read-only participant: vote YES-read-only, release everything now
    // and drop out of phase 2 (no prepared record, no decision needed).
    EmitVote(req.txn, from, true, "read-only");
    site_->Respond(ctx, from,
                   VoteReply{req.txn, true, DenyReason::kNone, true});
    LocalAbort(req.txn);  // releases CC holds; nothing was written
    return;
  }
  // Force-log the prepared record (with writes and participants) before
  // voting YES — the WAL survives crashes.
  WalRecord rec;
  rec.kind = WalRecordKind::kPrepared;
  rec.txn = req.txn;
  rec.coordinator = from;
  rec.three_phase = req.three_phase;
  rec.participants = req.participants;
  rec.writes = t.writes;
  site_->mutable_wal().Append(std::move(rec));

  t.state = AcpState::kPrepared;
  t.prepared_at = site_->Now();
  site_->cc()->MarkPrepared(req.txn);
  t.activity_timer.Cancel();
  // A pending orphan probe no longer applies once prepared.
  for (uint64_t c : t.query_calls) site_->rpc().Cancel(c);
  t.query_calls.clear();
  ArmDecisionTimer(t);
  EmitVote(req.txn, from, true, "");
  site_->Respond(ctx, from, VoteReply{req.txn, true, DenyReason::kNone});
}

void ParticipantManager::OnPreCommit(SiteId from, const PreCommitRequest& req,
                                     const RpcContext& ctx) {
  auto it = txns_.find(req.txn);
  if (it == txns_.end()) return;
  PTxn& t = it->second;
  if (t.state != AcpState::kPrepared && t.state != AcpState::kPreCommitted) {
    return;
  }
  if (t.state == AcpState::kPrepared) {
    site_->mutable_wal().Append(
        WalRecord::Protocol(WalRecordKind::kPreCommitted, req.txn, t.coordinator, {},
                  {}, true));
    t.state = AcpState::kPreCommitted;
  }
  ArmDecisionTimer(t);  // reset patience
  site_->Respond(ctx, from, PreCommitAck{req.txn});
}

void ParticipantManager::OnDecision(SiteId from, const Decision& d,
                                    const RpcContext& ctx) {
  auto it = txns_.find(d.txn);
  if (it == txns_.end()) {
    // Already applied (duplicate / resend): ack idempotently.
    site_->Respond(ctx, from, Ack{d.txn});
    return;
  }
  ApplyDecision(d.txn, d.commit, ctx, from);
}

void ParticipantManager::OnDecisionInfo(const DecisionInfo& info) {
  const TxnId txn = info.txn;
  auto it = txns_.find(txn);
  // Not known yet: keep waiting, the query machinery is armed.
  if (it == txns_.end() || !info.known) return;
  if (it->second.state == AcpState::kActive) {
    // Orphan probe answered: the transaction is finished at the
    // coordinator. If it committed, this site's grant was a surplus one
    // (never in the participant list), so its buffered state is simply
    // discarded — the committed write quorum does not include us.
    LocalAbort(txn);
    return;
  }
  ApplyDecision(txn, info.commit);
}

void ParticipantManager::ApplyDecision(TxnId txn, bool commit,
                                       const RpcContext& ack_ctx,
                                       SiteId ack_to) {
  auto it = txns_.find(txn);
  if (it == txns_.end()) return;
  PTxn& t = it->second;
  CancelAll(t);

  site_->mutable_wal().Append(WalRecord::Protocol(
      commit ? WalRecordKind::kCommitDecision : WalRecordKind::kAbortDecision,
      txn,
      t.coordinator,
      {},
      {},
      t.three_phase));

  if ((t.state == AcpState::kPrepared || t.state == AcpState::kPreCommitted) &&
      site_->env().monitor) {
    site_->env().monitor->OnBlockedTime(txn, site_->Now() - t.prepared_at);
  }

  if (commit) {
    for (const auto& w : t.writes) {
      if (w.version == 0) continue;  // stray prewrite, never credited
      site_->mutable_store().Apply(w.item, w.value, w.version, txn);
      site_->cc()->OnApply(txn, w.item, w.value, w.version);
      if (site_->tracing()) {
        TraceRecord rec;
        rec.kind = TraceEventKind::kWriteApplied;
        rec.txn = txn;
        rec.item = w.item;
        rec.arg = static_cast<int64_t>(w.version);
        site_->EmitTrace(std::move(rec));
      }
    }
    site_->mutable_store().CommitStorageTxn(txn);
  } else {
    site_->mutable_store().AbortStorageTxn(txn);
  }
  if (!commit) doomed_.insert(txn);
  site_->cc()->Finish(txn, commit);
  site_->mutable_wal().Append(
      WalRecord::Protocol(WalRecordKind::kApplied, txn, t.coordinator, {}, {}, false));
  if (site_->tracing()) {
    TraceRecord rec;
    rec.kind = TraceEventKind::kDecisionApplied;
    rec.txn = txn;
    rec.peer = t.coordinator;
    rec.arg = commit ? 1 : 0;
    site_->EmitTrace(std::move(rec));
  }
  txns_.erase(it);
  if (ack_ctx.valid()) {
    site_->Respond(ack_ctx, ack_ctx.from, Ack{txn});
  } else if (ack_to != kInvalidSite) {
    site_->SendTo(ack_to, Ack{txn});
  }
}

void ParticipantManager::LocalAbort(TxnId txn) {
  auto it = txns_.find(txn);
  if (it == txns_.end()) return;
  CancelAll(it->second);
  site_->mutable_store().AbortStorageTxn(txn);
  site_->cc()->Finish(txn, false);
  txns_.erase(it);
}

void ParticipantManager::OnCcVictim(TxnId txn, DenyReason reason) {
  auto it = txns_.find(txn);
  if (it == txns_.end()) return;
  SiteId home = it->second.id.home;
  if (site_->tracing()) {
    TraceRecord rec;
    rec.kind = TraceEventKind::kCcVictim;
    rec.txn = txn;
    rec.peer = home;
    rec.detail = DenyReasonName(reason);
    site_->EmitTrace(std::move(rec));
  }
  // The CC engine already dropped the transaction's holds; clean up the
  // rest and tell the home site so the whole transaction aborts. If the
  // victim held grants here, remember it: should the notify be lost, a
  // later operation of the same transaction must be denied rather than
  // silently recreating state with the released locks gone. A victim that
  // was only waiting held nothing, so a retransmission may start over.
  if (it->second.granted_any) doomed_.insert(txn);
  CancelAll(it->second);
  site_->mutable_store().AbortStorageTxn(txn);
  txns_.erase(it);
  site_->SendTo(home, RemoteAbortNotify{txn, AbortCause::kCcp, reason});
}

AcpState ParticipantManager::StateOf(TxnId txn) const {
  auto it = txns_.find(txn);
  if (it != txns_.end()) return it->second.state;
  auto decided = site_->wal().Decision(txn);
  if (decided.has_value()) {
    return *decided ? AcpState::kCommitted : AcpState::kAborted;
  }
  return AcpState::kUnknown;
}

void ParticipantManager::OnActivityTimeout(TxnId txn) {
  auto it = txns_.find(txn);
  if (it == txns_.end() || it->second.state != AcpState::kActive) return;
  PTxn& t = it->second;
  // One orphan probe RPC to the home site. The RPC layer retries with
  // backoff; terminal failure means the home is unreachable and the
  // unprepared transaction can be aborted unilaterally.
  RpcPolicy policy = site_->MakeRpcPolicy(site_->config().active_timeout);
  TxnId id = txn;
  t.query_calls.push_back(site_->rpc().Call(
      txn.home, DecisionQuery{txn, site_->id()}, policy,
      [this, id](Result<Payload> r) { OnOrphanQueryResult(id, r); }));
}

void ParticipantManager::OnOrphanQueryResult(TxnId txn,
                                             const Result<Payload>& r) {
  auto it = txns_.find(txn);
  if (it == txns_.end() || it->second.state != AcpState::kActive) return;
  PTxn& t = it->second;
  if (r.ok()) {
    if (const auto* info = std::get_if<DecisionInfo>(&*r);
        info && info->txn == txn && info->known) {
      OnDecisionInfo(*info);
      return;
    }
    // Inconclusive ("still deciding"): give the coordinator more time,
    // but not forever — a home that can never vouch for the transaction
    // (e.g. it crashed and lost the coordinator) leaves an orphan.
    if (++t.orphan_rounds < 3) {
      ArmActivityTimer(t);
      return;
    }
  }
  // Home unreachable or repeatedly unable to answer: unilateral abort is
  // safe before prepare. This is the "orphan transaction" statistic.
  if (site_->env().monitor) {
    site_->env().monitor->OnOrphanCleanup(txn, site_->id());
  }
  LocalAbort(txn);
}

void ParticipantManager::OnDecisionTimeout(TxnId txn) {
  auto it = txns_.find(txn);
  if (it == txns_.end()) return;
  PTxn& t = it->second;
  if (t.state != AcpState::kPrepared && t.state != AcpState::kPreCommitted) {
    return;
  }
  if (t.three_phase) {
    StartTerminationRound(txn);
    return;
  }
  // 2PC: query the coordinator (presumed abort answers authoritatively),
  // and optionally the peer participants (cooperative termination). The
  // coordinator query retries forever — a prepared participant may only
  // resolve through the decision — while peer queries are best-effort.
  TxnId id = txn;
  if (t.coord_query_call == 0) {
    RpcPolicy forever = site_->MakeRpcPolicy(site_->config().decision_retry);
    forever.max_attempts = 0;
    forever.backoff_cap =
        std::min(forever.backoff_cap, site_->config().decision_retry);
    t.coord_query_call = site_->rpc().Call(
        t.coordinator, DecisionQuery{txn, site_->id()}, forever,
        [this, id](Result<Payload> r) {
          auto it2 = txns_.find(id);
          if (it2 != txns_.end()) it2->second.coord_query_call = 0;
          OnDecisionQueryResult(id, r);
        });
  }
  if (site_->config().cooperative_termination) {
    RpcPolicy peer_policy =
        site_->MakeRpcPolicy(site_->config().decision_retry);
    for (SiteId p : t.participants) {
      if (p == site_->id()) continue;
      t.query_calls.push_back(site_->rpc().Call(
          p, DecisionQuery{txn, site_->id()}, peer_policy,
          [this, id](Result<Payload> r) { OnDecisionQueryResult(id, r); }));
    }
  }
}

void ParticipantManager::OnDecisionQueryResult(TxnId txn,
                                               const Result<Payload>& r) {
  auto it = txns_.find(txn);
  if (it == txns_.end()) return;
  PTxn& t = it->second;
  if (t.state != AcpState::kPrepared && t.state != AcpState::kPreCommitted) {
    return;
  }
  if (!r.ok()) return;  // peer unreachable; other queries keep going
  const auto* info = std::get_if<DecisionInfo>(&*r);
  if (!info || info->txn != txn) return;
  if (info->known) {
    OnDecisionInfo(*info);
    return;
  }
  // "Still deciding": pace the next query round.
  TxnId id = txn;
  t.decision_timer.Cancel();
  t.decision_timer = site_->env().sim->After(
      site_->config().decision_retry, [this, id] { OnDecisionTimeout(id); });
}

void ParticipantManager::StartTerminationRound(TxnId txn) {
  auto it = txns_.find(txn);
  if (it == txns_.end()) return;
  PTxn& t = it->second;
  if (t.termination_running) return;
  t.termination_running = true;
  t.lowest_heard = site_->id();
  t.heard.assign(1, t.state);
  // One single-attempt StateQuery RPC per peer; silence within the
  // window is treated as "no state" when the round closes.
  RpcPolicy policy = site_->MakeRpcPolicy(site_->config().termination_window);
  policy.max_attempts = 1;
  TxnId id = txn;
  for (SiteId p : t.participants) {
    if (p == site_->id()) continue;
    t.query_calls.push_back(site_->rpc().Call(
        p, StateQuery{txn, site_->id()}, policy,
        [this, id, p](Result<Payload> r) {
          if (!r.ok()) return;
          if (const auto* reply = std::get_if<StateReply>(&*r);
              reply && reply->txn == id) {
            OnTerminationStateReply(id, p, reply->state);
          }
        }));
  }
  t.window_timer = site_->env().sim->After(
      site_->config().termination_window,
      [this, id] { FinishTerminationRound(id); });
}

void ParticipantManager::OnTerminationStateReply(TxnId txn, SiteId from,
                                                 AcpState state) {
  auto it = txns_.find(txn);
  if (it == txns_.end()) return;
  PTxn& t = it->second;
  if (!t.termination_running) return;
  // A peer that already knows the decision short-circuits the round, so
  // the states kept for the round's close are never kCommitted or
  // kAborted, and their order does not change its decision.
  if (state == AcpState::kCommitted || state == AcpState::kAborted) {
    t.window_timer.Cancel();
    t.termination_running = false;
    ApplyDecision(txn, state == AcpState::kCommitted);
    return;
  }
  t.lowest_heard = std::min(t.lowest_heard, from);
  t.heard.push_back(state);
}

void ParticipantManager::FinishTerminationRound(TxnId txn) {
  auto it = txns_.find(txn);
  if (it == txns_.end()) return;
  PTxn& t = it->second;
  t.termination_running = false;
  for (uint64_t c : t.query_calls) site_->rpc().Cancel(c);
  t.query_calls.clear();

  // Leadership: the lowest-id responder leads; everyone else re-arms and
  // waits for that site's decision.
  if (t.lowest_heard != site_->id()) {
    ArmDecisionTimer(t);
    return;
  }
  auto decision = ThreePcTerminationDecision(t.heard);
  if (!decision.has_value()) {
    ArmDecisionTimer(t);
    return;
  }
  if (!*decision) {
    DecideAsLeader(txn, false);
    return;
  }
  // Commit path: first move every live peer (and ourselves) to the
  // pre-committed state, so that if this leader fails mid-termination
  // the next round still converges on commit.
  if (t.state == AcpState::kPrepared) {
    site_->mutable_wal().Append(WalRecord::Protocol(WalRecordKind::kPreCommitted, txn,
                                          t.coordinator, {}, {}, true));
    t.state = AcpState::kPreCommitted;
  }
  for (SiteId p : t.participants) {
    if (p != site_->id()) site_->SendTo(p, PreCommitRequest{txn});
  }
  TxnId id = txn;
  t.window_timer = site_->env().sim->After(
      site_->config().termination_window,
      [this, id] { DecideAsLeader(id, true); });
}

void ParticipantManager::DecideAsLeader(TxnId txn, bool commit) {
  auto it = txns_.find(txn);
  if (it == txns_.end()) return;
  PTxn& t = it->second;
  std::vector<SiteId> peers = t.participants;
  site_->mutable_wal().Append(WalRecord::Protocol(
      commit ? WalRecordKind::kCommitDecision : WalRecordKind::kAbortDecision,
      txn, t.coordinator, {}, peers, true));
  // The closer's Decision RPCs notify the peers (and retry until acked);
  // our own copy is applied directly.
  site_->StartCloser(txn, commit, peers);
  ApplyDecision(txn, commit);
}

void ParticipantManager::ReinstateInDoubt(const WalRecord& prepared,
                                          bool precommitted) {
  PTxn& t = Ensure(prepared.txn, TxnTimestamp{0, prepared.txn.home},
                   prepared.coordinator);
  t.state = precommitted ? AcpState::kPreCommitted : AcpState::kPrepared;
  t.granted_any = true;
  t.three_phase = prepared.three_phase;
  t.participants = prepared.participants;
  t.prepared_at = site_->Now();
  t.writes = prepared.writes;
  // Re-acquire write access in the fresh CC engine: it is empty of
  // conflicting state for these items only if no new transaction touched
  // them yet; requests that cannot be granted synchronously are a
  // protocol violation we surface loudly in tests.
  for (const auto& w : prepared.writes) {
    site_->cc()->RequestWrite(prepared.txn, t.ts, w.item,
                              [](const CcGrant&) {});
    // OCC: the commit-window locks were volatile; re-take them so other
    // transactions cannot validate against copies this in-doubt
    // transaction may still overwrite.
    site_->cc()->TryCommitLock(prepared.txn, w.item, /*exclusive=*/true);
  }
  site_->cc()->MarkPrepared(prepared.txn);
  // Ask for the outcome immediately.
  TxnId id = prepared.txn;
  t.decision_timer =
      site_->env().sim->After(Micros(1), [this, id] { OnDecisionTimeout(id); });
}

}  // namespace rainbow
