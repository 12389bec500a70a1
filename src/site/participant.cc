#include "site/participant.h"

#include <algorithm>
#include <cassert>
#include <memory>

#include "site/site.h"

namespace rainbow {

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

void ParticipantManager::OnRead(SiteId from, const ReadRequest& req,
                                const RpcContext& ctx) {
  if (doomed_.contains(req.txn)) {
    // This site already aborted the transaction unilaterally; recreating
    // state for it now would resurrect it after its locks were freed.
    site_->Respond(ctx, from,
                   ReadReply{req.txn, req.item, false, DenyReason::kUnknownTxn,
                             0, 0, site_->epoch()});
    return;
  }
  PTxn& t = Ensure(req.txn, req.ts, from);
  if (t.state != AcpState::kActive) return;  // stray after prepare
  ArmActivityTimer(t);

  TxnId id = req.txn;
  ItemId item = req.item;
  if (site_->tracing()) {
    TraceRecord rec;
    rec.kind = TraceEventKind::kReadRequest;
    rec.txn = id;
    rec.peer = from;
    rec.item = item;
    site_->EmitTrace(std::move(rec));
  }
  // Detect whether the CC engine answers synchronously; if not, a
  // lock-wait timer bounds the wait.
  auto decided = std::make_shared<bool>(false);
  site_->cc()->RequestRead(
      id, req.ts, item,
      [this, id, item, from, ctx, decided](const CcGrant& g) {
        *decided = true;
        auto it = txns_.find(id);
        if (it == txns_.end()) return;  // aborted while waiting
        it->second.wait_timer.Cancel();
        it->second.probe_timer.Cancel();
        if (g.granted) it->second.granted_any = true;
        EmitCcOutcome(id, item, g);
        ReadReply reply;
        reply.txn = id;
        reply.item = item;
        reply.granted = g.granted;
        reply.reason = g.reason;
        reply.epoch = site_->epoch();
        if (g.granted) {
          if (g.has_value) {
            reply.value = g.value;
            reply.version = g.version;
          } else {
            auto copy = site_->store().Get(item);
            if (!copy.ok()) {
              reply.granted = false;
              reply.reason = DenyReason::kSiteBusy;
            } else {
              reply.value = copy->value;
              reply.version = copy->version;
            }
          }
        }
        site_->Respond(ctx, from, reply);
        if (!reply.granted) {
          if (it->second.granted_any) doomed_.insert(id);
          LocalAbort(id);
        }
      });
  if (!*decided) {
    auto it = txns_.find(id);
    if (it == txns_.end()) return;  // denied synchronously and cleaned up
    EmitCcBlocked(id, item);
    ArmProbeTimer(id);
    it->second.wait_timer = site_->env().sim->After(
        site_->config().lock_wait_timeout, [this, id, item, from, ctx] {
          auto it2 = txns_.find(id);
          if (it2 == txns_.end()) return;
          if (it2->second.granted_any) doomed_.insert(id);
          LocalAbort(id);
          site_->Respond(ctx, from,
                         ReadReply{id, item, false, DenyReason::kWaitTimeout,
                                   0, 0, site_->epoch()});
        });
  }
}

void ParticipantManager::OnPrewrite(SiteId from, const PrewriteRequest& req,
                                    const RpcContext& ctx) {
  if (doomed_.contains(req.txn)) {
    site_->Respond(ctx, from,
                   PrewriteReply{req.txn, req.item, false,
                                 DenyReason::kUnknownTxn, 0, site_->epoch()});
    return;
  }
  PTxn& t = Ensure(req.txn, req.ts, from);
  if (t.state != AcpState::kActive) return;
  ArmActivityTimer(t);

  TxnId id = req.txn;
  ItemId item = req.item;
  Value value = req.value;
  if (site_->tracing()) {
    TraceRecord rec;
    rec.kind = TraceEventKind::kPrewriteRequest;
    rec.txn = id;
    rec.peer = from;
    rec.item = item;
    if (req.skip_cc) rec.detail = "skip_cc";
    site_->EmitTrace(std::move(rec));
  }

  if (req.skip_cc) {
    // Primary-copy backup path: buffer the write without CC — the
    // primary's lock serialized conflicting transactions already.
    t.buffered[item] = value;
    site_->mutable_store().LogPrewrite(id, item, value);
    t.granted_any = true;
    PrewriteReply reply;
    reply.txn = id;
    reply.item = item;
    reply.granted = true;
    reply.epoch = site_->epoch();
    auto copy = site_->store().Get(item);
    reply.version = copy.ok() ? copy->version : 0;
    site_->Respond(ctx, from, reply);
    return;
  }

  auto decided = std::make_shared<bool>(false);
  site_->cc()->RequestWrite(
      id, req.ts, item,
      [this, id, item, value, from, ctx, decided](const CcGrant& g) {
        *decided = true;
        auto it = txns_.find(id);
        if (it == txns_.end()) return;
        it->second.wait_timer.Cancel();
        it->second.probe_timer.Cancel();
        if (g.granted) it->second.granted_any = true;
        EmitCcOutcome(id, item, g);
        PrewriteReply reply;
        reply.txn = id;
        reply.item = item;
        reply.granted = g.granted;
        reply.reason = g.reason;
        reply.epoch = site_->epoch();
        if (g.granted) {
          it->second.buffered[item] = value;
          site_->mutable_store().LogPrewrite(id, item, value);
          auto copy = site_->store().Get(item);
          reply.version = copy.ok() ? copy->version : 0;
        }
        site_->Respond(ctx, from, reply);
        if (!reply.granted) {
          if (it->second.granted_any) doomed_.insert(id);
          LocalAbort(id);
        }
      });
  if (!*decided) {
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
                         PrewriteReply{id, item, false,
                                       DenyReason::kWaitTimeout, 0,
                                       site_->epoch()});
        });
  }
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
  for (const auto& wv : req.versions) {
    t.versions[wv.item] = wv.version;
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
    for (const auto& [item, value] : t.buffered) {
      if (!site_->cc()->TryCommitLock(req.txn, item, true)) {
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
      t.buffered.empty()) {
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
  for (const auto& [item, value] : t.buffered) {
    auto vi = t.versions.find(item);
    rec.writes.push_back(WalRecord::Write{
        item, value, vi == t.versions.end() ? 0 : vi->second});
  }
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
  auto it = txns_.find(info.txn);
  if (it == txns_.end()) return;
  if (!info.known) return;  // keep waiting; query machinery is armed
  HandleDecisionNews(info.txn, info);
}

void ParticipantManager::HandleDecisionNews(TxnId txn,
                                            const DecisionInfo& info) {
  auto it = txns_.find(txn);
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
    for (const auto& [item, value] : t.buffered) {
      auto vi = t.versions.find(item);
      if (vi == t.versions.end()) continue;  // stray prewrite, no version
      site_->mutable_store().Apply(item, value, vi->second, txn);
      site_->cc()->OnApply(txn, item, value, vi->second);
      if (site_->tracing()) {
        TraceRecord rec;
        rec.kind = TraceEventKind::kWriteApplied;
        rec.txn = txn;
        rec.item = item;
        rec.arg = static_cast<int64_t>(vi->second);
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
      HandleDecisionNews(txn, *info);
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
    HandleDecisionNews(txn, *info);
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
  t.peer_states.clear();
  t.peer_states[site_->id()] = t.state;
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
  t.peer_states[from] = state;
  // A peer that already knows the decision short-circuits the round.
  if (state == AcpState::kCommitted) {
    t.window_timer.Cancel();
    t.termination_running = false;
    ApplyDecision(txn, true);
    return;
  }
  if (state == AcpState::kAborted) {
    t.window_timer.Cancel();
    t.termination_running = false;
    ApplyDecision(txn, false);
    return;
  }
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
  SiteId lowest = site_->id();
  for (const auto& [s, st] : t.peer_states) lowest = std::min(lowest, s);
  if (lowest != site_->id()) {
    ArmDecisionTimer(t);
    return;
  }

  std::vector<AcpState> states;
  states.reserve(t.peer_states.size());
  for (const auto& [s, st] : t.peer_states) states.push_back(st);
  auto decision = ThreePcTerminationDecision(states);
  if (!decision.has_value()) {
    ArmDecisionTimer(t);
    return;
  }
  if (!*decision) {
    std::vector<SiteId> peers = t.participants;
    site_->mutable_wal().Append(WalRecord::Protocol(WalRecordKind::kAbortDecision, txn,
                                          t.coordinator, {}, peers, true));
    // The closer's Decision RPCs notify the peers (and retry until
    // acked); our own copy is applied directly.
    site_->StartCloser(txn, false, peers);
    ApplyDecision(txn, false);
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
      [this, id] { FinishTerminationCommit(id); });
}

void ParticipantManager::FinishTerminationCommit(TxnId txn) {
  auto it = txns_.find(txn);
  if (it == txns_.end()) return;
  PTxn& t = it->second;
  std::vector<SiteId> peers = t.participants;
  site_->mutable_wal().Append(WalRecord::Protocol(WalRecordKind::kCommitDecision, txn,
                                        t.coordinator, {}, peers, true));
  site_->StartCloser(txn, true, peers);
  ApplyDecision(txn, true);
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
  for (const auto& w : prepared.writes) {
    t.buffered[w.item] = w.value;
    t.versions[w.item] = w.version;
  }
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
