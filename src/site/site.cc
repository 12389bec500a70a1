#include "site/site.h"

#include <algorithm>
#include <cassert>

#include "cc/timestamp_manager.h"
#include "common/string_util.h"
#include "site/coordinator.h"

namespace rainbow {

namespace {

PageStoreOptions StoreOptions(const ProtocolConfig& config, uint64_t seed,
                              SiteId id) {
  PageStoreOptions opts;
  opts.page_size = config.page_size;
  opts.pool_pages = config.buffer_pool_pages;
  opts.lru_k = config.lru_k;
  opts.checkpoint_interval = config.checkpoint_interval;
  opts.page_checksums = config.page_checksums;
  // Every site's disk gets its own fault stream, decorrelated from the
  // RPC jitter streams that also fork the system seed.
  opts.fault_seed = seed * 0x9e3779b97f4a7c15ULL + id + 1;
  return opts;
}

}  // namespace

Site::Site(SiteId id, Env env)
    : id_(id),
      env_(env),
      store_(&wal_, StoreOptions(*env.config, env.seed, id)) {
  assert(env_.sim && env_.net && env_.config && env_.schema);
  known_items_.resize(env_.schema->num_items());
  rpc_ = std::make_unique<RpcEndpoint>(env_.sim, env_.net, id_, env_.seed);
  rpc_->set_collector(env_.collector);
  rpc_->set_late_reply_handler(
      [this](const Message& m) { OnLateRpcReply(m); });
  BuildVolatileState();
}

Site::~Site() = default;

void Site::BuildVolatileState() {
  cc_ = CreateCcEngine(env_.config->cc, env_.config->deadlock);
  participants_ = std::make_unique<ParticipantManager>(this);
  cc_->set_victim_handler([this](TxnId txn, DenyReason reason) {
    participants_->OnCcVictim(txn, reason);
  });
}

TxnTimestamp Site::ReseedFloor() const {
  // Above every timestamp handed out so far: {time, any site}.
  return TxnTimestamp{Now(), kInvalidSite};
}

void Site::LoadItem(ItemId item, Value initial) {
  store_.Load(item, initial);
  if (env_.config->cc == CcKind::kMultiversionTso) {
    static_cast<TimestampManager*>(cc_.get())->LoadInitial(item, initial, 0);
  }
}

void Site::Start() {
  if (started_) return;
  started_ = true;
  // Checkpoint the freshly loaded database: Load() is not logged, so
  // the initial values must be on disk before the first crash for the
  // restart pass to redo against.
  store_.FlushAll();
  env_.net->RegisterHandler(id_, [this](const Message& m) {
    if (crashed_) return;  // belt and braces; the network already drops
    // Hearing from a site clears its suspicion — any message counts,
    // including RPC replies the endpoint consumes below.
    suspected_until_.erase(m.from);
    RpcDelivery d = rpc_->Accept(m);
    if (d.consumed) return;  // completed a call / suppressed a duplicate
    HandleMessage(m, d.ctx);
  });
}

SimTime Site::Now() const { return env_.sim->Now(); }

void Site::SendTo(SiteId to, Payload payload) {
  env_.net->Send(id_, to, std::move(payload));
}

RpcPolicy Site::MakeRpcPolicy(SimTime timeout) const {
  RpcPolicy p;
  p.timeout = timeout;
  p.max_attempts = config().rpc_max_attempts;
  p.backoff_base = config().rpc_backoff_base;
  p.backoff_cap = config().rpc_backoff_cap;
  return p;
}

void Site::Respond(const RpcContext& ctx, SiteId to, Payload payload) {
  if (ctx.valid()) {
    rpc_->Reply(ctx, std::move(payload));
  } else {
    SendTo(to, std::move(payload));
  }
}

void Site::EmitTrace(TraceRecord rec) {
  if (!tracing()) return;
  rec.time = Now();
  if (rec.site == kInvalidSite) rec.site = id_;
  env_.collector->Emit(std::move(rec));
}

bool Site::IsSuspected(SiteId s) const {
  auto it = suspected_until_.find(s);
  return it != suspected_until_.end() && it->second > Now();
}

void Site::Suspect(SiteId s) {
  if (s == id_) return;
  suspected_until_[s] = Now() + env_.config->suspicion_ttl;
}

std::set<SiteId> Site::SuspectedSet() const {
  std::set<SiteId> out;
  for (const auto& [s, until] : suspected_until_) {
    if (until > Now()) out.insert(s);
  }
  return out;
}

size_t Site::active_participants() const {
  return participants_ ? participants_->size() : 0;
}

// ---------------------------------------------------------------------------
// Client API
// ---------------------------------------------------------------------------

void Site::Submit(TxnProgram program, TxnCallback cb,
                  std::optional<TxnTimestamp> inherit_ts) {
  if (env_.monitor) env_.monitor->OnSubmit(id_, Now());
  if (crashed_) {
    TxnOutcome outcome;
    outcome.id = TxnId{id_, next_txn_seq_++};
    outcome.committed = false;
    outcome.abort_cause = AbortCause::kSiteFailure;
    outcome.abort_detail = "home site is down";
    outcome.submitted_at = Now();
    outcome.finished_at = Now();
    outcome.home = id_;
    outcome.num_ops = static_cast<uint32_t>(program.ops.size());
    if (env_.monitor) env_.monitor->OnComplete(outcome);
    if (cb) env_.sim->After(0, [cb, outcome] { cb(outcome); });
    return;
  }
  TxnId id{id_, next_txn_seq_++};
  TxnTimestamp ts;
  if (inherit_ts.has_value()) {
    // Restart under the original timestamp (wait-die fairness); the
    // previous incarnation is globally dead, so reuse is safe.
    ts = *inherit_ts;
  } else {
    // Timestamps must be unique and monotone per site: nudge the clock
    // component forward if several transactions arrive at one instant.
    SimTime ts_time = std::max(Now(), last_ts_time_ + 1);
    last_ts_time_ = ts_time;
    ts = TxnTimestamp{ts_time, id_};
  }
  if (tracing()) {
    TraceRecord rec;
    rec.kind = TraceEventKind::kTxnSubmit;
    rec.txn = id;
    rec.arg = static_cast<int64_t>(program.ops.size());
    if (inherit_ts.has_value()) rec.detail = "restart";
    EmitTrace(std::move(rec));
  }
  auto coord = std::make_unique<Coordinator>(this, id, ts, std::move(program),
                                             std::move(cb));
  Coordinator* raw = coord.get();
  coordinators_[id] = std::move(coord);
  raw->Start();
}

void Site::CoordinatorFinished(TxnId txn) { coordinators_.erase(txn); }

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

void Site::Crash() {
  if (crashed_) return;
  crashed_ = true;
  if (tracing()) {
    TraceRecord rec;
    rec.kind = TraceEventKind::kSiteCrash;
    EmitTrace(std::move(rec));
  }
  env_.net->SetSiteUp(id_, false);
  // Volatile state dies. Clients of in-flight homed transactions get a
  // site-failure outcome.
  for (auto& [id, coord] : coordinators_) {
    coord->OnSiteCrash();
  }
  coordinators_.clear();
  participants_->Shutdown();
  participants_.reset();
  cc_.reset();
  store_.OnCrash();  // buffer pool frames and pending-txn table die
  closers_.clear();
  rpc_->Reset();  // drops every pending call and the duplicate windows
  std::fill(known_items_.begin(), known_items_.end(), false);
  suspected_until_.clear();
}

void Site::Recover() {
  if (!crashed_) return;
  crashed_ = false;
  ++epoch_;
  env_.net->SetSiteUp(id_, true);

  // Storage restart first: the page engine's ARIES pass (analysis ->
  // redo -> undo) rebuilds the committed pages from the log before any
  // protocol-level recovery reads the store.
  last_restart_ = store_.Restart();
  if (tracing()) {
    const RestartSummary& rs = last_restart_;
    TraceRecord rec;
    rec.kind = TraceEventKind::kSiteRecover;
    rec.arg = static_cast<int64_t>(epoch_);
    rec.detail = StringPrintf(
        "analyzed=%zu in_doubt=%zu losers=%zu redo=%zu redo_skipped=%zu "
        "undo_clrs=%zu scanned=%zu redo_start=%llu quarantined=%zu",
        rs.analyzed_txns, rs.in_doubt, rs.losers, rs.redo_applied,
        rs.redo_skipped, rs.undo_clrs, rs.log_scanned,
        static_cast<unsigned long long>(rs.redo_start), rs.pages_quarantined);
    // Only a restart that left tentative versions behind names them, so
    // every clean restart's detail reads as it always has.
    if (rs.tentative_leaks > 0) {
      rec.detail += StringPrintf(" tentative=%zu", rs.tentative_leaks);
    }
    EmitTrace(std::move(rec));
  }

  // Redo: apply committed-but-unapplied writes from prepared records
  // (the crash hit between logging/learning the decision and applying).
  // A home site that is also a participant logs the commit decision
  // before its local apply, so restart undoes that storage txn as a
  // loser and this loop re-applies it. Store versioning makes
  // re-application idempotent.
  for (const WalRecord& prepared : wal_.CommittedUnapplied()) {
    for (const auto& w : prepared.writes) {
      store_.Apply(w.item, w.value, w.version);
    }
    wal_.Append(WalRecord::Protocol(WalRecordKind::kApplied, prepared.txn,
                                    prepared.coordinator, {}, {}, false));
  }
  // Fresh volatile state. Decision knowledge needs no rebuild: the WAL
  // digest answers it. Reinstate in-doubt (prepared, undecided)
  // transactions; the kApplied records the redo loop appended change
  // neither list below.
  BuildVolatileState();
  for (const WalRecord& rec : wal_.InDoubt()) {
    participants_->ReinstateInDoubt(rec, wal_.Precommitted(rec.txn));
  }
  // MVTO seeds each chain from the redone store, at a floor that turns
  // away every transaction begun before now. The in-doubt writes were
  // granted before the crash, so they were re-taken above, first.
  if (env_.config->cc == CcKind::kMultiversionTso) {
    auto* mvto = static_cast<TimestampManager*>(cc_.get());
    store_.ForEach([this, mvto](ItemId item, const ItemCopy& copy) {
      mvto->LoadInitial(item, copy.value, copy.version, ReseedFloor());
    });
  }
  // Re-propagate decisions this site made as coordinator but never
  // finished acknowledging.
  for (const auto& d : wal_.DecidedUnended()) {
    StartCloser(d.txn, d.commit, d.participants);
  }
  // Refresh item copies from a live peer.
  if (env_.config->recovery_refresh) {
    RequestRefresh();
  }
}

void Site::RequestRefresh() {
  if (store_.size() == 0) return;
  // Ask every live site that shares an item with us, in ascending id
  // order: the catalog entries of the items we store name them.
  RefreshRequest req;
  req.items.reserve(store_.size());
  std::set<SiteId> peers;
  store_.ForEach([&](ItemId item, const ItemCopy&) {
    req.items.push_back(item);
    for (SiteId s : env_.schema->items()[item].copies) {
      if (s != id_) peers.insert(s);
    }
  });
  for (SiteId p : peers) {
    if (env_.net->IsSiteUp(p)) SendTo(p, req);
  }
}

// ---------------------------------------------------------------------------
// Message handling
// ---------------------------------------------------------------------------

void Site::HandleMessage(const Message& m, const RpcContext& ctx) {
  std::visit(
      [&](const auto& p) {
        using T = std::decay_t<decltype(p)>;
        if constexpr (std::is_same_v<T, ReadRequest> ||
                      std::is_same_v<T, PrewriteRequest>) {
          participants_->OnAccess(m.from, p, ctx);
        } else if constexpr (std::is_same_v<T, AbortRequest>) {
          participants_->OnAbortRequest(p);
        } else if constexpr (std::is_same_v<T, PrepareRequest>) {
          participants_->OnPrepare(m.from, p, ctx);
        } else if constexpr (std::is_same_v<T, PreCommitRequest>) {
          participants_->OnPreCommit(m.from, p, ctx);
        } else if constexpr (std::is_same_v<T, Decision>) {
          participants_->OnDecision(m.from, p, ctx);
        } else if constexpr (std::is_same_v<T, DecisionInfo>) {
          // Raw (non-RPC) decision info; normal replies arrive through
          // the participant's query-call callbacks.
          participants_->OnDecisionInfo(p);
        } else if constexpr (std::is_same_v<T, RemoteAbortNotify>) {
          auto it = coordinators_.find(p.txn);
          if (it != coordinators_.end()) it->second->OnRemoteAbort(p);
        } else if constexpr (std::is_same_v<T, DecisionQuery>) {
          HandleDecisionQuery(m.from, p, ctx);
        } else if constexpr (std::is_same_v<T, StateQuery>) {
          HandleStateQuery(m.from, p, ctx);
        } else if constexpr (std::is_same_v<T, RefreshRequest>) {
          HandleRefreshRequest(m.from, p);
        } else if constexpr (std::is_same_v<T, RefreshReply>) {
          HandleRefreshReply(p);
        } else if constexpr (std::is_same_v<T, DeadlockProbe>) {
          HandleDeadlockProbe(p);
        } else if constexpr (std::is_same_v<T, DeadlockProbeCheck>) {
          HandleDeadlockProbeCheck(p);
        } else {
          // Reply kinds (NsLookupReply, ReadReply, PrewriteReply,
          // VoteReply, PreCommitAck, StateReply, Ack) reach their
          // callers through the RPC layer; a raw copy (e.g. injected by
          // a test, or a surplus termination ack) is ignored.
          // NsLookupRequest: sites are not the name server.
        }
      },
      m.payload);
}

void Site::OnLateRpcReply(const Message& m) {
  // A reply whose call already finished or was cancelled. Most are
  // harmless (surplus votes, stale lookups), but a granted copy access
  // means the replica holds CC state on our behalf: if the transaction
  // can still use it, fold it into the commit protocol; otherwise tell
  // the replica to abort right away, or its locks sit until an orphan
  // timer fires. (A known-committed transaction's replicas get the
  // decision from the closer.)
  TxnId txn;
  bool granted = false;
  if (const auto* r = std::get_if<ReadReply>(&m.payload)) {
    txn = r->txn;
    granted = r->granted;
  } else if (const auto* p = std::get_if<PrewriteReply>(&m.payload)) {
    txn = p->txn;
    granted = p->granted;
  } else {
    return;
  }
  if (!granted) return;
  auto it = coordinators_.find(txn);
  if (it != coordinators_.end()) {
    it->second->OnStrayGrant(m.from);
    return;
  }
  auto decided = wal_.Decision(txn);
  if (!decided.has_value() || !*decided) {
    SendTo(m.from, AbortRequest{txn});
  }
}

void Site::HandleDecisionQuery(SiteId from, const DecisionQuery& q,
                               const RpcContext& ctx) {
  DecisionInfo info;
  info.txn = q.txn;
  auto decided = wal_.Decision(q.txn);
  if (decided.has_value()) {
    info.known = true;
    info.commit = *decided;
  } else if (coordinators_.contains(q.txn)) {
    info.known = false;  // still deciding
  } else if (q.txn.home == id_ &&
             env_.config->acp == AcpKind::kTwoPhaseCommit) {
    // Presumed abort: we are the coordinator, we have no decision record
    // — we cannot have decided commit.
    info.known = true;
    info.commit = false;
  } else {
    info.known = false;
  }
  Respond(ctx, from, info);
}

void Site::HandleStateQuery(SiteId from, const StateQuery& q,
                            const RpcContext& ctx) {
  Respond(ctx, from, StateReply{q.txn, participants_->StateOf(q.txn)});
}

void Site::HandleRefreshRequest(SiteId from, const RefreshRequest& r) {
  RefreshReply reply;
  reply.entries.reserve(r.items.size());
  for (ItemId item : r.items) {
    auto copy = store_.Get(item);
    if (copy.ok()) {
      reply.entries.push_back(RefreshReply::Entry{item, copy->value,
                                                  copy->version});
    }
  }
  SendTo(from, std::move(reply));
}

void Site::HandleRefreshReply(const RefreshReply& r) {
  size_t adopted = 0;
  for (const auto& e : r.entries) {
    if (store_.AdoptIfNewer(e.item, e.value, e.version)) ++adopted;
  }
  if (adopted > 0) {
    if (env_.config->cc == CcKind::kMultiversionTso) {
      auto* mvto = static_cast<TimestampManager*>(cc_.get());
      for (const auto& e : r.entries) {
        auto copy = store_.Get(e.item);
        if (copy.ok() && copy->version == e.version) {
          mvto->LoadInitial(e.item, e.value, e.version, ReseedFloor());
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Edge-chasing distributed deadlock detection (Chandy–Misra–Haas)
// ---------------------------------------------------------------------------

namespace {
// Probe traversal depth cap: cycles are found well before this; it only
// bounds wandering probes racing against state changes.
constexpr uint32_t kMaxProbeHops = 32;
}  // namespace

void Site::HandleDeadlockProbe(const DeadlockProbe& p) {
  // Delivered at the holder's home site.
  if (p.holder == p.initiator) {
    // The waits-for path closed back on the initiator: deadlock.
    auto it = coordinators_.find(p.initiator);
    if (it != coordinators_.end()) it->second->AbortAsDeadlockVictim();
    return;
  }
  if (p.hops >= kMaxProbeHops) return;
  auto it = coordinators_.find(p.holder);
  if (it == coordinators_.end()) return;  // holder finished: no edge
  Coordinator* c = it->second.get();
  if (!c->in_data_op()) return;  // holder is not blocked: path ends
  // Rate-limit per (blocked op, initiator): dense waits-for graphs have
  // exponentially many paths, and one traversal per edge is enough.
  if (!c->ShouldForwardProbe(p.initiator, Now(),
                             env_.config->probe_delay / 2)) {
    return;
  }
  // Forward: ask every site the holder is waiting on who it is queued
  // behind there.
  c->ForEachOutstanding([&](SiteId s) {
    SendTo(s, DeadlockProbeCheck{p.initiator, p.holder, p.hops + 1});
  });
}

void Site::HandleDeadlockProbeCheck(const DeadlockProbeCheck& p) {
  if (p.hops >= kMaxProbeHops || cc_ == nullptr) return;
  for (TxnId next : cc_->WaitingFor(p.waiter)) {
    if (next == p.initiator) {
      // Cycle: tell the initiator's home directly.
      SendTo(p.initiator.home,
             DeadlockProbe{p.initiator, p.initiator, p.hops + 1});
    } else {
      SendTo(next.home, DeadlockProbe{p.initiator, next, p.hops + 1});
    }
  }
}

// ---------------------------------------------------------------------------
// Closers
// ---------------------------------------------------------------------------

void Site::StartCloser(TxnId txn, bool commit,
                       std::vector<SiteId> participants) {
  // One Decision per participant, sent in ascending site order.
  std::ranges::sort(participants);
  auto dups = std::ranges::unique(participants);
  participants.erase(dups.begin(), dups.end());
  if (participants.empty()) {
    wal_.Append(WalRecord::Protocol(WalRecordKind::kEnd, txn, id_, {}, {}, false));
    closers_.erase(txn);
    return;
  }
  // One Decision RPC per participant: the RPC layer resends until the
  // ack arrives, pacing resends at ack_retry and giving up after
  // max_ack_resends retransmissions.
  RpcPolicy policy = MakeRpcPolicy(env_.config->ack_retry);
  policy.max_attempts = env_.config->max_ack_resends + 1;
  policy.backoff_cap = std::min(policy.backoff_cap, env_.config->ack_retry);
  CloserCalls& calls = closers_[txn];
  calls.clear();
  calls.reserve(participants.size());
  for (SiteId p : participants) {
    calls.emplace_back(
        p, rpc_->Call(p, Decision{txn, commit}, policy,
                      [this, txn, p](Result<Payload> r) {
                        OnCloserReply(txn, p, r.ok());
                      }));
  }
}

void Site::OnCloserReply(TxnId txn, SiteId participant, bool ok) {
  auto it = closers_.find(txn);
  if (it == closers_.end()) return;
  CloserCalls& calls = it->second;
  auto call =
      std::ranges::find(calls, participant, &CloserCalls::value_type::first);
  if (call != calls.end()) calls.erase(call);
  if (!ok) {
    // Leave completion to the participants' own recovery machinery.
    for (auto& [s, id] : calls) rpc_->Cancel(id);
    closers_.erase(it);
    return;
  }
  if (!calls.empty()) return;
  wal_.Append(WalRecord::Protocol(WalRecordKind::kEnd, txn, id_, {}, {}, false));
  closers_.erase(it);
}

}  // namespace rainbow
