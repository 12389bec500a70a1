#include "site/coordinator.h"

#include <algorithm>
#include <cassert>

#include "common/string_util.h"
#include "site/site.h"

namespace rainbow {

Coordinator::Coordinator(Site* site, TxnId id, TxnTimestamp ts,
                         TxnProgram program, TxnCallback cb)
    : site_(site),
      id_(id),
      ts_(ts),
      program_(std::move(program)),
      cb_(std::move(cb)),
      submitted_at_(site->Now()) {}

Coordinator::~Coordinator() {
  // Cancel every outstanding RPC so no callback can touch a destroyed
  // coordinator (Finish() destroys *this from inside a callback).
  if (lookup_call_ != 0) site_->rpc().Cancel(lookup_call_);
  CancelCalls();
}

void Coordinator::CancelCalls() {
  for (Peer& p : peers_) {
    if (p.call != 0) site_->rpc().Cancel(p.call);
    p.call = 0;
  }
}

Coordinator::Peer& Coordinator::PeerRow(SiteId site) {
  auto it = std::ranges::lower_bound(peers_, site, {}, &Peer::site);
  if (it == peers_.end() || it->site != site) {
    it = peers_.insert(it, Peer{.site = site});
  }
  return *it;
}

Coordinator::Peer* Coordinator::FindPeer(SiteId site) {
  auto it = std::ranges::lower_bound(peers_, site, {}, &Peer::site);
  return it != peers_.end() && it->site == site ? &*it : nullptr;
}

Coordinator::Item& Coordinator::ItemRow(ItemId item) {
  auto it = std::ranges::lower_bound(items_, item, {}, &Item::item);
  if (it == items_.end() || it->item != item) {
    it = items_.insert(it, Item{});
    it->item = item;
    // A copy row per replica at most: one allocation per item.
    it->copies.reserve(site_->schema().items()[item].copies.size());
  }
  return *it;
}

Coordinator::Copy& Coordinator::CurCopy(SiteId site) {
  auto& copies = ItemRow(cur_item_).copies;
  auto it = std::ranges::lower_bound(copies, site, {}, &Copy::site);
  if (it == copies.end() || it->site != site) {
    it = copies.insert(it, Copy{.site = site});
  }
  return *it;
}

void Coordinator::Start() {
  // Expand scan verbs into per-item reads: a scan of length L at item i
  // becomes reads of i..i+L-1, each served through the normal
  // replica-control path (the page engine feeds the copies from its B+
  // tree leaf chain at the participants).
  bool has_scan = false;
  for (const Op& op : program_.ops) {
    if (op.kind == OpKind::kScan) {
      has_scan = true;
      break;
    }
  }
  if (has_scan) {
    std::vector<Op> expanded;
    expanded.reserve(program_.ops.size());
    for (const Op& op : program_.ops) {
      if (op.kind != OpKind::kScan) {
        expanded.push_back(op);
        continue;
      }
      Value len = op.value < 1 ? 1 : op.value;
      for (Value k = 0; k < len; ++k) {
        expanded.push_back(Op::Read(op.item + static_cast<ItemId>(k)));
      }
    }
    program_.ops = std::move(expanded);
  }
  read_slots_.assign(program_.ops.size(), std::nullopt);
  items_.reserve(program_.ops.size());  // at most one row per op
  exec_order_.resize(program_.ops.size());
  for (size_t i = 0; i < exec_order_.size(); ++i) exec_order_[i] = i;
  if (site_->config().ordered_access) {
    // Conservative discipline: one global (item-id) acquisition order
    // makes lock waits cycle-free. Stable sort keeps same-item ops in
    // program order, so read-own-write semantics are untouched.
    std::stable_sort(exec_order_.begin(), exec_order_.end(),
                     [this](size_t a, size_t b) {
                       return program_.ops[a].item < program_.ops[b].item;
                     });
  }
  NextOp();
}

void Coordinator::NextOp() {
  if (op_index_ >= exec_order_.size()) {
    BeginCommit();
    return;
  }
  cur_op_original_ = exec_order_[op_index_];
  const Op& op = program_.ops[cur_op_original_];
  switch (op.kind) {
    case OpKind::kRead: {
      if (std::optional<Value> buf = Buffered(op.item)) {
        // Read-own-write: served from the coordinator's buffer.
        read_slots_[cur_op_original_] = *buf;
        ++op_index_;
        NextOp();
        return;
      }
      cur_increment_pending_ = false;
      WithView(op.item, /*write=*/false);
      return;
    }
    case OpKind::kWrite:
      cur_increment_pending_ = false;
      cur_write_value_ = op.value;
      WithView(op.item, /*write=*/true);
      return;
    case OpKind::kIncrement: {
      if (std::optional<Value> buf = Buffered(op.item)) {
        read_slots_[cur_op_original_] = *buf;
        cur_increment_pending_ = false;
        cur_write_value_ = *buf + op.value;
        WithView(op.item, /*write=*/true);
        return;
      }
      // Read phase first; the write phase follows from the read value.
      cur_increment_pending_ = true;
      cur_increment_delta_ = op.value;
      WithView(op.item, /*write=*/false);
      return;
    }
    case OpKind::kScan:
      // Scans were expanded into reads at Start(); none can reach the
      // per-op loop.
      assert(false && "unexpanded scan op");
      ++op_index_;
      NextOp();
      return;
  }
}

const ItemSchema* Coordinator::FindView(ItemId item) const {
  bool known = site_->config().cache_schema
                   ? site_->KnowsItem(item)
                   : std::ranges::find(looked_up_, item) != looked_up_.end();
  return known ? &site_->schema().items()[item] : nullptr;
}

std::optional<Value> Coordinator::Buffered(ItemId item) const {
  auto it = std::ranges::lower_bound(items_, item, {}, &Item::item);
  if (it == items_.end() || it->item != item) return std::nullopt;
  return it->write;
}

void Coordinator::WithView(ItemId item, bool write) {
  cur_item_ = item;
  cur_is_write_ = write;
  if (FindView(item) != nullptr) {
    StartAccess();
    return;
  }
  phase_ = Phase::kLookup;
  lookup_call_ = site_->rpc().Call(
      kNameServerId, NsLookupRequest{id_, item},
      site_->MakeRpcPolicy(site_->config().op_timeout),
      [this](Result<Payload> r) { OnLookupResult(std::move(r)); });
}

void Coordinator::OnLookupResult(Result<Payload> r) {
  lookup_call_ = 0;
  if (!r.ok()) {
    site_->Suspect(kNameServerId);
    AbortNow(AbortCause::kRcp, "name-server lookup timed out");
    return;
  }
  if (const auto* reply = std::get_if<NsLookupReply>(&*r)) {
    OnLookupReply(*reply);
  }
}

void Coordinator::OnLookupReply(const NsLookupReply& r) {
  if (phase_ != Phase::kLookup || r.item != cur_item_) return;
  ++round_trips_;
  if (!r.found) {
    AbortNow(AbortCause::kOther,
             "unknown item " + std::to_string(r.item));
    return;
  }
  // The reply carries the catalog entry the view is read from.
  assert(r.item < site_->schema().num_items());
  [[maybe_unused]] const ItemSchema& entry = site_->schema().items()[r.item];
  assert(r.copies == entry.copies && r.votes == entry.votes &&
         r.read_quorum == entry.read_quorum &&
         r.write_quorum == entry.write_quorum);
  if (site_->config().cache_schema) {
    site_->NoteKnownItem(r.item);
  } else {
    looked_up_.push_back(r.item);
  }
  StartAccess();
}

void Coordinator::StartAccess() {
  const ItemSchema* view = FindView(cur_item_);
  assert(view != nullptr);
  RcpPlanner planner(site_->config().rcp, site_->config().rcp_broadcast);
  auto plan = cur_is_write_
                  ? planner.PlanWrite(*view, site_->id(), site_->SuspectedSet())
                  : planner.PlanRead(*view, site_->id(), site_->SuspectedSet());
  if (!plan.ok()) {
    AbortNow(AbortCause::kRcp, plan.status().message());
    return;
  }
  phase_ = cur_is_write_ ? Phase::kWriteOp : Phase::kReadOp;
  probe_forwarded_.clear();  // new wait epoch
  cur_require_all_ = plan->require_all;
  cur_votes_needed_ = plan->needed_votes;
  cur_votes_got_ = 0;
  cur_max_version_ = 0;
  cur_best_value_ = 0;
  cur_cc_site_ = plan->cc_site;
  for (Peer& p : peers_) p.outstanding = false;
  for (SiteId s : plan->targets) PeerRow(s).outstanding = true;
  if (site_->tracing()) {
    TraceRecord rec;
    rec.kind = TraceEventKind::kQuorumPlan;
    rec.txn = id_;
    rec.item = cur_item_;
    rec.arg = static_cast<int64_t>(plan->targets.size());
    rec.detail = cur_is_write_ ? "write" : "read";
    site_->EmitTrace(std::move(rec));
  }
  SendAccessRequests();
}

void Coordinator::SendAccessRequests() {
  CancelCalls();
  RpcPolicy policy = site_->MakeRpcPolicy(site_->config().op_timeout);
  for (Peer& p : peers_) {
    if (!p.outstanding) continue;
    p.contacted = true;
    SiteId s = p.site;
    Payload request;
    if (cur_is_write_) {
      // Under primary copy, backups skip CC: the primary's lock already
      // serializes conflicting transactions.
      bool skip_cc = cur_cc_site_ != kInvalidSite && s != cur_cc_site_;
      request = PrewriteRequest{id_, ts_, cur_item_, cur_write_value_, skip_cc};
    } else {
      request = ReadRequest{id_, ts_, cur_item_};
    }
    p.call = site_->rpc().Call(
        s, std::move(request), policy,
        [this, s](Result<Payload> r) { OnAccessResult(s, std::move(r)); });
  }
}

void Coordinator::OnAccessResult(SiteId from, Result<Payload> r) {
  FindPeer(from)->call = 0;
  if (!r.ok()) {
    OnAccessFailure(from);
    return;
  }
  if (const auto* rr = std::get_if<ReadReply>(&*r)) {
    OnReadReply(from, *rr);
  } else if (const auto* pr = std::get_if<PrewriteReply>(&*r)) {
    OnPrewriteReply(from, *pr);
  }
}

void Coordinator::OnAccessFailure(SiteId from) {
  // The RPC layer exhausted its retries: suspect the target so the next
  // transactions plan around it, then check whether the quorum is still
  // attainable without it.
  site_->Suspect(from);
  FindPeer(from)->outstanding = false;
  if (cur_require_all_) {
    AbortNow(AbortCause::kRcp,
             StringPrintf("operation timeout (site %u silent)", from));
    return;
  }
  // An access in flight means its item was looked up.
  const ItemSchema* view = FindView(cur_item_);
  assert(view != nullptr);
  int possible = cur_votes_got_;
  for (const Peer& p : peers_) {
    if (p.outstanding) possible += VoteOf(*view, p.site);
  }
  if (possible < cur_votes_needed_) {
    AbortNow(AbortCause::kRcp,
             StringPrintf("operation timeout (quorum unattainable after "
                          "site %u went silent)",
                          from));
  }
}

void Coordinator::OnReadReply(SiteId from, const ReadReply& r) {
  Peer* peer = FindPeer(from);
  if (phase_ != Phase::kReadOp || r.item != cur_item_ || !peer->outstanding) {
    return;
  }
  ++round_trips_;
  peer->outstanding = false;
  if (!r.granted) {
    AccessDenied(from, r.reason);
    return;
  }
  if (!GrantEpochOk(from, r.epoch)) return;
  AccessGranted(from, r.version, r.value, true);
}

void Coordinator::OnPrewriteReply(SiteId from, const PrewriteReply& r) {
  Peer* peer = FindPeer(from);
  if (phase_ != Phase::kWriteOp || r.item != cur_item_ || !peer->outstanding) {
    return;
  }
  ++round_trips_;
  peer->outstanding = false;
  if (!r.granted) {
    AccessDenied(from, r.reason);
    return;
  }
  if (!GrantEpochOk(from, r.epoch)) return;
  CurCopy(from).prewrote = true;
  AccessGranted(from, r.version, 0, false);
}

bool Coordinator::GrantEpochOk(SiteId from, uint64_t epoch) {
  if (!site_->config().epoch_fencing) return true;
  std::optional<uint64_t>& first = FindPeer(from)->epoch;
  if (!first.has_value()) first = epoch;
  if (*first == epoch) return true;
  // The replica restarted between two of our grants: every lock or
  // buffered prewrite it held for us died with its volatile state, so
  // the accesses we already counted there are void.
  AbortNow(AbortCause::kSiteFailure,
           StringPrintf("site %u restarted mid-transaction", from));
  return false;
}

void Coordinator::AccessGranted(SiteId from, Version version, Value value,
                                bool has_value) {
  FindPeer(from)->granted = true;
  const ItemSchema* view = FindView(cur_item_);
  assert(view != nullptr);
  cur_votes_got_ += VoteOf(*view, from);
  if (has_value) CurCopy(from).read_version = version;
  if (has_value && (version >= cur_max_version_)) {
    // Highest-version copy wins (QC read rule). For equal versions any
    // copy is as good (they are identical under a validated schema).
    cur_best_value_ = value;
  }
  cur_max_version_ = std::max(cur_max_version_, version);
  bool done = cur_require_all_ ? std::ranges::none_of(peers_, &Peer::outstanding)
                               : cur_votes_got_ >= cur_votes_needed_;
  if (done) OpQuorumReached();
}

void Coordinator::AccessDenied(SiteId from, DenyReason reason) {
  (void)from;
  AbortCause cause = AbortCause::kCcp;
  if (reason == DenyReason::kSiteBusy || reason == DenyReason::kUnknownTxn) {
    cause = AbortCause::kOther;
  }
  AbortNow(cause, std::string("denied: ") + DenyReasonName(reason));
}

void Coordinator::OpQuorumReached() {
  if (site_->tracing()) {
    TraceRecord rec;
    rec.kind = TraceEventKind::kQuorumReached;
    rec.txn = id_;
    rec.item = cur_item_;
    rec.arg = cur_votes_got_;
    rec.detail = cur_is_write_ ? "write" : "read";
    site_->EmitTrace(std::move(rec));
  }
  // Surplus broadcast targets that have not answered are released right
  // away: their calls are cancelled (the RPC layer drops any in-flight
  // reply) and an AbortRequest frees the CC state a late grant holds.
  CancelCalls();
  for (Peer& p : peers_) {
    if (p.outstanding && !p.granted) site_->SendTo(p.site, AbortRequest{id_});
    p.outstanding = false;
  }
  if (cur_is_write_) {
    Item& item = ItemRow(cur_item_);
    item.base = std::max(item.base, cur_max_version_);
    item.write = cur_write_value_;
    ++op_index_;
    NextOp();
    return;
  }
  // Read complete.
  read_slots_[cur_op_original_] = cur_best_value_;
  if (site_->tracing()) {
    // The version the transaction logically read (max over the quorum) —
    // the history checker builds wr/rw precedence edges from this.
    TraceRecord rec;
    rec.kind = TraceEventKind::kReadDone;
    rec.txn = id_;
    rec.item = cur_item_;
    rec.arg = static_cast<int64_t>(cur_max_version_);
    site_->EmitTrace(std::move(rec));
  }
  if (cur_increment_pending_) {
    cur_increment_pending_ = false;
    // The read phase of the INCREMENT observed the value; the write
    // phase installs value + delta. This is still the same program op.
    cur_is_write_ = true;
    cur_write_value_ = cur_best_value_ + cur_increment_delta_;
    StartAccess();
    return;
  }
  ++op_index_;
  NextOp();
}

void Coordinator::BeginCommit() {
  std::vector<SiteId> plist;
  plist.reserve(peers_.size());
  for (const Peer& p : peers_) {
    if (p.granted) plist.push_back(p.site);
  }
  if (plist.empty()) {
    // Nothing was accessed remotely (empty program): trivial commit.
    Finish(true, AbortCause::kNone, "");
    return;
  }
  phase_ = Phase::kVoting;
  bool three_phase = site_->config().acp == AcpKind::kThreePhaseCommit;
  if (site_->tracing()) {
    TraceRecord rec;
    rec.kind = TraceEventKind::kPrepare;
    rec.txn = id_;
    rec.arg = static_cast<int64_t>(plist.size());
    rec.detail = three_phase ? "3PC" : "2PC";
    site_->EmitTrace(std::move(rec));
  }
  bool occ = site_->config().cc == CcKind::kOptimistic;
  RpcPolicy policy = site_->MakeRpcPolicy(site_->config().vote_timeout);
  for (Peer& peer : peers_) {
    if (!peer.granted) continue;
    SiteId p = peer.site;
    PrepareRequest prep;
    prep.txn = id_;
    prep.participants = plist;
    prep.three_phase = three_phase;
    for (const Item& item : items_) {
      auto copy = std::ranges::lower_bound(item.copies, p, {}, &Copy::site);
      if (copy == item.copies.end() || copy->site != p) continue;
      if (copy->prewrote) {
        prep.versions.push_back(
            PrepareRequest::WriteVersion{item.item, item.base + 1});
      }
      if (occ && copy->read_version.has_value()) {
        // Backward validation set: the versions this transaction's
        // reads observed at participant `p`.
        prep.validations.push_back(
            PrepareRequest::ReadValidation{item.item, *copy->read_version});
      }
    }
    assert(peer.call == 0);  // every access call was cancelled
    peer.call = site_->rpc().Call(
        p, std::move(prep), policy,
        [this, p](Result<Payload> r) { OnVoteResult(p, std::move(r)); });
  }
}

void Coordinator::OnVoteResult(SiteId from, Result<Payload> r) {
  FindPeer(from)->call = 0;
  if (!r.ok()) {
    // A silent participant cannot have voted YES; 2PC and 3PC phase 1
    // both decide abort.
    site_->Suspect(from);
    Decide(false, AbortCause::kAcp, "vote collection timed out");
    return;
  }
  if (const auto* v = std::get_if<VoteReply>(&*r)) {
    OnVote(from, *v);
  }
}

void Coordinator::OnVote(SiteId from, const VoteReply& v) {
  if (phase_ != Phase::kVoting) return;
  ++round_trips_;
  Peer& voter = *FindPeer(from);
  voter.voted = true;
  if (v.read_only && v.yes) voter.read_only = true;
  if (!v.yes) {
    Decide(false, AbortCause::kAcp,
           std::string("participant voted NO: ") + DenyReasonName(v.reason));
    return;
  }
  if (!std::ranges::all_of(
          peers_, [](const Peer& p) { return !p.granted || p.voted; })) {
    return;
  }
  if (site_->config().acp == AcpKind::kThreePhaseCommit) {
    phase_ = Phase::kPreCommit;
    RpcPolicy policy = site_->MakeRpcPolicy(site_->config().vote_timeout);
    bool any = false;
    for (Peer& peer : peers_) {
      if (!peer.granted || peer.read_only) continue;
      any = true;
      SiteId p = peer.site;
      assert(peer.call == 0);  // every vote call returned
      peer.call = site_->rpc().Call(
          p, PreCommitRequest{id_}, policy, [this, p](Result<Payload> r) {
            if (r.ok()) ++round_trips_;
            // Terminal failure counts as completion too: every
            // participant voted YES, so a silent one is prepared (or
            // better) and its termination protocol converges on commit.
            OnPreCommitResult(p);
          });
    }
    if (any) return;
  }
  Decide(true, AbortCause::kNone, "");
}

void Coordinator::OnPreCommitResult(SiteId from) {
  Peer& peer = *FindPeer(from);
  peer.call = 0;
  if (phase_ != Phase::kPreCommit) return;
  peer.precommit_acked = true;
  if (std::ranges::all_of(peers_, [](const Peer& p) {
        return !p.granted || p.read_only || p.precommit_acked;
      })) {
    Decide(true, AbortCause::kNone, "");
  }
}

void Coordinator::OnRemoteAbort(const RemoteAbortNotify& n) {
  if (voting()) {
    // A participant lost our CC state after granting but before prepare
    // reached it; its NO vote (unknown txn) aborts us. If the notify
    // arrives first, abort right away.
    Decide(false, AbortCause::kCcp,
           std::string("remote abort: ") + DenyReasonName(n.reason));
    return;
  }
  AbortNow(AbortCause::kCcp,
           std::string("remote abort: ") + DenyReasonName(n.reason));
}

void Coordinator::OnStrayGrant(SiteId from) {
  if (!voting()) {
    PeerRow(from).granted = true;
  } else if (const Peer* p = FindPeer(from); p == nullptr || !p->granted) {
    site_->SendTo(from, AbortRequest{id_});
  }
}

std::vector<SiteId> Coordinator::DecisionParticipants() const {
  std::vector<SiteId> out;
  out.reserve(peers_.size());
  for (const Peer& p : peers_) {
    if (p.granted && !p.read_only) out.push_back(p.site);
  }
  return out;
}

void Coordinator::Decide(bool commit, AbortCause cause, std::string detail) {
  // Read-only voters already released everything; only the rest take
  // part in the decision round.
  std::vector<SiteId> plist = DecisionParticipants();
  site_->mutable_wal().Append(WalRecord::Protocol(
      commit ? WalRecordKind::kCommitDecision : WalRecordKind::kAbortDecision,
      id_,
      site_->id(),
      {},
      plist,
      false));
  if (site_->tracing()) {
    TraceRecord rec;
    rec.kind = TraceEventKind::kDecision;
    rec.txn = id_;
    rec.arg = commit ? 1 : 0;
    site_->EmitTrace(std::move(rec));
  }
  // The closer sends the decision to every participant and keeps
  // resending (via the RPC layer) until each one acks.
  site_->StartCloser(id_, commit, plist);
  Finish(commit, cause, std::move(detail));
}

void Coordinator::AbortNow(AbortCause cause, std::string detail) {
  for (const Peer& p : peers_) {
    if (p.contacted || p.granted) site_->SendTo(p.site, AbortRequest{id_});
  }
  Finish(false, cause, std::move(detail));
}

TxnOutcome Coordinator::Report(bool committed, AbortCause cause,
                               std::string detail) {
  TxnOutcome outcome;
  outcome.id = id_;
  outcome.ts = ts_;
  outcome.committed = committed;
  outcome.abort_cause = committed ? AbortCause::kNone : cause;
  outcome.abort_detail = std::move(detail);
  outcome.submitted_at = submitted_at_;
  outcome.finished_at = site_->Now();
  outcome.home = site_->id();
  outcome.num_ops = static_cast<uint32_t>(program_.ops.size());
  outcome.round_trips = round_trips_;
  if (committed) {
    for (const auto& slot : read_slots_) {
      if (slot.has_value()) outcome.reads.push_back(*slot);
    }
  }
  if (site_->env().monitor) site_->env().monitor->OnComplete(outcome);
  if (cb_) {
    // Deliver asynchronously so client code (e.g. a closed-loop workload
    // generator) never runs inside a half-destroyed coordinator.
    site_->env().sim->After(0, [cb = cb_, outcome] { cb(outcome); });
  }
  return outcome;
}

void Coordinator::Finish(bool committed, AbortCause cause,
                         std::string detail) {
  TxnOutcome outcome = Report(committed, cause, std::move(detail));
  if (site_->tracing()) {
    TraceRecord rec;
    rec.kind = committed ? TraceEventKind::kTxnCommit : TraceEventKind::kTxnAbort;
    rec.txn = id_;
    rec.arg = static_cast<int64_t>(round_trips_);
    if (!committed) {
      rec.detail = AbortCauseName(outcome.abort_cause);
      if (!outcome.abort_detail.empty()) {
        rec.detail += ": ";
        rec.detail += outcome.abort_detail;
      }
    }
    site_->EmitTrace(std::move(rec));
  }
  site_->CoordinatorFinished(id_);  // destroys *this; must be last
}

bool Coordinator::ShouldForwardProbe(TxnId initiator, SimTime now,
                                     SimTime min_gap) {
  auto [it, inserted] = probe_forwarded_.try_emplace(initiator, now);
  if (inserted) return true;
  if (now - it->second >= min_gap) {
    it->second = now;
    return true;
  }
  return false;
}

void Coordinator::AbortAsDeadlockVictim() {
  if (voting()) {
    // Prepared participants cannot be yanked out from under 2PC; the
    // vote round will settle the outcome on its own.
    return;
  }
  AbortNow(AbortCause::kCcp, "distributed deadlock detected by probe");
}

void Coordinator::OnSiteCrash() {
  Report(false, AbortCause::kSiteFailure, "home site crashed");
  // The Site clears the coordinator map right after; no self-erase here.
}

}  // namespace rainbow
