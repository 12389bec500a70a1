#include "common/trace.h"

#include <algorithm>
#include <cstddef>
#include <set>

namespace rainbow {

const char* AbortCauseName(AbortCause cause) {
  switch (cause) {
    case AbortCause::kNone:
      return "none";
    case AbortCause::kCcp:
      return "ccp";
    case AbortCause::kRcp:
      return "rcp";
    case AbortCause::kAcp:
      return "acp";
    case AbortCause::kSiteFailure:
      return "site_failure";
    case AbortCause::kOther:
      return "other";
  }
  return "?";
}

const char* TraceDetailName(TraceDetail d) {
  switch (d) {
    case TraceDetail::kOff:
      return "off";
    case TraceDetail::kProtocol:
      return "protocol";
    case TraceDetail::kFull:
      return "full";
  }
  return "?";
}

const char* TraceEventKindName(TraceEventKind k) {
  switch (k) {
    case TraceEventKind::kTxnSubmit:
      return "txn_submit";
    case TraceEventKind::kQuorumPlan:
      return "quorum_plan";
    case TraceEventKind::kQuorumReached:
      return "quorum_reached";
    case TraceEventKind::kReadDone:
      return "read_done";
    case TraceEventKind::kReadRequest:
      return "read_request";
    case TraceEventKind::kPrewriteRequest:
      return "prewrite_request";
    case TraceEventKind::kCcGrant:
      return "cc_grant";
    case TraceEventKind::kCcBlock:
      return "cc_block";
    case TraceEventKind::kCcDeny:
      return "cc_deny";
    case TraceEventKind::kCcVictim:
      return "cc_victim";
    case TraceEventKind::kPrepare:
      return "prepare";
    case TraceEventKind::kVote:
      return "vote";
    case TraceEventKind::kDecision:
      return "decision";
    case TraceEventKind::kDecisionApplied:
      return "decision_applied";
    case TraceEventKind::kWriteApplied:
      return "write_applied";
    case TraceEventKind::kRpcAttempt:
      return "rpc_attempt";
    case TraceEventKind::kRpcRetry:
      return "rpc_retry";
    case TraceEventKind::kRpcFailure:
      return "rpc_failure";
    case TraceEventKind::kMsgSend:
      return "msg_send";
    case TraceEventKind::kMsgRecv:
      return "msg_recv";
    case TraceEventKind::kMsgDrop:
      return "msg_drop";
    case TraceEventKind::kTxnCommit:
      return "txn_commit";
    case TraceEventKind::kTxnAbort:
      return "txn_abort";
    case TraceEventKind::kSiteCrash:
      return "site_crash";
    case TraceEventKind::kSiteRecover:
      return "site_recover";
    case TraceEventKind::kFault:
      return "fault";
    case TraceEventKind::kCount:
      break;
  }
  return "?";
}

void TraceCollector::Emit(TraceRecord rec) {
  if (detail_ == TraceDetail::kOff) return;
  if (records_.size() >= capacity_) {
    size_t evict = records_.size() / 2;
    records_.erase(records_.begin(),
                   records_.begin() + static_cast<ptrdiff_t>(evict));
    dropped_ += evict;
  }
  records_.push_back(std::move(rec));
}

void TraceCollector::Clear() {
  records_.clear();
  dropped_ = 0;
}

void TraceCollector::CanonicalSort() {
  std::stable_sort(records_.begin(), records_.end(),
                   [](const TraceRecord& a, const TraceRecord& b) {
                     if (a.time != b.time) return a.time < b.time;
                     return a.site < b.site;
                   });
}

std::vector<TraceRecord> TraceCollector::ForTxn(TxnId txn) const {
  std::vector<TraceRecord> out;
  for (const TraceRecord& r : records_) {
    if (r.txn == txn) out.push_back(r);
  }
  return out;
}

size_t TraceCollector::CountKind(TraceEventKind kind) const {
  size_t n = 0;
  for (const TraceRecord& r : records_) {
    if (r.kind == kind) ++n;
  }
  return n;
}

std::vector<TxnId> TraceCollector::Transactions() const {
  std::vector<TxnId> out;
  std::set<TxnId> seen;
  for (const TraceRecord& r : records_) {
    if (!r.txn.valid()) continue;
    if (seen.insert(r.txn).second) out.push_back(r.txn);
  }
  return out;
}

}  // namespace rainbow
