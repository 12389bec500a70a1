#ifndef RAINBOW_COMMON_TRACE_H_
#define RAINBOW_COMMON_TRACE_H_

#include <string>
#include <vector>

#include "common/types.h"

namespace rainbow {

/// How much the TraceCollector records.
enum class TraceDetail {
  kOff = 0,   ///< Emit() is a no-op; zero cost on hot paths
  kProtocol,  ///< protocol-level decisions (quorum, CC, votes, retries)
  kFull,      ///< protocol events plus every message send/recv/drop
};

const char* TraceDetailName(TraceDetail d);

/// What happened. One enumerator per protocol step the per-transaction
/// timeline (the Figure-5 "execution window") distinguishes.
enum class TraceEventKind {
  kTxnSubmit,        ///< home site accepted the transaction (arg = #ops)
  kQuorumPlan,       ///< coordinator resolved replicas for an op (arg = #targets)
  kQuorumReached,    ///< enough replica grants for an op (arg = #grants)
  kReadDone,         ///< coordinator completed a read op (arg = version used)
  kReadRequest,      ///< replica received a read for `item`
  kPrewriteRequest,  ///< replica received a prewrite for `item`
  kCcGrant,          ///< replica CC granted access to `item`
  kCcBlock,          ///< replica CC queued the request behind a conflict
  kCcDeny,           ///< replica CC denied access (detail = reason)
  kCcVictim,         ///< aborted at the replica (deadlock victim / wounded)
  kPrepare,          ///< coordinator sent prepare (arg = #participants)
  kVote,             ///< participant voted (arg = 1 yes / 0 no)
  kDecision,         ///< coordinator decided (arg = 1 commit / 0 abort)
  kDecisionApplied,  ///< participant applied the decision (arg = 1 commit)
  kWriteApplied,     ///< replica installed a committed write (arg = version)
  kRpcAttempt,       ///< kFull only: an RPC request transmission (arg = attempt#)
  kRpcRetry,         ///< RPC retransmission after a timeout (arg = attempt#)
  kRpcFailure,       ///< RPC call exhausted its attempts (arg = #attempts)
  kMsgSend,          ///< kFull only: message handed to the network
  kMsgRecv,          ///< kFull only: message delivered
  kMsgDrop,          ///< kFull only: message dropped (detail = cause)
  kTxnCommit,        ///< transaction committed at its coordinator
  kTxnAbort,         ///< transaction aborted (detail = cause)
  kSiteCrash,        ///< a site (or the name server) crashed
  kSiteRecover,      ///< it came back (arg = new epoch, detail = restart summary)
  kFault,            ///< injected network/storage fault (detail = script line)
  kCount,
};

const char* TraceEventKindName(TraceEventKind k);

/// One structured trace event. `txn` is invalid for events that are not
/// transaction-scoped (site crash/recover, faults, recovery refresh
/// traffic at kFull detail).
struct TraceRecord {
  SimTime time = 0;
  TraceEventKind kind = TraceEventKind::kTxnSubmit;
  TxnId txn;
  SiteId site = kInvalidSite;  ///< where the event happened
  SiteId peer = kInvalidSite;  ///< counterpart site, if any
  ItemId item = kInvalidItem;
  int64_t arg = 0;             ///< kind-specific small scalar
  std::string detail;          ///< kind-specific annotation
};

/// Collects TraceRecords in emission order. The simulator's time order
/// makes that order deterministic, so two same-seed runs produce
/// byte-identical exports (stats/trace_export.h) — the determinism
/// regression gate. Callers must check enabled()/full() BEFORE building
/// a record so that disabled tracing costs one branch and no
/// allocations on the message hot path.
class TraceCollector {
 public:
  void set_detail(TraceDetail d) { detail_ = d; }
  TraceDetail detail() const { return detail_; }
  bool enabled() const { return detail_ != TraceDetail::kOff; }
  bool full() const { return detail_ == TraceDetail::kFull; }

  /// Caps memory: when full, the older half is discarded (counted in
  /// dropped()).
  void set_capacity(size_t cap) { capacity_ = cap; }

  void Emit(TraceRecord rec);

  const std::vector<TraceRecord>& records() const { return records_; }
  size_t dropped() const { return dropped_; }
  void Clear();

  /// Stable-sorts records by (time, site): the canonical order of the
  /// Chrome-trace export. Within one (time, site) pair emission order is
  /// preserved.
  void CanonicalSort();

  /// Events of one transaction, in emission (= time) order.
  std::vector<TraceRecord> ForTxn(TxnId txn) const;
  /// Number of recorded events of `kind`.
  size_t CountKind(TraceEventKind kind) const;
  /// Transaction ids seen, ordered by first appearance.
  std::vector<TxnId> Transactions() const;

 private:
  TraceDetail detail_ = TraceDetail::kOff;
  size_t capacity_ = 1 << 20;
  size_t dropped_ = 0;
  std::vector<TraceRecord> records_;
};

}  // namespace rainbow

#endif  // RAINBOW_COMMON_TRACE_H_
