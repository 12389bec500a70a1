#ifndef RAINBOW_NET_MESSAGE_H_
#define RAINBOW_NET_MESSAGE_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/types.h"

namespace rainbow {

/// Message kinds, used for traffic accounting, tracing and the wire
/// codec's kind byte. Declared in the order of the Payload variant's
/// alternatives: a payload's kind is its variant index (MessageKindOf).
enum class MessageKind {
  kNsLookupRequest,
  kNsLookupReply,
  kReadRequest,
  kReadReply,
  kPrewriteRequest,
  kPrewriteReply,
  kAbortRequest,
  kPrepareRequest,
  kVoteReply,
  kDecision,
  kAck,
  kDecisionQuery,
  kDecisionInfo,
  kPreCommitRequest,
  kPreCommitAck,
  kStateQuery,
  kStateReply,
  kRemoteAbortNotify,
  kRefreshRequest,
  kRefreshReply,
  kDeadlockProbe,
  kDeadlockProbeCheck,
  kCount,  // number of kinds; not a real message
};

const char* MessageKindName(MessageKind k);

/// Why a copy-access request was denied by the replica's CC protocol,
/// or why a vote was NO. Travels inside replies.
enum class DenyReason {
  kNone = 0,
  kTsoTooLate,      ///< TSO: operation timestamp older than committed access
  kDeadlockVictim,  ///< wait-die / wound-wait / cycle-detection victim
  kSiteBusy,        ///< site refuses (crash recovery in progress)
  kUnknownTxn,      ///< participant lost the transaction (e.g. crashed)
  kWounded,         ///< wound-wait: preempted by an older transaction
  kWaitTimeout,     ///< CC wait exceeded the replica's lock-wait timeout
  kValidationFailed,///< OCC: stale read or commit-lock conflict at prepare
};

const char* DenyReasonName(DenyReason r);

// ---------------------------------------------------------------------------
// Payload structs. One per MessageKind.
// ---------------------------------------------------------------------------

/// Coordinator -> name server: where are the copies of `item`?
struct NsLookupRequest {
  TxnId txn;
  ItemId item = kInvalidItem;
};

/// Name server -> coordinator: copies, votes and quorum thresholds.
struct NsLookupReply {
  TxnId txn;
  ItemId item = kInvalidItem;
  bool found = false;
  std::vector<SiteId> copies;
  std::vector<int> votes;  ///< parallel to `copies`
  int read_quorum = 0;     ///< votes needed to read (QC)
  int write_quorum = 0;    ///< votes needed to write (QC)
};

/// Coordinator -> replica: read this copy under CC (acquires read lock /
/// passes the TSO read rule).
struct ReadRequest {
  TxnId txn;
  TxnTimestamp ts;
  ItemId item = kInvalidItem;
};

/// Replica -> coordinator: value and version of the local copy, or denial.
struct ReadReply {
  TxnId txn;
  ItemId item = kInvalidItem;
  bool granted = false;
  DenyReason reason = DenyReason::kNone;
  Value value = 0;
  Version version = 0;
  /// Replica incarnation at grant time. A coordinator that sees two
  /// grants from the same site under different epochs knows the site
  /// restarted in between — its volatile CC state (locks, buffered
  /// prewrites) for this transaction is gone — and must abort.
  uint64_t epoch = 0;
};

/// Coordinator -> replica: pre-write this copy (CC write access; the new
/// value is buffered at the replica until commit).
struct PrewriteRequest {
  TxnId txn;
  TxnTimestamp ts;
  ItemId item = kInvalidItem;
  Value value = 0;
  /// Primary-copy replication: backups buffer the write without
  /// consulting their CC engine (the primary's CC already serialized
  /// conflicting transactions).
  bool skip_cc = false;
};

/// Replica -> coordinator: current version number of the copy (the QC
/// rule computes the new version as max over the write quorum plus one),
/// or denial.
struct PrewriteReply {
  TxnId txn;
  ItemId item = kInvalidItem;
  bool granted = false;
  DenyReason reason = DenyReason::kNone;
  Version version = 0;      ///< version before the write
  uint64_t epoch = 0;       ///< replica incarnation (see ReadReply::epoch)
};

/// Coordinator -> participant: abort before any prepare was sent.
/// Participant discards buffered prewrites and releases CC state.
struct AbortRequest {
  TxnId txn;
};

/// Coordinator -> participant (2PC/3PC phase 1). Carries the final
/// version to install for each item written at that participant, and the
/// full participant list (needed for cooperative termination).
struct PrepareRequest {
  TxnId txn;
  struct WriteVersion {
    ItemId item = kInvalidItem;
    Version version = 0;
  };
  std::vector<WriteVersion> versions;
  /// OCC backward validation: the versions this transaction's reads
  /// observed at THIS participant; the participant votes NO if any copy
  /// has moved on. Empty under the pessimistic CC protocols.
  struct ReadValidation {
    ItemId item = kInvalidItem;
    Version version = 0;
  };
  std::vector<ReadValidation> validations;
  std::vector<SiteId> participants;
  bool three_phase = false;  ///< participant should expect PreCommit
};

/// Participant -> coordinator: YES/NO vote. A read-only participant
/// (no buffered writes, with the optimization enabled) votes YES with
/// read_only set: it has already released its locks and must not be
/// sent the decision.
struct VoteReply {
  TxnId txn;
  bool yes = false;
  DenyReason reason = DenyReason::kNone;
  bool read_only = false;
};

/// Coordinator -> participant: global decision.
struct Decision {
  TxnId txn;
  bool commit = false;
};

/// Participant -> coordinator: decision applied.
struct Ack {
  TxnId txn;
};

/// Recovered/blocked participant -> coordinator (or peer): what happened
/// to `txn`?
struct DecisionQuery {
  TxnId txn;
  SiteId asker = kInvalidSite;
};

/// Reply to DecisionQuery. `known == false` means the asked site has no
/// record of a decision (for a peer participant that is itself uncertain).
struct DecisionInfo {
  TxnId txn;
  bool known = false;
  bool commit = false;
};

/// Coordinator -> participant (3PC phase 2): decision will be commit.
struct PreCommitRequest {
  TxnId txn;
};

/// Participant -> coordinator: pre-commit acknowledged.
struct PreCommitAck {
  TxnId txn;
};

/// 3PC termination protocol: elected coordinator asks participants for
/// their local state for `txn`.
struct StateQuery {
  TxnId txn;
  SiteId asker = kInvalidSite;
};

/// Participant commit-protocol state, used by the 3PC termination rule.
enum class AcpState {
  kUnknown = 0,    ///< no record of the transaction
  kActive,         ///< received ops but no prepare
  kPrepared,       ///< voted YES, uncertain
  kPreCommitted,   ///< 3PC: received pre-commit
  kCommitted,
  kAborted,
};

const char* AcpStateName(AcpState s);

struct StateReply {
  TxnId txn;
  AcpState state = AcpState::kUnknown;
};

/// Replica -> home site: your transaction was aborted here (wounded or
/// picked as a deadlock victim) after an access had already been granted.
struct RemoteAbortNotify {
  TxnId txn;
  AbortCause cause = AbortCause::kCcp;
  DenyReason reason = DenyReason::kNone;
};

/// Recovered site -> peer: send me your copies of these items so I can
/// catch up (recovery refresh).
struct RefreshRequest {
  std::vector<ItemId> items;
};

/// Peer -> recovered site: item copies with versions; the recovering
/// site adopts any entry newer than its own.
struct RefreshReply {
  struct Entry {
    ItemId item = kInvalidItem;
    Value value = 0;
    Version version = 0;
  };
  std::vector<Entry> entries;
};

/// Edge-chasing distributed deadlock detection (Chandy–Misra–Haas):
/// "transaction `holder` is on a waits-for path starting at
/// `initiator`". Sent to the holder's home site, which — if the holder
/// is itself blocked — forwards the probe along its outstanding
/// requests. A probe whose next hop IS the initiator closes a cycle;
/// the initiator is aborted.
struct DeadlockProbe {
  TxnId initiator;
  TxnId holder;
  uint32_t hops = 0;  ///< traversal depth (loop safety valve)
};

/// Home site of a blocked holder -> replica site it is waiting on:
/// "is `waiter` queued at your CC, and behind whom?".
struct DeadlockProbeCheck {
  TxnId initiator;
  TxnId waiter;
  uint32_t hops = 0;
};

using Payload =
    std::variant<NsLookupRequest, NsLookupReply, ReadRequest, ReadReply,
                 PrewriteRequest, PrewriteReply, AbortRequest, PrepareRequest,
                 VoteReply, Decision, Ack, DecisionQuery, DecisionInfo,
                 PreCommitRequest, PreCommitAck, StateQuery, StateReply,
                 RemoteAbortNotify, RefreshRequest, RefreshReply,
                 DeadlockProbe, DeadlockProbeCheck>;

static_assert(std::variant_size_v<Payload> ==
                  static_cast<size_t>(MessageKind::kCount),
              "one MessageKind per Payload alternative, in the same order");

/// Returns the MessageKind tag for a payload.
inline MessageKind MessageKindOf(const Payload& p) {
  return static_cast<MessageKind>(p.index());
}

/// The transaction a payload belongs to, or an invalid TxnId for
/// payloads that are not transaction-scoped (refresh traffic). Deadlock
/// probes are attributed to the initiator whose cycle they chase.
TxnId PayloadTxnId(const Payload& p);

/// A message in flight: envelope plus typed payload.
struct Message {
  uint64_t id = 0;  ///< unique per network, assigned at send
  SiteId from = kInvalidSite;
  SiteId to = kInvalidSite;
  SimTime sent_at = 0;
  /// RPC correlation id (net/rpc.h). 0 means "not an RPC message";
  /// nonzero ids are unique per sending endpoint and stable across
  /// retransmissions of the same logical request.
  uint64_t rpc_id = 0;
  /// Distinguishes the reply leg of an RPC exchange from the request.
  bool rpc_is_reply = false;
  /// Implicit acknowledgement carried by RPC requests: every call the
  /// sender made to this destination with an id at or below it has
  /// finished, so the replica may forget them. Below `rpc_id` on any
  /// honest request; 0 acknowledges nothing.
  uint64_t ack_floor = 0;
  Payload payload;

  MessageKind kind() const { return MessageKindOf(payload); }
};

}  // namespace rainbow

#endif  // RAINBOW_NET_MESSAGE_H_
