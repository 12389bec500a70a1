#include "net/message.h"

namespace rainbow {

const char* MessageKindName(MessageKind k) {
  switch (k) {
    case MessageKind::kNsLookupRequest:
      return "NsLookupRequest";
    case MessageKind::kNsLookupReply:
      return "NsLookupReply";
    case MessageKind::kReadRequest:
      return "ReadRequest";
    case MessageKind::kReadReply:
      return "ReadReply";
    case MessageKind::kPrewriteRequest:
      return "PrewriteRequest";
    case MessageKind::kPrewriteReply:
      return "PrewriteReply";
    case MessageKind::kAbortRequest:
      return "AbortRequest";
    case MessageKind::kPrepareRequest:
      return "PrepareRequest";
    case MessageKind::kVoteReply:
      return "VoteReply";
    case MessageKind::kDecision:
      return "Decision";
    case MessageKind::kAck:
      return "Ack";
    case MessageKind::kDecisionQuery:
      return "DecisionQuery";
    case MessageKind::kDecisionInfo:
      return "DecisionInfo";
    case MessageKind::kPreCommitRequest:
      return "PreCommitRequest";
    case MessageKind::kPreCommitAck:
      return "PreCommitAck";
    case MessageKind::kStateQuery:
      return "StateQuery";
    case MessageKind::kStateReply:
      return "StateReply";
    case MessageKind::kRemoteAbortNotify:
      return "RemoteAbortNotify";
    case MessageKind::kRefreshRequest:
      return "RefreshRequest";
    case MessageKind::kRefreshReply:
      return "RefreshReply";
    case MessageKind::kDeadlockProbe:
      return "DeadlockProbe";
    case MessageKind::kDeadlockProbeCheck:
      return "DeadlockProbeCheck";
    case MessageKind::kCount:
      break;
  }
  return "?";
}

const char* DenyReasonName(DenyReason r) {
  switch (r) {
    case DenyReason::kNone:
      return "none";
    case DenyReason::kTsoTooLate:
      return "tso_too_late";
    case DenyReason::kDeadlockVictim:
      return "deadlock_victim";
    case DenyReason::kSiteBusy:
      return "site_busy";
    case DenyReason::kUnknownTxn:
      return "unknown_txn";
    case DenyReason::kWounded:
      return "wounded";
    case DenyReason::kWaitTimeout:
      return "wait_timeout";
    case DenyReason::kValidationFailed:
      return "validation_failed";
  }
  return "?";
}

const char* AcpStateName(AcpState s) {
  switch (s) {
    case AcpState::kUnknown:
      return "unknown";
    case AcpState::kActive:
      return "active";
    case AcpState::kPrepared:
      return "prepared";
    case AcpState::kPreCommitted:
      return "precommitted";
    case AcpState::kCommitted:
      return "committed";
    case AcpState::kAborted:
      return "aborted";
  }
  return "?";
}

namespace {

/// Extracts the TxnId from payloads that carry one; returns invalid id
/// for refresh messages. Probes are attributed to their initiator.
struct TxnVisitor {
  template <typename T>
  TxnId operator()(const T& t) const {
    if constexpr (requires { t.txn; }) {
      return t.txn;
    } else if constexpr (requires { t.initiator; }) {
      return t.initiator;
    } else {
      return TxnId{};
    }
  }
};

}  // namespace

TxnId PayloadTxnId(const Payload& p) { return std::visit(TxnVisitor{}, p); }

}  // namespace rainbow
