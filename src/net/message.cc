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

struct KindVisitor {
  MessageKind operator()(const NsLookupRequest&) const {
    return MessageKind::kNsLookupRequest;
  }
  MessageKind operator()(const NsLookupReply&) const {
    return MessageKind::kNsLookupReply;
  }
  MessageKind operator()(const ReadRequest&) const {
    return MessageKind::kReadRequest;
  }
  MessageKind operator()(const ReadReply&) const {
    return MessageKind::kReadReply;
  }
  MessageKind operator()(const PrewriteRequest&) const {
    return MessageKind::kPrewriteRequest;
  }
  MessageKind operator()(const PrewriteReply&) const {
    return MessageKind::kPrewriteReply;
  }
  MessageKind operator()(const AbortRequest&) const {
    return MessageKind::kAbortRequest;
  }
  MessageKind operator()(const PrepareRequest&) const {
    return MessageKind::kPrepareRequest;
  }
  MessageKind operator()(const VoteReply&) const {
    return MessageKind::kVoteReply;
  }
  MessageKind operator()(const Decision&) const { return MessageKind::kDecision; }
  MessageKind operator()(const Ack&) const { return MessageKind::kAck; }
  MessageKind operator()(const DecisionQuery&) const {
    return MessageKind::kDecisionQuery;
  }
  MessageKind operator()(const DecisionInfo&) const {
    return MessageKind::kDecisionInfo;
  }
  MessageKind operator()(const PreCommitRequest&) const {
    return MessageKind::kPreCommitRequest;
  }
  MessageKind operator()(const PreCommitAck&) const {
    return MessageKind::kPreCommitAck;
  }
  MessageKind operator()(const StateQuery&) const {
    return MessageKind::kStateQuery;
  }
  MessageKind operator()(const StateReply&) const {
    return MessageKind::kStateReply;
  }
  MessageKind operator()(const RemoteAbortNotify&) const {
    return MessageKind::kRemoteAbortNotify;
  }
  MessageKind operator()(const RefreshRequest&) const {
    return MessageKind::kRefreshRequest;
  }
  MessageKind operator()(const RefreshReply&) const {
    return MessageKind::kRefreshReply;
  }
  MessageKind operator()(const DeadlockProbe&) const {
    return MessageKind::kDeadlockProbe;
  }
  MessageKind operator()(const DeadlockProbeCheck&) const {
    return MessageKind::kDeadlockProbeCheck;
  }
};

}  // namespace

MessageKind MessageKindOf(const Payload& p) {
  return std::visit(KindVisitor{}, p);
}

size_t PayloadSizeBytes(const Payload& p) {
  // Envelope (headers, ids, timestamps) plus a rough per-field estimate.
  constexpr size_t kEnvelope = 48;
  struct SizeVisitor {
    size_t operator()(const NsLookupRequest&) const { return 16; }
    size_t operator()(const NsLookupReply& r) const {
      return 24 + r.copies.size() * 8;
    }
    size_t operator()(const ReadRequest&) const { return 24; }
    size_t operator()(const ReadReply&) const { return 40; }
    size_t operator()(const PrewriteRequest&) const { return 32; }
    size_t operator()(const PrewriteReply&) const { return 32; }
    size_t operator()(const AbortRequest&) const { return 12; }
    size_t operator()(const PrepareRequest& r) const {
      return 16 + r.versions.size() * 12 + r.validations.size() * 12 +
             r.participants.size() * 4;
    }
    size_t operator()(const VoteReply&) const { return 16; }
    size_t operator()(const Decision&) const { return 13; }
    size_t operator()(const Ack&) const { return 12; }
    size_t operator()(const DecisionQuery&) const { return 16; }
    size_t operator()(const DecisionInfo&) const { return 14; }
    size_t operator()(const PreCommitRequest&) const { return 12; }
    size_t operator()(const PreCommitAck&) const { return 12; }
    size_t operator()(const StateQuery&) const { return 16; }
    size_t operator()(const StateReply&) const { return 13; }
    size_t operator()(const RemoteAbortNotify&) const { return 16; }
    size_t operator()(const RefreshRequest& r) const {
      return 8 + r.items.size() * 4;
    }
    size_t operator()(const RefreshReply& r) const {
      return 8 + r.entries.size() * 20;
    }
    size_t operator()(const DeadlockProbe&) const { return 28; }
    size_t operator()(const DeadlockProbeCheck&) const { return 28; }
  };
  return kEnvelope + std::visit(SizeVisitor{}, p);
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
