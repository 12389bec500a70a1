#include "net/codec.h"

namespace rainbow {

namespace {

// Caps vector lengths while decoding so corrupt buffers cannot trigger
// huge allocations.
constexpr uint32_t kMaxVector = 1 << 20;

Result<uint32_t> GetLength(Decoder& d) {
  RAINBOW_ASSIGN_OR_RETURN(uint32_t n, d.GetU32());
  if (n > kMaxVector) return Status::InvalidArgument("vector too long");
  return n;
}

Result<std::vector<SiteId>> GetSites(Decoder& d) {
  RAINBOW_ASSIGN_OR_RETURN(uint32_t n, GetLength(d));
  std::vector<SiteId> out;
  out.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    RAINBOW_ASSIGN_OR_RETURN(SiteId s, d.GetU32());
    out.push_back(s);
  }
  return out;
}

Result<std::vector<int>> GetVotes(Decoder& d) {
  RAINBOW_ASSIGN_OR_RETURN(uint32_t n, GetLength(d));
  std::vector<int> out;
  out.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    RAINBOW_ASSIGN_OR_RETURN(uint32_t v, d.GetU32());
    out.push_back(static_cast<int>(v));
  }
  return out;
}

/// One overload per payload type: the only per-field description of a
/// message. `Sink` is Encoder (writes the bytes) or SizeCounter (counts
/// them).
template <typename Sink>
struct EncodeVisitor {
  Sink& e;

  void operator()(const NsLookupRequest& m) {
    e.PutTxnId(m.txn);
    e.PutU32(m.item);
  }
  void operator()(const NsLookupReply& m) {
    e.PutTxnId(m.txn);
    e.PutU32(m.item);
    e.PutBool(m.found);
    e.PutVector(m.copies, [&](SiteId s) { e.PutU32(s); });
    e.PutVector(m.votes, [&](int v) { e.PutU32(static_cast<uint32_t>(v)); });
    e.PutU32(static_cast<uint32_t>(m.read_quorum));
    e.PutU32(static_cast<uint32_t>(m.write_quorum));
  }
  void operator()(const ReadRequest& m) {
    e.PutTxnId(m.txn);
    e.PutTimestamp(m.ts);
    e.PutU32(m.item);
  }
  void operator()(const ReadReply& m) {
    e.PutTxnId(m.txn);
    e.PutU32(m.item);
    e.PutBool(m.granted);
    e.PutU8(static_cast<uint8_t>(m.reason));
    e.PutI64(m.value);
    e.PutU64(m.version);
    e.PutU64(m.epoch);
  }
  void operator()(const PrewriteRequest& m) {
    e.PutTxnId(m.txn);
    e.PutTimestamp(m.ts);
    e.PutU32(m.item);
    e.PutI64(m.value);
    e.PutBool(m.skip_cc);
  }
  void operator()(const PrewriteReply& m) {
    e.PutTxnId(m.txn);
    e.PutU32(m.item);
    e.PutBool(m.granted);
    e.PutU8(static_cast<uint8_t>(m.reason));
    e.PutU64(m.version);
    e.PutU64(m.epoch);
  }
  void operator()(const AbortRequest& m) { e.PutTxnId(m.txn); }
  void operator()(const PrepareRequest& m) {
    e.PutTxnId(m.txn);
    e.PutVector(m.versions, [&](const PrepareRequest::WriteVersion& wv) {
      e.PutU32(wv.item);
      e.PutU64(wv.version);
    });
    e.PutVector(m.validations, [&](const PrepareRequest::ReadValidation& rv) {
      e.PutU32(rv.item);
      e.PutU64(rv.version);
    });
    e.PutVector(m.participants, [&](SiteId s) { e.PutU32(s); });
    e.PutBool(m.three_phase);
  }
  void operator()(const VoteReply& m) {
    e.PutTxnId(m.txn);
    e.PutBool(m.yes);
    e.PutU8(static_cast<uint8_t>(m.reason));
    e.PutBool(m.read_only);
  }
  void operator()(const Decision& m) {
    e.PutTxnId(m.txn);
    e.PutBool(m.commit);
  }
  void operator()(const Ack& m) { e.PutTxnId(m.txn); }
  void operator()(const DecisionQuery& m) {
    e.PutTxnId(m.txn);
    e.PutU32(m.asker);
  }
  void operator()(const DecisionInfo& m) {
    e.PutTxnId(m.txn);
    e.PutBool(m.known);
    e.PutBool(m.commit);
  }
  void operator()(const PreCommitRequest& m) { e.PutTxnId(m.txn); }
  void operator()(const PreCommitAck& m) { e.PutTxnId(m.txn); }
  void operator()(const StateQuery& m) {
    e.PutTxnId(m.txn);
    e.PutU32(m.asker);
  }
  void operator()(const StateReply& m) {
    e.PutTxnId(m.txn);
    e.PutU8(static_cast<uint8_t>(m.state));
  }
  void operator()(const RemoteAbortNotify& m) {
    e.PutTxnId(m.txn);
    e.PutU8(static_cast<uint8_t>(m.cause));
    e.PutU8(static_cast<uint8_t>(m.reason));
  }
  void operator()(const RefreshRequest& m) {
    e.PutVector(m.items, [&](ItemId i) { e.PutU32(i); });
  }
  void operator()(const RefreshReply& m) {
    e.PutVector(m.entries, [&](const RefreshReply::Entry& entry) {
      e.PutU32(entry.item);
      e.PutI64(entry.value);
      e.PutU64(entry.version);
    });
  }
  void operator()(const DeadlockProbe& m) {
    e.PutTxnId(m.initiator);
    e.PutTxnId(m.holder);
    e.PutU32(m.hops);
  }
  void operator()(const DeadlockProbeCheck& m) {
    e.PutTxnId(m.initiator);
    e.PutTxnId(m.waiter);
    e.PutU32(m.hops);
  }
};

Result<DenyReason> GetDenyReason(Decoder& d) {
  RAINBOW_ASSIGN_OR_RETURN(uint8_t v, d.GetU8());
  if (v > static_cast<uint8_t>(DenyReason::kValidationFailed)) {
    return Status::InvalidArgument("bad deny reason");
  }
  return static_cast<DenyReason>(v);
}

Result<Payload> DecodeBody(MessageKind kind, Decoder& d) {
  switch (kind) {
    case MessageKind::kNsLookupRequest: {
      NsLookupRequest m;
      RAINBOW_ASSIGN_OR_RETURN(m.txn, d.GetTxnId());
      RAINBOW_ASSIGN_OR_RETURN(m.item, d.GetU32());
      return Payload{m};
    }
    case MessageKind::kNsLookupReply: {
      NsLookupReply m;
      RAINBOW_ASSIGN_OR_RETURN(m.txn, d.GetTxnId());
      RAINBOW_ASSIGN_OR_RETURN(m.item, d.GetU32());
      RAINBOW_ASSIGN_OR_RETURN(m.found, d.GetBool());
      RAINBOW_ASSIGN_OR_RETURN(m.copies, GetSites(d));
      RAINBOW_ASSIGN_OR_RETURN(m.votes, GetVotes(d));
      RAINBOW_ASSIGN_OR_RETURN(uint32_t rq, d.GetU32());
      RAINBOW_ASSIGN_OR_RETURN(uint32_t wq, d.GetU32());
      m.read_quorum = static_cast<int>(rq);
      m.write_quorum = static_cast<int>(wq);
      return Payload{m};
    }
    case MessageKind::kReadRequest: {
      ReadRequest m;
      RAINBOW_ASSIGN_OR_RETURN(m.txn, d.GetTxnId());
      RAINBOW_ASSIGN_OR_RETURN(m.ts, d.GetTimestamp());
      RAINBOW_ASSIGN_OR_RETURN(m.item, d.GetU32());
      return Payload{m};
    }
    case MessageKind::kReadReply: {
      ReadReply m;
      RAINBOW_ASSIGN_OR_RETURN(m.txn, d.GetTxnId());
      RAINBOW_ASSIGN_OR_RETURN(m.item, d.GetU32());
      RAINBOW_ASSIGN_OR_RETURN(m.granted, d.GetBool());
      RAINBOW_ASSIGN_OR_RETURN(m.reason, GetDenyReason(d));
      RAINBOW_ASSIGN_OR_RETURN(m.value, d.GetI64());
      RAINBOW_ASSIGN_OR_RETURN(m.version, d.GetU64());
      RAINBOW_ASSIGN_OR_RETURN(m.epoch, d.GetU64());
      return Payload{m};
    }
    case MessageKind::kPrewriteRequest: {
      PrewriteRequest m;
      RAINBOW_ASSIGN_OR_RETURN(m.txn, d.GetTxnId());
      RAINBOW_ASSIGN_OR_RETURN(m.ts, d.GetTimestamp());
      RAINBOW_ASSIGN_OR_RETURN(m.item, d.GetU32());
      RAINBOW_ASSIGN_OR_RETURN(m.value, d.GetI64());
      RAINBOW_ASSIGN_OR_RETURN(m.skip_cc, d.GetBool());
      return Payload{m};
    }
    case MessageKind::kPrewriteReply: {
      PrewriteReply m;
      RAINBOW_ASSIGN_OR_RETURN(m.txn, d.GetTxnId());
      RAINBOW_ASSIGN_OR_RETURN(m.item, d.GetU32());
      RAINBOW_ASSIGN_OR_RETURN(m.granted, d.GetBool());
      RAINBOW_ASSIGN_OR_RETURN(m.reason, GetDenyReason(d));
      RAINBOW_ASSIGN_OR_RETURN(m.version, d.GetU64());
      RAINBOW_ASSIGN_OR_RETURN(m.epoch, d.GetU64());
      return Payload{m};
    }
    case MessageKind::kAbortRequest: {
      AbortRequest m;
      RAINBOW_ASSIGN_OR_RETURN(m.txn, d.GetTxnId());
      return Payload{m};
    }
    case MessageKind::kPrepareRequest: {
      PrepareRequest m;
      RAINBOW_ASSIGN_OR_RETURN(m.txn, d.GetTxnId());
      RAINBOW_ASSIGN_OR_RETURN(uint32_t n, GetLength(d));
      for (uint32_t i = 0; i < n; ++i) {
        PrepareRequest::WriteVersion wv;
        RAINBOW_ASSIGN_OR_RETURN(wv.item, d.GetU32());
        RAINBOW_ASSIGN_OR_RETURN(wv.version, d.GetU64());
        m.versions.push_back(wv);
      }
      RAINBOW_ASSIGN_OR_RETURN(uint32_t nv, GetLength(d));
      for (uint32_t i = 0; i < nv; ++i) {
        PrepareRequest::ReadValidation rv;
        RAINBOW_ASSIGN_OR_RETURN(rv.item, d.GetU32());
        RAINBOW_ASSIGN_OR_RETURN(rv.version, d.GetU64());
        m.validations.push_back(rv);
      }
      RAINBOW_ASSIGN_OR_RETURN(m.participants, GetSites(d));
      RAINBOW_ASSIGN_OR_RETURN(m.three_phase, d.GetBool());
      return Payload{m};
    }
    case MessageKind::kVoteReply: {
      VoteReply m;
      RAINBOW_ASSIGN_OR_RETURN(m.txn, d.GetTxnId());
      RAINBOW_ASSIGN_OR_RETURN(m.yes, d.GetBool());
      RAINBOW_ASSIGN_OR_RETURN(m.reason, GetDenyReason(d));
      RAINBOW_ASSIGN_OR_RETURN(m.read_only, d.GetBool());
      return Payload{m};
    }
    case MessageKind::kDecision: {
      Decision m;
      RAINBOW_ASSIGN_OR_RETURN(m.txn, d.GetTxnId());
      RAINBOW_ASSIGN_OR_RETURN(m.commit, d.GetBool());
      return Payload{m};
    }
    case MessageKind::kAck: {
      Ack m;
      RAINBOW_ASSIGN_OR_RETURN(m.txn, d.GetTxnId());
      return Payload{m};
    }
    case MessageKind::kDecisionQuery: {
      DecisionQuery m;
      RAINBOW_ASSIGN_OR_RETURN(m.txn, d.GetTxnId());
      RAINBOW_ASSIGN_OR_RETURN(m.asker, d.GetU32());
      return Payload{m};
    }
    case MessageKind::kDecisionInfo: {
      DecisionInfo m;
      RAINBOW_ASSIGN_OR_RETURN(m.txn, d.GetTxnId());
      RAINBOW_ASSIGN_OR_RETURN(m.known, d.GetBool());
      RAINBOW_ASSIGN_OR_RETURN(m.commit, d.GetBool());
      return Payload{m};
    }
    case MessageKind::kPreCommitRequest: {
      PreCommitRequest m;
      RAINBOW_ASSIGN_OR_RETURN(m.txn, d.GetTxnId());
      return Payload{m};
    }
    case MessageKind::kPreCommitAck: {
      PreCommitAck m;
      RAINBOW_ASSIGN_OR_RETURN(m.txn, d.GetTxnId());
      return Payload{m};
    }
    case MessageKind::kStateQuery: {
      StateQuery m;
      RAINBOW_ASSIGN_OR_RETURN(m.txn, d.GetTxnId());
      RAINBOW_ASSIGN_OR_RETURN(m.asker, d.GetU32());
      return Payload{m};
    }
    case MessageKind::kStateReply: {
      StateReply m;
      RAINBOW_ASSIGN_OR_RETURN(m.txn, d.GetTxnId());
      RAINBOW_ASSIGN_OR_RETURN(uint8_t st, d.GetU8());
      if (st > static_cast<uint8_t>(AcpState::kAborted)) {
        return Status::InvalidArgument("bad acp state");
      }
      m.state = static_cast<AcpState>(st);
      return Payload{m};
    }
    case MessageKind::kRemoteAbortNotify: {
      RemoteAbortNotify m;
      RAINBOW_ASSIGN_OR_RETURN(m.txn, d.GetTxnId());
      RAINBOW_ASSIGN_OR_RETURN(uint8_t cause, d.GetU8());
      if (cause > static_cast<uint8_t>(AbortCause::kOther)) {
        return Status::InvalidArgument("bad abort cause");
      }
      m.cause = static_cast<AbortCause>(cause);
      RAINBOW_ASSIGN_OR_RETURN(m.reason, GetDenyReason(d));
      return Payload{m};
    }
    case MessageKind::kRefreshRequest: {
      RefreshRequest m;
      RAINBOW_ASSIGN_OR_RETURN(uint32_t n, GetLength(d));
      for (uint32_t i = 0; i < n; ++i) {
        RAINBOW_ASSIGN_OR_RETURN(ItemId item, d.GetU32());
        m.items.push_back(item);
      }
      return Payload{m};
    }
    case MessageKind::kRefreshReply: {
      RefreshReply m;
      RAINBOW_ASSIGN_OR_RETURN(uint32_t n, GetLength(d));
      for (uint32_t i = 0; i < n; ++i) {
        RefreshReply::Entry entry;
        RAINBOW_ASSIGN_OR_RETURN(entry.item, d.GetU32());
        RAINBOW_ASSIGN_OR_RETURN(entry.value, d.GetI64());
        RAINBOW_ASSIGN_OR_RETURN(entry.version, d.GetU64());
        m.entries.push_back(entry);
      }
      return Payload{m};
    }
    case MessageKind::kDeadlockProbe: {
      DeadlockProbe m;
      RAINBOW_ASSIGN_OR_RETURN(m.initiator, d.GetTxnId());
      RAINBOW_ASSIGN_OR_RETURN(m.holder, d.GetTxnId());
      RAINBOW_ASSIGN_OR_RETURN(m.hops, d.GetU32());
      return Payload{m};
    }
    case MessageKind::kDeadlockProbeCheck: {
      DeadlockProbeCheck m;
      RAINBOW_ASSIGN_OR_RETURN(m.initiator, d.GetTxnId());
      RAINBOW_ASSIGN_OR_RETURN(m.waiter, d.GetTxnId());
      RAINBOW_ASSIGN_OR_RETURN(m.hops, d.GetU32());
      return Payload{m};
    }
    case MessageKind::kCount:
      break;
  }
  return Status::InvalidArgument("bad message kind");
}

template <typename Sink>
void EncodePayloadBody(Sink& e, const Payload& payload) {
  e.PutU8(static_cast<uint8_t>(MessageKindOf(payload)));
  std::visit(EncodeVisitor<Sink>{e}, payload);
}

void EncodeEnvelope(Encoder& e, const Message& message) {
  e.PutU64(message.id);
  e.PutU32(message.from);
  e.PutU32(message.to);
  e.PutI64(message.sent_at);
  e.PutU64(message.rpc_id);
  e.PutBool(message.rpc_is_reply);
  e.PutU64(message.ack_floor);
}

}  // namespace

std::vector<uint8_t> EncodePayload(const Payload& payload) {
  Encoder e;
  EncodePayloadBody(e, payload);
  return e.Take();
}

size_t EncodedPayloadSize(const Payload& payload) {
  SizeCounter c;
  EncodePayloadBody(c, payload);
  return c.size();
}

std::span<const uint8_t> EncodePayloadTo(Arena& arena,
                                         const Payload& payload) {
  arena.Reset();
  Encoder e(&arena.storage());
  EncodePayloadBody(e, payload);
  return e.written();
}

Result<Payload> DecodePayload(std::span<const uint8_t> buf) {
  Decoder d(buf);
  RAINBOW_ASSIGN_OR_RETURN(uint8_t kind, d.GetU8());
  if (kind >= static_cast<uint8_t>(MessageKind::kCount)) {
    return Status::InvalidArgument("bad message kind byte");
  }
  RAINBOW_ASSIGN_OR_RETURN(Payload p,
                           DecodeBody(static_cast<MessageKind>(kind), d));
  if (!d.exhausted()) {
    return Status::InvalidArgument("trailing bytes after payload");
  }
  return p;
}

std::vector<uint8_t> EncodeMessage(const Message& message) {
  Encoder e;
  EncodeEnvelope(e, message);
  size_t len_pos = e.size();
  e.PutU32(0);  // payload length, backpatched below
  size_t payload_start = e.size();
  EncodePayloadBody(e, message.payload);
  e.PatchU32(len_pos, static_cast<uint32_t>(e.size() - payload_start));
  return e.Take();
}

Result<Message> DecodeMessage(std::span<const uint8_t> buf) {
  Decoder d(buf);
  Message m;
  RAINBOW_ASSIGN_OR_RETURN(m.id, d.GetU64());
  RAINBOW_ASSIGN_OR_RETURN(m.from, d.GetU32());
  RAINBOW_ASSIGN_OR_RETURN(m.to, d.GetU32());
  RAINBOW_ASSIGN_OR_RETURN(m.sent_at, d.GetI64());
  RAINBOW_ASSIGN_OR_RETURN(m.rpc_id, d.GetU64());
  RAINBOW_ASSIGN_OR_RETURN(m.rpc_is_reply, d.GetBool());
  RAINBOW_ASSIGN_OR_RETURN(m.ack_floor, d.GetU64());
  RAINBOW_ASSIGN_OR_RETURN(uint32_t len, d.GetU32());
  if (len != d.remaining()) {
    return Status::InvalidArgument("payload length mismatch");
  }
  // Zero-copy: decode the payload region in place.
  RAINBOW_ASSIGN_OR_RETURN(std::span<const uint8_t> payload, d.PeekSpan(len));
  RAINBOW_ASSIGN_OR_RETURN(m.payload, DecodePayload(payload));
  return m;
}

}  // namespace rainbow
