#ifndef RAINBOW_TESTS_RANDOM_PAYLOAD_H_
#define RAINBOW_TESTS_RANDOM_PAYLOAD_H_

// Seeded random payloads, one generator per MessageKind, shared by the
// codec and RPC suites.

#include <optional>
#include <vector>

#include "common/rng.h"
#include "net/message.h"

namespace rainbow {

inline TxnId RandomTxn(Rng& rng) {
  return TxnId{static_cast<SiteId>(rng.NextUint(16)), rng.NextUint(1 << 20)};
}

inline TxnTimestamp RandomTs(Rng& rng) {
  return TxnTimestamp{static_cast<SimTime>(rng.NextInt(0, 1'000'000'000)),
                      static_cast<SiteId>(rng.NextUint(16))};
}

inline std::vector<SiteId> RandomSites(Rng& rng) {
  std::vector<SiteId> out(rng.NextUint(5));
  for (SiteId& s : out) s = static_cast<SiteId>(rng.NextUint(32));
  return out;
}

inline DenyReason RandomDenyReason(Rng& rng) {
  return static_cast<DenyReason>(rng.NextUint(8));
}

/// A random payload of `kind`; nullopt for a kind with no generator.
inline std::optional<Payload> RandomPayload(MessageKind kind, Rng& rng) {
  ItemId item = static_cast<ItemId>(rng.NextUint(1 << 16));
  Value value = rng.NextInt(-1'000'000, 1'000'000);
  Version version = rng.NextUint(1 << 24);
  switch (kind) {
    case MessageKind::kNsLookupRequest:
      return Payload{NsLookupRequest{RandomTxn(rng), item}};
    case MessageKind::kNsLookupReply: {
      NsLookupReply r{RandomTxn(rng), item, rng.NextBool(0.9), {}, {}, 0, 0};
      r.copies = RandomSites(rng);
      r.votes.resize(r.copies.size());
      for (int& v : r.votes) v = static_cast<int>(rng.NextUint(4));
      r.read_quorum = static_cast<int>(rng.NextUint(8));
      r.write_quorum = static_cast<int>(rng.NextUint(8));
      return Payload{r};
    }
    case MessageKind::kReadRequest:
      return Payload{ReadRequest{RandomTxn(rng), RandomTs(rng), item}};
    case MessageKind::kReadReply:
      return Payload{ReadReply{RandomTxn(rng), item, rng.NextBool(0.5),
                               RandomDenyReason(rng), value, version}};
    case MessageKind::kPrewriteRequest:
      return Payload{PrewriteRequest{RandomTxn(rng), RandomTs(rng), item,
                                     value, rng.NextBool(0.2)}};
    case MessageKind::kPrewriteReply:
      return Payload{PrewriteReply{RandomTxn(rng), item, rng.NextBool(0.5),
                                   RandomDenyReason(rng), version}};
    case MessageKind::kAbortRequest:
      return Payload{AbortRequest{RandomTxn(rng)}};
    case MessageKind::kPrepareRequest: {
      PrepareRequest p{RandomTxn(rng), {}, {}, RandomSites(rng),
                       rng.NextBool(0.5)};
      p.versions.resize(rng.NextUint(4));
      for (auto& wv : p.versions) {
        wv.item = static_cast<ItemId>(rng.NextUint(1 << 16));
        wv.version = rng.NextUint(1 << 24);
      }
      p.validations.resize(rng.NextUint(4));
      for (auto& rv : p.validations) {
        rv.item = static_cast<ItemId>(rng.NextUint(1 << 16));
        rv.version = rng.NextUint(1 << 24);
      }
      return Payload{p};
    }
    case MessageKind::kVoteReply:
      return Payload{VoteReply{RandomTxn(rng), rng.NextBool(0.5),
                               RandomDenyReason(rng), rng.NextBool(0.2)}};
    case MessageKind::kDecision:
      return Payload{Decision{RandomTxn(rng), rng.NextBool(0.5)}};
    case MessageKind::kAck:
      return Payload{Ack{RandomTxn(rng)}};
    case MessageKind::kDecisionQuery:
      return Payload{
          DecisionQuery{RandomTxn(rng), static_cast<SiteId>(rng.NextUint(16))}};
    case MessageKind::kDecisionInfo:
      return Payload{DecisionInfo{RandomTxn(rng), rng.NextBool(0.5),
                                  rng.NextBool(0.5)}};
    case MessageKind::kPreCommitRequest:
      return Payload{PreCommitRequest{RandomTxn(rng)}};
    case MessageKind::kPreCommitAck:
      return Payload{PreCommitAck{RandomTxn(rng)}};
    case MessageKind::kStateQuery:
      return Payload{
          StateQuery{RandomTxn(rng), static_cast<SiteId>(rng.NextUint(16))}};
    case MessageKind::kStateReply:
      return Payload{StateReply{RandomTxn(rng),
                                static_cast<AcpState>(rng.NextUint(6))}};
    case MessageKind::kRemoteAbortNotify:
      return Payload{RemoteAbortNotify{RandomTxn(rng),
                                       static_cast<AbortCause>(rng.NextUint(6)),
                                       RandomDenyReason(rng)}};
    case MessageKind::kRefreshRequest: {
      RefreshRequest r;
      r.items.resize(rng.NextUint(6));
      for (ItemId& i : r.items) i = static_cast<ItemId>(rng.NextUint(1 << 16));
      return Payload{r};
    }
    case MessageKind::kRefreshReply: {
      RefreshReply r;
      r.entries.resize(rng.NextUint(6));
      for (auto& e : r.entries) {
        e.item = static_cast<ItemId>(rng.NextUint(1 << 16));
        e.value = rng.NextInt(-1'000'000, 1'000'000);
        e.version = rng.NextUint(1 << 24);
      }
      return Payload{r};
    }
    case MessageKind::kDeadlockProbe:
      return Payload{DeadlockProbe{RandomTxn(rng), RandomTxn(rng),
                                   static_cast<uint32_t>(rng.NextUint(64))}};
    case MessageKind::kDeadlockProbeCheck:
      return Payload{DeadlockProbeCheck{RandomTxn(rng), RandomTxn(rng),
                                        static_cast<uint32_t>(rng.NextUint(64))}};
    case MessageKind::kCount:
      break;
  }
  return std::nullopt;
}

}  // namespace rainbow

#endif  // RAINBOW_TESTS_RANDOM_PAYLOAD_H_
