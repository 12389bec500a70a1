#include <gtest/gtest.h>

#include <optional>

#include "common/rng.h"
#include "core/session.h"
#include "net/codec.h"
#include "random_payload.h"

namespace rainbow {
namespace {

/// Round-trips a payload and returns the decoded copy.
Payload RoundTrip(const Payload& p) {
  std::vector<uint8_t> wire = EncodePayload(p);
  auto decoded = DecodePayload(wire);
  EXPECT_TRUE(decoded.ok()) << decoded.status();
  return decoded.ok() ? *decoded : Payload{Ack{}};
}

TEST(CodecTest, PrimitivesRoundTrip) {
  Encoder e;
  e.PutU8(0xab);
  e.PutU32(0xdeadbeef);
  e.PutU64(0x0123456789abcdefULL);
  e.PutI64(-42);
  e.PutBool(true);
  e.PutTxnId(TxnId{7, 99});
  e.PutTimestamp(TxnTimestamp{-5, 3});

  Decoder d(e.buffer());
  EXPECT_EQ(*d.GetU8(), 0xab);
  EXPECT_EQ(*d.GetU32(), 0xdeadbeefu);
  EXPECT_EQ(*d.GetU64(), 0x0123456789abcdefULL);
  EXPECT_EQ(*d.GetI64(), -42);
  EXPECT_TRUE(*d.GetBool());
  EXPECT_EQ(*d.GetTxnId(), (TxnId{7, 99}));
  EXPECT_EQ(*d.GetTimestamp(), (TxnTimestamp{-5, 3}));
  EXPECT_TRUE(d.exhausted());
}

TEST(CodecTest, TruncatedReadsFail) {
  Encoder e;
  e.PutU32(5);
  Decoder d(e.buffer());
  EXPECT_TRUE(d.GetU32().ok());
  EXPECT_FALSE(d.GetU8().ok());
  EXPECT_FALSE(d.GetU64().ok());
}

// ---------------------------------------------------------------------------
// Randomized round-trip property. One generator per MessageKind
// (tests/random_payload.h); the test iterates the full enum, so adding a
// kind without a generator (or without codec support) fails the suite
// rather than silently shipping an unserializable message.
// ---------------------------------------------------------------------------

TEST(CodecTest, EveryPayloadKindRoundTrips) {
  // The payload structs have no operator==, so fidelity is checked via
  // encoding stability: decode(encode(p)) must re-encode to the same
  // bytes. Combined with DecodeRejectsTrailingGarbage/Truncation this
  // pins the wire format bijectively.
  Rng rng(20260806);
  for (int k = 0; k < static_cast<int>(MessageKind::kCount); ++k) {
    MessageKind kind = static_cast<MessageKind>(k);
    for (int round = 0; round < 50; ++round) {
      std::optional<Payload> p = RandomPayload(kind, rng);
      ASSERT_TRUE(p.has_value())
          << "no random generator for " << MessageKindName(kind)
          << " — add one when introducing a new message kind";
      std::vector<uint8_t> wire = EncodePayload(*p);
      EXPECT_EQ(EncodedPayloadSize(*p), wire.size())
          << MessageKindName(kind) << " size mismatch (round " << round
          << ")";
      auto decoded = DecodePayload(wire);
      ASSERT_TRUE(decoded.ok())
          << MessageKindName(kind) << ": " << decoded.status();
      EXPECT_EQ(MessageKindOf(*decoded), kind) << MessageKindName(kind);
      EXPECT_EQ(EncodePayload(*decoded), wire)
          << MessageKindName(kind) << " re-encode mismatch (round " << round
          << ")";
    }
  }
}

TEST(CodecTest, RichPayloadFieldFidelity) {
  TxnId txn{3, 17};

  // Spot-check field fidelity on the richest messages.
  {
    auto q = std::get<NsLookupReply>(
        RoundTrip(NsLookupReply{txn, 9, true, {0, 1, 2}, {2, 1, 1}, 2, 3}));
    EXPECT_EQ(q.copies, (std::vector<SiteId>{0, 1, 2}));
    EXPECT_EQ(q.votes, (std::vector<int>{2, 1, 1}));
    EXPECT_EQ(q.read_quorum, 2);
    EXPECT_EQ(q.write_quorum, 3);
  }
  {
    auto q = std::get<PrepareRequest>(RoundTrip(
        PrepareRequest{txn, {{1, 10}, {2, 11}}, {{4, 3}}, {0, 1, 2}, true}));
    ASSERT_EQ(q.versions.size(), 2u);
    EXPECT_EQ(q.versions[1].item, 2u);
    EXPECT_EQ(q.versions[1].version, 11u);
    EXPECT_EQ(q.participants, (std::vector<SiteId>{0, 1, 2}));
    EXPECT_TRUE(q.three_phase);
    ASSERT_EQ(q.validations.size(), 1u);
    EXPECT_EQ(q.validations[0].item, 4u);
    EXPECT_EQ(q.validations[0].version, 3u);
  }
  {
    auto q = std::get<ReadReply>(RoundTrip(
        ReadReply{txn, 4, true, DenyReason::kNone, -77, 12}));
    EXPECT_EQ(q.value, -77);
    EXPECT_EQ(q.version, 12u);
  }
  {
    auto q = std::get<RefreshReply>(
        RoundTrip(RefreshReply{{{1, 100, 5}, {2, -3, 7}}}));
    ASSERT_EQ(q.entries.size(), 2u);
    EXPECT_EQ(q.entries[1].value, -3);
  }
  {
    auto q = std::get<DeadlockProbe>(
        RoundTrip(DeadlockProbe{txn, TxnId{1, 4}, 3}));
    EXPECT_EQ(q.initiator, txn);
    EXPECT_EQ(q.holder, (TxnId{1, 4}));
    EXPECT_EQ(q.hops, 3u);
  }
}

TEST(CodecTest, DecodeRejectsBadKind) {
  std::vector<uint8_t> buf = {0xff, 0, 0, 0};
  EXPECT_FALSE(DecodePayload(buf).ok());
}

TEST(CodecTest, DecodeRejectsTrailingGarbage) {
  std::vector<uint8_t> wire = EncodePayload(Payload{Ack{TxnId{0, 1}}});
  wire.push_back(0);
  EXPECT_FALSE(DecodePayload(wire).ok());
}

TEST(CodecTest, DecodeRejectsEveryTruncation) {
  // Chop the encoding of a complex payload at every length: none may
  // crash, and all must fail cleanly.
  std::vector<uint8_t> wire = EncodePayload(
      Payload{PrepareRequest{TxnId{1, 2}, {{3, 4}}, {{5, 6}}, {0, 1}, false}});
  for (size_t len = 0; len < wire.size(); ++len) {
    std::vector<uint8_t> cut(wire.begin(),
                             wire.begin() + static_cast<ptrdiff_t>(len));
    EXPECT_FALSE(DecodePayload(cut).ok()) << "length " << len;
  }
}

TEST(CodecTest, DecodeRejectsBadEnums) {
  std::vector<uint8_t> wire =
      EncodePayload(Payload{StateReply{TxnId{0, 1}, AcpState::kPrepared}});
  wire.back() = 0x77;  // invalid AcpState
  EXPECT_FALSE(DecodePayload(wire).ok());
}

TEST(CodecTest, FuzzedTruncationsAndBitFlipsNeverCrash) {
  // Hardening property over every message kind: any strict prefix of a
  // valid encoding must fail cleanly, and a randomly bit-flipped wire
  // image must either fail cleanly or decode to a value whose canonical
  // re-encoding decodes again. Nothing may crash or read out of bounds
  // (the sanitizer CI jobs give that clause its teeth).
  Rng rng(20260808);
  for (int k = 0; k < static_cast<int>(MessageKind::kCount); ++k) {
    MessageKind kind = static_cast<MessageKind>(k);
    for (int round = 0; round < 8; ++round) {
      std::optional<Payload> p = RandomPayload(kind, rng);
      ASSERT_TRUE(p.has_value()) << "no generator for kind " << k;

      Message m;
      m.id = rng.Next();
      m.from = static_cast<SiteId>(rng.NextUint(32));
      m.to = static_cast<SiteId>(rng.NextUint(32));
      m.sent_at = static_cast<SimTime>(rng.NextUint(1'000'000'000));
      m.rpc_id = rng.NextBool(0.5) ? rng.Next() : 0;
      m.rpc_is_reply = rng.NextBool(0.5);
      m.payload = *p;

      const std::vector<uint8_t> pay_wire = EncodePayload(*p);
      const std::vector<uint8_t> msg_wire = EncodeMessage(m);

      // (a) Every strict prefix is rejected, at both framing layers.
      for (size_t len = 0; len < pay_wire.size(); ++len) {
        std::vector<uint8_t> cut(pay_wire.begin(),
                                 pay_wire.begin() + static_cast<ptrdiff_t>(len));
        EXPECT_FALSE(DecodePayload(cut).ok())
            << "kind " << k << " payload prefix " << len;
      }
      for (size_t len = 0; len < msg_wire.size(); ++len) {
        std::vector<uint8_t> cut(msg_wire.begin(),
                                 msg_wire.begin() + static_cast<ptrdiff_t>(len));
        EXPECT_FALSE(DecodeMessage(cut).ok())
            << "kind " << k << " message prefix " << len;
      }

      // (b) Bit flips: a flip may land in a benign value byte, so
      // success is allowed — but then the decoded value must survive a
      // canonical re-encode/decode cycle.
      for (int flip = 0; flip < 32; ++flip) {
        std::vector<uint8_t> mut = pay_wire;
        for (uint64_t i = 0, n = 1 + rng.NextUint(3); i < n; ++i) {
          mut[rng.NextUint(mut.size())] ^=
              static_cast<uint8_t>(1u << rng.NextUint(8));
        }
        auto r = DecodePayload(mut);
        if (r.ok()) {
          EXPECT_TRUE(DecodePayload(EncodePayload(*r)).ok())
              << "kind " << k << ": flipped payload decoded but does not "
              << "re-encode canonically";
        }
      }
      for (int flip = 0; flip < 32; ++flip) {
        std::vector<uint8_t> mut = msg_wire;
        for (uint64_t i = 0, n = 1 + rng.NextUint(3); i < n; ++i) {
          mut[rng.NextUint(mut.size())] ^=
              static_cast<uint8_t>(1u << rng.NextUint(8));
        }
        auto r = DecodeMessage(mut);
        if (r.ok()) {
          EXPECT_TRUE(DecodeMessage(EncodeMessage(*r)).ok())
              << "kind " << k << ": flipped message decoded but does not "
              << "re-encode canonically";
        }
      }
    }
  }
}

TEST(CodecTest, FullMessageRoundTrip) {
  Message m;
  m.id = 42;
  m.from = 3;
  m.to = kNameServerId;
  m.sent_at = Millis(17);
  m.rpc_id = 1u << 20;
  m.ack_floor = (1u << 20) - 3;
  m.payload = NsLookupRequest{TxnId{3, 8}, 5};
  auto decoded = DecodeMessage(EncodeMessage(m));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->id, 42u);
  EXPECT_EQ(decoded->from, 3u);
  EXPECT_EQ(decoded->to, kNameServerId);
  EXPECT_EQ(decoded->sent_at, Millis(17));
  EXPECT_EQ(decoded->rpc_id, 1u << 20);
  EXPECT_FALSE(decoded->rpc_is_reply);
  EXPECT_EQ(decoded->ack_floor, (1u << 20) - 3);
  EXPECT_EQ(decoded->kind(), MessageKind::kNsLookupRequest);
}

TEST(CodecTest, EnvelopeConstantMatchesTheEncoding) {
  // The network charges EncodedPayloadSize() + kEnvelopeBytes per
  // message; EncodeMessage adds a 4-byte payload-length prefix on top.
  // 41 bytes: id 8, from 4, to 4, sent_at 8, rpc_id 8, rpc_is_reply 1
  // and ack_floor 8.
  EXPECT_EQ(kEnvelopeBytes, 41u);
  Message m;
  m.id = 7;
  m.from = 1;
  m.to = 2;
  m.sent_at = Millis(3);
  m.rpc_id = 99;
  m.rpc_is_reply = true;
  PrepareRequest prepare;
  prepare.versions.resize(3);
  prepare.participants = {0, 1, 2};
  for (const Payload& p :
       {Payload{Ack{TxnId{1, 2}}}, Payload{prepare}, Payload{RefreshReply{}}}) {
    m.payload = p;
    EXPECT_EQ(EncodeMessage(m).size(),
              kEnvelopeBytes + 4 + EncodedPayloadSize(m.payload))
        << MessageKindName(m.kind());
  }
}

TEST(CodecTest, WholeSystemRunsOverTheWireCodec) {
  // Every protocol message of a busy session is round-tripped through
  // the codec; any lossy or incomplete encoding would break the run.
  SystemConfig system;
  system.seed = 202;
  system.num_sites = 4;
  system.verify_codec = true;
  system.verify_history = true;
  system.protocols.acp = AcpKind::kThreePhaseCommit;  // widest message mix
  system.AddUniformItems(60, 100, 3);
  WorkloadConfig workload;
  workload.num_txns = 150;
  workload.mpl = 6;
  auto result = RunSession(system, workload);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->committed, 100u);
}

}  // namespace
}  // namespace rainbow
