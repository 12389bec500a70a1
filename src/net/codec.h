#ifndef RAINBOW_NET_CODEC_H_
#define RAINBOW_NET_CODEC_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/arena.h"
#include "common/binary_io.h"
#include "common/result.h"
#include "net/message.h"

namespace rainbow {

// The wire format Rainbow messages would use on a real network. It is
// also the only description of a message's size: the network charges
// EncodedPayloadSize() + kEnvelopeBytes for every send, and
// SystemConfig::verify_codec additionally round-trips every message
// through the encoder and decoder to prove the codec stays complete.
//
// Two encode surfaces: the vector-returning forms allocate a fresh
// buffer per call (convenient for tests and tools), and the arena form
// appends into a caller-owned reusable Arena and returns a view — the
// codec-verified send path pays no per-message allocation or copy.
// Decoding is zero-copy throughout: both decoders take a span-style
// view (a const vector binds implicitly), and DecodeMessage parses the
// payload region in place instead of copying it out.

/// Bytes EncodeMessage writes before the payload-length prefix: id,
/// from, to, sent_at, rpc_id, rpc_is_reply and ack_floor. The last is
/// the RPC layer's implicit acknowledgement (net/rpc.h): its 8 bytes are
/// charged on every message, so the network pays for what lets replicas
/// forget finished calls.
inline constexpr size_t kEnvelopeBytes = 41;

/// Serializes a payload: one kind byte followed by the fields.
std::vector<uint8_t> EncodePayload(const Payload& payload);

/// Exactly EncodePayload(payload).size(), computed without writing or
/// allocating anything.
size_t EncodedPayloadSize(const Payload& payload);

/// Serializes a payload into `arena` (resetting it first). The returned
/// view is valid until the arena's next Reset() or write.
std::span<const uint8_t> EncodePayloadTo(Arena& arena, const Payload& payload);

/// Parses a payload; fails on unknown kind bytes, truncated buffers, or
/// trailing garbage.
Result<Payload> DecodePayload(std::span<const uint8_t> buf);

/// Serializes a full message (envelope + payload) in one pass.
std::vector<uint8_t> EncodeMessage(const Message& message);

Result<Message> DecodeMessage(std::span<const uint8_t> buf);

}  // namespace rainbow

#endif  // RAINBOW_NET_CODEC_H_
