#ifndef RAINBOW_COMMON_BINARY_IO_H_
#define RAINBOW_COMMON_BINARY_IO_H_

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/types.h"

namespace rainbow {

/// Append-only binary writer (little-endian, length-prefixed vectors).
/// Shared by the message wire codec (net/codec.h) and the WAL's on-disk
/// format (storage/wal.h).
///
/// Two modes: the default constructor owns its buffer (Take() moves it
/// out — the WAL path), while the external-buffer constructor appends
/// into a caller-supplied vector — typically an Arena's storage — so a
/// hot encode loop reuses one allocation (the codec path). In external
/// mode the writer tracks the base offset it started at; written()
/// spans exactly the bytes this Encoder produced.
class Encoder {
 public:
  Encoder() : buf_(&owned_) {}
  /// Appends into `*external` (not owned; must outlive the Encoder).
  explicit Encoder(std::vector<uint8_t>* external)
      : buf_(external), base_(external->size()) {}

  void PutU8(uint8_t v) { buf_->push_back(v); }
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutBool(bool v) { PutU8(v ? 1 : 0); }

  void PutTxnId(const TxnId& id);
  void PutTimestamp(const TxnTimestamp& ts);

  template <typename T, typename F>
  void PutVector(const std::vector<T>& v, F put_one) {
    PutU32(static_cast<uint32_t>(v.size()));
    for (const T& x : v) put_one(x);
  }

  /// Bytes written by this Encoder so far (excludes anything that was
  /// already in an external buffer).
  size_t size() const { return buf_->size() - base_; }

  /// Overwrites the u32 previously written at offset `pos` (relative to
  /// this Encoder's first byte) — length backpatching for frames whose
  /// size isn't known up front.
  void PatchU32(size_t pos, uint32_t v);

  const std::vector<uint8_t>& buffer() const { return *buf_; }
  std::vector<uint8_t> Take() {
    assert(buf_ == &owned_ && "Take() requires the owning constructor");
    return std::move(owned_);
  }

  /// View of the bytes this Encoder wrote. Valid until the underlying
  /// buffer is next written or destroyed.
  std::span<const uint8_t> written() const {
    return {buf_->data() + base_, buf_->size() - base_};
  }

 private:
  std::vector<uint8_t> owned_;
  std::vector<uint8_t>* buf_;
  size_t base_ = 0;
};

/// The Put* surface of Encoder without the writes: adds up the bytes an
/// Encoder would append, so a payload's size follows the same per-field
/// description as its encoding (the message codec's EncodedPayloadSize,
/// the WAL's pre-sized record append).
class SizeCounter {
 public:
  void PutU8(uint8_t) { n_ += 1; }
  void PutU32(uint32_t) { n_ += 4; }
  void PutU64(uint64_t) { n_ += 8; }
  void PutI64(int64_t) { n_ += 8; }
  void PutBool(bool) { n_ += 1; }
  void PutTxnId(const TxnId&) { n_ += 4 + 8; }
  void PutTimestamp(const TxnTimestamp&) { n_ += 8 + 4; }

  template <typename T, typename F>
  void PutVector(const std::vector<T>& v, F put_one) {
    PutU32(0);
    for (const T& x : v) put_one(x);
  }

  size_t size() const { return n_; }

 private:
  size_t n_ = 0;
};

/// Bounds-checked binary reader over an encoded buffer. Every getter
/// fails with kInvalidArgument on truncation instead of reading past
/// the end.
class Decoder {
 public:
  Decoder(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit Decoder(const std::vector<uint8_t>& buf)
      : Decoder(buf.data(), buf.size()) {}
  explicit Decoder(std::span<const uint8_t> buf)
      : Decoder(buf.data(), buf.size()) {}

  Result<uint8_t> GetU8();
  Result<uint32_t> GetU32();
  Result<uint64_t> GetU64();
  Result<int64_t> GetI64();
  Result<bool> GetBool();
  Result<TxnId> GetTxnId();
  Result<TxnTimestamp> GetTimestamp();

  /// Remaining unread bytes.
  size_t remaining() const { return size_ - pos_; }
  bool exhausted() const { return pos_ == size_; }

  /// View of the next `n` unread bytes without consuming them; fails on
  /// truncation. The zero-copy hook for nested frames (a message's
  /// payload region): the caller decodes the view in place instead of
  /// copying it out.
  Result<std::span<const uint8_t>> PeekSpan(size_t n) const {
    if (n > remaining()) {
      return Status::InvalidArgument("truncated: span past end");
    }
    return std::span<const uint8_t>{data_ + pos_, n};
  }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace rainbow

#endif  // RAINBOW_COMMON_BINARY_IO_H_
