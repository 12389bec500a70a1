#ifndef RAINBOW_COMMON_ARENA_H_
#define RAINBOW_COMMON_ARENA_H_

#include <cstdint>
#include <span>
#include <vector>

namespace rainbow {

/// Reusable flat byte arena for transient encodes. Reset() drops the
/// contents but keeps the capacity, so a hot loop that encodes into the
/// same arena (the network's codec check) performs no heap allocation
/// once the high-water mark is reached.
///
/// Views handed out over the arena (std::span — see net/codec.h's
/// EncodePayloadTo) are invalidated by the next
/// Reset() or write; callers must finish reading before reusing the
/// arena.
class Arena {
 public:
  /// Prepares for a fresh encode: size back to zero, capacity kept.
  void Reset() { buf_.clear(); }

  size_t size() const { return buf_.size(); }
  bool empty() const { return buf_.empty(); }
  const uint8_t* data() const { return buf_.data(); }

  /// View of everything written since the last Reset().
  std::span<const uint8_t> view() const { return {buf_.data(), buf_.size()}; }

  /// The backing byte vector, for writers (Encoder) that append into
  /// the arena in place.
  std::vector<uint8_t>& storage() { return buf_; }

 private:
  std::vector<uint8_t> buf_;
};

}  // namespace rainbow

#endif  // RAINBOW_COMMON_ARENA_H_
