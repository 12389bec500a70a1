#ifndef RAINBOW_STORAGE_LRU_K_REPLACER_H_
#define RAINBOW_STORAGE_LRU_K_REPLACER_H_

#include <cstdint>
#include <optional>
#include <vector>

namespace rainbow {

/// LRU-K frame replacer for the buffer pool. Tracks, per frame, the
/// timestamps (a logical access counter, so eviction order is a pure
/// function of the access sequence — deterministic across runs) of the
/// last K accesses. The eviction victim is the
/// evictable frame with the largest backward K-distance: frames with
/// fewer than K recorded accesses count as +inf distance and are
/// evicted first, ties broken by the earliest recorded access (classic
/// LRU among the +inf class).
class LruKReplacer {
 public:
  LruKReplacer(size_t num_frames, size_t k);

  /// Records an access to `frame` (on fetch/creation). The frame stays
  /// non-evictable until SetEvictable(frame, true).
  void RecordAccess(size_t frame);

  /// Marks whether `frame` may be chosen as an eviction victim (a
  /// pinned frame is not evictable).
  void SetEvictable(size_t frame, bool evictable);

  /// Picks and removes the eviction victim; nullopt if no frame is
  /// evictable.
  std::optional<size_t> Evict();

  /// Forgets `frame` entirely (page deleted / pool reset path).
  void Remove(size_t frame);

  /// Number of currently evictable frames.
  size_t evictable_count() const { return evictable_count_; }

  size_t k() const { return k_; }

 private:
  struct FrameInfo {
    /// Ring buffer of the last up-to-k access timestamps; `count` of
    /// them are valid, the oldest at index `head`.
    std::vector<uint64_t> history;
    size_t head = 0;
    size_t count = 0;
    bool evictable = false;
    bool present = false;

    uint64_t Oldest() const { return history[head]; }
    /// Timestamp of the k-th most recent access (only valid when
    /// count == k): with a full ring, that is the oldest entry.
    uint64_t KthRecent() const { return history[head]; }
  };

  size_t k_;
  uint64_t clock_ = 0;  ///< logical access counter
  std::vector<FrameInfo> frames_;
  size_t evictable_count_ = 0;
};

}  // namespace rainbow

#endif  // RAINBOW_STORAGE_LRU_K_REPLACER_H_
