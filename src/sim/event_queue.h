#ifndef RAINBOW_SIM_EVENT_QUEUE_H_
#define RAINBOW_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <vector>

#include "common/inline_function.h"
#include "common/types.h"

namespace rainbow {

/// Priority queue of timed callbacks, ordered by (time, key, insertion
/// sequence). The sequence tie-break makes execution order fully
/// deterministic: two events scheduled for the same instant (and the
/// same key) fire in the order they were scheduled.
///
/// The explicit ordering `key` makes same-tick order a function of
/// event identity rather than of insertion order: message deliveries
/// carry a key derived from their origin — (sender site, per-sender
/// sequence) — so the execution order at a destination depends only on
/// virtual time and message identity, and same-seed runs produce
/// byte-identical traces. Key 0 (the default) sorts before any message
/// key, i.e. local timers fire before same-tick message deliveries.
///
/// Implementation: a calendar queue. Near-future events hash into a
/// ring of time buckets (width 2^kBucketShift ticks) with O(1)
/// schedule; the bucket under the cursor is kept as a small binary
/// heap so pops surface in exact (time, key, seq) order; events beyond
/// the ring's horizon wait in an overflow heap and migrate into
/// buckets as the cursor reaches them. Amortised Schedule/PopNext is
/// O(1) for the simulator's timestamp distribution (deliveries and
/// timers clustered a few ms out) versus O(log n) for the old
/// std::priority_queue. The pop order is bit-identical to the old
/// heap's: equal-time events can never sit in two different tiers, and
/// the active tier orders them with the full comparator.
///
/// Storage is allocation-lean: callbacks live in a flat slot table
/// (reused through a free list) instead of a side unordered_map, and
/// the callback type keeps small closures inline (common/
/// inline_function.h). Bucket vectors and the active heap recycle
/// their capacity, so in steady state a Schedule/fire cycle performs
/// no heap allocation; bench_m6_hotpath gates this.
class EventQueue {
 public:
  /// Inline capture budget for event callbacks. Sized so the hot-path
  /// closures — network delivery (`this` + pool slot), RPC/site timers
  /// (`this` + a couple of ids) — stay inline; larger captures fall
  /// back to one heap allocation, the old std::function cost.
  static constexpr size_t kInlineCallbackBytes = 48;
  using Callback = InlineFunction<void(), kInlineCallbackBytes>;

  /// Opaque handle for cancellation: a slot index in the low 32 bits
  /// plus the slot's generation in the high 32. The generation is
  /// bumped whenever the slot's event fires or is cancelled, so stale
  /// ids from earlier occupants of a reused slot can never cancel the
  /// current one.
  using EventId = uint64_t;

  /// Reserved "no event" id. Schedule() never returns it: slot 0's
  /// generation starts at 1 (and skips 0 on wrap), so the packed id
  /// (slot 0, generation 0) — numerically 0 — cannot alias a real
  /// event. Default-constructed TimerHandles rely on this.
  static constexpr EventId kInvalidId = 0;

  EventQueue() : ring_(kNumBuckets) {}

  /// Schedules `cb` at absolute time `when` with ordering key 0.
  /// Returns an id usable with Cancel().
  EventId Schedule(SimTime when, Callback cb) {
    return Schedule(when, 0, std::move(cb));
  }

  /// Schedules `cb` at absolute time `when` with an explicit ordering
  /// key: events fire in (time, key, insertion sequence) order.
  EventId Schedule(SimTime when, uint64_t key, Callback cb);

  /// Cancels a pending event. Returns false if the event already fired
  /// or was already cancelled (or `id` is kInvalidId). O(1): the queue
  /// entry is left behind as a generation-mismatched tombstone and
  /// skipped when it surfaces.
  bool Cancel(EventId id);

  bool empty() const { return live_count_ == 0; }
  size_t size() const { return live_count_; }

  /// Time of the earliest pending event; kSimTimeMax if none.
  SimTime NextTime();

  /// Pops the earliest event and returns it. Requires !empty().
  struct Fired {
    SimTime time;
    Callback cb;
  };
  Fired PopNext();

 private:
  struct Entry {
    SimTime time;
    uint64_t key;
    uint64_t seq;
    uint32_t slot;
    uint32_t gen;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      if (a.key != b.key) return a.key > b.key;
      return a.seq > b.seq;
    }
  };
  struct Slot {
    Callback cb;
    uint32_t gen = 0;
  };

  /// Calendar geometry. 64-tick (64 µs) buckets, 256 of them: a 16 ms
  /// horizon, sized so message deliveries (~1 ms out) land a few
  /// buckets ahead and ordinary protocol timers stay inside the ring;
  /// long RPC timeouts ride the overflow heap. Both powers of two so
  /// bucket-of-time is a shift and ring indexing a mask.
  static constexpr int kBucketShift = 6;
  static constexpr int64_t kNumBuckets = 256;
  static constexpr int64_t kBucketMask = kNumBuckets - 1;

  /// Absolute bucket index of `t` (floor division; SimTime is signed
  /// and C++20 guarantees arithmetic right shift).
  static int64_t BucketOf(SimTime t) { return t >> kBucketShift; }

  static EventId MakeId(uint32_t slot, uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }

  /// A queue entry is live iff its generation matches its slot's.
  bool Live(const Entry& e) const { return slots_[e.slot].gen == e.gen; }

  /// Destroys the slot's callback, bumps its generation (invalidating
  /// any outstanding EventId), and returns it to the free list.
  void RetireSlot(uint32_t slot);

  /// Heap-push onto the active tier.
  void PushActive(Entry e);

  /// Moves overflow entries whose bucket fell inside the ring's
  /// horizon into their bucket (or straight into the active tier when
  /// the cursor already reached it). Called after every cursor move.
  void PullOverflow();

  /// Advances the cursor until a live entry sits at active_.front().
  /// Returns false when no live entry remains anywhere.
  bool AdvanceToLive();

  /// Bucket `cur_bucket_` has been entered (and drained into active_)
  /// or passed; entries at or before it go to the active tier.
  std::vector<Entry> active_;
  /// ring_[b & kBucketMask] holds entries of absolute bucket b for
  /// cur_bucket_ < b < cur_bucket_ + kNumBuckets. Unsorted; sorted on
  /// drain (make_heap is O(k), cheaper than k heap pushes).
  std::vector<std::vector<Entry>> ring_;
  /// Min-heap (Later comparator, front = earliest) of entries beyond
  /// the ring horizon.
  std::vector<Entry> overflow_;
  int64_t cur_bucket_ = 0;
  /// Physical entries (live + tombstones) across all ring buckets.
  size_t ring_count_ = 0;

  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  uint64_t next_seq_ = 0;
  size_t live_count_ = 0;
};

}  // namespace rainbow

#endif  // RAINBOW_SIM_EVENT_QUEUE_H_
