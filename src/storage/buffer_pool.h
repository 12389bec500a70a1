#ifndef RAINBOW_STORAGE_BUFFER_POOL_H_
#define RAINBOW_STORAGE_BUFFER_POOL_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "storage/lru_k_replacer.h"
#include "storage/page.h"

namespace rainbow {

/// What a DiskManager read actually delivered. Callers that only want
/// bytes can ignore it; recovery and the checksum machinery care.
enum class PageReadStatus {
  kOk,            ///< primary copy read (and verified, if checksums on)
  kNeverWritten,  ///< no durable copy exists; `out` is zero-filled
  kRecovered,     ///< primary missing/corrupt/stale — healed from journal
  kCorrupt,       ///< no intact copy anywhere; `out` is zero-filled
};

const char* PageReadStatusName(PageReadStatus status);

/// Storage fault kinds a DiskManager can inject (probabilistic, armed
/// per kind by the nemesis through the fault injector).
enum class StorageFaultKind : uint8_t {
  kTornWrite = 0,    ///< first half of the write persists, rest is stale
  kShortWrite = 1,   ///< first half persists, rest reads back as zeros
  kLostWrite = 2,    ///< primary never updated ("fsync lie")
  kReadBitFlip = 3,  ///< one stored bit flips (persistently) on a read
};
inline constexpr size_t kStorageFaultKinds = 4;

const char* StorageFaultKindName(StorageFaultKind kind);

/// The durable page file of one site, simulated in memory. Like the Wal
/// object, a DiskManager intentionally survives Site::Crash(): only the
/// buffer pool (volatile frames) is wiped, so a restart sees exactly
/// the pages that were flushed (or evicted dirty) before the crash —
/// the honest no-force starting point for the ARIES redo pass.
///
/// With `checksums` on (the default), every write-out stamps a CRC32
/// into the page header ([8..12), see page.h) and goes to TWO places:
/// a doublewrite journal first, then the primary page file. Reads
/// verify the primary's CRC; a torn/corrupt/lost primary is healed
/// from the journal copy (quarantine-and-rebuild), so a single
/// mid-write fault never surfaces garbage. With checksums off, reads
/// return the primary bytes unverified — the configuration nemesis
/// uses to demonstrate why the defense exists.
///
/// Storage faults are disarmed by default; an armed kind draws from the
/// disk's own seeded Rng (a disarmed one draws nothing), so runs replay
/// exactly. Per-write faults spare the journal copy, which is what makes
/// recovery possible; only the write limit (the machine dying
/// mid-sequence) silences both copies.
class DiskManager {
 public:
  explicit DiskManager(uint32_t page_size, bool checksums = true,
                       uint64_t fault_seed = 1)
      : page_size_(page_size), checksums_(checksums), rng_(fault_seed) {}

  uint32_t page_size() const { return page_size_; }
  bool checksums() const { return checksums_; }

  PageId AllocatePage() { return next_page_id_++; }
  uint32_t allocated_pages() const { return next_page_id_; }

  /// Reads `page_id` into `out`; the status says which copy (if any)
  /// supplied the bytes. Never-written pages are zero-filled and
  /// reported as such — indistinguishability from an all-zero page was
  /// a real bug (quarantine must not "heal" pages that never existed).
  PageReadStatus ReadPage(PageId page_id, Page& out);

  void WritePage(PageId page_id, const Page& in);

  /// True iff the page has a primary copy.
  bool HasPage(PageId page_id) const {
    auto it = slots_.find(page_id);
    return it != slots_.end() && !it->second.primary.empty();
  }

  /// Sets the per-write (or per-read, for kReadBitFlip) probability of
  /// `kind`; 0 disarms it. Probabilities are independent per kind.
  void Arm(StorageFaultKind kind, double probability);

  /// After `remaining` more WritePage calls, drop every subsequent
  /// write entirely (journal included) until DisarmWriteLimit() — the
  /// crash-sweep hook for double-crash-during-redo tests.
  void ArmWriteLimit(uint64_t remaining);
  void DisarmWriteLimit();

  /// Deterministic test hook: XORs 0xff into one byte of the stored
  /// primary copy. Returns false if the page has no primary copy.
  bool FlipPrimaryByte(PageId page_id, uint32_t offset);

  uint64_t reads() const { return reads_; }
  uint64_t writes() const { return writes_; }
  /// Primary copies found corrupt and rebuilt from the journal.
  uint64_t quarantined() const { return quarantined_; }
  /// Stale primaries (journal LSN newer) restored — lost-write catches.
  uint64_t lost_write_restores() const { return lost_write_restores_; }
  /// Reads with no intact copy anywhere (zero-filled).
  uint64_t corrupt_reads() const { return corrupt_reads_; }
  uint64_t torn_writes() const { return torn_writes_; }
  uint64_t short_writes() const { return short_writes_; }
  uint64_t lost_writes() const { return lost_writes_; }
  uint64_t read_flips() const { return read_flips_; }
  uint64_t dropped_writes() const { return dropped_writes_; }

 private:
  /// A page's two durable copies. An empty image is a copy never
  /// written; a slot exists once a write reached the journal.
  struct Slot {
    std::vector<uint8_t> primary;
    std::vector<uint8_t> journal;
  };

  /// Copies `in`'s bytes into `out` (reusing its buffer) with the
  /// header CRC stamped (checksums on) or cleared (checksums off, so
  /// stored images stay comparable).
  void Stamp(const Page& in, std::vector<uint8_t>& out) const;

  /// True iff the stored image is a whole page whose CRC matches.
  bool Verify(const std::vector<uint8_t>& bytes) const;

  static Lsn LsnOf(const std::vector<uint8_t>& bytes);

  /// True if `kind` is armed and strikes now (one Rng draw if armed).
  bool Strikes(StorageFaultKind kind);

  uint32_t page_size_;
  bool checksums_;
  PageId next_page_id_ = 0;
  /// Any page id may reach the disk: with checksums off a forged child
  /// id is fetched and written like any other, so this stays a map.
  std::map<PageId, Slot> slots_;
  Rng rng_;
  std::array<double, kStorageFaultKinds> prob_{};
  bool write_limit_armed_ = false;
  uint64_t writes_remaining_ = 0;
  uint64_t reads_ = 0;
  uint64_t writes_ = 0;
  uint64_t quarantined_ = 0;
  uint64_t lost_write_restores_ = 0;
  uint64_t corrupt_reads_ = 0;
  uint64_t torn_writes_ = 0;
  uint64_t short_writes_ = 0;
  uint64_t lost_writes_ = 0;
  uint64_t read_flips_ = 0;
  uint64_t dropped_writes_ = 0;
};

/// Fixed-size page buffer pool with pin/unpin/dirty accounting and an
/// LRU-K replacer. Volatile: Reset() models a crash (all frames dropped
/// without flushing). All internal iteration is structural (frame
/// index / page-id order), never hash order, so eviction and flush
/// sequences are deterministic.
///
/// The pool owns the dirty-page table: a frame's recLSN is the LSN of
/// the first logged update since the page was last written back, and a
/// write-back (flush or dirty eviction) clears it. A frame dirtied only
/// by unlogged writes (configuration-time loads, new pages, splits) is
/// dirty without a recLSN and is not in the table.
class BufferPool {
 public:
  BufferPool(DiskManager* disk, size_t num_frames, size_t lru_k);

  /// Pins and returns the page (fetched from disk on a miss, possibly
  /// evicting). Returns nullptr only when every frame is pinned.
  Page* FetchPage(PageId page_id);

  /// Allocates a fresh page on disk, pins an empty frame for it.
  /// Returns nullptr when every frame is pinned.
  Page* NewPage(PageId* page_id);

  /// Drops one pin; `dirty` accumulates (a false unpin never clears a
  /// previous true). A dirty unpin after a logged update passes that
  /// update's LSN as `rec_lsn`, which becomes the frame's recLSN if it
  /// has none. Returns false if the page is not resident.
  bool UnpinPage(PageId page_id, bool dirty, Lsn rec_lsn = kNoLsn);

  /// Flushes every resident dirty page (page-id order).
  void FlushAll();

  /// Flush-behind: writes back every frame whose recLSN is at or below
  /// `floor_lsn`, in page-id order.
  void FlushBehind(Lsn floor_lsn);

  /// The dirty-page table: (page, recLSN) of every resident frame with
  /// a recLSN, ascending by page id (checkpoint support).
  std::vector<std::pair<PageId, Lsn>> DirtyPageTable() const;

  /// Sets a resident frame's recLSN (restart: a page dirty since before
  /// the crash keeps the recLSN analysis found for it).
  void SetRecLsn(PageId page_id, Lsn rec_lsn);

  /// Crash: drop every frame without flushing. Pin counts reset.
  void Reset();

  size_t num_frames() const { return frames_.size(); }
  size_t resident_pages() const { return page_table_.size(); }

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t dirty_evictions = 0;
    uint64_t flushes = 0;
    uint64_t pin_failures = 0;  ///< fetch/new with all frames pinned
  };
  const Stats& stats() const { return stats_; }

  /// Pin count of a resident page, -1 if not resident (tests).
  int PinCountOf(PageId page_id) const;

 private:
  struct Frame {
    std::unique_ptr<Page> page;
    PageId page_id = kInvalidPageId;
    int pin_count = 0;
    bool dirty = false;
    Lsn rec_lsn = kNoLsn;  ///< kNoLsn: clean, or dirty only by unlogged writes
  };

  /// Finds a frame for a new resident page: free list first, then the
  /// replacer; writes back a dirty victim. Returns SIZE_MAX if all pinned.
  size_t AcquireFrame();

  /// Frame holding `page_id`, or SIZE_MAX if it is not resident.
  size_t FrameOf(PageId page_id) const;

  /// Makes frame `f` hold `page_id`, pinned once, with `dirty` set.
  void Install(PageId page_id, size_t f, bool dirty);

  /// Writes the frame's page to disk and marks it clean.
  void WriteBack(Frame& fr);

  DiskManager* disk_;
  std::vector<Frame> frames_;
  std::vector<size_t> free_list_;  ///< stack of unused frame indices
  /// Resident pages as (page, frame), sorted by page id: at most one
  /// entry per frame, and any page id (a forged one included) fits.
  std::vector<std::pair<PageId, size_t>> page_table_;
  LruKReplacer replacer_;
  Stats stats_;
};

}  // namespace rainbow

#endif  // RAINBOW_STORAGE_BUFFER_POOL_H_
