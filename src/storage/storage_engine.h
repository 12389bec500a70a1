#ifndef RAINBOW_STORAGE_STORAGE_ENGINE_H_
#define RAINBOW_STORAGE_STORAGE_ENGINE_H_

#include <functional>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "storage/b_plus_tree.h"
#include "storage/buffer_pool.h"
#include "storage/wal.h"

namespace rainbow {

/// High bit of a Version: marks a tentative (prewrite-time) after-image
/// version in the WAL. Pages only ever hold a tentative version while
/// the restart pass is repeating a loser's history; the undo pass
/// removes them all before the site comes back up. Coordinator-assigned
/// versions are commit timestamps and never reach this bit.
inline constexpr Version kTentativeBit = 1ull << 63;

/// What one storage restart (analysis -> redo -> undo) did.
struct RestartSummary {
  size_t analyzed_txns = 0;  ///< storage txns alive in the log at crash
  size_t in_doubt = 0;       ///< of those, prepared-undecided (kept pending)
  size_t losers = 0;         ///< of those, rolled back by the undo pass
  size_t redo_applied = 0;   ///< page writes performed by the redo pass
  size_t redo_skipped = 0;   ///< redo records gated out (page LSN / guard)
  size_t undo_clrs = 0;      ///< compensation records appended by undo
  size_t tentative_leaks = 0;  ///< post-restart tentative versions (must be 0)
  size_t log_scanned = 0;    ///< records the analysis pass visited (bounded
                             ///< by the last checkpoint, not the log length)
  Lsn redo_start = kNoLsn;   ///< first LSN the redo pass considered
  size_t pages_quarantined = 0;  ///< corrupt primaries healed from the
                                 ///< journal while restart read pages
};

/// Construction knobs for a PageStore (mirrors the config's storage
/// block; Site fills one in from its ProtocolConfig).
struct PageStoreOptions {
  uint32_t page_size = 4096;
  size_t pool_pages = 64;
  size_t lru_k = 2;
  /// Take a fuzzy checkpoint whenever this many LSNs accumulated since
  /// the last one (checked at storage-txn commit/abort boundaries);
  /// 0 disables automatic checkpoints.
  uint64_t checkpoint_interval = 0;
  /// Stamp/verify per-page CRC32 and keep the doublewrite journal.
  bool page_checksums = true;
  /// Seed for the disk fault injector's private Rng stream.
  uint64_t fault_seed = 1;
};

/// The committed database at one Rainbow site: a B+ tree over a buffer
/// pool, sharing the site's WAL for ARIES-style physiological logging.
/// Apply/AdoptIfNewer ignore stale versions (version <= stored), which
/// keeps re-application idempotent.
///
/// The engine object itself (disk image, tree skeleton) survives
/// Site::Crash(); OnCrash() wipes only the buffer pool and the
/// pending-transaction table, and Restart() replays the log.
class PageStore {
 public:
  explicit PageStore(Wal* wal, PageStoreOptions options = {});

  /// Creates the copy of `item` at `initial`, version 0 (configuration
  /// time; reloading an existing item resets it).
  void Load(ItemId item, Value initial);

  bool Has(ItemId item) const { return tree_.Has(item); }
  Result<ItemCopy> Get(ItemId item) const;

  /// Installs a committed write (stale versions ignored; returns true if
  /// applied). A valid `txn` ties the write into that storage
  /// transaction's log chain; an invalid one logs a standalone update
  /// (prepared-record redo, refresh adoption).
  bool Apply(ItemId item, Value value, Version version, TxnId txn = TxnId{});

  /// Adopts a newer copy during recovery refresh (standalone write).
  bool AdoptIfNewer(ItemId item, Value value, Version version);

  size_t size() const { return tree_.size(); }

  /// Calls `visit` on every committed copy, item order, walking the
  /// tree in place (MVTO reseed, recovery refresh).
  void ForEach(
      const std::function<void(ItemId, const ItemCopy&)>& visit) const {
    tree_.ForEach(0, tree_.size(), visit);
  }

  /// Full committed contents as a map (tests compare it to a shadow).
  std::map<ItemId, ItemCopy> Snapshot() const {
    std::map<ItemId, ItemCopy> out;
    ForEach([&out](ItemId item, const ItemCopy& c) { out.emplace(item, c); });
    return out;
  }

  /// Up to `limit` committed copies with item >= `from`, ascending.
  void Range(ItemId from, size_t limit,
             std::vector<std::pair<ItemId, ItemCopy>>& out) const;

  // --- ARIES storage-transaction hooks ---

  /// Called when a prewrite is granted: force-logs the intent (begin +
  /// tentative update with the committed before-image). No page write.
  void LogPrewrite(TxnId txn, ItemId item, Value value);

  /// Closes a storage txn whose writes were all applied (commit record).
  void CommitStorageTxn(TxnId txn);

  /// Rolls a storage txn back: abort record, one CLR per pending
  /// update, end record. Runtime pages never hold tentative data, so
  /// the CLRs' guarded page writes are no-ops outside restart.
  void AbortStorageTxn(TxnId txn);

  /// Models the crash: volatile state (buffer pool frames, pending txn
  /// table) is dropped; disk image and log survive.
  void OnCrash();

  /// ARIES restart pass: analysis -> redo -> undo against the shared
  /// site WAL, on the empty pool OnCrash() leaves. Unended storage txns
  /// that the protocol log shows as prepared-undecided stay pending (in
  /// doubt); the rest are losers and are rolled back with CLRs.
  RestartSummary Restart();

  /// Writes every dirty page back (graceful-start checkpointing).
  void FlushAll() { pool_.FlushAll(); }

  /// Fuzzy checkpoint: kCheckpointBegin, then kCheckpointEnd carrying
  /// the ATT and dirty-page table, then the WAL's master pointer moves
  /// to the begin record. Returns the begin LSN. The two halves are
  /// also exposed separately so crash tests can die between them.
  Lsn Checkpoint();
  Lsn BeginCheckpoint();
  void EndCheckpoint(Lsn begin_lsn);

  const BufferPool& pool() const { return pool_; }
  const DiskManager& disk() const { return disk_; }
  /// Mutable disk access for fault hooks (armed faults, write limits,
  /// byte flips).
  DiskManager& mutable_disk() { return disk_; }
  const BPlusTree& tree() const { return tree_; }
  const PageStoreOptions& options() const { return opts_; }
  /// Storage txns with logged-but-undecided updates (tests).
  size_t pending_txns() const { return att_.size(); }

 private:
  /// Ensures `txn` has a storage-txn entry (logging kStoreBegin on the
  /// first touch) and returns its chain tail.
  Lsn ChainFor(TxnId txn);

  /// Takes a checkpoint if the cadence knob says one is due.
  void MaybeCheckpoint();

  /// Applies a CLR's restore image iff the page still holds exactly the
  /// image the CLR compensates. Returns the page written, if any.
  std::optional<PageId> ApplyClrGuarded(const WalRecord& rec, Lsn lsn);

  /// LSNs of `txn`'s not-yet-compensated updates, walking the backward
  /// chain from `last` and skipping through CLRs' undo_next_lsn.
  std::vector<Lsn> PendingUpdates(Lsn last) const;

  /// Earliest LSN reachable from chain tail `last` (normally the
  /// transaction's kStoreBegin) — the record undo could still need, so
  /// head truncation must not pass it.
  Lsn ChainFloor(Lsn last) const;

  Wal* wal_;
  PageStoreOptions opts_;
  DiskManager disk_;
  BufferPool pool_;
  BPlusTree tree_;

  /// Active storage-transaction table: chain tail per open txn. (The
  /// dirty-page table is the pool's: each frame carries its recLSN.)
  std::map<TxnId, Lsn> att_;
};

/// The name bench/e2e spells for a site's store.
using StorageEngine = PageStore;

}  // namespace rainbow

#endif  // RAINBOW_STORAGE_STORAGE_ENGINE_H_
