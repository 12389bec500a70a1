#ifndef RAINBOW_STORAGE_B_PLUS_TREE_H_
#define RAINBOW_STORAGE_B_PLUS_TREE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/types.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace rainbow {

/// One committed copy of a database item at a site.
struct ItemCopy {
  Value value = 0;
  Version version = 0;

  bool operator==(const ItemCopy&) const = default;
};

/// B+ tree primary index over ItemId -> ItemCopy {value, version},
/// stored in fixed-size pages through the buffer pool. Leaves form a
/// singly linked sibling chain for range scans. Inserts split bottom-up;
/// deletes are not needed (the item population is fixed at configuration
/// time), so nodes never merge.
///
/// The tree's skeleton metadata (root page id, leftmost leaf, entry
/// count) lives in this object, which — like the Wal and DiskManager —
/// survives Site::Crash(); only the buffer pool's frames are volatile.
/// Page content reflects whatever reached disk plus whatever the
/// restart pass redoes from the log.
///
/// Page layout (all little-endian via memcpy):
///   [0..8)   page LSN
///   [8..12)  page CRC32 (owned by the disk layer; see page.h)
///   [12]     node type (1 = leaf, 2 = internal)
///   [16..20) entry count
///   [20..24) leaf: next-leaf page id; internal: leftmost child page id
///   [24..)   entries — leaf: (item u32, value i64, version u64) = 20 B;
///            internal: (separator key u32, child page id u32) = 8 B
///
/// Read paths are hardened against corrupt page bytes (reachable only
/// when page checksums are disabled and a storage fault lands): entry
/// counts are clamped to capacity and descents/leaf-chain walks are
/// hop-bounded, so garbage degrades to wrong answers the verification
/// oracle can see — never out-of-bounds access or an unbounded loop.
class BPlusTree {
 public:
  BPlusTree(BufferPool* pool, DiskManager* disk);

  /// Inserts or overwrites (configuration-time load; stamps no LSN).
  void Put(ItemId item, Value value, Version version);

  std::optional<ItemCopy> Get(ItemId item) const;
  bool Has(ItemId item) const { return Get(item).has_value(); }

  /// Overwrites an existing item in place, stamps the leaf's page LSN
  /// and unpins it dirty with `lsn` as its recLSN. Returns the written
  /// leaf, or nullopt if the item is not in the tree.
  std::optional<PageId> Update(ItemId item, Value value, Version version,
                               Lsn lsn) {
    return Write(item, value, version, lsn, /*redo=*/false);
  }

  /// Redo-path update: applies only when the leaf's page LSN < `lsn`
  /// (the ARIES redo test). Returns the written leaf, or nullopt if the
  /// page was not written.
  std::optional<PageId> RedoUpdate(ItemId item, Value value, Version version,
                                   Lsn lsn) {
    return Write(item, value, version, lsn, /*redo=*/true);
  }

  /// The leaf page currently holding `item` (for logging page ids).
  std::optional<PageId> LeafOf(ItemId item) const;

  /// Calls `visit` on up to `limit` entries with item >= `from`,
  /// ascending, walking the leaf chain.
  void ForEach(ItemId from, size_t limit,
               const std::function<void(ItemId, const ItemCopy&)>& visit) const;

  /// Appends entries with item >= `from`, ascending, until `out` holds
  /// `limit` entries or the leaf chain ends.
  void Scan(ItemId from, size_t limit,
            std::vector<std::pair<ItemId, ItemCopy>>& out) const;

  size_t size() const { return size_; }
  PageId root_page_id() const { return root_; }
  uint32_t height() const;

  uint32_t leaf_capacity() const { return leaf_cap_; }

 private:
  static constexpr uint32_t kOffType = kPageHeaderLsnBytes;
  static constexpr uint32_t kOffCount = 16;
  static constexpr uint32_t kOffLink = 20;
  static constexpr uint32_t kOffEntries = 24;
  static constexpr uint32_t kLeafEntryBytes = 20;
  static constexpr uint32_t kInternalEntryBytes = 8;
  static constexpr uint8_t kLeaf = 1;
  static constexpr uint8_t kInternal = 2;

  struct SplitResult {
    ItemId key = kInvalidItem;  ///< first key of the new right sibling
    PageId page = kInvalidPageId;
  };

  /// Recursive insert; returns the split to install in the parent, if
  /// the node overflowed.
  std::optional<SplitResult> InsertRec(PageId page_id, ItemId item,
                                       Value value, Version version,
                                       bool* inserted_new);

  std::optional<SplitResult> LeafInsert(Page* page, PageId page_id,
                                        ItemId item, Value value,
                                        Version version, bool* inserted_new);

  /// Update and RedoUpdate: `redo` writes only over an older page LSN.
  std::optional<PageId> Write(ItemId item, Value value, Version version,
                              Lsn lsn, bool redo);

  /// Descends to the leaf that would hold `item`; returns its page id.
  PageId FindLeaf(ItemId item) const;

  /// Child of an internal node for `item`.
  static PageId ChildFor(const Page& page, ItemId item);

  static uint32_t Count(const Page& p) { return p.ReadU32(kOffCount); }
  static void SetCount(Page& p, uint32_t c) { p.WriteU32(kOffCount, c); }

  BufferPool* pool_;
  DiskManager* disk_;
  uint32_t leaf_cap_;
  uint32_t internal_cap_;
  // Durable skeleton (survives crash with the disk image).
  PageId root_ = kInvalidPageId;
  PageId leftmost_leaf_ = kInvalidPageId;
  size_t size_ = 0;
};

}  // namespace rainbow

#endif  // RAINBOW_STORAGE_B_PLUS_TREE_H_
