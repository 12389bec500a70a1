#include "storage/b_plus_tree.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace rainbow {

namespace {

struct LeafEntry {
  ItemId item;
  Value value;
  Version version;
};

}  // namespace

BPlusTree::BPlusTree(BufferPool* pool, DiskManager* disk)
    : pool_(pool), disk_(disk) {
  uint32_t page_size = disk_->page_size();
  assert(page_size >= kOffEntries + 2 * kLeafEntryBytes);
  leaf_cap_ = (page_size - kOffEntries) / kLeafEntryBytes;
  internal_cap_ = (page_size - kOffEntries) / kInternalEntryBytes;
}

// --- entry accessors -------------------------------------------------------

static uint32_t LeafOff(uint32_t i) { return 24 + i * 20; }
static uint32_t InternalOff(uint32_t i) { return 24 + i * 8; }

static LeafEntry ReadLeaf(const Page& p, uint32_t i) {
  LeafEntry e;
  e.item = p.ReadU32(LeafOff(i));
  e.value = p.ReadI64(LeafOff(i) + 4);
  e.version = p.ReadU64(LeafOff(i) + 12);
  return e;
}

static void WriteLeaf(Page& p, uint32_t i, const LeafEntry& e) {
  p.WriteU32(LeafOff(i), e.item);
  p.WriteI64(LeafOff(i) + 4, e.value);
  p.WriteU64(LeafOff(i) + 12, e.version);
}

/// Index of the first leaf entry with item >= `item`.
static uint32_t LeafLowerBound(const Page& p, uint32_t count, ItemId item) {
  uint32_t lo = 0, hi = count;
  while (lo < hi) {
    uint32_t mid = (lo + hi) / 2;
    if (p.ReadU32(LeafOff(mid)) < item) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

PageId BPlusTree::ChildFor(const Page& page, ItemId item) {
  // Clamp to physical capacity: a corrupt count (reachable only with
  // page checksums off) must not index past the page.
  uint32_t count = std::min(
      Count(page), (page.size() - kOffEntries) / kInternalEntryBytes);
  // Entries sorted by separator key; child = last entry with key <= item,
  // or the leftmost child when item precedes every separator.
  uint32_t lo = 0, hi = count;
  while (lo < hi) {
    uint32_t mid = (lo + hi) / 2;
    if (page.ReadU32(InternalOff(mid)) <= item) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == 0) return page.ReadU32(kOffLink);
  return page.ReadU32(InternalOff(lo - 1) + 4);
}

PageId BPlusTree::FindLeaf(ItemId item) const {
  PageId cur = root_;
  // Hop bound: a healthy descent visits at most `height` pages; corrupt
  // link bytes (checksums off) could otherwise cycle forever.
  uint32_t hops = disk_->allocated_pages() + 2;
  while (cur != kInvalidPageId && hops-- > 0) {
    Page* page = pool_->FetchPage(cur);
    if (page == nullptr) return kInvalidPageId;  // pool exhausted
    if (page->ReadU8(kOffType) == kLeaf) {
      pool_->UnpinPage(cur, false);
      return cur;
    }
    PageId next = ChildFor(*page, item);
    pool_->UnpinPage(cur, false);
    cur = next;
  }
  return kInvalidPageId;
}

// --- reads -----------------------------------------------------------------

std::optional<ItemCopy> BPlusTree::Get(ItemId item) const {
  PageId leaf = FindLeaf(item);
  if (leaf == kInvalidPageId) return std::nullopt;
  Page* page = pool_->FetchPage(leaf);
  if (page == nullptr) return std::nullopt;
  uint32_t count = std::min(Count(*page), leaf_cap_);
  uint32_t i = LeafLowerBound(*page, count, item);
  std::optional<ItemCopy> out;
  if (i < count && page->ReadU32(LeafOff(i)) == item) {
    LeafEntry e = ReadLeaf(*page, i);
    out = ItemCopy{e.value, e.version};
  }
  pool_->UnpinPage(leaf, false);
  return out;
}

std::optional<PageId> BPlusTree::LeafOf(ItemId item) const {
  PageId leaf = FindLeaf(item);
  if (leaf == kInvalidPageId) return std::nullopt;
  return leaf;
}

void BPlusTree::ForEach(
    ItemId from, size_t limit,
    const std::function<void(ItemId, const ItemCopy&)>& visit) const {
  PageId cur = FindLeaf(from);
  if (cur == kInvalidPageId) cur = leftmost_leaf_;
  // Leaf-chain hop bound, for the same reason as FindLeaf's.
  uint32_t hops = disk_->allocated_pages() + 1;
  size_t visited = 0;
  while (cur != kInvalidPageId && visited < limit && hops-- > 0) {
    Page* page = pool_->FetchPage(cur);
    if (page == nullptr) return;
    uint32_t count = std::min(Count(*page), leaf_cap_);
    for (uint32_t i = LeafLowerBound(*page, count, from);
         i < count && visited < limit; ++i, ++visited) {
      LeafEntry e = ReadLeaf(*page, i);
      visit(e.item, ItemCopy{e.value, e.version});
    }
    PageId next = page->ReadU32(kOffLink);
    pool_->UnpinPage(cur, false);
    cur = next;
  }
}

void BPlusTree::Scan(ItemId from, size_t limit,
                     std::vector<std::pair<ItemId, ItemCopy>>& out) const {
  ForEach(from, limit > out.size() ? limit - out.size() : 0,
          [&out](ItemId item, const ItemCopy& copy) {
            out.emplace_back(item, copy);
          });
}

uint32_t BPlusTree::height() const {
  uint32_t h = 0;
  PageId cur = root_;
  uint32_t hops = disk_->allocated_pages() + 2;
  while (cur != kInvalidPageId && hops-- > 0) {
    Page* page = pool_->FetchPage(cur);
    if (page == nullptr) break;
    ++h;
    bool leaf = page->ReadU8(kOffType) == kLeaf;
    PageId next = leaf ? kInvalidPageId : page->ReadU32(kOffLink);
    pool_->UnpinPage(cur, false);
    cur = next;
  }
  return h;
}

// --- updates ---------------------------------------------------------------

std::optional<PageId> BPlusTree::Write(ItemId item, Value value,
                                       Version version, Lsn lsn, bool redo) {
  PageId leaf = FindLeaf(item);
  if (leaf == kInvalidPageId) return std::nullopt;
  Page* page = pool_->FetchPage(leaf);
  if (page == nullptr) return std::nullopt;
  bool written = false;
  if (!redo || page->page_lsn() < lsn) {
    uint32_t count = std::min(Count(*page), leaf_cap_);
    uint32_t i = LeafLowerBound(*page, count, item);
    if (i < count && page->ReadU32(LeafOff(i)) == item) {
      WriteLeaf(*page, i, LeafEntry{item, value, version});
      if (lsn > page->page_lsn()) page->set_page_lsn(lsn);
      written = true;
    }
  }
  pool_->UnpinPage(leaf, written, lsn);
  if (!written) return std::nullopt;
  return leaf;
}

// --- inserts ---------------------------------------------------------------

void BPlusTree::Put(ItemId item, Value value, Version version) {
  if (root_ == kInvalidPageId) {
    PageId id;
    Page* page = pool_->NewPage(&id);
    assert(page != nullptr);
    page->WriteU8(kOffType, kLeaf);
    SetCount(*page, 1);
    page->WriteU32(kOffLink, kInvalidPageId);
    WriteLeaf(*page, 0, LeafEntry{item, value, version});
    pool_->UnpinPage(id, true);
    root_ = id;
    leftmost_leaf_ = id;
    size_ = 1;
    return;
  }
  bool inserted_new = false;
  auto split = InsertRec(root_, item, value, version, &inserted_new);
  if (inserted_new) ++size_;
  if (split.has_value()) {
    // Root split: new internal root with the old root as leftmost child.
    PageId id;
    Page* page = pool_->NewPage(&id);
    assert(page != nullptr);
    page->WriteU8(kOffType, kInternal);
    SetCount(*page, 1);
    page->WriteU32(kOffLink, root_);
    page->WriteU32(InternalOff(0), split->key);
    page->WriteU32(InternalOff(0) + 4, split->page);
    pool_->UnpinPage(id, true);
    root_ = id;
  }
}

std::optional<BPlusTree::SplitResult> BPlusTree::LeafInsert(
    Page* page, PageId page_id, ItemId item, Value value, Version version,
    bool* inserted_new) {
  uint32_t count = std::min(Count(*page), leaf_cap_);
  uint32_t i = LeafLowerBound(*page, count, item);
  if (i < count && page->ReadU32(LeafOff(i)) == item) {
    // Overwrite (configuration-time reload).
    WriteLeaf(*page, i, LeafEntry{item, value, version});
    return std::nullopt;
  }
  *inserted_new = true;
  if (count < leaf_cap_) {
    std::memmove(page->data() + LeafOff(i + 1), page->data() + LeafOff(i),
                 static_cast<size_t>(count - i) * kLeafEntryBytes);
    WriteLeaf(*page, i, LeafEntry{item, value, version});
    SetCount(*page, count + 1);
    return std::nullopt;
  }
  // Full leaf: split into (left = lower half, right = upper half), then
  // place the new entry on the side its key belongs to.
  PageId right_id;
  Page* right = pool_->NewPage(&right_id);
  assert(right != nullptr);
  right->WriteU8(kOffType, kLeaf);
  uint32_t keep = count / 2;
  uint32_t moved = count - keep;
  std::memcpy(right->data() + LeafOff(0), page->data() + LeafOff(keep),
              static_cast<size_t>(moved) * kLeafEntryBytes);
  SetCount(*right, moved);
  SetCount(*page, keep);
  right->WriteU32(kOffLink, page->ReadU32(kOffLink));
  page->WriteU32(kOffLink, right_id);
  // Split carries existing effects: the new page inherits the source
  // page's LSN so redo gating stays sound for the moved entries.
  right->set_page_lsn(page->page_lsn());
  ItemId right_first = right->ReadU32(LeafOff(0));
  Page* target = item < right_first ? page : right;
  PageId target_id = item < right_first ? page_id : right_id;
  uint32_t tcount = Count(*target);
  uint32_t ti = LeafLowerBound(*target, tcount, item);
  std::memmove(target->data() + LeafOff(ti + 1), target->data() + LeafOff(ti),
               static_cast<size_t>(tcount - ti) * kLeafEntryBytes);
  WriteLeaf(*target, ti, LeafEntry{item, value, version});
  SetCount(*target, tcount + 1);
  (void)target_id;
  pool_->UnpinPage(right_id, true);
  return SplitResult{right_first, right_id};
}

std::optional<BPlusTree::SplitResult> BPlusTree::InsertRec(
    PageId page_id, ItemId item, Value value, Version version,
    bool* inserted_new) {
  Page* page = pool_->FetchPage(page_id);
  assert(page != nullptr);
  if (page->ReadU8(kOffType) == kLeaf) {
    auto split = LeafInsert(page, page_id, item, value, version, inserted_new);
    pool_->UnpinPage(page_id, true);
    return split;
  }
  PageId child = ChildFor(*page, item);
  // Unpin across the recursion (child splits may fetch/allocate pages);
  // re-fetch afterwards to install a promoted separator.
  pool_->UnpinPage(page_id, false);
  auto child_split = InsertRec(child, item, value, version, inserted_new);
  if (!child_split.has_value()) return std::nullopt;

  page = pool_->FetchPage(page_id);
  assert(page != nullptr);
  uint32_t count = std::min(Count(*page), internal_cap_);
  // Position of the new separator among the sorted keys.
  uint32_t lo = 0, hi = count;
  while (lo < hi) {
    uint32_t mid = (lo + hi) / 2;
    if (page->ReadU32(InternalOff(mid)) < child_split->key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (count < internal_cap_) {
    std::memmove(page->data() + InternalOff(lo + 1),
                 page->data() + InternalOff(lo),
                 static_cast<size_t>(count - lo) * kInternalEntryBytes);
    page->WriteU32(InternalOff(lo), child_split->key);
    page->WriteU32(InternalOff(lo) + 4, child_split->page);
    SetCount(*page, count + 1);
    pool_->UnpinPage(page_id, true);
    return std::nullopt;
  }
  // Internal split: keep the lower half, move the upper half right; the
  // middle separator moves up (B+ internal nodes do not duplicate it).
  PageId right_id;
  Page* right = pool_->NewPage(&right_id);
  assert(right != nullptr);
  right->WriteU8(kOffType, kInternal);
  uint32_t keep = count / 2;          // entries kept on the left
  ItemId up_key = page->ReadU32(InternalOff(keep));
  PageId up_child = page->ReadU32(InternalOff(keep) + 4);
  uint32_t moved = count - keep - 1;  // entries after the promoted one
  right->WriteU32(kOffLink, up_child);
  std::memcpy(right->data() + InternalOff(0),
              page->data() + InternalOff(keep + 1),
              static_cast<size_t>(moved) * kInternalEntryBytes);
  SetCount(*right, moved);
  SetCount(*page, keep);
  // Insert the pending separator into the proper half.
  Page* target = child_split->key < up_key ? page : right;
  PageId target_id = child_split->key < up_key ? page_id : right_id;
  uint32_t tcount = Count(*target);
  uint32_t tlo = 0, thi = tcount;
  while (tlo < thi) {
    uint32_t mid = (tlo + thi) / 2;
    if (target->ReadU32(InternalOff(mid)) < child_split->key) {
      tlo = mid + 1;
    } else {
      thi = mid;
    }
  }
  std::memmove(target->data() + InternalOff(tlo + 1),
               target->data() + InternalOff(tlo),
               static_cast<size_t>(tcount - tlo) * kInternalEntryBytes);
  target->WriteU32(InternalOff(tlo), child_split->key);
  target->WriteU32(InternalOff(tlo) + 4, child_split->page);
  SetCount(*target, tcount + 1);
  (void)target_id;
  pool_->UnpinPage(right_id, true);
  pool_->UnpinPage(page_id, true);
  return SplitResult{up_key, right_id};
}

}  // namespace rainbow
