#include "storage/buffer_pool.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/crc32.h"

namespace rainbow {

const char* PageReadStatusName(PageReadStatus status) {
  switch (status) {
    case PageReadStatus::kOk:
      return "ok";
    case PageReadStatus::kNeverWritten:
      return "never-written";
    case PageReadStatus::kRecovered:
      return "recovered";
    case PageReadStatus::kCorrupt:
      return "corrupt";
  }
  return "?";
}

const char* StorageFaultKindName(StorageFaultKind kind) {
  switch (kind) {
    case StorageFaultKind::kTornWrite:
      return "torn-write";
    case StorageFaultKind::kShortWrite:
      return "short-write";
    case StorageFaultKind::kLostWrite:
      return "lost-write";
    case StorageFaultKind::kReadBitFlip:
      return "read-bit-flip";
  }
  return "?";
}

namespace {

// CRC over everything except the CRC field itself, chained.
uint32_t PageCrc(const std::vector<uint8_t>& bytes) {
  uint32_t crc = Crc32(bytes.data(), kPageCrcOffset);
  return Crc32(bytes.data() + kPageHeaderLsnBytes,
               bytes.size() - kPageHeaderLsnBytes, crc);
}

// The first page-table entry of `page_id` or of a larger page: (page, 0)
// sorts before any entry of that page and after every smaller one.
template <typename Table>
auto LowerBound(Table& table, PageId page_id) {
  return std::lower_bound(table.begin(), table.end(),
                          std::pair<PageId, size_t>(page_id, 0));
}

}  // namespace

void DiskManager::Stamp(const Page& in, std::vector<uint8_t>& out) const {
  out = in.bytes();
  uint32_t crc = checksums_ ? PageCrc(out) : 0;
  std::memcpy(out.data() + kPageCrcOffset, &crc, sizeof(crc));
}

bool DiskManager::Verify(const std::vector<uint8_t>& bytes) const {
  if (bytes.size() != page_size_ || bytes.size() < kPageHeaderLsnBytes) {
    return false;
  }
  uint32_t stored;
  std::memcpy(&stored, bytes.data() + kPageCrcOffset, sizeof(stored));
  return stored == PageCrc(bytes);
}

Lsn DiskManager::LsnOf(const std::vector<uint8_t>& bytes) {
  Lsn lsn;
  std::memcpy(&lsn, bytes.data(), sizeof(lsn));
  return lsn;
}

bool DiskManager::Strikes(StorageFaultKind kind) {
  double p = prob_[static_cast<size_t>(kind)];
  return p > 0.0 && rng_.NextBool(p);
}

void DiskManager::Arm(StorageFaultKind kind, double probability) {
  assert(probability >= 0.0 && probability <= 1.0);
  prob_[static_cast<size_t>(kind)] = probability;
}

void DiskManager::ArmWriteLimit(uint64_t remaining) {
  write_limit_armed_ = true;
  writes_remaining_ = remaining;
}

void DiskManager::DisarmWriteLimit() {
  write_limit_armed_ = false;
  writes_remaining_ = 0;
}

PageReadStatus DiskManager::ReadPage(PageId page_id, Page& out) {
  auto it = slots_.find(page_id);
  Slot* slot = it == slots_.end() ? nullptr : &it->second;
  if (Strikes(StorageFaultKind::kReadBitFlip) && slot != nullptr &&
      !slot->primary.empty()) {
    ++read_flips_;
    uint64_t bit = rng_.NextUint(slot->primary.size() * 8);
    slot->primary[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  }
  ++reads_;
  if (slot == nullptr) {
    std::memset(out.data(), 0, out.size());
    return PageReadStatus::kNeverWritten;
  }
  if (!checksums_) {
    // Defense disabled: the primary bytes are taken on faith and the
    // journal is never consulted — the configuration that lets nemesis
    // demonstrate what torn writes do to an unprotected page file.
    if (slot->primary.empty()) {
      std::memset(out.data(), 0, out.size());
      return PageReadStatus::kNeverWritten;
    }
    assert(slot->primary.size() == out.size());
    std::memcpy(out.data(), slot->primary.data(), out.size());
    return PageReadStatus::kOk;
  }
  bool p_ok = Verify(slot->primary);
  bool j_ok = Verify(slot->journal);
  if (p_ok && (!j_ok || LsnOf(slot->journal) <= LsnOf(slot->primary))) {
    std::memcpy(out.data(), slot->primary.data(), out.size());
    return PageReadStatus::kOk;
  }
  if (j_ok) {
    // The journal supplies the bytes: the primary is corrupt or missing
    // (quarantine-and-rebuild) or stale (a lost write — the journal saw
    // a newer image). Heal the primary so each fault costs one read.
    if (p_ok) {
      ++lost_write_restores_;
    } else {
      ++quarantined_;
    }
    slot->primary = slot->journal;
    std::memcpy(out.data(), slot->journal.data(), out.size());
    return PageReadStatus::kRecovered;
  }
  ++corrupt_reads_;
  std::memset(out.data(), 0, out.size());
  return PageReadStatus::kCorrupt;
}

void DiskManager::WritePage(PageId page_id, const Page& in) {
  if (write_limit_armed_) {
    if (writes_remaining_ == 0) {
      // The machine died: nothing (journal included) persists anymore.
      ++dropped_writes_;
      return;
    }
    --writes_remaining_;
  }
  ++writes_;
  Slot& slot = slots_[page_id];
  // The journal half of the doublewrite always lands intact; per-write
  // faults below corrupt only the primary. (A fault striking both
  // copies of the same write is what the write limit above models.)
  Stamp(in, slot.journal);
  const std::vector<uint8_t>& image = slot.journal;
  std::vector<uint8_t>& primary = slot.primary;
  const size_t half = image.size() / 2;
  if (Strikes(StorageFaultKind::kLostWrite)) {
    ++lost_writes_;
    return;  // primary keeps its previous content (or stays absent)
  }
  if (Strikes(StorageFaultKind::kTornWrite)) {
    ++torn_writes_;
    if (primary.size() != image.size()) {
      primary.assign(image.size(), 0);  // tear over a hole: rest zeros
    }
    std::memcpy(primary.data(), image.data(), half);
    return;
  }
  if (Strikes(StorageFaultKind::kShortWrite)) {
    ++short_writes_;
    primary.assign(image.size(), 0);
    std::memcpy(primary.data(), image.data(), half);
    return;
  }
  primary = image;
}

bool DiskManager::FlipPrimaryByte(PageId page_id, uint32_t offset) {
  auto it = slots_.find(page_id);
  if (it == slots_.end() || offset >= it->second.primary.size()) {
    return false;
  }
  it->second.primary[offset] ^= 0xff;
  return true;
}

BufferPool::BufferPool(DiskManager* disk, size_t num_frames, size_t lru_k)
    : disk_(disk), frames_(num_frames), replacer_(num_frames, lru_k) {
  free_list_.reserve(num_frames);
  // Stack order: frame 0 is handed out first.
  for (size_t i = num_frames; i > 0; --i) free_list_.push_back(i - 1);
}

size_t BufferPool::FrameOf(PageId page_id) const {
  auto it = LowerBound(page_table_, page_id);
  bool resident = it != page_table_.end() && it->first == page_id;
  return resident ? it->second : SIZE_MAX;
}

void BufferPool::WriteBack(Frame& fr) {
  disk_->WritePage(fr.page_id, *fr.page);
  fr.dirty = false;
  fr.rec_lsn = kNoLsn;
}

size_t BufferPool::AcquireFrame() {
  if (!free_list_.empty()) {
    size_t f = free_list_.back();
    free_list_.pop_back();
    if (!frames_[f].page) {
      frames_[f].page = std::make_unique<Page>(disk_->page_size());
    }
    return f;
  }
  std::optional<size_t> victim = replacer_.Evict();
  if (!victim.has_value()) return SIZE_MAX;
  Frame& fr = frames_[*victim];
  ++stats_.evictions;
  if (fr.dirty) {
    ++stats_.dirty_evictions;
    WriteBack(fr);
  }
  auto it = LowerBound(page_table_, fr.page_id);
  assert(it != page_table_.end() && it->first == fr.page_id);
  page_table_.erase(it);
  return *victim;
}

void BufferPool::Install(PageId page_id, size_t f, bool dirty) {
  Frame& fr = frames_[f];
  fr.page_id = page_id;
  fr.pin_count = 1;
  fr.dirty = dirty;
  auto it = LowerBound(page_table_, page_id);
  assert(it == page_table_.end() || it->first != page_id);
  page_table_.insert(it, {page_id, f});
  replacer_.RecordAccess(f);
  replacer_.SetEvictable(f, false);
}

Page* BufferPool::FetchPage(PageId page_id) {
  size_t f = FrameOf(page_id);
  if (f != SIZE_MAX) {
    ++stats_.hits;
    ++frames_[f].pin_count;
    replacer_.RecordAccess(f);
    replacer_.SetEvictable(f, false);
    return frames_[f].page.get();
  }
  ++stats_.misses;
  f = AcquireFrame();
  if (f == SIZE_MAX) {
    ++stats_.pin_failures;
    return nullptr;
  }
  disk_->ReadPage(page_id, *frames_[f].page);
  Install(page_id, f, /*dirty=*/false);
  return frames_[f].page.get();
}

Page* BufferPool::NewPage(PageId* page_id) {
  size_t f = AcquireFrame();
  if (f == SIZE_MAX) {
    ++stats_.pin_failures;
    return nullptr;
  }
  Page* page = frames_[f].page.get();
  std::memset(page->data(), 0, page->size());
  *page_id = disk_->AllocatePage();
  // A new page must reach disk even if never updated.
  Install(*page_id, f, /*dirty=*/true);
  return page;
}

bool BufferPool::UnpinPage(PageId page_id, bool dirty, Lsn rec_lsn) {
  size_t f = FrameOf(page_id);
  if (f == SIZE_MAX) return false;
  Frame& fr = frames_[f];
  if (fr.pin_count <= 0) return false;
  if (dirty) {
    fr.dirty = true;
    if (fr.rec_lsn == kNoLsn) fr.rec_lsn = rec_lsn;
  }
  if (--fr.pin_count == 0) replacer_.SetEvictable(f, true);
  return true;
}

void BufferPool::FlushAll() {
  for (const auto& [page_id, f] : page_table_) {
    if (!frames_[f].dirty) continue;
    WriteBack(frames_[f]);
    ++stats_.flushes;
  }
}

void BufferPool::FlushBehind(Lsn floor_lsn) {
  for (const auto& [page_id, f] : page_table_) {
    Lsn rec_lsn = frames_[f].rec_lsn;
    if (rec_lsn == kNoLsn || rec_lsn > floor_lsn) continue;
    WriteBack(frames_[f]);
    ++stats_.flushes;
  }
}

std::vector<std::pair<PageId, Lsn>> BufferPool::DirtyPageTable() const {
  std::vector<std::pair<PageId, Lsn>> dpt;
  for (const auto& [page_id, f] : page_table_) {
    if (frames_[f].rec_lsn != kNoLsn) {
      dpt.emplace_back(page_id, frames_[f].rec_lsn);
    }
  }
  return dpt;
}

void BufferPool::SetRecLsn(PageId page_id, Lsn rec_lsn) {
  size_t f = FrameOf(page_id);
  if (f != SIZE_MAX) frames_[f].rec_lsn = rec_lsn;
}

void BufferPool::Reset() {
  page_table_.clear();
  free_list_.clear();
  for (size_t i = frames_.size(); i > 0; --i) {
    size_t f = i - 1;
    frames_[f].page_id = kInvalidPageId;
    frames_[f].pin_count = 0;
    frames_[f].dirty = false;
    frames_[f].rec_lsn = kNoLsn;
    replacer_.Remove(f);
    free_list_.push_back(f);
  }
}

int BufferPool::PinCountOf(PageId page_id) const {
  size_t f = FrameOf(page_id);
  return f == SIZE_MAX ? -1 : frames_[f].pin_count;
}

}  // namespace rainbow
