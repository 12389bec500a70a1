#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/rng.h"
#include "storage/storage_engine.h"

namespace rainbow {
namespace {

// --- LRU-K replacer -------------------------------------------------------

TEST(StorageLruKTest, EvictsInfiniteDistanceFirst) {
  LruKReplacer r(/*num_frames=*/4, /*k=*/2);
  // Frames 0 and 1 get two accesses (finite K-distance); 2 and 3 one.
  r.RecordAccess(0);
  r.RecordAccess(1);
  r.RecordAccess(0);
  r.RecordAccess(1);
  r.RecordAccess(2);
  r.RecordAccess(3);
  for (size_t f = 0; f < 4; ++f) r.SetEvictable(f, true);
  // +inf class (fewer than K accesses) goes first, oldest access first.
  EXPECT_EQ(r.Evict(), std::optional<size_t>(2));
  EXPECT_EQ(r.Evict(), std::optional<size_t>(3));
  // Then the largest backward K-distance (frame 0's 2nd-recent access
  // is older than frame 1's).
  EXPECT_EQ(r.Evict(), std::optional<size_t>(0));
  EXPECT_EQ(r.Evict(), std::optional<size_t>(1));
  EXPECT_EQ(r.Evict(), std::nullopt);
}

TEST(StorageLruKTest, PinnedFramesNotEvicted) {
  LruKReplacer r(2, 2);
  r.RecordAccess(0);
  r.RecordAccess(1);
  r.SetEvictable(1, true);
  EXPECT_EQ(r.evictable_count(), 1u);
  EXPECT_EQ(r.Evict(), std::optional<size_t>(1));
  EXPECT_EQ(r.Evict(), std::nullopt);  // frame 0 never marked evictable
}

TEST(StorageLruKTest, RemoveForgetsHistory) {
  LruKReplacer r(2, 2);
  r.RecordAccess(0);
  r.RecordAccess(0);
  r.RecordAccess(1);
  r.SetEvictable(0, true);
  r.SetEvictable(1, true);
  r.Remove(1);
  EXPECT_EQ(r.evictable_count(), 1u);
  EXPECT_EQ(r.Evict(), std::optional<size_t>(0));
}

// --- buffer pool ----------------------------------------------------------

TEST(StorageBufferPoolTest, FetchMissReadsAndHitSkipsDisk) {
  DiskManager disk(64);
  BufferPool pool(&disk, 4, 2);
  PageId id;
  Page* p = pool.NewPage(&id);
  ASSERT_NE(p, nullptr);
  p->WriteU32(20, 0xabcd);
  pool.UnpinPage(id, true);
  pool.FlushAll();
  pool.Reset();

  uint64_t reads_before = disk.reads();
  Page* q = pool.FetchPage(id);
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->ReadU32(20), 0xabcdu);
  EXPECT_EQ(disk.reads(), reads_before + 1);
  pool.UnpinPage(id, false);
  // Second fetch is a hit.
  q = pool.FetchPage(id);
  EXPECT_EQ(disk.reads(), reads_before + 1);
  pool.UnpinPage(id, false);
  EXPECT_GE(pool.stats().hits, 1u);
}

TEST(StorageBufferPoolTest, DirtyVictimFlushedOnEviction) {
  DiskManager disk(64);
  BufferPool pool(&disk, /*num_frames=*/2, 2);
  PageId a, b, c;
  Page* pa = pool.NewPage(&a);
  pa->WriteU32(20, 11);
  pool.UnpinPage(a, true);  // dirty, unpinned -> eviction candidate
  pool.NewPage(&b);
  pool.UnpinPage(b, false);
  // Third page forces an eviction; the dirty victim must reach disk.
  pool.NewPage(&c);
  pool.UnpinPage(c, false);
  EXPECT_GT(pool.stats().evictions, 0u);
  EXPECT_GT(pool.stats().dirty_evictions, 0u);
  Page check(64);
  disk.ReadPage(a, check);
  EXPECT_EQ(check.ReadU32(20), 11u);
}

TEST(StorageBufferPoolTest, AllPinnedFailsFetch) {
  DiskManager disk(64);
  BufferPool pool(&disk, 2, 2);
  PageId a, b, c;
  ASSERT_NE(pool.NewPage(&a), nullptr);
  ASSERT_NE(pool.NewPage(&b), nullptr);
  EXPECT_EQ(pool.NewPage(&c), nullptr);  // both frames pinned
  EXPECT_GT(pool.stats().pin_failures, 0u);
  pool.UnpinPage(a, false);
  EXPECT_NE(pool.NewPage(&c), nullptr);  // freed frame reused
}

TEST(StorageBufferPoolTest, ResetDropsUnflushedWrites) {
  DiskManager disk(64);
  BufferPool pool(&disk, 4, 2);
  PageId id;
  Page* p = pool.NewPage(&id);
  p->WriteU32(20, 7);
  pool.UnpinPage(id, true);
  pool.Reset();  // crash before any flush
  Page check(64);
  disk.ReadPage(id, check);
  EXPECT_EQ(check.ReadU32(20), 0u);  // zero-filled: write never landed
  EXPECT_EQ(pool.resident_pages(), 0u);
}

TEST(StorageBufferPoolTest, UnpinDirtyBitSticks) {
  DiskManager disk(64);
  BufferPool pool(&disk, 4, 2);
  PageId id;
  Page* p = pool.NewPage(&id);
  p->WriteU32(20, 5);
  pool.UnpinPage(id, true);
  // A later clean unpin must not clear the dirty bit.
  pool.FetchPage(id);
  pool.UnpinPage(id, false);
  pool.FlushAll();
  Page check(64);
  disk.ReadPage(id, check);
  EXPECT_EQ(check.ReadU32(20), 5u);
}

// --- page store vs a std::map shadow -------------------------------------

constexpr uint32_t kTestPageSize = 128;

std::unique_ptr<PageStore> MakePageStore(Wal* wal, size_t frames = 16) {
  return std::make_unique<PageStore>(
      wal, PageStoreOptions{.page_size = kTestPageSize, .pool_pages = frames});
}

TEST(StorageEngineTest, MapAndPageAgreeOnApplySequences) {
  Wal wal;
  std::map<ItemId, ItemCopy> shadow;
  auto page = MakePageStore(&wal);
  for (ItemId i = 0; i < 50; ++i) {
    shadow[i] = ItemCopy{static_cast<Value>(i), 0};
    page->Load(i, static_cast<Value>(i));
  }
  // A scripted mix of fresh, duplicate, and stale applies, with the
  // return value each must produce.
  struct Step { ItemId item; Value value; Version version; bool applied; };
  std::vector<Step> steps = {
      {3, 30, 2, true},   {3, 31, 2, false}, {3, 29, 1, false},
      {7, 70, 5, true},   {7, 71, 6, true},  {49, 1, 1, true},
      {0, -4, 3, true},   {0, -4, 3, false}, {25, 8, 9, true},
      {25, 7, 4, false},  {99, 1, 1, false},
  };
  for (const Step& s : steps) {
    EXPECT_EQ(page->Apply(s.item, s.value, s.version), s.applied)
        << "item " << s.item << " v" << s.version;
    if (s.applied) shadow[s.item] = ItemCopy{s.value, s.version};
  }
  EXPECT_EQ(page->Snapshot(), shadow);
  EXPECT_EQ(page->size(), shadow.size());
  for (const auto& [item, copy] : shadow) {
    auto got = page->Get(item);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, copy) << "item " << item;
  }
  EXPECT_FALSE(page->Get(99).ok());
}

TEST(StorageEngineTest, RangeMatchesBetweenEngines) {
  Wal wal;
  std::map<ItemId, ItemCopy> shadow;
  auto page = MakePageStore(&wal);
  for (ItemId i = 0; i < 40; ++i) {
    shadow[i * 3] = ItemCopy{static_cast<Value>(i), 0};
    page->Load(i * 3, static_cast<Value>(i));
  }
  std::vector<std::pair<ItemId, ItemCopy>> got;
  page->Range(10, 7, got);
  // Seven copies from the first item >= 10, ascending: 12, 15, ..., 30.
  ASSERT_EQ(got.size(), 7u);
  auto want = shadow.lower_bound(10);
  EXPECT_EQ(want->first, 12u);
  for (const auto& [item, copy] : got) {
    ASSERT_NE(want, shadow.end());
    EXPECT_EQ(item, want->first);
    EXPECT_EQ(copy, want->second);
    ++want;
  }
}

TEST(StorageEngineTest, AdoptIfNewerParity) {
  Wal wal;
  std::map<ItemId, ItemCopy> shadow{{1, ItemCopy{5, 0}}};
  auto page = MakePageStore(&wal);
  page->Load(1, 5);
  EXPECT_TRUE(page->AdoptIfNewer(1, 50, 3));
  shadow[1] = ItemCopy{50, 3};
  EXPECT_FALSE(page->AdoptIfNewer(1, 40, 2));  // older
  EXPECT_FALSE(page->AdoptIfNewer(9, 1, 1));   // not hosted
  EXPECT_EQ(page->Snapshot(), shadow);
}

// --- page store: ARIES crash / restart ------------------------------------

WalRecord Prepared(TxnId txn) {
  WalRecord r;
  r.kind = WalRecordKind::kPrepared;
  r.txn = txn;
  r.coordinator = txn.home;
  r.participants = {0, 1};
  return r;
}

size_t CountKind(const Wal& wal, WalRecordKind kind) {
  size_t n = 0;
  for (Lsn lsn = wal.base() + 1; lsn <= wal.LastLsn(); ++lsn) {
    if (wal.At(lsn).kind == kind) ++n;
  }
  return n;
}

TEST(StoragePageStoreTest, CommittedWritesSurviveCrashViaRedo) {
  Wal wal;
  auto store = MakePageStore(&wal);
  for (ItemId i = 0; i < 20; ++i) store->Load(i, 0);
  store->FlushAll();  // graceful start: initial image on disk

  TxnId txn{0, 1};
  store->LogPrewrite(txn, 4, 44);
  store->LogPrewrite(txn, 9, 99);
  ASSERT_TRUE(store->Apply(4, 44, 10, txn));
  ASSERT_TRUE(store->Apply(9, 99, 11, txn));
  store->CommitStorageTxn(txn);
  EXPECT_EQ(store->pending_txns(), 0u);

  // Crash without flushing: the committed values exist only in the log.
  store->OnCrash();
  RestartSummary rs = store->Restart();
  EXPECT_EQ(rs.analyzed_txns, 0u);  // txn committed before the crash
  EXPECT_GE(rs.redo_applied, 2u);
  EXPECT_EQ(rs.losers, 0u);
  EXPECT_EQ(rs.tentative_leaks, 0u);
  EXPECT_EQ(store->Get(4)->value, 44);
  EXPECT_EQ(store->Get(4)->version, 10u);
  EXPECT_EQ(store->Get(9)->value, 99);
}

TEST(StoragePageStoreTest, UndecidedLoserRolledBackWithClrs) {
  Wal wal;
  auto store = MakePageStore(&wal);
  for (ItemId i = 0; i < 10; ++i) store->Load(i, 0);
  store->FlushAll();

  // The txn logged prewrites but was neither prepared (no protocol
  // record) nor decided before the crash: a loser.
  TxnId txn{0, 2};
  store->LogPrewrite(txn, 1, 111);
  store->LogPrewrite(txn, 2, 222);
  EXPECT_EQ(store->pending_txns(), 1u);

  store->OnCrash();
  RestartSummary rs = store->Restart();
  EXPECT_EQ(rs.analyzed_txns, 1u);
  EXPECT_EQ(rs.losers, 1u);
  EXPECT_EQ(rs.in_doubt, 0u);
  EXPECT_EQ(rs.undo_clrs, 2u);  // one compensation per prewrite
  EXPECT_EQ(rs.tentative_leaks, 0u);
  EXPECT_EQ(store->pending_txns(), 0u);
  // The pages hold the before-images.
  EXPECT_EQ(store->Get(1)->value, 0);
  EXPECT_EQ(store->Get(1)->version, 0u);
  EXPECT_EQ(store->Get(2)->value, 0);
  // The log closes the loser: abort-path CLRs plus an end record.
  EXPECT_GE(CountKind(wal, WalRecordKind::kStoreClr), 2u);
  EXPECT_GE(CountKind(wal, WalRecordKind::kStoreEnd), 1u);
}

TEST(StoragePageStoreTest, InDoubtTxnStaysPendingAcrossRestart) {
  Wal wal;
  auto store = MakePageStore(&wal);
  for (ItemId i = 0; i < 10; ++i) store->Load(i, 0);
  store->FlushAll();

  TxnId txn{1, 3};
  store->LogPrewrite(txn, 5, 55);
  wal.Append(Prepared(txn));  // force-logged YES vote, no decision

  store->OnCrash();
  RestartSummary rs = store->Restart();
  EXPECT_EQ(rs.analyzed_txns, 1u);
  EXPECT_EQ(rs.in_doubt, 1u);
  EXPECT_EQ(rs.losers, 0u);
  EXPECT_EQ(rs.undo_clrs, 0u);
  EXPECT_EQ(rs.tentative_leaks, 0u);
  EXPECT_EQ(store->pending_txns(), 1u);
  // Tentative data never reached the page.
  EXPECT_EQ(store->Get(5)->value, 0);

  // The decision arrives later through the normal hooks.
  ASSERT_TRUE(store->Apply(5, 55, 9, txn));
  store->CommitStorageTxn(txn);
  EXPECT_EQ(store->pending_txns(), 0u);
  EXPECT_EQ(store->Get(5)->value, 55);
}

TEST(StoragePageStoreTest, InDoubtAbortAfterRestart) {
  Wal wal;
  auto store = MakePageStore(&wal);
  store->Load(5, 7);
  store->FlushAll();
  TxnId txn{1, 4};
  store->LogPrewrite(txn, 5, 55);
  wal.Append(Prepared(txn));
  store->OnCrash();
  store->Restart();
  ASSERT_EQ(store->pending_txns(), 1u);
  store->AbortStorageTxn(txn);
  EXPECT_EQ(store->pending_txns(), 0u);
  EXPECT_EQ(store->Get(5)->value, 7);  // untouched
  EXPECT_GE(CountKind(wal, WalRecordKind::kStoreEnd), 1u);
}

TEST(StoragePageStoreTest, RuntimeAbortIsInertAtRestart) {
  Wal wal;
  auto store = MakePageStore(&wal);
  store->Load(3, 1);
  store->FlushAll();
  TxnId txn{0, 5};
  store->LogPrewrite(txn, 3, 33);
  store->AbortStorageTxn(txn);  // clean runtime abort: CLRs + end
  EXPECT_EQ(store->pending_txns(), 0u);
  EXPECT_EQ(store->Get(3)->value, 1);

  store->OnCrash();
  RestartSummary rs = store->Restart();
  // The txn ended before the crash: not analyzed, nothing undone.
  EXPECT_EQ(rs.analyzed_txns, 0u);
  EXPECT_EQ(rs.undo_clrs, 0u);
  EXPECT_EQ(rs.tentative_leaks, 0u);
  EXPECT_EQ(store->Get(3)->value, 1);
}

TEST(StoragePageStoreTest, LoserUndoPreservesInterleavedCommittedWrite) {
  Wal wal;
  auto store = MakePageStore(&wal);
  store->Load(3, 1);
  store->FlushAll();
  // Loser logs a prewrite against version 0...
  TxnId loser{0, 6};
  store->LogPrewrite(loser, 3, 333);
  // ...then a different committed write lands on the same item (OCC /
  // TSO interleavings allow this: the loser never had the decision).
  TxnId winner{1, 7};
  store->LogPrewrite(winner, 3, 77);
  ASSERT_TRUE(store->Apply(3, 77, 12, winner));
  store->CommitStorageTxn(winner);

  store->OnCrash();
  RestartSummary rs = store->Restart();
  EXPECT_EQ(rs.losers, 1u);
  EXPECT_EQ(rs.tentative_leaks, 0u);
  // The loser's CLR is version-guarded: it must not clobber the
  // committed value the winner installed.
  EXPECT_EQ(store->Get(3)->value, 77);
  EXPECT_EQ(store->Get(3)->version, 12u);
}

TEST(StoragePageStoreTest, DoubleRestartIsIdempotent) {
  Wal wal;
  auto store = MakePageStore(&wal);
  for (ItemId i = 0; i < 10; ++i) store->Load(i, 0);
  store->FlushAll();
  TxnId committed{0, 8}, loser{0, 9};
  store->LogPrewrite(committed, 1, 11);
  ASSERT_TRUE(store->Apply(1, 11, 5, committed));
  store->CommitStorageTxn(committed);
  store->LogPrewrite(loser, 2, 22);

  store->OnCrash();
  RestartSummary first = store->Restart();
  EXPECT_EQ(first.losers, 1u);
  auto snap = store->Snapshot();

  // Crash again immediately: the second restart replays the extended
  // log (now containing the undo CLRs) to the identical state.
  store->OnCrash();
  RestartSummary second = store->Restart();
  EXPECT_EQ(second.losers, 0u);  // the first restart ended the loser
  EXPECT_EQ(second.undo_clrs, 0u);
  EXPECT_EQ(second.tentative_leaks, 0u);
  EXPECT_EQ(store->Snapshot(), snap);
  EXPECT_EQ(store->Get(1)->value, 11);
  EXPECT_EQ(store->Get(2)->value, 0);
}

TEST(StoragePageStoreTest, RestartFromColdDiskReplaysEverything) {
  // No flush at all: the disk image is the post-load state only if
  // FlushAll ran; here even loads were flushed, but every later write
  // exists solely in the log — the honest no-force worst case.
  Wal wal;
  auto store = MakePageStore(&wal, /*frames=*/8);
  for (ItemId i = 0; i < 64; ++i) store->Load(i, 0);
  store->FlushAll();
  Version v = 1;
  for (int round = 0; round < 3; ++round) {
    for (ItemId i = 0; i < 64; i += 3) {
      TxnId txn{0, 100 + v};
      store->LogPrewrite(txn, i, static_cast<Value>(i + round));
      ASSERT_TRUE(store->Apply(i, static_cast<Value>(i + round), v, txn));
      store->CommitStorageTxn(txn);
      ++v;
    }
  }
  auto before = store->Snapshot();
  store->OnCrash();
  RestartSummary rs = store->Restart();
  EXPECT_EQ(rs.tentative_leaks, 0u);
  EXPECT_EQ(store->Snapshot(), before);
}

TEST(StoragePageStoreTest, ShadowMapFuzzWithCrashes) {
  // Scripted (deterministic) interleaving of commits, aborts, crashes
  // and restarts against a shadow map of the committed state.
  Wal wal;
  auto store = MakePageStore(&wal, /*frames=*/8);
  std::map<ItemId, ItemCopy> shadow;
  for (ItemId i = 0; i < 32; ++i) {
    store->Load(i, 0);
    shadow[i] = ItemCopy{0, 0};
  }
  store->FlushAll();

  uint64_t seq = 1;
  Version ver = 1;
  uint32_t x = 1;
  for (int step = 0; step < 200; ++step) {
    x = x * 1664525 + 1013904223;  // LCG: reproducible op script
    ItemId item = (x >> 8) % 32;
    TxnId txn{0, seq++};
    Value value = static_cast<Value>(x % 1000);
    switch ((x >> 3) % 4) {
      case 0:    // prewrite + commit
      case 1: {
        store->LogPrewrite(txn, item, value);
        ASSERT_TRUE(store->Apply(item, value, ver, txn));
        store->CommitStorageTxn(txn);
        shadow[item] = ItemCopy{value, ver};
        ++ver;
        break;
      }
      case 2: {  // prewrite + abort
        store->LogPrewrite(txn, item, value);
        store->AbortStorageTxn(txn);
        break;
      }
      case 3: {  // prewrite, then crash + restart (loser)
        store->LogPrewrite(txn, item, value);
        store->OnCrash();
        RestartSummary rs = store->Restart();
        ASSERT_EQ(rs.tentative_leaks, 0u);
        break;
      }
    }
    if (step % 37 == 0) store->FlushAll();
  }
  store->OnCrash();
  RestartSummary rs = store->Restart();
  ASSERT_EQ(rs.tentative_leaks, 0u);
  EXPECT_EQ(store->Snapshot(), shadow);
}

// --- disk manager: checksums, doublewrite, fault injection ----------------

Page MakeTestPage(uint32_t size, Lsn lsn, uint8_t fill) {
  Page p(size);
  p.set_page_lsn(lsn);
  for (uint32_t off = kPageHeaderLsnBytes; off < size; ++off) {
    p.WriteU8(off, fill);
  }
  return p;
}

TEST(StorageDiskTest, ReadDistinguishesNeverWrittenFromAllZeroPage) {
  // Regression: a never-written page and a durably written all-zero
  // page both read back as zeros; only the status can tell them apart,
  // and quarantine must not "heal" pages that never existed.
  DiskManager disk(64);
  PageId id = disk.AllocatePage();
  Page out(64);
  EXPECT_EQ(disk.ReadPage(id, out), PageReadStatus::kNeverWritten);
  EXPECT_FALSE(disk.HasPage(id));

  Page zeros(64);  // all-zero content, LSN 0 — legitimately written out
  disk.WritePage(id, zeros);
  EXPECT_TRUE(disk.HasPage(id));
  EXPECT_EQ(disk.ReadPage(id, out), PageReadStatus::kOk);
  EXPECT_EQ(disk.quarantined(), 0u);
  EXPECT_EQ(disk.corrupt_reads(), 0u);
}

TEST(StorageDiskTest, ChecksumQuarantinesCorruptPrimaryAndHealsFromJournal) {
  DiskManager disk(64);
  PageId id = disk.AllocatePage();
  disk.WritePage(id, MakeTestPage(64, 7, 0xab));

  ASSERT_TRUE(disk.FlipPrimaryByte(id, 40));
  Page out(64);
  EXPECT_EQ(disk.ReadPage(id, out), PageReadStatus::kRecovered);
  EXPECT_EQ(disk.quarantined(), 1u);
  EXPECT_EQ(out.ReadU8(40), 0xab);  // journal copy, not the corrupt one
  EXPECT_EQ(out.page_lsn(), 7u);

  // The heal rewrote the primary: the next read is a clean hit.
  EXPECT_EQ(disk.ReadPage(id, out), PageReadStatus::kOk);
  EXPECT_EQ(disk.quarantined(), 1u);
}

TEST(StorageDiskTest, ChecksumOffReturnsCorruptBytesUnchecked) {
  // The planted-bug configuration: without checksums the flip reads
  // back as "valid" data — exactly what the nemesis storage hunt
  // demonstrates against --no-page-crc.
  DiskManager disk(64, /*checksums=*/false);
  PageId id = disk.AllocatePage();
  disk.WritePage(id, MakeTestPage(64, 7, 0xab));
  ASSERT_TRUE(disk.FlipPrimaryByte(id, 40));
  Page out(64);
  EXPECT_EQ(disk.ReadPage(id, out), PageReadStatus::kOk);
  EXPECT_EQ(out.ReadU8(40), 0xab ^ 0xff);
  EXPECT_EQ(disk.quarantined(), 0u);
}

TEST(StorageDiskTest, TornAndShortWritesHealFromJournal) {
  for (StorageFaultKind kind :
       {StorageFaultKind::kTornWrite, StorageFaultKind::kShortWrite}) {
    DiskManager disk(64, /*checksums=*/true, /*seed=*/3);
    PageId id = disk.AllocatePage();
    disk.WritePage(id, MakeTestPage(64, 1, 0x11));  // clean baseline

    disk.Arm(kind, 1.0);
    disk.WritePage(id, MakeTestPage(64, 2, 0x22));
    disk.Arm(kind, 0.0);
    EXPECT_EQ(disk.torn_writes() + disk.short_writes(), 1u);

    // The mangled primary fails its CRC; the journal (written first,
    // intact) supplies the new image.
    Page out(64);
    EXPECT_EQ(disk.ReadPage(id, out), PageReadStatus::kRecovered);
    EXPECT_EQ(out.page_lsn(), 2u);
    EXPECT_EQ(out.ReadU8(50), 0x22);
    EXPECT_EQ(disk.quarantined(), 1u);
  }
}

TEST(StorageDiskTest, LostWriteDetectedByJournalLsn) {
  // A lost write leaves a STALE-BUT-VALID primary: its CRC passes, so
  // only the journal's newer page LSN exposes the fsync lie.
  DiskManager disk(64, /*checksums=*/true, /*seed=*/3);
  PageId id = disk.AllocatePage();
  disk.WritePage(id, MakeTestPage(64, 1, 0x11));

  disk.Arm(StorageFaultKind::kLostWrite, 1.0);
  disk.WritePage(id, MakeTestPage(64, 2, 0x22));
  disk.Arm(StorageFaultKind::kLostWrite, 0.0);
  EXPECT_EQ(disk.lost_writes(), 1u);

  Page out(64);
  EXPECT_EQ(disk.ReadPage(id, out), PageReadStatus::kRecovered);
  EXPECT_EQ(out.page_lsn(), 2u);
  EXPECT_EQ(out.ReadU8(50), 0x22);
  EXPECT_EQ(disk.lost_write_restores(), 1u);
}

TEST(StorageDiskTest, ReadBitFlipsAreCaughtWhileChecksummed) {
  DiskManager disk(64, /*checksums=*/true, /*seed=*/9);
  PageId id = disk.AllocatePage();
  disk.WritePage(id, MakeTestPage(64, 5, 0x77));

  disk.Arm(StorageFaultKind::kReadBitFlip, 1.0);
  Page out(64);
  for (int i = 0; i < 8; ++i) {
    PageReadStatus st = disk.ReadPage(id, out);
    EXPECT_TRUE(st == PageReadStatus::kOk || st == PageReadStatus::kRecovered);
    EXPECT_EQ(out.page_lsn(), 5u);
    EXPECT_EQ(out.ReadU8(33), 0x77);  // never surfaces a flipped byte
  }
  EXPECT_EQ(disk.read_flips(), 8u);
  EXPECT_GE(disk.quarantined(), 1u);
}

TEST(StorageDiskTest, WriteLimitModelsMachineDeath) {
  DiskManager disk(64);
  PageId a = disk.AllocatePage();
  PageId b = disk.AllocatePage();
  disk.ArmWriteLimit(1);
  disk.WritePage(a, MakeTestPage(64, 1, 0x11));  // the last write that lands
  disk.WritePage(b, MakeTestPage(64, 2, 0x22));  // dropped — journal included
  EXPECT_EQ(disk.dropped_writes(), 1u);

  Page out(64);
  EXPECT_EQ(disk.ReadPage(a, out), PageReadStatus::kOk);
  EXPECT_EQ(disk.ReadPage(b, out), PageReadStatus::kNeverWritten);

  disk.DisarmWriteLimit();
  disk.WritePage(b, MakeTestPage(64, 3, 0x33));
  EXPECT_EQ(disk.ReadPage(b, out), PageReadStatus::kOk);
}

TEST(StorageDiskTest, FaultStreamIsSeedDeterministic) {
  // Two disks with the same seed inject the identical fault sequence;
  // a different seed diverges. This is what makes nemesis storage
  // schedules replayable.
  auto run = [](uint64_t seed) {
    DiskManager disk(64, true, seed);
    PageId id = disk.AllocatePage();
    disk.Arm(StorageFaultKind::kTornWrite, 0.5);
    std::vector<uint64_t> torn;
    for (int i = 0; i < 32; ++i) {
      disk.WritePage(id, MakeTestPage(64, static_cast<Lsn>(i + 1),
                                      static_cast<uint8_t>(i)));
      torn.push_back(disk.torn_writes());
    }
    return torn;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

// --- page store: fuzzy checkpoints ----------------------------------------

TEST(StoragePageStoreTest, CheckpointBoundsRestartScan) {
  Wal wal;
  PageStoreOptions opts;
  opts.page_size = kTestPageSize;
  opts.pool_pages = 16;
  auto store = std::make_unique<PageStore>(&wal, opts);
  for (ItemId i = 0; i < 20; ++i) store->Load(i, 0);
  store->FlushAll();

  Version ver = 1;
  auto commit = [&](ItemId item, Value value) {
    TxnId txn{0, ver};
    store->LogPrewrite(txn, item, value);
    ASSERT_TRUE(store->Apply(item, value, ver, txn));
    store->CommitStorageTxn(txn);
    ++ver;
  };
  for (ItemId i = 0; i < 20; ++i) commit(i, static_cast<Value>(i + 100));

  const Lsn log_before_ckpt = wal.LastLsn();
  Lsn master = store->Checkpoint();
  EXPECT_NE(master, kNoLsn);
  EXPECT_EQ(wal.master(), master);
  ASSERT_GT(wal.size(), 1u);
  ASSERT_TRUE(wal.Contains(master));
  EXPECT_EQ(wal.At(master).kind, WalRecordKind::kCheckpointBegin);
  EXPECT_EQ(wal.At(wal.LastLsn()).kind, WalRecordKind::kCheckpointEnd);

  for (ItemId i = 0; i < 4; ++i) commit(i, static_cast<Value>(i + 200));
  auto before = store->Snapshot();

  store->OnCrash();
  RestartSummary rs = store->Restart();
  EXPECT_EQ(rs.tentative_leaks, 0u);
  // Analysis started at the master record, not at LSN 1.
  EXPECT_LT(rs.log_scanned, wal.LastLsn() - log_before_ckpt + 4);
  EXPECT_GE(rs.redo_start, 1u);
  EXPECT_EQ(store->Snapshot(), before);
}

TEST(StoragePageStoreTest, CheckpointCadenceFiresAutomatically) {
  Wal wal;
  PageStoreOptions opts;
  opts.page_size = kTestPageSize;
  opts.pool_pages = 16;
  opts.checkpoint_interval = 16;
  auto store = std::make_unique<PageStore>(&wal, opts);
  for (ItemId i = 0; i < 10; ++i) store->Load(i, 0);
  store->FlushAll();

  for (Version ver = 1; ver <= 40; ++ver) {
    TxnId txn{0, ver};
    ItemId item = ver % 10;
    store->LogPrewrite(txn, item, static_cast<Value>(ver));
    ASSERT_TRUE(store->Apply(item, static_cast<Value>(ver), ver, txn));
    store->CommitStorageTxn(txn);
  }
  // The cadence fired without a manual Checkpoint() call, and each
  // completed checkpoint reclaimed the log head: only the live tail
  // (from the latest master's barrier on) is still retained.
  EXPECT_GE(CountKind(wal, WalRecordKind::kCheckpointEnd), 1u);
  EXPECT_NE(wal.master(), kNoLsn);
  ASSERT_TRUE(wal.Contains(wal.master()));
  EXPECT_EQ(wal.At(wal.master()).kind, WalRecordKind::kCheckpointBegin);
  EXPECT_GT(wal.base(), 0u);
  EXPECT_LT(wal.size(), static_cast<size_t>(wal.LastLsn()));
}

TEST(StoragePageStoreTest, CrashBetweenCheckpointHalvesKeepsOldMaster) {
  Wal wal;
  PageStoreOptions opts;
  opts.page_size = kTestPageSize;
  auto store = std::make_unique<PageStore>(&wal, opts);
  for (ItemId i = 0; i < 10; ++i) store->Load(i, 0);
  store->FlushAll();

  Version ver = 1;
  auto commit = [&](ItemId item, Value value) {
    TxnId txn{0, ver};
    store->LogPrewrite(txn, item, value);
    ASSERT_TRUE(store->Apply(item, value, ver, txn));
    store->CommitStorageTxn(txn);
    ++ver;
  };
  commit(1, 11);
  Lsn first = store->Checkpoint();
  commit(2, 22);

  // Crash with the second checkpoint OPEN: begin logged, no end. The
  // master must still point at the last COMPLETE checkpoint.
  Lsn second_begin = store->BeginCheckpoint();
  EXPECT_GT(second_begin, first);
  EXPECT_EQ(wal.master(), first);
  auto before = store->Snapshot();
  store->OnCrash();
  RestartSummary rs = store->Restart();
  EXPECT_EQ(rs.tentative_leaks, 0u);
  EXPECT_EQ(store->Snapshot(), before);
  EXPECT_EQ(wal.master(), first);
}


// --- page store: the checkpoint's dirty-page table ------------------------

using DirtyPageTable = std::vector<std::pair<uint32_t, Lsn>>;

// Takes a checkpoint and returns the dirty-page table its end record
// carries.
DirtyPageTable CheckpointDpt(PageStore& store, const Wal& wal) {
  store.Checkpoint();
  const WalRecord end = wal.At(wal.LastLsn());
  EXPECT_EQ(end.kind, WalRecordKind::kCheckpointEnd);
  return end.checkpoint.dpt;
}

TEST(StorageEngineTest, CheckpointDptHoldsFirstLoggedUpdateSinceWriteBack) {
  Wal wal;
  auto store = MakePageStore(&wal);
  for (ItemId i = 0; i < 20; ++i) store->Load(i, 0);
  // Loading dirties pages without logging: none is in the table.
  EXPECT_GT(store->pool().resident_pages(), 0u);
  EXPECT_EQ(CheckpointDpt(*store, wal), DirtyPageTable{});

  const PageId leaf = *store->tree().LeafOf(3);
  ASSERT_TRUE(store->Apply(3, 30, 1));
  const Lsn first = wal.LastLsn();
  EXPECT_EQ(CheckpointDpt(*store, wal), (DirtyPageTable{{leaf, first}}));
  // A later update of the page keeps the first one's recLSN.
  ASSERT_TRUE(store->Apply(3, 31, 2));
  EXPECT_EQ(CheckpointDpt(*store, wal), (DirtyPageTable{{leaf, first}}));
  // A flush drops the page from the table.
  store->FlushAll();
  EXPECT_EQ(CheckpointDpt(*store, wal), DirtyPageTable{});

  // Dirty at the checkpoint, flushed after the next update, dirtied
  // again only in the log: restart redoes just the last update, and
  // the page keeps the recLSN analysis read from the checkpoint.
  ASSERT_TRUE(store->Apply(3, 32, 3));
  const Lsn at_checkpoint = wal.LastLsn();
  EXPECT_EQ(CheckpointDpt(*store, wal),
            (DirtyPageTable{{leaf, at_checkpoint}}));
  ASSERT_TRUE(store->Apply(3, 33, 4));
  store->FlushAll();
  ASSERT_TRUE(store->Apply(3, 34, 5));
  store->OnCrash();
  RestartSummary rs = store->Restart();
  EXPECT_EQ(rs.redo_applied, 1u);
  EXPECT_EQ(CheckpointDpt(*store, wal),
            (DirtyPageTable{{leaf, at_checkpoint}}));
  EXPECT_EQ(store->Get(3)->value, 34);
}

TEST(StorageEngineTest, CheckpointDptForgetsPagesWrittenBackByEviction) {
  // A two-level tree over four frames: the root and three leaves fit.
  Wal wal;
  auto store = MakePageStore(&wal, /*frames=*/4);
  constexpr ItemId kItems = 20;
  for (ItemId i = 0; i < kItems; ++i) store->Load(i, 0);
  store->FlushAll();
  ASSERT_EQ(store->tree().height(), 2u);
  const PageId hot = *store->tree().LeafOf(0);

  // Leaf `hot` is updated, then kept resident by reads while every
  // other leaf is updated once and evicted dirty; then it is updated
  // again.
  std::map<PageId, Lsn> lsn_of;  // page -> LSN of its first update
  ASSERT_TRUE(store->Apply(0, 1, 1));
  lsn_of[hot] = wal.LastLsn();
  for (ItemId i = 1; i < kItems; ++i) {
    const PageId leaf = *store->tree().LeafOf(i);
    if (lsn_of.contains(leaf)) continue;
    ASSERT_TRUE(store->Apply(i, 1, 1));
    lsn_of[leaf] = wal.LastLsn();
    for (int r = 0; r < 3; ++r) ASSERT_TRUE(store->Get(0).ok());
  }
  ASSERT_GT(lsn_of.size(), store->pool().num_frames());
  const DirtyPageTable runtime = CheckpointDpt(*store, wal);
  EXPECT_LT(runtime.size(), store->pool().num_frames());
  ASSERT_FALSE(runtime.empty());
  EXPECT_EQ(runtime.front(), (std::pair<uint32_t, Lsn>{hot, lsn_of[hot]}));
  for (const auto& [page, rec_lsn] : runtime) {
    EXPECT_EQ(rec_lsn, lsn_of[page]) << "page " << page;
  }
  ASSERT_TRUE(store->Apply(0, 2, 2));
  const Lsn hot_second = wal.LastLsn();

  // Restart has no reads to keep `hot` resident: redo writes it,
  // evicts it while it re-reads the other leaves, then dirties it
  // again with its second update, which becomes its recLSN.
  store->OnCrash();
  store->Restart();
  const DirtyPageTable restarted = CheckpointDpt(*store, wal);
  auto it = std::find_if(restarted.begin(), restarted.end(),
                         [&](const auto& e) { return e.first == hot; });
  ASSERT_NE(it, restarted.end());
  EXPECT_EQ(it->second, hot_second);
  EXPECT_EQ(store->Get(0)->value, 2);
}

// --- page store: hostile page bytes -----------------------------------------

TEST(StoragePageStoreTest, FuzzedPageReadsNeverCrash) {
  // Hostile-input property for page reads, in the style of
  // WalTest.FuzzedBuffersNeverCrash: bit flips, forged entry counts,
  // forged node types and forged child/leaf-link page ids land in the
  // durable pages of a multi-level tree. Most damage is written with a
  // freshly stamped CRC, so with checksums on it passes the check and
  // reaches the tree; the rest is a primary-only byte flip, which the
  // checksum defense heals from the journal. Get, Range, ForEach and
  // Restart() must each return (a value, an empty result or a Status)
  // without crashing, reading out of bounds or looping forever.
  constexpr ItemId kItems = 300;
  for (bool checksums : {true, false}) {
    Rng rng(checksums ? 20261018 : 20261019);
    int forged_reached = 0;
    for (int round = 0; round < 300; ++round) {
      Wal wal;
      PageStore store(&wal, PageStoreOptions{.page_size = kTestPageSize,
                                             .pool_pages = 8,
                                             .page_checksums = checksums});
      for (ItemId i = 0; i < kItems; ++i) store.Load(i, i);
      store.FlushAll();
      // Committed writes, some only in the log, and one loser, so
      // restart has redo and undo work on the damaged tree.
      for (uint64_t t = 1; t <= 6; ++t) {
        const TxnId txn{0, t};
        const ItemId item = static_cast<ItemId>(rng.NextUint(kItems));
        store.LogPrewrite(txn, item, 1000 + static_cast<Value>(t));
        ASSERT_TRUE(store.Apply(item, 1000 + static_cast<Value>(t), t, txn));
        store.CommitStorageTxn(txn);
        if (t == 3) store.FlushAll();
      }
      store.LogPrewrite(TxnId{0, 99}, 7, -1);
      const std::map<ItemId, ItemCopy> before = store.Snapshot();

      DiskManager& disk = store.mutable_disk();
      const PageId pages = disk.allocated_pages();
      const PageId forged_ids[] = {kInvalidPageId, 0, pages, pages + 7,
                                   static_cast<PageId>(rng.Next())};
      // A 128-byte page holds 5 leaf or 13 internal entries.
      const uint32_t forged_counts[] = {0, 1, 5, 6, 13, 14, 0x7FFFFFFFu,
                                        0xFFFFFFFFu,
                                        static_cast<uint32_t>(rng.Next())};
      bool forged = false;
      for (uint64_t n = 1 + rng.NextUint(3); n > 0; --n) {
        const PageId id = static_cast<PageId>(rng.NextUint(pages));
        if (rng.NextBool(0.25)) {
          ASSERT_TRUE(disk.FlipPrimaryByte(
              id, static_cast<uint32_t>(rng.NextUint(kTestPageSize))));
          forged = forged || !checksums;
          continue;
        }
        Page page(kTestPageSize);
        disk.ReadPage(id, page);
        switch (rng.NextUint(5)) {
          case 0:  // 1-3 bit flips anywhere, the LSN included
            for (uint64_t f = 1 + rng.NextUint(3); f > 0; --f) {
              page.data()[rng.NextUint(kTestPageSize)] ^=
                  static_cast<uint8_t>(1u << rng.NextUint(8));
            }
            break;
          case 1:  // entry count
            page.WriteU32(16, forged_counts[rng.NextUint(9)]);
            break;
          case 2:  // leaf link or leftmost child, possibly itself
            page.WriteU32(20, rng.NextBool(0.2) ? id
                                                : forged_ids[rng.NextUint(5)]);
            break;
          case 3:  // an internal entry's child page id
            page.WriteU32(24 + 8 * static_cast<uint32_t>(rng.NextUint(13)) + 4,
                          rng.NextBool(0.2) ? id : forged_ids[rng.NextUint(5)]);
            break;
          default:  // node type
            page.WriteU8(12, static_cast<uint8_t>(rng.NextUint(4)));
            break;
        }
        disk.WritePage(id, page);
        forged = true;
      }
      forged_reached += forged ? 1 : 0;

      store.OnCrash();
      auto read_everything = [&]() {
        for (int k = 0; k < 16; ++k) {
          Result<ItemCopy> copy =
              store.Get(static_cast<ItemId>(rng.NextUint(kItems + 8)));
          if (!copy.ok()) {
            EXPECT_EQ(copy.status().code(), StatusCode::kNotFound);
          }
        }
        const size_t limit = rng.NextUint(64);
        std::vector<std::pair<ItemId, ItemCopy>> out;
        store.Range(static_cast<ItemId>(rng.NextUint(kItems)), limit, out);
        EXPECT_LE(out.size(), limit);
        size_t visited = 0;
        store.tree().ForEach(static_cast<ItemId>(rng.NextUint(kItems)), limit,
                             [&visited](ItemId, const ItemCopy&) {
                               ++visited;
                             });
        EXPECT_LE(visited, limit);
      };
      read_everything();
      store.Restart();
      read_everything();
      // Damage the journal heals leaves nothing behind.
      if (!forged) {
        EXPECT_EQ(store.Snapshot(), before) << "round " << round;
      }
    }
    // With checksums on both kinds of round occur, so neither clause
    // above is vacuous; with them off every flip is forged.
    EXPECT_GT(forged_reached, 0);
    if (checksums) {
      EXPECT_LT(forged_reached, 300);
    }
  }
}

}  // namespace
}  // namespace rainbow
