#include "storage/storage_engine.h"

#include <algorithm>
#include <cassert>

namespace rainbow {

PageStore::PageStore(Wal* wal, PageStoreOptions options)
    : wal_(wal),
      opts_(options),
      disk_(options.page_size, options.page_checksums, options.fault_seed),
      pool_(&disk_, options.pool_pages, options.lru_k),
      tree_(&pool_, &disk_) {}

void PageStore::Load(ItemId item, Value initial) {
  tree_.Put(item, initial, 0);
}

Result<ItemCopy> PageStore::Get(ItemId item) const {
  std::optional<ItemCopy> copy = tree_.Get(item);
  if (!copy.has_value()) {
    return Status::NotFound("no copy of item " + std::to_string(item));
  }
  return *copy;
}

void PageStore::Range(ItemId from, size_t limit,
                      std::vector<std::pair<ItemId, ItemCopy>>& out) const {
  tree_.Scan(from, out.size() + limit, out);
}

Lsn PageStore::ChainFor(TxnId txn) {
  auto it = att_.find(txn);
  if (it != att_.end()) return it->second;
  WalRecord begin;
  begin.kind = WalRecordKind::kStoreBegin;
  begin.txn = txn;
  begin.prev_lsn = kNoLsn;
  Lsn lsn = wal_->Append(std::move(begin));
  att_[txn] = lsn;
  return lsn;
}

void PageStore::LogPrewrite(TxnId txn, ItemId item, Value value) {
  std::optional<ItemCopy> committed = tree_.Get(item);
  if (!committed.has_value()) return;  // not hosted here
  Lsn prev = ChainFor(txn);
  WalRecord rec;
  rec.kind = WalRecordKind::kStoreUpdate;
  rec.txn = txn;
  rec.prev_lsn = prev;
  rec.store.item = item;
  rec.store.page_id = tree_.LeafOf(item).value_or(kInvalidPageId);
  rec.store.before_value = committed->value;
  rec.store.before_version = committed->version;
  rec.store.value = value;
  // A unique tentative tag: restart's repeating-history pass installs
  // it for losers, and the matching CLR only fires while the page still
  // holds exactly this version.
  rec.store.version = kTentativeBit | wal_->NextLsn();
  rec.store.tentative = true;
  att_[txn] = wal_->Append(std::move(rec));
}

bool PageStore::Apply(ItemId item, Value value, Version version, TxnId txn) {
  std::optional<ItemCopy> committed = tree_.Get(item);
  if (!committed.has_value()) return false;
  if (version <= committed->version) return false;  // stale / duplicate
  WalRecord rec;
  rec.kind = WalRecordKind::kStoreUpdate;
  rec.txn = txn;
  rec.prev_lsn = txn.valid() ? ChainFor(txn) : kNoLsn;
  rec.store.item = item;
  rec.store.page_id = tree_.LeafOf(item).value_or(kInvalidPageId);
  rec.store.before_value = committed->value;
  rec.store.before_version = committed->version;
  rec.store.value = value;
  rec.store.version = version;
  rec.store.tentative = false;
  Lsn lsn = wal_->Append(std::move(rec));
  if (txn.valid()) att_[txn] = lsn;
  bool ok = tree_.Update(item, value, version, lsn).has_value();
  // With checksums off a storage fault can corrupt the tree badly
  // enough that the item is unreachable; that mode exists to let the
  // verification oracle see the damage, not to die on it.
  assert(ok || !opts_.page_checksums);
  return ok;
}

bool PageStore::AdoptIfNewer(ItemId item, Value value, Version version) {
  return Apply(item, value, version, TxnId{});
}

void PageStore::CommitStorageTxn(TxnId txn) {
  auto it = att_.find(txn);
  if (it == att_.end()) return;
  WalRecord rec;
  rec.kind = WalRecordKind::kStoreCommit;
  rec.txn = txn;
  rec.prev_lsn = it->second;
  wal_->Append(std::move(rec));
  att_.erase(it);
  MaybeCheckpoint();
}

std::vector<Lsn> PageStore::PendingUpdates(Lsn last) const {
  // Walk the backward chain; a CLR short-circuits to undo_next_lsn, so
  // already-compensated updates are skipped (crash-during-undo safe).
  std::vector<Lsn> pending;
  Lsn cur = last;
  while (cur != kNoLsn) {
    const WalRecord& rec = wal_->At(cur);
    if (rec.kind == WalRecordKind::kStoreClr) {
      cur = rec.undo_next_lsn;
      continue;
    }
    if (rec.kind == WalRecordKind::kStoreUpdate) pending.push_back(cur);
    cur = rec.prev_lsn;
  }
  return pending;
}

std::optional<PageId> PageStore::ApplyClrGuarded(const WalRecord& rec,
                                                 Lsn lsn) {
  std::optional<ItemCopy> current = tree_.Get(rec.store.item);
  if (!current.has_value()) return std::nullopt;
  // Only compensate the exact image this CLR was written against; an
  // interleaved committed write (different version) must survive.
  if (current->version != rec.store.before_version) return std::nullopt;
  return tree_.Update(rec.store.item, rec.store.value, rec.store.version, lsn);
}

void PageStore::AbortStorageTxn(TxnId txn) {
  auto it = att_.find(txn);
  if (it == att_.end()) return;
  Lsn last = it->second;
  WalRecord abort;
  abort.kind = WalRecordKind::kStoreAbort;
  abort.txn = txn;
  abort.prev_lsn = last;
  Lsn tail = wal_->Append(std::move(abort));
  for (Lsn ulsn : PendingUpdates(last)) {  // newest first
    const WalRecord& upd = wal_->At(ulsn);
    WalRecord clr;
    clr.kind = WalRecordKind::kStoreClr;
    clr.txn = txn;
    clr.prev_lsn = tail;
    clr.undo_next_lsn = upd.prev_lsn;
    clr.store.item = upd.store.item;
    clr.store.page_id = upd.store.page_id;
    clr.store.value = upd.store.before_value;      // image restored
    clr.store.version = upd.store.before_version;
    clr.store.before_value = upd.store.value;      // image compensated
    clr.store.before_version = upd.store.version;
    Lsn clr_lsn = wal_->Append(clr);
    tail = clr_lsn;
    // At runtime pages never held the tentative image, so this is a
    // no-op; during restart undo it reverts the repeated history.
    ApplyClrGuarded(clr, clr_lsn);
  }
  WalRecord end;
  end.kind = WalRecordKind::kStoreEnd;
  end.txn = txn;
  end.prev_lsn = tail;
  wal_->Append(std::move(end));
  att_.erase(it);
  MaybeCheckpoint();
}

Lsn PageStore::BeginCheckpoint() {
  WalRecord begin;
  begin.kind = WalRecordKind::kCheckpointBegin;
  return wal_->Append(std::move(begin));
}

void PageStore::EndCheckpoint(Lsn begin_lsn) {
  WalRecord end;
  end.kind = WalRecordKind::kCheckpointEnd;
  end.prev_lsn = begin_lsn;
  // att_ is a std::map and the pool lists its dirty frames by page id,
  // so both tables serialize key-sorted.
  for (const auto& [txn, lsn] : att_) end.checkpoint.att.emplace_back(txn, lsn);
  end.checkpoint.dpt = pool_.DirtyPageTable();
  wal_->Append(end);
  // Only once the end record exists does the checkpoint count: restart
  // ignores a begin with no matching end (crash mid-checkpoint) by
  // falling back to the previous master.
  wal_->SetMaster(begin_lsn);

  // With the checkpoint durable, reclaim the log head. The barrier is
  // the earliest LSN any future restart could still dereference:
  //   - the master record itself (analysis is seeded from it),
  //   - the minimum recLSN in the dirty-page table (redo may start
  //     before the checkpoint for a page that never got flushed),
  //   - the earliest record of any open storage txn's backward chain
  //     (undo walks the whole chain if that txn loses), and
  //   - the commit protocol's own floor (prepared-undecided and
  //     decided-unacknowledged transactions must keep their records).
  // Crash-between-halves stays safe by construction: truncation only
  // ever happens after SetMaster, so the log always retains everything
  // from the last COMPLETE checkpoint's barrier onward.
  Lsn barrier = begin_lsn;
  for (const auto& [page, rec_lsn] : end.checkpoint.dpt) {
    if (rec_lsn < barrier) barrier = rec_lsn;
  }
  for (const auto& [txn, last] : att_) {
    Lsn floor_lsn = ChainFloor(last);
    if (floor_lsn < barrier) barrier = floor_lsn;
  }
  Lsn proto = wal_->ProtocolBarrier();
  if (proto < barrier) barrier = proto;
  wal_->TruncateBefore(barrier);
}

Lsn PageStore::ChainFloor(Lsn last) const {
  Lsn floor_lsn = last;
  Lsn cur = last;
  while (cur != kNoLsn) {
    floor_lsn = cur;
    const WalRecord& rec = wal_->At(cur);
    cur = rec.kind == WalRecordKind::kStoreClr ? rec.undo_next_lsn
                                               : rec.prev_lsn;
  }
  return floor_lsn;
}

Lsn PageStore::Checkpoint() {
  // Flush-behind: a fuzzy checkpoint bounds the ANALYSIS scan, but redo
  // starts at the minimum recLSN in the dirty-page table — and a hot
  // page that never leaves the pool keeps an arbitrarily old recLSN.
  // Writing out just the pages dirtied before the previous interval
  // keeps min-recLSN (and with it restart time) within a bounded window
  // of the checkpoint without the latency spike of a sharp FlushAll.
  if (opts_.checkpoint_interval > 0) {
    const Lsn next = wal_->NextLsn();
    const Lsn floor_lsn = next > opts_.checkpoint_interval
                              ? next - opts_.checkpoint_interval
                              : kNoLsn;
    pool_.FlushBehind(floor_lsn);
  }
  Lsn begin = BeginCheckpoint();
  EndCheckpoint(begin);
  return begin;
}

void PageStore::MaybeCheckpoint() {
  if (opts_.checkpoint_interval == 0) return;
  if (wal_->NextLsn() >= wal_->master() + opts_.checkpoint_interval) {
    Checkpoint();
  }
}

void PageStore::OnCrash() {
  pool_.Reset();
  att_.clear();
}

RestartSummary PageStore::Restart() {
  RestartSummary summary;
  uint64_t quarantined_before = disk_.quarantined();
  // Oldest retained LSN and newest LSN: checkpoint-end truncation may
  // have reclaimed the log head, so every walk below is LSN-based (via
  // Wal::At) rather than raw vector indexing.
  const Lsn first_lsn = wal_->base() + 1;
  const Lsn last_lsn = wal_->LastLsn();

  // --- Checkpoint lookup: the master pointer names the begin record of
  // the last COMPLETE checkpoint. Seed the ATT and dirty-page table
  // from its end record and scan only the log suffix after the begin —
  // this is what keeps restart time bounded as the log grows. A begin
  // with no matching end (crash mid-checkpoint) is never the master,
  // so a full-log scan is the fallback only when no checkpoint ever
  // completed.
  std::map<TxnId, Lsn> att;
  std::map<PageId, Lsn> dpt;  // analysis's dirty-page table: page -> recLSN
  Lsn scan_from = first_lsn;  // LSN analysis starts at
  Lsn master = wal_->master();
  if (master != kNoLsn && wal_->Contains(master) &&
      wal_->At(master).kind == WalRecordKind::kCheckpointBegin) {
    for (Lsn l = master + 1; l <= last_lsn; ++l) {
      const WalRecord& rec = wal_->At(l);
      if (rec.kind == WalRecordKind::kCheckpointEnd &&
          rec.prev_lsn == master) {
        for (const auto& [txn, lsn] : rec.checkpoint.att) att[txn] = lsn;
        for (const auto& [page, lsn] : rec.checkpoint.dpt) dpt[page] = lsn;
        scan_from = master + 1;  // records with LSN > master
        break;
      }
    }
  }
  summary.log_scanned =
      last_lsn >= scan_from ? static_cast<size_t>(last_lsn - scan_from + 1) : 0;

  // --- Analysis: rebuild the active storage-transaction table (and
  // grow the dirty-page table conservatively: any page a post-
  // checkpoint record touched may have been dirty at the crash; the
  // page-LSN gate makes an unnecessary redo visit a no-op). ---
  for (Lsn lsn = scan_from; lsn <= last_lsn; ++lsn) {
    const WalRecord& rec = wal_->At(lsn);
    if (rec.kind == WalRecordKind::kStoreUpdate ||
        rec.kind == WalRecordKind::kStoreClr) {
      if (rec.store.page_id != kInvalidPageId) {
        dpt.try_emplace(rec.store.page_id, lsn);
      }
    }
    if (!rec.txn.valid()) continue;
    switch (rec.kind) {
      case WalRecordKind::kStoreBegin:
      case WalRecordKind::kStoreUpdate:
      case WalRecordKind::kStoreAbort:
      case WalRecordKind::kStoreClr:
        att[rec.txn] = lsn;
        break;
      case WalRecordKind::kStoreCommit:
      case WalRecordKind::kStoreEnd:
        att.erase(rec.txn);
        break;
      default:
        break;
    }
  }
  summary.analyzed_txns = att.size();

  // Prepared-but-undecided txns stay pending: the commit protocol's
  // recovery (cooperative termination) owns their fate. The WAL's
  // incremental prepared/decided index answers this without rescanning
  // the protocol records.
  std::map<TxnId, Lsn> in_doubt;
  std::map<TxnId, Lsn> losers;
  for (const auto& [txn, last] : att) {
    (wal_->IsPreparedUndecided(txn) ? in_doubt : losers)[txn] = last;
  }
  summary.in_doubt = in_doubt.size();
  summary.losers = losers.size();

  // --- Redo: repeat history in LSN order, starting at the smallest
  // recLSN in the dirty-page table (a dirty page's earliest unflushed
  // update may precede the checkpoint). Tentative updates replay only
  // for losers (so undo has real history to compensate); winners'
  // effects are covered by their final non-tentative records, and
  // in-doubt tentative data must stay off the pages. A loser's
  // tentative update before the redo window was never applied to any
  // page, so skipping it is safe: its CLR's exact-version guard
  // no-ops.
  Lsn redo_from = scan_from;
  for (const auto& [page, rec_lsn] : dpt) {
    if (rec_lsn != kNoLsn && rec_lsn < redo_from) redo_from = rec_lsn;
  }
  // A recLSN below the retained head would point at a truncated record;
  // the truncation barrier guarantees that never names work redo still
  // owes, so clamp defensively.
  if (redo_from < first_lsn) redo_from = first_lsn;
  summary.redo_start = redo_from;
  // The pool starts empty. A page's first write here keeps its analysis
  // recLSN (it may have been dirty since before the crash); a write-back
  // during restart ends that, so each entry serves once.
  auto wrote = [&](std::optional<PageId> page) {
    if (!page.has_value()) return false;
    auto it = dpt.find(*page);
    if (it != dpt.end()) {
      pool_.SetRecLsn(*page, it->second);
      dpt.erase(it);
    }
    return true;
  };
  for (Lsn lsn = redo_from; lsn <= last_lsn; ++lsn) {
    const WalRecord& rec = wal_->At(lsn);
    if (rec.kind == WalRecordKind::kStoreUpdate) {
      if (rec.store.tentative && !losers.contains(rec.txn)) {
        ++summary.redo_skipped;
        continue;
      }
      if (wrote(tree_.RedoUpdate(rec.store.item, rec.store.value,
                                 rec.store.version, lsn))) {
        ++summary.redo_applied;
      } else {
        ++summary.redo_skipped;
      }
    } else if (rec.kind == WalRecordKind::kStoreClr) {
      if (wrote(ApplyClrGuarded(rec, lsn))) {
        ++summary.redo_applied;
      } else {
        ++summary.redo_skipped;
      }
    }
  }

  // --- Undo: roll losers back, newest update first across all of
  // them, appending guarded CLRs; then close each with kStoreEnd.
  std::vector<std::pair<Lsn, TxnId>> to_undo;
  for (const auto& [txn, last] : losers) {
    for (Lsn lsn : PendingUpdates(last)) to_undo.emplace_back(lsn, txn);
  }
  std::sort(to_undo.begin(), to_undo.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (const auto& [ulsn, txn] : to_undo) {
    const WalRecord& upd = wal_->At(ulsn);
    WalRecord clr;
    clr.kind = WalRecordKind::kStoreClr;
    clr.txn = txn;
    clr.prev_lsn = losers[txn];
    clr.undo_next_lsn = upd.prev_lsn;
    clr.store.item = upd.store.item;
    clr.store.page_id = upd.store.page_id;
    clr.store.value = upd.store.before_value;
    clr.store.version = upd.store.before_version;
    clr.store.before_value = upd.store.value;
    clr.store.before_version = upd.store.version;
    Lsn clr_lsn = wal_->Append(clr);
    losers[txn] = clr_lsn;
    ++summary.undo_clrs;
    wrote(ApplyClrGuarded(clr, clr_lsn));
  }
  for (auto& [txn, last] : losers) {
    WalRecord end;
    end.kind = WalRecordKind::kStoreEnd;
    end.txn = txn;
    end.prev_lsn = last;
    wal_->Append(std::move(end));
  }

  // In-doubt chains stay open so a later decision commits or aborts
  // them through the normal hooks.
  att_ = in_doubt;

  summary.pages_quarantined = disk_.quarantined() - quarantined_before;

  // Invariant sweep: after undo no page may hold a tentative version.
  // It is counted, not asserted: page bytes that pass their CRC can
  // still be forged (or, with checksums off, torn), and restart must
  // report that, not abort on it. It counts in place: a copy of the
  // tree would cost restart a fresh allocation the size of the data.
  tree_.ForEach(0, tree_.size(), [&summary](ItemId, const ItemCopy& copy) {
    if ((copy.version & kTentativeBit) != 0) ++summary.tentative_leaks;
  });
  return summary;
}

}  // namespace rainbow
