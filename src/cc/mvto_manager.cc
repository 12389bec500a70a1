#include "cc/mvto_manager.h"

#include <algorithm>
#include <cassert>

namespace rainbow {

MvtoManager::MvtoManager() = default;

bool MvtoManager::Tracks(TxnId txn) const { return txns_.contains(txn); }

void MvtoManager::LoadInitial(ItemId item, Value value, Version version,
                              TxnTimestamp floor) {
  ItemState& st = items_[item];
  st.versions.clear();
  st.floor = floor;
  VersionEntry v;
  v.wts = TxnTimestamp{-1, 0};
  v.value = value;
  v.version = version;
  st.versions[v.wts] = v;
}

MvtoManager::Verdict MvtoManager::Judge(const ItemState& st, TxnId txn,
                                        TxnTimestamp ts, bool is_write) const {
  if (is_write && st.has_pending && st.pending_txn == txn) {
    return Verdict::kGrant;
  }
  if (ts < st.floor) return Verdict::kDeny;
  if (is_write) {
    // The version this write would follow: largest wts < ts.
    auto it = st.versions.lower_bound(ts);
    if (it != st.versions.begin()) {
      --it;
      if (ts < it->second.max_rts) {
        // A younger reader already observed the predecessor version.
        return Verdict::kDeny;
      }
    }
    if (st.has_pending) {
      return ts < st.pending_ts ? Verdict::kDeny : Verdict::kWait;
    }
    return Verdict::kGrant;
  }
  // Read: wait only for a smaller-timestamp pending writer whose version
  // this read would have to observe.
  if (st.has_pending && st.pending_txn != txn && st.pending_ts < ts) {
    return Verdict::kWait;
  }
  return Verdict::kGrant;
}

CcGrant MvtoManager::GrantRead(ItemState& st, TxnTimestamp ts) {
  // Version with largest wts <= ts. The initial version has wts
  // {-1, 0} < any real timestamp, so a version always exists.
  auto it = st.versions.upper_bound(ts);
  assert(it != st.versions.begin());
  --it;
  VersionEntry& v = it->second;
  if (v.max_rts < ts) v.max_rts = ts;
  CcGrant g = CcGrant::Granted();
  g.has_value = true;
  g.value = v.value;
  g.version = v.version;
  return g;
}

void MvtoManager::RequestRead(TxnId txn, TxnTimestamp ts, ItemId item,
                              CcCallback cb) {
  ItemState& st = items_[item];
  if (st.versions.empty()) {
    // Item never loaded here; treat as version-0 zero value so the
    // engine is usable standalone in unit tests.
    LoadInitial(item, 0);
  }
  switch (Judge(st, txn, ts, /*is_write=*/false)) {
    case Verdict::kGrant:
      txns_[txn];
      cb(GrantRead(st, ts));
      return;
    case Verdict::kDeny:
      ++rejections_;
      cb(CcGrant::Denied(DenyReason::kTsoTooLate));
      return;
    case Verdict::kWait:
      break;
  }
  Waiter w{txn, ts, false, std::move(cb)};
  auto pos = std::upper_bound(
      st.waiters.begin(), st.waiters.end(), ts,
      [](const TxnTimestamp& t, const Waiter& x) { return t < x.ts; });
  st.waiters.insert(pos, std::move(w));
  txns_[txn].waiting_items.insert(item);
}

void MvtoManager::RequestWrite(TxnId txn, TxnTimestamp ts, ItemId item,
                               CcCallback cb) {
  ItemState& st = items_[item];
  if (st.versions.empty()) LoadInitial(item, 0);
  switch (Judge(st, txn, ts, /*is_write=*/true)) {
    case Verdict::kGrant: {
      st.has_pending = true;
      st.pending_txn = txn;
      st.pending_ts = ts;
      TxnInfo& info = txns_[txn];
      info.pending_items.insert(item);
      info.pending_ts[item] = ts;
      cb(CcGrant::Granted());
      return;
    }
    case Verdict::kDeny:
      ++rejections_;
      cb(CcGrant::Denied(DenyReason::kTsoTooLate));
      return;
    case Verdict::kWait:
      break;
  }
  Waiter w{txn, ts, true, std::move(cb)};
  auto pos = std::upper_bound(
      st.waiters.begin(), st.waiters.end(), ts,
      [](const TxnTimestamp& t, const Waiter& x) { return t < x.ts; });
  st.waiters.insert(pos, std::move(w));
  txns_[txn].waiting_items.insert(item);
}

void MvtoManager::OnApply(TxnId txn, ItemId item, Value value,
                          Version version) {
  auto ti = txns_.find(txn);
  if (ti == txns_.end()) return;
  auto pi = ti->second.pending_ts.find(item);
  if (pi == ti->second.pending_ts.end()) return;
  ItemState& st = items_[item];
  VersionEntry v;
  v.wts = pi->second;
  v.value = value;
  v.version = version;
  st.versions[v.wts] = v;
}

void MvtoManager::Rejudge(ItemId item,
                          std::vector<std::pair<CcCallback, CcGrant>>& out) {
  auto it = items_.find(item);
  if (it == items_.end()) return;
  ItemState& st = it->second;
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto wi = st.waiters.begin(); wi != st.waiters.end(); ++wi) {
      Verdict v = Judge(st, wi->txn, wi->ts, wi->is_write);
      if (v == Verdict::kWait) continue;
      Waiter w = std::move(*wi);
      st.waiters.erase(wi);
      auto ti = txns_.find(w.txn);
      if (ti != txns_.end()) ti->second.waiting_items.erase(item);
      if (v == Verdict::kGrant) {
        if (w.is_write) {
          st.has_pending = true;
          st.pending_txn = w.txn;
          st.pending_ts = w.ts;
          TxnInfo& info = txns_[w.txn];
          info.pending_items.insert(item);
          info.pending_ts[item] = w.ts;
          out.emplace_back(std::move(w.cb), CcGrant::Granted());
        } else {
          txns_[w.txn];
          out.emplace_back(std::move(w.cb), GrantRead(st, w.ts));
        }
      } else {
        ++rejections_;
        out.emplace_back(std::move(w.cb),
                         CcGrant::Denied(DenyReason::kTsoTooLate));
      }
      progress = true;
      break;
    }
  }
}

void MvtoManager::Finish(TxnId txn, bool commit) {
  (void)commit;  // versions were already appended via OnApply on commit
  auto it = txns_.find(txn);
  if (it == txns_.end()) return;
  TxnInfo info = std::move(it->second);
  txns_.erase(it);

  std::vector<std::pair<CcCallback, CcGrant>> out;
  std::set<ItemId> touched;

  for (ItemId item : info.pending_items) {
    auto ii = items_.find(item);
    if (ii == items_.end()) continue;
    ItemState& st = ii->second;
    if (st.has_pending && st.pending_txn == txn) {
      st.has_pending = false;
      touched.insert(item);
    }
  }
  for (ItemId item : info.waiting_items) {
    auto ii = items_.find(item);
    if (ii == items_.end()) continue;
    auto& ws = ii->second.waiters;
    ws.erase(std::remove_if(ws.begin(), ws.end(),
                            [&](const Waiter& w) { return w.txn == txn; }),
             ws.end());
    touched.insert(item);
  }
  for (ItemId item : touched) Rejudge(item, out);
  for (auto& [f, g] : out) f(g);
}

void MvtoManager::MarkPrepared(TxnId txn) { (void)txn; }

size_t MvtoManager::num_versions(ItemId item) const {
  auto it = items_.find(item);
  return it == items_.end() ? 0 : it->second.versions.size();
}

size_t MvtoManager::num_waiting() const {
  size_t n = 0;
  for (const auto& [item, st] : items_) n += st.waiters.size();
  return n;
}

}  // namespace rainbow
