#include "cc/timestamp_manager.h"

#include <algorithm>
#include <cassert>

namespace rainbow {

TimestampManager::TimestampManager(Versions versions) : versions_(versions) {}

bool TimestampManager::Tracks(TxnId txn) const { return txns_.contains(txn); }

void TimestampManager::LoadInitial(ItemId item, Value value, Version version,
                                   TxnTimestamp floor) {
  ItemState& st = items_[item];
  st.versions.clear();
  st.floor = floor;
  VersionEntry base{.value = value, .version = version};
  st.versions[base.wts] = base;
}

TimestampManager::Verdict TimestampManager::Judge(const ItemState& st,
                                                  TxnId txn, TxnTimestamp ts,
                                                  bool is_write) const {
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
      // Younger waits; older is rejected (its write must precede the
      // already-granted one in timestamp order).
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

CcGrant TimestampManager::Grant(ItemState& st, ItemId item, TxnId txn,
                                TxnTimestamp ts, bool is_write) {
  TxnInfo& info = txns_[txn];
  if (is_write) {
    st.has_pending = true;
    st.pending_txn = txn;
    st.pending_ts = ts;
    info.pending_items.insert(item);
    return CcGrant::Granted();
  }
  // Version with largest wts <= ts. The base version has wts {-1, 0} <
  // any real timestamp, so a version always exists.
  auto it = st.versions.upper_bound(ts);
  assert(it != st.versions.begin());
  --it;
  VersionEntry& v = it->second;
  if (v.max_rts < ts) v.max_rts = ts;
  CcGrant g = CcGrant::Granted();
  if (versions_ == Versions::kAll) {
    g.has_value = true;
    g.value = v.value;
    g.version = v.version;
  }
  return g;
}

void TimestampManager::Request(TxnId txn, TxnTimestamp ts, ItemId item,
                               bool is_write, CcCallback cb) {
  ItemState& st = items_[item];
  if (st.versions.empty()) {
    // Item never loaded here: a version-0 zero value as the base, so the
    // engine is usable standalone in unit tests.
    LoadInitial(item, 0);
  }
  switch (Judge(st, txn, ts, is_write)) {
    case Verdict::kGrant:
      cb(Grant(st, item, txn, ts, is_write));
      return;
    case Verdict::kDeny:
      ++rejections_;
      cb(CcGrant::Denied(DenyReason::kTsoTooLate));
      return;
    case Verdict::kWait:
      break;
  }
  auto pos = std::upper_bound(
      st.waiters.begin(), st.waiters.end(), ts,
      [](const TxnTimestamp& t, const Waiter& x) { return t < x.ts; });
  st.waiters.insert(pos, Waiter{txn, ts, is_write, std::move(cb)});
  txns_[txn].waiting_items.insert(item);
}

void TimestampManager::RequestRead(TxnId txn, TxnTimestamp ts, ItemId item,
                                   CcCallback cb) {
  Request(txn, ts, item, /*is_write=*/false, std::move(cb));
}

void TimestampManager::RequestWrite(TxnId txn, TxnTimestamp ts, ItemId item,
                                    CcCallback cb) {
  Request(txn, ts, item, /*is_write=*/true, std::move(cb));
}

void TimestampManager::OnApply(TxnId txn, ItemId item, Value value,
                               Version version) {
  if (versions_ == Versions::kOne) return;
  auto it = items_.find(item);
  if (it == items_.end()) return;
  ItemState& st = it->second;
  if (!st.has_pending || st.pending_txn != txn) return;
  st.versions[st.pending_ts] =
      VersionEntry{.wts = st.pending_ts, .value = value, .version = version};
}

void TimestampManager::Rejudge(
    ItemId item, std::vector<std::pair<CcCallback, CcGrant>>& out) {
  auto it = items_.find(item);
  if (it == items_.end()) return;
  ItemState& st = it->second;
  // Decide the first waiter that no longer waits; a grant changes the
  // item's state, so rescan from the front.
  for (size_t i = 0; i < st.waiters.size();) {
    Waiter& wi = st.waiters[i];
    Verdict v = Judge(st, wi.txn, wi.ts, wi.is_write);
    if (v == Verdict::kWait) {
      ++i;
      continue;
    }
    Waiter w = std::move(wi);
    st.waiters.erase(st.waiters.begin() + static_cast<ptrdiff_t>(i));
    i = 0;
    auto ti = txns_.find(w.txn);
    if (ti != txns_.end()) ti->second.waiting_items.erase(item);
    if (v == Verdict::kGrant) {
      out.emplace_back(std::move(w.cb),
                       Grant(st, item, w.txn, w.ts, w.is_write));
    } else {
      ++rejections_;
      out.emplace_back(std::move(w.cb),
                       CcGrant::Denied(DenyReason::kTsoTooLate));
    }
  }
}

void TimestampManager::Finish(TxnId txn, bool commit) {
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
      // Under kAll OnApply already added the committed version.
      if (commit && versions_ == Versions::kOne) {
        st.floor = std::max(st.floor, st.pending_ts);
      }
      touched.insert(item);
    }
  }
  // Drop any still-waiting requests of this transaction (it aborted
  // while queued); their callbacks are intentionally not invoked.
  for (ItemId item : info.waiting_items) {
    auto ii = items_.find(item);
    if (ii == items_.end()) continue;
    std::erase_if(ii->second.waiters,
                  [&](const Waiter& w) { return w.txn == txn; });
    touched.insert(item);
  }

  for (ItemId item : touched) Rejudge(item, out);
  for (auto& [f, g] : out) f(g);
}

size_t TimestampManager::num_versions(ItemId item) const {
  auto it = items_.find(item);
  return it == items_.end() ? 0 : it->second.versions.size();
}

size_t TimestampManager::num_waiting() const {
  size_t n = 0;
  for (const auto& [item, st] : items_) n += st.waiters.size();
  return n;
}

}  // namespace rainbow
