#include "cc/lock_manager.h"

#include <algorithm>
#include <cassert>

namespace rainbow {

namespace {

bool Compatible(LockManager::Mode a, LockManager::Mode b) {
  return a == LockManager::Mode::kShared && b == LockManager::Mode::kShared;
}

}  // namespace

LockManager::LockManager(DeadlockPolicy policy) : policy_(policy) {}

std::string LockManager::name() const {
  return std::string("2PL/") + DeadlockPolicyName(policy_);
}

bool LockManager::Tracks(TxnId txn) const { return txns_.contains(txn); }

void LockManager::RequestRead(TxnId txn, TxnTimestamp ts, ItemId item,
                              CcCallback cb) {
  Request(txn, ts, item, Mode::kShared, std::move(cb));
}

void LockManager::RequestWrite(TxnId txn, TxnTimestamp ts, ItemId item,
                               CcCallback cb) {
  Request(txn, ts, item, Mode::kExclusive, std::move(cb));
}

bool LockManager::ConflictsWithHolders(const LockState& ls, TxnId txn,
                                       Mode mode) {
  for (const auto& [holder, held_mode] : ls.holders) {
    if (holder == txn) continue;
    if (!Compatible(mode, held_mode)) return true;
  }
  return false;
}

void LockManager::Request(TxnId txn, TxnTimestamp ts, ItemId item, Mode mode,
                          CcCallback cb) {
  TxnState& tstate = txns_[txn];
  tstate.ts = ts;

  LockState& ls = locks_[item];

  // Re-entrant request by a current holder.
  auto self = ls.holders.find(txn);
  bool upgrade = false;
  if (self != ls.holders.end()) {
    if (mode == Mode::kShared || self->second == Mode::kExclusive) {
      cb(CcGrant::Granted());
      return;
    }
    upgrade = true;  // holds S, wants X
  }

  bool conflict = ConflictsWithHolders(ls, txn, mode);
  // FIFO fairness (queueing behind waiters even when compatible) is only
  // applied under the wait-based policies; wait-die / wound-wait grant
  // any holder-compatible request immediately, which preserves their
  // deadlock-freedom argument (waits-for edges only ever point at
  // holders with a fixed age relation).
  bool fairness_block =
      !conflict && !upgrade && !ls.queue.empty() &&
      (policy_ == DeadlockPolicy::kLocalWfg ||
       policy_ == DeadlockPolicy::kTimeoutOnly ||
       policy_ == DeadlockPolicy::kEdgeChasing);

  if (!conflict && !fairness_block) {
    if (upgrade) {
      self->second = Mode::kExclusive;
    } else {
      ls.holders[txn] = mode;
    }
    tstate.held.insert(item);
    cb(CcGrant::Granted());
    return;
  }

  // Conflict (or fairness wait). Decide per policy.
  std::vector<TxnId> to_wound;
  if (conflict) {
    switch (policy_) {
      case DeadlockPolicy::kWaitDie: {
        // Die unless strictly older than every conflicting holder.
        for (const auto& [holder, held_mode] : ls.holders) {
          if (holder == txn || Compatible(mode, held_mode)) continue;
          const TxnState& hstate = txns_.at(holder);
          if (!(ts < hstate.ts)) {
            ++denials_;
            cb(CcGrant::Denied(DenyReason::kDeadlockVictim));
            return;
          }
        }
        break;  // older than all conflicting holders: wait
      }
      case DeadlockPolicy::kWoundWait: {
        // Wound every younger unprepared conflicting holder; wait for
        // the rest (older or prepared ones).
        for (const auto& [holder, held_mode] : ls.holders) {
          if (holder == txn || Compatible(mode, held_mode)) continue;
          const TxnState& hstate = txns_.at(holder);
          if (hstate.ts.time >= 0 && ts < hstate.ts && !hstate.prepared) {
            to_wound.push_back(holder);
          }
        }
        break;
      }
      case DeadlockPolicy::kLocalWfg:
      case DeadlockPolicy::kTimeoutOnly:
      case DeadlockPolicy::kEdgeChasing:
        break;  // wait; detection (if any) runs elsewhere
    }
  }

  // Enqueue the request (upgrades at the front so they cannot starve
  // behind requests that would deadlock against the held S lock).
  ++waits_started_;
  LockRequest req{txn, ts, mode, std::move(cb)};
  if (upgrade) {
    ls.queue.push_front(std::move(req));
  } else {
    ls.queue.push_back(std::move(req));
  }
  tstate.waiting.insert(item);

  std::vector<std::pair<CcCallback, CcGrant>> out;

  for (TxnId victim : to_wound) {
    ++wounds_;
    ReleaseAll(victim, out);
    NotifyVictim(victim, DenyReason::kWounded);
  }

  if (policy_ == DeadlockPolicy::kLocalWfg && conflict) {
    TxnId victim = FindWfgVictim(txn);
    if (victim.valid()) {
      ++wfg_victims_;
      if (victim == txn) {
        // The requester itself is the chosen victim: pull its request
        // back out of the queue and deny it synchronously.
        LockState& vls = locks_[item];
        for (auto qi = vls.queue.begin(); qi != vls.queue.end(); ++qi) {
          if (qi->txn == txn) {
            out.emplace_back(std::move(qi->cb),
                             CcGrant::Denied(DenyReason::kDeadlockVictim));
            vls.queue.erase(qi);
            break;
          }
        }
        txns_[txn].waiting.erase(item);
        ++denials_;
        PromoteWaiters(item, out);
      } else {
        ReleaseAll(victim, out);
        NotifyVictim(victim, DenyReason::kDeadlockVictim);
      }
    }
  }

  for (auto& [f, g] : out) f(g);
}

bool LockManager::TryLock(TxnId txn, ItemId item, Mode mode) {
  LockState& ls = locks_[item];
  if (ConflictsWithHolders(ls, txn, mode)) return false;
  auto [self, fresh] = ls.holders.try_emplace(txn, mode);
  if (!fresh && mode == Mode::kExclusive) self->second = Mode::kExclusive;
  txns_[txn].held.insert(item);
  return true;
}

void LockManager::RemoveFromQueue(ItemId item, TxnId txn) {
  auto it = locks_.find(item);
  if (it == locks_.end()) return;
  auto& q = it->second.queue;
  for (auto qi = q.begin(); qi != q.end(); ++qi) {
    if (qi->txn == txn) {
      q.erase(qi);
      return;
    }
  }
}

void LockManager::PromoteWaiters(
    ItemId item, std::vector<std::pair<CcCallback, CcGrant>>& out) {
  auto it = locks_.find(item);
  if (it == locks_.end()) return;
  LockState& ls = it->second;
  while (!ls.queue.empty()) {
    LockRequest& front = ls.queue.front();
    bool upgrade = false;
    auto self = ls.holders.find(front.txn);
    if (self != ls.holders.end()) {
      if (front.mode == Mode::kShared || self->second == Mode::kExclusive) {
        // Already satisfied (e.g. was wounded into release and re-granted
        // — shouldn't happen, but harmless).
        upgrade = false;
      } else {
        upgrade = true;
      }
    }
    if (ConflictsWithHolders(ls, front.txn, front.mode)) break;
    // Grant.
    if (upgrade) {
      self->second = Mode::kExclusive;
    } else {
      ls.holders[front.txn] = front.mode;
    }
    auto ts_it = txns_.find(front.txn);
    if (ts_it != txns_.end()) {
      ts_it->second.held.insert(item);
      ts_it->second.waiting.erase(item);
    }
    out.emplace_back(std::move(front.cb), CcGrant::Granted());
    ls.queue.pop_front();
  }
  if (ls.queue.empty() && ls.holders.empty()) locks_.erase(it);
}

std::vector<TxnId> LockManager::WaitingFor(TxnId txn) const {
  // Waits-for edges on demand: a waiter waits for every incompatible
  // holder of the item and every incompatible request queued ahead.
  std::vector<TxnId> out;
  auto ts_it = txns_.find(txn);
  if (ts_it == txns_.end()) return out;
  for (ItemId item : ts_it->second.waiting) {
    auto li = locks_.find(item);
    if (li == locks_.end()) continue;
    const LockState& ls = li->second;
    Mode mode = Mode::kShared;
    bool found = false;
    for (const LockRequest& r : ls.queue) {
      if (r.txn == txn) {
        mode = r.mode;
        found = true;
        break;
      }
    }
    if (!found) continue;
    for (const auto& [holder, held_mode] : ls.holders) {
      if (holder != txn && !Compatible(mode, held_mode)) {
        out.push_back(holder);
      }
    }
    for (const LockRequest& r : ls.queue) {
      if (r.txn == txn) break;
      if (!Compatible(mode, r.mode) || !Compatible(r.mode, mode)) {
        out.push_back(r.txn);
      }
    }
  }
  return out;
}

TxnId LockManager::FindWfgVictim(TxnId from) {
  auto edges_of = [&](TxnId t) { return WaitingFor(t); };

  // Iterative DFS with colors to find a cycle reachable from `from`.
  std::unordered_map<TxnId, int> color;  // 0 white, 1 grey, 2 black
  std::vector<TxnId> path;
  TxnId victim;

  std::function<bool(TxnId)> dfs = [&](TxnId t) -> bool {
    color[t] = 1;
    path.push_back(t);
    for (TxnId next : edges_of(t)) {
      auto c = color.find(next);
      if (c != color.end() && c->second == 1) {
        // Cycle: nodes from `next` to end of path.
        auto start = std::find(path.begin(), path.end(), next);
        TxnTimestamp youngest{-1, 0};
        for (auto pi = start; pi != path.end(); ++pi) {
          const TxnState& st = txns_.at(*pi);
          if (st.prepared) continue;
          if (!victim.valid() || youngest < st.ts) {
            youngest = st.ts;
            victim = *pi;
          }
        }
        return true;
      }
      if (c == color.end() || c->second == 0) {
        if (dfs(next)) return true;
      }
    }
    color[t] = 2;
    path.pop_back();
    return false;
  };

  dfs(from);
  return victim;
}

void LockManager::ReleaseAll(TxnId txn,
                             std::vector<std::pair<CcCallback, CcGrant>>& out) {
  auto it = txns_.find(txn);
  if (it == txns_.end()) return;
  TxnState state = std::move(it->second);
  txns_.erase(it);

  for (ItemId item : state.waiting) {
    RemoveFromQueue(item, txn);
  }
  std::set<ItemId> touched = state.held;
  for (ItemId item : state.waiting) touched.insert(item);
  for (ItemId item : state.held) {
    auto li = locks_.find(item);
    if (li != locks_.end()) li->second.holders.erase(txn);
  }
  for (ItemId item : touched) {
    PromoteWaiters(item, out);
  }
}

void LockManager::Finish(TxnId txn, bool commit) {
  (void)commit;  // locks are released identically on commit and abort
  std::vector<std::pair<CcCallback, CcGrant>> out;
  ReleaseAll(txn, out);
  for (auto& [f, g] : out) f(g);
}

void LockManager::MarkPrepared(TxnId txn) {
  auto it = txns_.find(txn);
  if (it != txns_.end()) it->second.prepared = true;
}

std::vector<std::pair<TxnId, LockManager::Mode>> LockManager::HoldersOf(
    ItemId item) const {
  std::vector<std::pair<TxnId, Mode>> out;
  auto it = locks_.find(item);
  if (it == locks_.end()) return out;
  for (const auto& [txn, mode] : it->second.holders) {
    out.emplace_back(txn, mode);
  }
  return out;
}

size_t LockManager::num_waiting() const {
  size_t n = 0;
  for (const auto& [item, ls] : locks_) n += ls.queue.size();
  return n;
}

size_t LockManager::num_held() const {
  size_t n = 0;
  for (const auto& [item, ls] : locks_) n += ls.holders.size();
  return n;
}

}  // namespace rainbow
