#ifndef RAINBOW_CC_LOCK_MANAGER_H_
#define RAINBOW_CC_LOCK_MANAGER_H_

#include <deque>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "cc/cc_engine.h"

namespace rainbow {

/// Strict two-phase locking over the local item copies of one site.
///
/// Lock modes are shared (read) and exclusive (write), with S->X
/// upgrades. Requests that conflict either wait in a FIFO queue or are
/// resolved by the configured DeadlockPolicy:
///
///  * wait-die: an older requester waits; a younger one is denied
///    immediately (deadlock-free, no victims among holders).
///  * wound-wait: an older requester aborts ("wounds") younger holders
///    — unless they are already prepared — and waits; a younger
///    requester waits.
///  * local-wfg: requests wait; each block runs a cycle check on the
///    site-local waits-for graph and aborts the youngest transaction on
///    a detected cycle. (Cross-site deadlock cycles are broken by the
///    coordinator's operation timeout.)
///  * timeout-only: requests wait; the coordinator's timeout is the only
///    deadlock breaker.
///
/// Locks are held until Finish() — strictness — which 2PC guarantees to
/// call only after the global decision.
class LockManager final : public CcEngine {
 public:
  explicit LockManager(DeadlockPolicy policy);

  void RequestRead(TxnId txn, TxnTimestamp ts, ItemId item,
                   CcCallback cb) override;
  void RequestWrite(TxnId txn, TxnTimestamp ts, ItemId item,
                    CcCallback cb) override;
  void Finish(TxnId txn, bool commit) override;
  void MarkPrepared(TxnId txn) override;
  bool Tracks(TxnId txn) const override;
  std::vector<TxnId> WaitingFor(TxnId txn) const override;
  std::string name() const override;

  // --- introspection for tests and the progress monitor ---

  enum class Mode { kShared, kExclusive };

  /// Takes `mode` on `item` for `txn` if no other holder conflicts, held
  /// until Finish(); never queues and ignores queued requests. A holder
  /// of S that asks for X is upgraded; a holder of X keeps it. OCC's
  /// commit-window locks.
  bool TryLock(TxnId txn, ItemId item, Mode mode);

  /// Current holders of the lock on `item` (empty if unlocked).
  std::vector<std::pair<TxnId, Mode>> HoldersOf(ItemId item) const;

  /// Number of requests currently waiting across all items.
  size_t num_waiting() const;

  /// Number of (holder, item) pairs across all items.
  size_t num_held() const;

  /// Total times any request had to wait / was denied (lifetime counters).
  uint64_t waits_started() const { return waits_started_; }
  uint64_t denials() const { return denials_; }
  uint64_t wounds() const { return wounds_; }
  uint64_t wfg_victims() const { return wfg_victims_; }

 private:
  struct LockRequest {
    TxnId txn;
    TxnTimestamp ts;
    Mode mode;
    CcCallback cb;
  };
  struct LockState {
    std::map<TxnId, Mode> holders;
    std::deque<LockRequest> queue;
  };
  struct TxnState {
    TxnTimestamp ts;
    std::set<ItemId> held;
    std::set<ItemId> waiting;
    bool prepared = false;
  };

  void Request(TxnId txn, TxnTimestamp ts, ItemId item, Mode mode,
               CcCallback cb);

  /// True if `txn` asking for `mode` conflicts with current holders
  /// (ignoring its own holds).
  static bool ConflictsWithHolders(const LockState& ls, TxnId txn, Mode mode);

  /// Grants queued requests on `item` that are now compatible (FIFO).
  /// Appends granted callbacks to `granted` for deferred invocation.
  void PromoteWaiters(ItemId item,
                      std::vector<std::pair<CcCallback, CcGrant>>& out);

  /// Removes `txn`'s queued request on `item` if any.
  void RemoveFromQueue(ItemId item, TxnId txn);

  /// Detects a waits-for cycle reachable from `from`; returns the
  /// youngest (largest-timestamp) unprepared transaction on the cycle,
  /// or an invalid id if no cycle / no eligible victim.
  TxnId FindWfgVictim(TxnId from);

  /// Releases everything `txn` holds or waits for. Granted waiters are
  /// collected into `out` for deferred callback invocation.
  void ReleaseAll(TxnId txn, std::vector<std::pair<CcCallback, CcGrant>>& out);

  DeadlockPolicy policy_;
  std::unordered_map<ItemId, LockState> locks_;
  std::unordered_map<TxnId, TxnState> txns_;

  uint64_t waits_started_ = 0;
  uint64_t denials_ = 0;
  uint64_t wounds_ = 0;
  uint64_t wfg_victims_ = 0;
};

}  // namespace rainbow

#endif  // RAINBOW_CC_LOCK_MANAGER_H_
