#ifndef RAINBOW_CC_OCC_MANAGER_H_
#define RAINBOW_CC_OCC_MANAGER_H_

#include <string>

#include "cc/cc_engine.h"
#include "cc/lock_manager.h"

namespace rainbow {

/// Optimistic concurrency control (Kung–Robinson style, adapted to the
/// distributed 2PC pipeline):
///
///  * Execution phase is completely lock-free: every read and prewrite
///    request is granted immediately; the engine records nothing.
///  * Validation happens at 2PC prepare time, at each participant:
///    the coordinator ships the versions its reads observed, the
///    participant re-checks them against the committed store, and the
///    engine supplies non-waiting *commit locks* (shared for validated
///    reads, exclusive for writes) held from the YES vote until the
///    decision. Any conflict or stale read fails validation — the
///    participant votes NO and the transaction restarts.
///
/// The commit locks make validation + write-back atomic per copy: two
/// conflicting transactions cannot both be in their commit window at an
/// overlapping copy, which yields conflict-serializability (verified
/// empirically by the property suite). They live in a 2PL lock table
/// (LockManager::TryLock), so S/X compatibility has one definition.
class OccManager final : public CcEngine {
 public:
  OccManager() = default;

  // Execution phase: everything is granted without bookkeeping.
  void RequestRead(TxnId, TxnTimestamp, ItemId, CcCallback cb) override {
    cb(CcGrant::Granted());
  }
  void RequestWrite(TxnId, TxnTimestamp, ItemId, CcCallback cb) override {
    cb(CcGrant::Granted());
  }

  bool TryCommitLock(TxnId txn, ItemId item, bool exclusive) override;
  void Finish(TxnId txn, bool commit) override {
    locks_.Finish(txn, commit);
  }
  bool Tracks(TxnId txn) const override { return locks_.Tracks(txn); }
  std::string name() const override { return "OCC"; }

  // --- introspection for tests ---
  uint64_t validation_conflicts() const { return validation_conflicts_; }
  /// Commit locks held, as (holder, item) pairs: a transaction's S and X
  /// on one item count once.
  size_t num_commit_locks() const { return locks_.num_held(); }

 private:
  /// Nothing ever queues here, so the deadlock policy is never consulted.
  LockManager locks_{DeadlockPolicy::kWaitDie};
  uint64_t validation_conflicts_ = 0;
};

}  // namespace rainbow

#endif  // RAINBOW_CC_OCC_MANAGER_H_
