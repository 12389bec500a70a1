#ifndef RAINBOW_CC_CC_ENGINE_H_
#define RAINBOW_CC_CC_ENGINE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "net/message.h"

namespace rainbow {

/// Which concurrency-control protocol a Rainbow instance runs at each
/// site. Selected in the Protocols Configuration step.
enum class CcKind {
  kTwoPhaseLocking,
  kTimestampOrdering,
  kMultiversionTso,  ///< the paper's "multi-versioning TSO" term project
  kOptimistic,       ///< OCC: lock-free execution, backward validation
                     ///< (version checks + non-waiting commit locks) at
                     ///< 2PC prepare time (extension)
};

const char* CcKindName(CcKind k);

/// How 2PL resolves (or avoids) deadlocks.
enum class DeadlockPolicy {
  kWaitDie,     ///< older waits, younger dies (no deadlock possible)
  kWoundWait,   ///< older wounds younger holder, younger waits
  kLocalWfg,    ///< waits allowed; local waits-for cycle check aborts youngest
  kTimeoutOnly, ///< waits allowed; rely on the coordinator's op timeout
  kEdgeChasing, ///< waits allowed; Chandy–Misra–Haas probes detect
                ///< distributed cycles and abort the probe initiator
};

const char* DeadlockPolicyName(DeadlockPolicy p);

/// Outcome of a copy-access request at a replica site.
struct CcGrant {
  bool granted = false;
  DenyReason reason = DenyReason::kNone;
  /// MVTO serves reads from its own version chain; when set, the caller
  /// must use this value/version instead of the committed store.
  bool has_value = false;
  Value value = 0;
  Version version = 0;

  static CcGrant Granted() { return CcGrant{true, DenyReason::kNone, false, 0, 0}; }
  static CcGrant Denied(DenyReason r) {
    return CcGrant{false, r, false, 0, 0};
  }
};

/// Callback invoked when an access request is decided. May fire
/// synchronously from Request*() or later when a conflicting transaction
/// finishes. Dropped (never invoked) if the requesting transaction is
/// finished/cancelled first.
using CcCallback = std::function<void(const CcGrant&)>;

/// Site-local concurrency control: the CCP of the paper. Each replica
/// site consults its engine when a copy is read or pre-written (§2.1).
///
/// Engines are purely reactive (no timers); waiting requests are woken
/// by Finish() of conflicting transactions. All engine state is
/// volatile — a site crash destroys the engine and a fresh one is built
/// at recovery.
class CcEngine {
 public:
  virtual ~CcEngine() = default;

  /// Invoked when the engine unilaterally aborts a transaction that had
  /// previously been granted access (wound-wait / waits-for victim).
  /// The site reacts by discarding local state and notifying the home
  /// site. Never invoked for the transaction currently inside a
  /// Request*() call (that one gets a denied callback instead).
  using VictimHandler = std::function<void(TxnId, DenyReason)>;
  void set_victim_handler(VictimHandler h) { victim_handler_ = std::move(h); }

  /// Requests read access to the local copy of `item`.
  virtual void RequestRead(TxnId txn, TxnTimestamp ts, ItemId item,
                           CcCallback cb) = 0;

  /// Requests write (pre-write) access to the local copy of `item`.
  virtual void RequestWrite(TxnId txn, TxnTimestamp ts, ItemId item,
                            CcCallback cb) = 0;

  /// Transaction finished at this site: releases all holds and pending
  /// requests, waking compatible waiters. `commit` distinguishes commit
  /// from abort (TSO advances write timestamps only on commit).
  virtual void Finish(TxnId txn, bool commit) = 0;

  /// Marks the transaction prepared (voted YES in 2PC): it must not be
  /// selected as a wound/deadlock victim from now on. Only 2PL picks
  /// victims; other engines ignore it.
  virtual void MarkPrepared(TxnId txn) { (void)txn; }

  /// Informs the engine of an applied committed write (MVTO extends its
  /// version chain from this; other engines ignore it).
  virtual void OnApply(TxnId txn, ItemId item, Value value, Version version) {
    (void)txn;
    (void)item;
    (void)value;
    (void)version;
  }

  /// True if the engine still tracks any state for `txn`.
  virtual bool Tracks(TxnId txn) const = 0;

  /// Transactions that `txn` is currently waiting for at this engine
  /// (conflicting holders / queued-ahead requests). Empty when `txn` is
  /// not blocked here. Drives the edge-chasing deadlock detector.
  virtual std::vector<TxnId> WaitingFor(TxnId txn) const {
    (void)txn;
    return {};
  }

  /// OCC commit-window locking: tries to take a non-waiting shared
  /// (read-validation) or exclusive (write) lock held until Finish().
  /// Returns false on conflict — the participant then votes NO. Engines
  /// other than OCC return true (their execution-phase CC already
  /// guarantees exclusivity).
  virtual bool TryCommitLock(TxnId txn, ItemId item, bool exclusive) {
    (void)txn;
    (void)item;
    (void)exclusive;
    return true;
  }

  virtual std::string name() const = 0;

 protected:
  void NotifyVictim(TxnId txn, DenyReason reason) {
    if (victim_handler_) victim_handler_(txn, reason);
  }

 private:
  VictimHandler victim_handler_;
};

/// Creates an engine of the requested kind. `policy` applies to 2PL only.
std::unique_ptr<CcEngine> CreateCcEngine(CcKind kind, DeadlockPolicy policy);

}  // namespace rainbow

#endif  // RAINBOW_CC_CC_ENGINE_H_
