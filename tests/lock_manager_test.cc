#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "cc/lock_manager.h"

namespace rainbow {
namespace {

TxnId T(uint64_t n) { return TxnId{0, n}; }
// Timestamp ordered by n: smaller n = older transaction.
TxnTimestamp Ts(int64_t n) { return TxnTimestamp{n, 0}; }

/// Captures the grant outcome of a request.
struct Probe {
  std::optional<CcGrant> grant;
  CcCallback cb() {
    return [this](const CcGrant& g) { grant = g; };
  }
  bool granted() const { return grant.has_value() && grant->granted; }
  bool denied() const { return grant.has_value() && !grant->granted; }
  bool pending() const { return !grant.has_value(); }
};

struct VictimLog {
  std::vector<std::pair<TxnId, DenyReason>> victims;
  void Attach(CcEngine& engine) {
    engine.set_victim_handler([this](TxnId t, DenyReason r) {
      victims.emplace_back(t, r);
    });
  }
};

TEST(LockManagerTest, SharedLocksCompatible) {
  LockManager lm(DeadlockPolicy::kWaitDie);
  Probe p1, p2;
  lm.RequestRead(T(1), Ts(1), 7, p1.cb());
  lm.RequestRead(T(2), Ts(2), 7, p2.cb());
  EXPECT_TRUE(p1.granted());
  EXPECT_TRUE(p2.granted());
  EXPECT_EQ(lm.HoldersOf(7).size(), 2u);
}

TEST(LockManagerTest, ExclusiveConflicts) {
  LockManager lm(DeadlockPolicy::kTimeoutOnly);
  Probe p1, p2, p3;
  lm.RequestWrite(T(1), Ts(1), 7, p1.cb());
  EXPECT_TRUE(p1.granted());
  lm.RequestRead(T(2), Ts(2), 7, p2.cb());
  lm.RequestWrite(T(3), Ts(3), 7, p3.cb());
  EXPECT_TRUE(p2.pending());
  EXPECT_TRUE(p3.pending());
  EXPECT_EQ(lm.num_waiting(), 2u);
}

TEST(LockManagerTest, ReleaseWakesFifo) {
  LockManager lm(DeadlockPolicy::kTimeoutOnly);
  Probe p1, p2, p3;
  lm.RequestWrite(T(1), Ts(1), 7, p1.cb());
  lm.RequestRead(T(2), Ts(2), 7, p2.cb());
  lm.RequestWrite(T(3), Ts(3), 7, p3.cb());
  lm.Finish(T(1), true);
  // FIFO: the read is granted; the write behind it still waits.
  EXPECT_TRUE(p2.granted());
  EXPECT_TRUE(p3.pending());
  lm.Finish(T(2), true);
  EXPECT_TRUE(p3.granted());
}

TEST(LockManagerTest, ReentrantRequestGranted) {
  LockManager lm(DeadlockPolicy::kWaitDie);
  Probe p1, p2;
  lm.RequestWrite(T(1), Ts(1), 7, p1.cb());
  lm.RequestRead(T(1), Ts(1), 7, p2.cb());  // X covers S
  EXPECT_TRUE(p2.granted());
}

TEST(LockManagerTest, UpgradeWhenSoleHolder) {
  LockManager lm(DeadlockPolicy::kWaitDie);
  Probe p1, p2;
  lm.RequestRead(T(1), Ts(1), 7, p1.cb());
  lm.RequestWrite(T(1), Ts(1), 7, p2.cb());
  EXPECT_TRUE(p2.granted());
  auto holders = lm.HoldersOf(7);
  ASSERT_EQ(holders.size(), 1u);
  EXPECT_EQ(holders[0].second, LockManager::Mode::kExclusive);
}

TEST(LockManagerTest, UpgradeWaitsForOtherReaders) {
  LockManager lm(DeadlockPolicy::kTimeoutOnly);
  Probe p1, p2, up;
  lm.RequestRead(T(1), Ts(1), 7, p1.cb());
  lm.RequestRead(T(2), Ts(2), 7, p2.cb());
  lm.RequestWrite(T(1), Ts(1), 7, up.cb());
  EXPECT_TRUE(up.pending());
  lm.Finish(T(2), false);
  EXPECT_TRUE(up.granted());
}

// --- wait-die ---

TEST(LockManagerWaitDie, YoungerRequesterDies) {
  LockManager lm(DeadlockPolicy::kWaitDie);
  Probe older, younger;
  lm.RequestWrite(T(1), Ts(1), 7, older.cb());
  lm.RequestWrite(T(2), Ts(2), 7, younger.cb());
  ASSERT_TRUE(younger.denied());
  EXPECT_EQ(younger.grant->reason, DenyReason::kDeadlockVictim);
  EXPECT_EQ(lm.denials(), 1u);
}

TEST(LockManagerWaitDie, OlderRequesterWaits) {
  LockManager lm(DeadlockPolicy::kWaitDie);
  Probe younger, older;
  lm.RequestWrite(T(2), Ts(2), 7, younger.cb());
  lm.RequestWrite(T(1), Ts(1), 7, older.cb());
  EXPECT_TRUE(older.pending());
  lm.Finish(T(2), true);
  EXPECT_TRUE(older.granted());
}

TEST(LockManagerWaitDie, MixedHoldersYoungestWins) {
  LockManager lm(DeadlockPolicy::kWaitDie);
  Probe a, b, req;
  lm.RequestRead(T(1), Ts(1), 7, a.cb());
  lm.RequestRead(T(3), Ts(3), 7, b.cb());
  // T2 wants X: older than T3 but younger than T1 -> dies.
  lm.RequestWrite(T(2), Ts(2), 7, req.cb());
  EXPECT_TRUE(req.denied());
}

// --- wound-wait ---

TEST(LockManagerWoundWait, OlderWoundsYoungerHolder) {
  LockManager lm(DeadlockPolicy::kWoundWait);
  VictimLog victims;
  victims.Attach(lm);
  Probe younger, older;
  lm.RequestWrite(T(2), Ts(2), 7, younger.cb());
  lm.RequestWrite(T(1), Ts(1), 7, older.cb());
  // The younger holder is wounded; the older requester gets the lock.
  ASSERT_EQ(victims.victims.size(), 1u);
  EXPECT_EQ(victims.victims[0].first, T(2));
  EXPECT_EQ(victims.victims[0].second, DenyReason::kWounded);
  EXPECT_TRUE(older.granted());
  EXPECT_EQ(lm.wounds(), 1u);
}

TEST(LockManagerWoundWait, YoungerRequesterWaits) {
  LockManager lm(DeadlockPolicy::kWoundWait);
  VictimLog victims;
  victims.Attach(lm);
  Probe older, younger;
  lm.RequestWrite(T(1), Ts(1), 7, older.cb());
  lm.RequestWrite(T(2), Ts(2), 7, younger.cb());
  EXPECT_TRUE(younger.pending());
  EXPECT_TRUE(victims.victims.empty());
  lm.Finish(T(1), true);
  EXPECT_TRUE(younger.granted());
}

TEST(LockManagerWoundWait, PreparedHolderIsImmune) {
  LockManager lm(DeadlockPolicy::kWoundWait);
  VictimLog victims;
  victims.Attach(lm);
  Probe younger, older;
  lm.RequestWrite(T(2), Ts(2), 7, younger.cb());
  lm.MarkPrepared(T(2));
  lm.RequestWrite(T(1), Ts(1), 7, older.cb());
  EXPECT_TRUE(victims.victims.empty());
  EXPECT_TRUE(older.pending());  // waits for the prepared holder
  lm.Finish(T(2), true);
  EXPECT_TRUE(older.granted());
}

// --- local waits-for-graph detection ---

TEST(LockManagerWfg, DetectsTwoTxnCycle) {
  LockManager lm(DeadlockPolicy::kLocalWfg);
  VictimLog victims;
  victims.Attach(lm);
  Probe a1, b2, a2, b1;
  lm.RequestWrite(T(1), Ts(1), 100, a1.cb());
  lm.RequestWrite(T(2), Ts(2), 200, b2.cb());
  lm.RequestWrite(T(1), Ts(1), 200, a2.cb());  // T1 waits for T2
  EXPECT_TRUE(a2.pending());
  lm.RequestWrite(T(2), Ts(2), 100, b1.cb());  // T2 waits for T1: cycle
  // Youngest (T2) must be the victim: either its request was denied
  // synchronously or it was aborted via the victim channel.
  bool b1_denied = b1.denied();
  bool t2_victim = !victims.victims.empty() &&
                   victims.victims[0].first == T(2);
  EXPECT_TRUE(b1_denied || t2_victim);
  EXPECT_EQ(lm.wfg_victims(), 1u);
  // A denied requester keeps its earlier holds until the coordinator
  // aborts it globally (strictness); after that T1 proceeds.
  if (b1_denied) lm.Finish(T(2), false);
  EXPECT_TRUE(a2.granted());
}

TEST(LockManagerWfg, NoFalsePositiveWithoutCycle) {
  LockManager lm(DeadlockPolicy::kLocalWfg);
  VictimLog victims;
  victims.Attach(lm);
  Probe p1, p2, p3;
  lm.RequestWrite(T(1), Ts(1), 7, p1.cb());
  lm.RequestWrite(T(2), Ts(2), 7, p2.cb());
  lm.RequestWrite(T(3), Ts(3), 7, p3.cb());
  EXPECT_TRUE(victims.victims.empty());
  EXPECT_EQ(lm.wfg_victims(), 0u);
}

TEST(LockManagerWfg, ThreeTxnCycleBroken) {
  LockManager lm(DeadlockPolicy::kLocalWfg);
  VictimLog victims;
  victims.Attach(lm);
  Probe x, y, z, xw, yw, zw;
  lm.RequestWrite(T(1), Ts(1), 1, x.cb());
  lm.RequestWrite(T(2), Ts(2), 2, y.cb());
  lm.RequestWrite(T(3), Ts(3), 3, z.cb());
  lm.RequestWrite(T(1), Ts(1), 2, xw.cb());  // 1 -> 2
  lm.RequestWrite(T(2), Ts(2), 3, yw.cb());  // 2 -> 3
  lm.RequestWrite(T(3), Ts(3), 1, zw.cb());  // 3 -> 1: cycle
  EXPECT_EQ(lm.wfg_victims(), 1u);
  // The youngest on the cycle is T3.
  bool t3_gone = zw.denied() ||
                 (!victims.victims.empty() && victims.victims[0].first == T(3));
  EXPECT_TRUE(t3_gone);
}

// --- release semantics ---

TEST(LockManagerTest, FinishRemovesQueuedRequests) {
  LockManager lm(DeadlockPolicy::kTimeoutOnly);
  Probe p1, p2;
  lm.RequestWrite(T(1), Ts(1), 7, p1.cb());
  lm.RequestWrite(T(2), Ts(2), 7, p2.cb());
  EXPECT_TRUE(p2.pending());
  lm.Finish(T(2), false);  // abort the waiter
  EXPECT_EQ(lm.num_waiting(), 0u);
  // Its callback must NOT fire later.
  lm.Finish(T(1), true);
  EXPECT_TRUE(p2.pending());
  EXPECT_FALSE(lm.Tracks(T(2)));
}

TEST(LockManagerTest, FinishUnknownTxnIsNoop) {
  LockManager lm(DeadlockPolicy::kWaitDie);
  lm.Finish(T(99), false);
  EXPECT_FALSE(lm.Tracks(T(99)));
}

TEST(LockManagerTest, TracksLifecycle) {
  LockManager lm(DeadlockPolicy::kWaitDie);
  Probe p;
  EXPECT_FALSE(lm.Tracks(T(1)));
  lm.RequestRead(T(1), Ts(1), 7, p.cb());
  EXPECT_TRUE(lm.Tracks(T(1)));
  lm.Finish(T(1), true);
  EXPECT_FALSE(lm.Tracks(T(1)));
  EXPECT_TRUE(lm.HoldersOf(7).empty());
}

TEST(LockManagerTest, TryLockNeverQueues) {
  // OCC's commit locks: a conflicting TryLock is refused on the spot and
  // leaves nothing behind, so the holder's Finish grants it nothing.
  LockManager lm(DeadlockPolicy::kTimeoutOnly);
  using Mode = LockManager::Mode;
  EXPECT_TRUE(lm.TryLock(T(1), 7, Mode::kExclusive));
  EXPECT_FALSE(lm.TryLock(T(2), 7, Mode::kShared));
  EXPECT_FALSE(lm.TryLock(T(2), 7, Mode::kExclusive));
  EXPECT_EQ(lm.num_waiting(), 0u);
  EXPECT_FALSE(lm.Tracks(T(2)));
  lm.Finish(T(1), true);
  EXPECT_TRUE(lm.HoldersOf(7).empty());
  EXPECT_FALSE(lm.Tracks(T(2)));

  // Shared locks coexist; an exclusive one fails against a foreign one.
  EXPECT_TRUE(lm.TryLock(T(3), 8, Mode::kShared));
  EXPECT_TRUE(lm.TryLock(T(4), 8, Mode::kShared));
  EXPECT_FALSE(lm.TryLock(T(4), 8, Mode::kExclusive));
  lm.Finish(T(3), false);

  // A transaction's own S-then-X upgrades; its X-then-S keeps X. Each
  // (holder, item) pair counts once.
  EXPECT_TRUE(lm.TryLock(T(4), 8, Mode::kExclusive));
  EXPECT_TRUE(lm.TryLock(T(5), 9, Mode::kExclusive));
  EXPECT_TRUE(lm.TryLock(T(5), 9, Mode::kShared));
  using Holders = std::vector<std::pair<TxnId, Mode>>;
  EXPECT_EQ(lm.HoldersOf(8), (Holders{{T(4), Mode::kExclusive}}));
  EXPECT_EQ(lm.HoldersOf(9), (Holders{{T(5), Mode::kExclusive}}));
  EXPECT_EQ(lm.num_held(), 2u);
  lm.Finish(T(4), true);
  lm.Finish(T(5), true);
  EXPECT_EQ(lm.num_held(), 0u);
}

}  // namespace
}  // namespace rainbow
