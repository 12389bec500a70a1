#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "cc/timestamp_manager.h"
#include "common/rng.h"

namespace rainbow {
namespace {

TxnId T(uint64_t n) { return TxnId{0, n}; }
TxnTimestamp Ts(int64_t n) { return TxnTimestamp{n, 0}; }

struct Probe {
  std::optional<CcGrant> grant;
  CcCallback cb() {
    return [this](const CcGrant& g) { grant = g; };
  }
  bool granted() const { return grant.has_value() && grant->granted; }
  bool denied() const { return grant.has_value() && !grant->granted; }
  bool pending() const { return !grant.has_value(); }
};

// Basic timestamp ordering as a reference model: per item a read_ts, a
// write_ts, at most one pending prewrite and the waiting requests sorted
// by timestamp. Every decided request appends (id, granted) to `log`.
struct TsoModel {
  struct Req {
    size_t id;
    TxnId txn;
    TxnTimestamp ts;
    bool write;
  };
  struct Item {
    TxnTimestamp read_ts{-1, 0}, write_ts{-1, 0};
    std::optional<Req> pending;
    std::vector<Req> waiters;
  };
  std::map<ItemId, Item> items;
  std::vector<std::pair<size_t, bool>> log;
  size_t waiting = 0;

  enum Verdict { kGrant, kDeny, kWait };
  static Verdict Judge(const Item& it, const Req& r) {
    bool other = it.pending && !(it.pending->txn == r.txn);
    if (r.write) {
      if (it.pending && !other) return kGrant;
      if (r.ts < it.read_ts || r.ts < it.write_ts) return kDeny;
      if (other) return r.ts < it.pending->ts ? kDeny : kWait;
      return kGrant;
    }
    if (r.ts < it.write_ts) return kDeny;
    return other && it.pending->ts < r.ts ? kWait : kGrant;
  }
  void Decide(Item& it, const Req& r, Verdict v) {
    if (v == kGrant && r.write) it.pending = r;
    if (v == kGrant && !r.write) it.read_ts = std::max(it.read_ts, r.ts);
    log.emplace_back(r.id, v == kGrant);
  }
  void Request(ItemId item, const Req& r) {
    Item& it = items[item];
    Verdict v = Judge(it, r);
    if (v != kWait) return Decide(it, r, v);
    auto pos = std::upper_bound(
        it.waiters.begin(), it.waiters.end(), r,
        [](const Req& a, const Req& b) { return a.ts < b.ts; });
    it.waiters.insert(pos, r);
    ++waiting;
  }
  void Finish(TxnId txn, bool commit) {
    for (auto& [item, it] : items) {
      if (it.pending && it.pending->txn == txn) {
        if (commit) it.write_ts = std::max(it.write_ts, it.pending->ts);
        it.pending.reset();
      }
      waiting -= std::erase_if(it.waiters,
                               [&](const Req& r) { return r.txn == txn; });
      // Decide the first waiter that no longer waits, then rescan.
      for (size_t i = 0; i < it.waiters.size();) {
        Req r = it.waiters[i];
        Verdict v = Judge(it, r);
        if (v == kWait) {
          ++i;
          continue;
        }
        it.waiters.erase(it.waiters.begin() + static_cast<ptrdiff_t>(i));
        --waiting;
        Decide(it, r, v);
        i = 0;
      }
    }
  }
};

TEST(TsoTest, ReadsAndWritesInOrderGranted) {
  TimestampManager tso(TimestampManager::Versions::kOne);
  Probe r1, w2, r3;
  tso.RequestRead(T(1), Ts(1), 7, r1.cb());
  EXPECT_TRUE(r1.granted());
  tso.RequestWrite(T(2), Ts(2), 7, w2.cb());
  EXPECT_TRUE(w2.granted());
  tso.Finish(T(2), true);
  tso.RequestRead(T(3), Ts(3), 7, r3.cb());
  EXPECT_TRUE(r3.granted());
}

TEST(TsoTest, LateReadRejected) {
  TimestampManager tso(TimestampManager::Versions::kOne);
  Probe w, r;
  tso.RequestWrite(T(5), Ts(5), 7, w.cb());
  tso.Finish(T(5), true);  // write_ts = 5
  tso.RequestRead(T(3), Ts(3), 7, r.cb());
  ASSERT_TRUE(r.denied());
  EXPECT_EQ(r.grant->reason, DenyReason::kTsoTooLate);
  EXPECT_EQ(tso.rejections(), 1u);
}

TEST(TsoTest, LateWriteRejectedByReadTimestamp) {
  TimestampManager tso(TimestampManager::Versions::kOne);
  Probe r, w;
  tso.RequestRead(T(5), Ts(5), 7, r.cb());
  tso.RequestWrite(T(3), Ts(3), 7, w.cb());
  ASSERT_TRUE(w.denied());
  EXPECT_EQ(w.grant->reason, DenyReason::kTsoTooLate);
}

TEST(TsoTest, LateWriteRejectedByWriteTimestamp) {
  TimestampManager tso(TimestampManager::Versions::kOne);
  Probe w1, w2;
  tso.RequestWrite(T(5), Ts(5), 7, w1.cb());
  tso.Finish(T(5), true);
  tso.RequestWrite(T(3), Ts(3), 7, w2.cb());
  EXPECT_TRUE(w2.denied());
}

TEST(TsoTest, AbortedWriteDoesNotAdvanceWriteTs) {
  TimestampManager tso(TimestampManager::Versions::kOne);
  Probe w1, w2;
  tso.RequestWrite(T(5), Ts(5), 7, w1.cb());
  tso.Finish(T(5), false);  // abort
  tso.RequestWrite(T(3), Ts(3), 7, w2.cb());
  EXPECT_TRUE(w2.granted());  // 3 < 5 but the write never committed
}

TEST(TsoTest, ReadWaitsForOlderPendingWrite) {
  TimestampManager tso(TimestampManager::Versions::kOne);
  Probe w, r;
  tso.RequestWrite(T(2), Ts(2), 7, w.cb());
  EXPECT_TRUE(w.granted());
  tso.RequestRead(T(4), Ts(4), 7, r.cb());
  EXPECT_TRUE(r.pending());  // must observe T2's outcome (strictness)
  tso.Finish(T(2), true);
  EXPECT_TRUE(r.granted());
}

TEST(TsoTest, ReadOlderThanPendingWriteProceeds) {
  TimestampManager tso(TimestampManager::Versions::kOne);
  Probe w, r;
  tso.RequestWrite(T(4), Ts(4), 7, w.cb());
  tso.RequestRead(T(2), Ts(2), 7, r.cb());
  // The read precedes the pending write in timestamp order: it reads the
  // committed value and does not wait.
  EXPECT_TRUE(r.granted());
}

TEST(TsoTest, WaitingReadDeniedIfCommitOvertakesIt) {
  TimestampManager tso(TimestampManager::Versions::kOne);
  Probe w1, r, w2;
  tso.RequestWrite(T(2), Ts(2), 7, w1.cb());
  tso.RequestRead(T(3), Ts(3), 7, r.cb());
  EXPECT_TRUE(r.pending());
  // A younger write gets queued too.
  tso.RequestWrite(T(5), Ts(5), 7, w2.cb());
  EXPECT_TRUE(w2.pending());
  tso.Finish(T(2), true);  // write_ts = 2 < 3: read fine
  EXPECT_TRUE(r.granted());
  EXPECT_TRUE(w2.granted());
}

TEST(TsoTest, SecondPendingWriteWaits) {
  TimestampManager tso(TimestampManager::Versions::kOne);
  Probe w1, w2;
  tso.RequestWrite(T(2), Ts(2), 7, w1.cb());
  tso.RequestWrite(T(4), Ts(4), 7, w2.cb());
  EXPECT_TRUE(w2.pending());
  tso.Finish(T(2), true);
  EXPECT_TRUE(w2.granted());
}

TEST(TsoTest, OlderWriteDeniedWhileYoungerPending) {
  TimestampManager tso(TimestampManager::Versions::kOne);
  Probe w1, w2;
  tso.RequestWrite(T(4), Ts(4), 7, w1.cb());
  tso.RequestWrite(T(2), Ts(2), 7, w2.cb());
  EXPECT_TRUE(w2.denied());  // must precede the granted prewrite
}

TEST(TsoTest, OwnPendingWriteRegrant) {
  TimestampManager tso(TimestampManager::Versions::kOne);
  Probe w1, w2;
  tso.RequestWrite(T(2), Ts(2), 7, w1.cb());
  tso.RequestWrite(T(2), Ts(2), 7, w2.cb());  // same txn rewrites
  EXPECT_TRUE(w2.granted());
}

TEST(TsoTest, FinishDropsWaitingRequestsSilently) {
  TimestampManager tso(TimestampManager::Versions::kOne);
  Probe w, r;
  tso.RequestWrite(T(2), Ts(2), 7, w.cb());
  tso.RequestRead(T(4), Ts(4), 7, r.cb());
  EXPECT_TRUE(r.pending());
  tso.Finish(T(4), false);  // the waiting reader aborts
  EXPECT_EQ(tso.num_waiting(), 0u);
  tso.Finish(T(2), true);
  EXPECT_TRUE(r.pending());  // callback never fired
}

TEST(TsoTest, NoDeadlockYoungerWaitsForOlderOnly) {
  TimestampManager tso(TimestampManager::Versions::kOne);
  // Build a chain of waits: all point from younger to older.
  Probe w2, r5, r6;
  tso.RequestWrite(T(2), Ts(2), 7, w2.cb());
  tso.RequestRead(T(5), Ts(5), 7, r5.cb());
  tso.RequestRead(T(6), Ts(6), 7, r6.cb());
  EXPECT_TRUE(r5.pending());
  EXPECT_TRUE(r6.pending());
  tso.Finish(T(2), true);
  EXPECT_TRUE(r5.granted());
  EXPECT_TRUE(r6.granted());
  EXPECT_EQ(tso.num_waiting(), 0u);
}

TEST(TsoTest, ReadsAdvanceReadTimestampMonotonically) {
  TimestampManager tso(TimestampManager::Versions::kOne);
  Probe r9, w5;
  tso.RequestRead(T(9), Ts(9), 7, r9.cb());
  // An older read does not lower read_ts.
  Probe r3;
  tso.RequestRead(T(3), Ts(3), 7, r3.cb());
  EXPECT_TRUE(r3.granted());  // reads never conflict with reads
  tso.RequestWrite(T(5), Ts(5), 7, w5.cb());
  EXPECT_TRUE(w5.denied());  // read_ts is 9
}

TEST(TsoTest, MatchesTimestampModel) {
  // Seeded random reads, prewrites, commits and aborts by five
  // concurrent transactions over three items, with timestamps that often
  // arrive out of order. A transaction issues its next request only
  // once the last one is decided, and may abort while it waits. Every
  // verdict and the order of every callback must match the model.
  TimestampManager tso(TimestampManager::Versions::kOne);
  TsoModel model;
  std::vector<std::pair<size_t, bool>> log;
  std::vector<bool> decided;  // by request id
  Rng rng(31);
  struct Live {
    TxnId txn;
    TxnTimestamp ts;
    std::optional<size_t> waiting_on;  // id of an undecided request
  };
  uint64_t seq = 0;
  auto fresh = [&] {
    ++seq;
    return Live{T(seq),
                TxnTimestamp{static_cast<SimTime>(seq) + rng.NextInt(-8, 8),
                             static_cast<SiteId>(seq % 16)},
                std::nullopt};
  };
  std::vector<Live> live;
  for (int i = 0; i < 5; ++i) live.push_back(fresh());
  int waits = 0;
  for (int step = 0; step < 20000; ++step) {
    SCOPED_TRACE(step);
    Live& l = live[rng.NextUint(live.size())];
    double r = rng.NextDouble();
    bool blocked = l.waiting_on.has_value();
    if (blocked && r >= 0.2) continue;
    if (blocked || r < 0.25) {
      bool commit = !blocked && r < 0.15;
      tso.Finish(l.txn, commit);
      model.Finish(l.txn, commit);
      l = fresh();
    } else {
      ItemId item = static_cast<ItemId>(rng.NextUint(3));
      bool write = r < 0.6;
      size_t id = decided.size();
      decided.push_back(false);
      CcCallback cb = [&log, &decided, id](const CcGrant& g) {
        EXPECT_FALSE(g.has_value);
        EXPECT_EQ(g.reason,
                  g.granted ? DenyReason::kNone : DenyReason::kTsoTooLate);
        log.emplace_back(id, g.granted);
        decided[id] = true;
      };
      if (write) {
        tso.RequestWrite(l.txn, l.ts, item, std::move(cb));
      } else {
        tso.RequestRead(l.txn, l.ts, item, std::move(cb));
      }
      model.Request(item, TsoModel::Req{id, l.txn, l.ts, write});
      l.waiting_on = id;
      waits += decided.back() ? 0 : 1;
    }
    ASSERT_EQ(log, model.log);
    ASSERT_EQ(tso.num_waiting(), model.waiting);
    for (Live& other : live) {
      if (other.waiting_on && decided[*other.waiting_on]) {
        other.waiting_on.reset();
      }
    }
  }
  EXPECT_GT(tso.rejections(), 0u);
  EXPECT_GT(waits, 0);
}

}  // namespace
}  // namespace rainbow
