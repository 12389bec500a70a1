#include <gtest/gtest.h>

#include <optional>

#include "cc/timestamp_manager.h"

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

TEST(MvtoTest, ReadServesInitialVersion) {
  TimestampManager mvto(TimestampManager::Versions::kAll);
  mvto.LoadInitial(7, 42, 0);
  Probe r;
  mvto.RequestRead(T(1), Ts(1), 7, r.cb());
  ASSERT_TRUE(r.granted());
  EXPECT_TRUE(r.grant->has_value);
  EXPECT_EQ(r.grant->value, 42);
  EXPECT_EQ(r.grant->version, 0u);
}

TEST(MvtoTest, ReseedTurnsAwayAccessesBelowItsFloor) {
  // After a crash the site reseeds each chain from its store copy,
  // which may hold a write newer than an older reader must see, and the
  // read timestamps that fenced older writers are gone. Below the floor
  // the item grants nothing new; a prewrite pending from before the
  // reseed (a recovering site's in-doubt write) keeps its grant.
  TimestampManager mvto(TimestampManager::Versions::kAll);
  Probe in_doubt;
  mvto.RequestWrite(T(1), TxnTimestamp{0, 0}, 7, in_doubt.cb());
  ASSERT_TRUE(in_doubt.granted());
  mvto.LoadInitial(7, 42, 3, Ts(10));
  mvto.LoadInitial(8, 50, 2, Ts(10));

  Probe old_read, old_write, new_read;
  mvto.RequestRead(T(2), Ts(5), 8, old_read.cb());
  EXPECT_TRUE(old_read.denied());
  EXPECT_EQ(old_read.grant->reason, DenyReason::kTsoTooLate);
  mvto.RequestWrite(T(3), Ts(6), 8, old_write.cb());
  EXPECT_TRUE(old_write.denied());
  mvto.RequestRead(T(4), Ts(11), 8, new_read.cb());
  ASSERT_TRUE(new_read.granted());
  EXPECT_EQ(new_read.grant->value, 50);
  EXPECT_EQ(new_read.grant->version, 2u);

  // The in-doubt write commits; a read above the floor sees it.
  mvto.OnApply(T(1), 7, 60, 4);
  mvto.Finish(T(1), true);
  Probe after;
  mvto.RequestRead(T(5), Ts(12), 7, after.cb());
  ASSERT_TRUE(after.granted());
  EXPECT_EQ(after.grant->value, 60);
  EXPECT_EQ(after.grant->version, 4u);
}

TEST(MvtoTest, ReadSeesVersionAtOrBeforeItsTimestamp) {
  TimestampManager mvto(TimestampManager::Versions::kAll);
  mvto.LoadInitial(7, 10, 0);
  // T2 writes 20 (version 1), commits.
  Probe w;
  mvto.RequestWrite(T(2), Ts(2), 7, w.cb());
  mvto.OnApply(T(2), 7, 20, 1);
  mvto.Finish(T(2), true);
  // T5 writes 30 (version 2), commits.
  Probe w2;
  mvto.RequestWrite(T(5), Ts(5), 7, w2.cb());
  mvto.OnApply(T(5), 7, 30, 2);
  mvto.Finish(T(5), true);
  EXPECT_EQ(mvto.num_versions(7), 3u);

  // A read at ts 3 sees version written at ts 2 — even though a later
  // version exists. This is the MV advantage: no rejection.
  Probe r3, r9, r1;
  mvto.RequestRead(T(3), Ts(3), 7, r3.cb());
  ASSERT_TRUE(r3.granted());
  EXPECT_EQ(r3.grant->value, 20);
  EXPECT_EQ(r3.grant->version, 1u);

  mvto.RequestRead(T(9), Ts(9), 7, r9.cb());
  EXPECT_EQ(r9.grant->value, 30);

  mvto.RequestRead(T(1), Ts(1), 7, r1.cb());
  EXPECT_EQ(r1.grant->value, 10);  // before both writes
}

TEST(MvtoTest, OldReadNeverRejected) {
  TimestampManager mvto(TimestampManager::Versions::kAll);
  mvto.LoadInitial(7, 10, 0);
  Probe w;
  mvto.RequestWrite(T(5), Ts(5), 7, w.cb());
  mvto.OnApply(T(5), 7, 50, 1);
  mvto.Finish(T(5), true);
  // Under basic TSO a read at ts 3 would be rejected; MVTO serves the
  // old version.
  Probe r;
  mvto.RequestRead(T(3), Ts(3), 7, r.cb());
  ASSERT_TRUE(r.granted());
  EXPECT_EQ(r.grant->value, 10);
  EXPECT_EQ(mvto.rejections(), 0u);
}

TEST(MvtoTest, WriteRejectedWhenLaterReadSawPredecessor) {
  TimestampManager mvto(TimestampManager::Versions::kAll);
  mvto.LoadInitial(7, 10, 0);
  Probe r;
  mvto.RequestRead(T(5), Ts(5), 7, r.cb());  // rts(initial) = 5
  Probe w;
  mvto.RequestWrite(T(3), Ts(3), 7, w.cb());
  ASSERT_TRUE(w.denied());
  EXPECT_EQ(w.grant->reason, DenyReason::kTsoTooLate);
  EXPECT_EQ(mvto.rejections(), 1u);
}

TEST(MvtoTest, WriteAfterReaderIsFine) {
  TimestampManager mvto(TimestampManager::Versions::kAll);
  mvto.LoadInitial(7, 10, 0);
  Probe r, w;
  mvto.RequestRead(T(3), Ts(3), 7, r.cb());
  mvto.RequestWrite(T(5), Ts(5), 7, w.cb());
  EXPECT_TRUE(w.granted());
}

TEST(MvtoTest, ReadWaitsForOlderPendingWrite) {
  TimestampManager mvto(TimestampManager::Versions::kAll);
  mvto.LoadInitial(7, 10, 0);
  Probe w, r;
  mvto.RequestWrite(T(2), Ts(2), 7, w.cb());
  mvto.RequestRead(T(4), Ts(4), 7, r.cb());
  EXPECT_TRUE(r.pending());
  mvto.OnApply(T(2), 7, 20, 1);
  mvto.Finish(T(2), true);
  ASSERT_TRUE(r.granted());
  EXPECT_EQ(r.grant->value, 20);  // observes the committed write
}

TEST(MvtoTest, ReadProceedsAfterPendingWriterAborts) {
  TimestampManager mvto(TimestampManager::Versions::kAll);
  mvto.LoadInitial(7, 10, 0);
  Probe w, r;
  mvto.RequestWrite(T(2), Ts(2), 7, w.cb());
  mvto.RequestRead(T(4), Ts(4), 7, r.cb());
  EXPECT_TRUE(r.pending());
  mvto.Finish(T(2), false);  // abort: no OnApply
  ASSERT_TRUE(r.granted());
  EXPECT_EQ(r.grant->value, 10);
  EXPECT_EQ(mvto.num_versions(7), 1u);
}

TEST(MvtoTest, SecondPendingWriteWaits) {
  TimestampManager mvto(TimestampManager::Versions::kAll);
  mvto.LoadInitial(7, 10, 0);
  Probe w1, w2;
  mvto.RequestWrite(T(2), Ts(2), 7, w1.cb());
  mvto.RequestWrite(T(4), Ts(4), 7, w2.cb());
  EXPECT_TRUE(w2.pending());
  mvto.OnApply(T(2), 7, 20, 1);
  mvto.Finish(T(2), true);
  EXPECT_TRUE(w2.granted());
}

TEST(MvtoTest, ReadOnlyNeverBlocksOlderThanAllPending) {
  TimestampManager mvto(TimestampManager::Versions::kAll);
  mvto.LoadInitial(7, 10, 0);
  Probe w, r;
  mvto.RequestWrite(T(5), Ts(5), 7, w.cb());
  mvto.RequestRead(T(3), Ts(3), 7, r.cb());
  ASSERT_TRUE(r.granted());  // pending write is younger: irrelevant
  EXPECT_EQ(r.grant->value, 10);
}

TEST(MvtoTest, UnknownItemAutoSeeds) {
  TimestampManager mvto(TimestampManager::Versions::kAll);
  Probe r;
  mvto.RequestRead(T(1), Ts(1), 99, r.cb());
  ASSERT_TRUE(r.granted());
  EXPECT_EQ(r.grant->value, 0);
}

}  // namespace
}  // namespace rainbow
