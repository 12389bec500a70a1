#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>

#include "common/binary_io.h"
#include "common/rng.h"
#include "storage/storage_engine.h"
#include "storage/wal.h"

namespace rainbow {
namespace {

// A small page store over its own log, the way a site owns one.
struct TestStore {
  Wal wal;
  PageStore store{&wal, PageStoreOptions{.page_size = 128, .pool_pages = 16}};
};

TEST(StoragePageStoreTest, LoadAndGet) {
  TestStore t;
  PageStore& store = t.store;
  store.Load(3, 42);
  EXPECT_TRUE(store.Has(3));
  EXPECT_FALSE(store.Has(4));
  auto copy = store.Get(3);
  ASSERT_TRUE(copy.ok());
  EXPECT_EQ(copy->value, 42);
  EXPECT_EQ(copy->version, 0u);
  EXPECT_FALSE(store.Get(4).ok());
}

TEST(StoragePageStoreTest, ApplyAdvancesVersion) {
  TestStore t;
  PageStore& store = t.store;
  store.Load(1, 0);
  EXPECT_TRUE(store.Apply(1, 10, 1));
  EXPECT_TRUE(store.Apply(1, 20, 2));
  auto copy = store.Get(1);
  EXPECT_EQ(copy->value, 20);
  EXPECT_EQ(copy->version, 2u);
}

TEST(StoragePageStoreTest, StaleApplyIgnored) {
  TestStore t;
  PageStore& store = t.store;
  store.Load(1, 0);
  EXPECT_TRUE(store.Apply(1, 10, 2));
  EXPECT_FALSE(store.Apply(1, 99, 2));  // duplicate version
  EXPECT_FALSE(store.Apply(1, 99, 1));  // older version
  EXPECT_EQ(store.Get(1)->value, 10);
}

TEST(StoragePageStoreTest, ApplyToUnknownItemFails) {
  TestStore t;
  PageStore& store = t.store;
  EXPECT_FALSE(store.Apply(7, 1, 1));
}

TEST(StoragePageStoreTest, AdoptIfNewer) {
  TestStore t;
  PageStore& store = t.store;
  store.Load(1, 5);
  EXPECT_TRUE(store.AdoptIfNewer(1, 50, 3));
  EXPECT_FALSE(store.AdoptIfNewer(1, 40, 2));  // older
  EXPECT_FALSE(store.AdoptIfNewer(9, 1, 1));   // not hosted
  EXPECT_EQ(store.Get(1)->value, 50);
}

WalRecord Prepared(TxnId txn, std::vector<WalRecord::Write> writes,
                   std::vector<SiteId> participants, bool three_phase = false) {
  WalRecord r;
  r.kind = WalRecordKind::kPrepared;
  r.txn = txn;
  r.coordinator = txn.home;
  r.writes = std::move(writes);
  r.participants = std::move(participants);
  r.three_phase = three_phase;
  return r;
}

TEST(WalTest, ScanSummarizesPerTxn) {
  Wal wal;
  TxnId t1{0, 1}, t2{0, 2};
  wal.Append(Prepared(t1, {{1, 10, 1}}, {0, 1}));
  wal.Append(WalRecord::Protocol(WalRecordKind::kCommitDecision, t1, 0, {}, {}, false));
  wal.Append(WalRecord::Protocol(WalRecordKind::kApplied, t1, 0, {}, {}, false));
  wal.Append(Prepared(t2, {}, {0, 2}));

  auto scan = wal.Scan();
  ASSERT_TRUE(scan.contains(t1));
  EXPECT_TRUE(scan.at(t1).prepared);
  EXPECT_TRUE(scan.at(t1).decided);
  EXPECT_TRUE(scan.at(t1).commit);
  EXPECT_TRUE(scan.at(t1).applied);
  EXPECT_FALSE(scan.at(t1).ended);
  EXPECT_TRUE(scan.at(t2).prepared);
  EXPECT_FALSE(scan.at(t2).decided);
}

TEST(WalTest, InDoubtFindsPreparedUndecided) {
  Wal wal;
  TxnId decided{0, 1}, in_doubt{0, 2};
  wal.Append(Prepared(decided, {}, {0}));
  wal.Append(WalRecord::Protocol(WalRecordKind::kAbortDecision, decided, 0, {}, {},
                       false));
  wal.Append(Prepared(in_doubt, {{4, 9, 2}}, {0, 1}));

  auto doubts = wal.InDoubt();
  ASSERT_EQ(doubts.size(), 1u);
  EXPECT_EQ(doubts[0].txn, in_doubt);
  ASSERT_EQ(doubts[0].writes.size(), 1u);
  EXPECT_EQ(doubts[0].writes[0].item, 4u);
  EXPECT_EQ(doubts[0].writes[0].version, 2u);
}

TEST(WalTest, DecidedUnendedIsCoordinatorOnly) {
  Wal wal;
  TxnId coord_txn{0, 1}, part_txn{2, 7}, closed{0, 3};
  // Coordinator decision (has participants), never ended.
  wal.Append(WalRecord::Protocol(WalRecordKind::kCommitDecision, coord_txn, 0, {},
                       {0, 1, 2}, false));
  // Participant decision (no participants): not ours to finish.
  wal.Append(WalRecord::Protocol(WalRecordKind::kCommitDecision, part_txn, 2, {}, {},
                       false));
  // Coordinator decision that was ended.
  wal.Append(WalRecord::Protocol(WalRecordKind::kAbortDecision, closed, 0, {}, {0, 1},
                       false));
  wal.Append(WalRecord::Protocol(WalRecordKind::kEnd, closed, 0, {}, {}, false));

  auto open = wal.DecidedUnended();
  ASSERT_EQ(open.size(), 1u);
  EXPECT_EQ(open[0].txn, coord_txn);
  EXPECT_TRUE(open[0].commit);
  EXPECT_EQ(open[0].participants, (std::vector<SiteId>{0, 1, 2}));
}

TEST(WalTest, CoordinatorAlsoParticipant) {
  // A site that prepared (as participant) AND logged the coordinator
  // decision must still re-propagate the decision after recovery.
  Wal wal;
  TxnId txn{0, 1};
  wal.Append(Prepared(txn, {{1, 5, 1}}, {0, 1}));
  wal.Append(
      WalRecord::Protocol(WalRecordKind::kCommitDecision, txn, 0, {}, {0, 1}, false));
  auto open = wal.DecidedUnended();
  ASSERT_EQ(open.size(), 1u);
  EXPECT_EQ(open[0].txn, txn);
  // And it is not in doubt (the decision is known).
  EXPECT_TRUE(wal.InDoubt().empty());
}

TEST(WalTest, SerializeRoundTrip) {
  Wal wal;
  TxnId t1{0, 1}, t2{3, 9};
  wal.Append(Prepared(t1, {{1, 10, 1}, {2, -5, 7}}, {0, 1, 2}, true));
  wal.Append(WalRecord::Protocol(WalRecordKind::kCommitDecision, t1, 0, {}, {0, 1},
                       false));
  wal.Append(WalRecord::Protocol(WalRecordKind::kApplied, t1, 0, {}, {}, false));
  wal.Append(Prepared(t2, {}, {3}));
  wal.Append(WalRecord::Protocol(WalRecordKind::kEnd, t1, 0, {}, {}, false));

  Wal loaded;
  ASSERT_TRUE(loaded.Deserialize(wal.Serialize()).ok());
  ASSERT_EQ(loaded.size(), wal.size());
  for (Lsn lsn = wal.base() + 1; lsn <= wal.LastLsn(); ++lsn) {
    EXPECT_EQ(loaded.At(lsn).kind, wal.At(lsn).kind);
    EXPECT_EQ(loaded.At(lsn).txn, wal.At(lsn).txn);
    EXPECT_EQ(loaded.At(lsn).participants, wal.At(lsn).participants);
    EXPECT_EQ(loaded.At(lsn).writes.size(), wal.At(lsn).writes.size());
  }
  // Derived views agree too.
  EXPECT_EQ(loaded.InDoubt().size(), wal.InDoubt().size());
  EXPECT_EQ(loaded.DecidedUnended().size(), wal.DecidedUnended().size());
  // Record contents survive.
  EXPECT_EQ(loaded.At(1).writes[1].value, -5);
  EXPECT_EQ(loaded.At(1).writes[1].version, 7u);
  EXPECT_TRUE(loaded.At(1).three_phase);
}

TEST(WalTest, DeserializeRejectsCorruption) {
  Wal wal;
  wal.Append(Prepared(TxnId{0, 1}, {{1, 2, 3}}, {0, 1}));
  std::vector<uint8_t> good = wal.Serialize();

  Wal target;
  // Bad magic.
  std::vector<uint8_t> bad = good;
  bad[0] ^= 0xff;
  EXPECT_FALSE(target.Deserialize(bad).ok());
  // Any version but 4, the older formats included (the u32 at byte 4).
  for (uint8_t version : {1, 2, 3, 5}) {
    bad = good;
    bad[4] = version;
    Status s = target.Deserialize(bad);
    EXPECT_NE(s.message().find("unsupported WAL version"), std::string::npos)
        << s;
    EXPECT_FALSE(target.DeserializeTolerant(bad).ok()) << int{version};
  }
  // Truncations at every length must fail cleanly.
  for (size_t len = 0; len < good.size(); ++len) {
    std::vector<uint8_t> cut(good.begin(),
                             good.begin() + static_cast<ptrdiff_t>(len));
    EXPECT_FALSE(target.Deserialize(cut).ok()) << "length " << len;
  }
  // Trailing garbage.
  bad = good;
  bad.push_back(0);
  EXPECT_FALSE(target.Deserialize(bad).ok());
  // A failed load leaves the target unchanged.
  ASSERT_TRUE(target.Deserialize(good).ok());
  EXPECT_EQ(target.size(), 1u);
  EXPECT_FALSE(target.Deserialize(bad).ok());
  EXPECT_EQ(target.size(), 1u);

  // Digest entries out of strictly increasing TxnId order (seq first,
  // then home): Serialize never writes them, and a forged duplicate
  // must not overwrite the earlier entry.
  auto digest_file = [](TxnId first, TxnId second) {
    Encoder e;
    e.PutU32(0x4c415752);  // "RWAL"
    e.PutU32(4);
    e.PutU64(kNoLsn);  // master
    e.PutU64(5);       // base
    e.PutU32(2);       // digest entries, both closed aborts
    for (const TxnId& txn : {first, second}) {
      e.PutTxnId(txn);
      e.PutU8(1u << 2);  // decided
      e.PutU64(3);
    }
    e.PutU32(0);  // records
    return e.Take();
  };
  ASSERT_TRUE(target.Deserialize(digest_file({1, 7}, {0, 8})).ok());
  EXPECT_EQ(target.Scan().size(), 2u);
  ASSERT_TRUE(target.Deserialize(good).ok());
  for (const auto& [first, second] :
       {std::pair{TxnId{2, 7}, TxnId{2, 7}},    // duplicate
        std::pair{TxnId{0, 8}, TxnId{1, 7}},    // seq steps back
        std::pair{TxnId{3, 7}, TxnId{2, 7}}}) {  // home steps back
    bad = digest_file(first, second);
    Status strict = target.Deserialize(bad);
    EXPECT_EQ(strict.code(), StatusCode::kInvalidArgument) << strict;
    EXPECT_EQ(strict.message(), "bad WAL digest entry");
    Status tolerant = target.DeserializeTolerant(bad);
    EXPECT_EQ(tolerant.code(), StatusCode::kIoError) << tolerant;
    EXPECT_EQ(tolerant.message(), "bad WAL digest entry");
    EXPECT_EQ(target.size(), 1u);  // unchanged
  }
}

TEST(WalTest, FileRoundTrip) {
  Wal wal;
  wal.Append(Prepared(TxnId{1, 2}, {{4, 44, 2}}, {0, 1}));
  wal.Append(WalRecord::Protocol(WalRecordKind::kAbortDecision, TxnId{1, 2}, 0, {}, {},
                       false));
  std::string path = ::testing::TempDir() + "/rainbow_wal_test.bin";
  ASSERT_TRUE(wal.SaveToFile(path).ok());
  Wal loaded;
  ASSERT_TRUE(loaded.LoadFromFile(path).ok());
  EXPECT_EQ(loaded.size(), 2u);
  auto scan = loaded.Scan();
  const auto& st = scan.at(TxnId{1, 2});
  EXPECT_TRUE(st.prepared);
  EXPECT_TRUE(st.decided);
  EXPECT_FALSE(st.commit);
  EXPECT_FALSE(loaded.LoadFromFile(path + ".missing").ok());
  std::remove(path.c_str());
}

TEST(StoragePageStoreTest, ApplyIsIdempotent) {
  // Recovery replays decisions; re-applying the exact same write must be
  // a no-op (returns false, state unchanged) so replay order/multiplicity
  // cannot change the committed state.
  TestStore t;
  PageStore& store = t.store;
  store.Load(1, 0);
  EXPECT_TRUE(store.Apply(1, 10, 3));
  EXPECT_FALSE(store.Apply(1, 10, 3));  // identical replay
  EXPECT_EQ(store.Get(1)->value, 10);
  EXPECT_EQ(store.Get(1)->version, 3u);
  // Replaying a whole prefix of history is equally inert.
  EXPECT_TRUE(store.Apply(1, 20, 5));
  EXPECT_FALSE(store.Apply(1, 10, 3));
  EXPECT_FALSE(store.Apply(1, 20, 5));
  EXPECT_EQ(store.Get(1)->value, 20);
  EXPECT_EQ(store.Get(1)->version, 5u);
}

TEST(StoragePageStoreTest, AdoptIfNewerIsIdempotent) {
  TestStore t;
  PageStore& store = t.store;
  store.Load(1, 0);
  EXPECT_TRUE(store.AdoptIfNewer(1, 7, 2));
  EXPECT_FALSE(store.AdoptIfNewer(1, 7, 2));  // identical replay
  // Apply and AdoptIfNewer share the stale-version gate, so refresh
  // adoption interleaved with decision replay converges the same way.
  EXPECT_FALSE(store.Apply(1, 7, 2));
  EXPECT_TRUE(store.Apply(1, 9, 4));
  EXPECT_FALSE(store.AdoptIfNewer(1, 8, 3));
  EXPECT_EQ(store.Get(1)->value, 9);
  EXPECT_EQ(store.Get(1)->version, 4u);
}

TEST(WalTest, InDoubtCanonicalOrderRegardlessOfAppendOrder) {
  // Regression: InDoubt() used to surface transactions in the scan's
  // unordered_map iteration order, so two sites replaying the same log
  // could reinstate in-doubt transactions in different orders. The
  // result must be sorted by TxnId no matter how the appends interleave.
  std::vector<TxnId> txns = {{2, 9}, {0, 3}, {1, 7}, {3, 1}, {0, 5}};
  Wal shuffled;
  for (TxnId t : txns) shuffled.Append(Prepared(t, {}, {0, 1}));
  Wal ordered;
  std::vector<TxnId> sorted = txns;
  std::sort(sorted.begin(), sorted.end());
  for (TxnId t : sorted) ordered.Append(Prepared(t, {}, {0, 1}));

  auto a = shuffled.InDoubt();
  auto b = ordered.InDoubt();
  ASSERT_EQ(a.size(), txns.size());
  ASSERT_EQ(b.size(), txns.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].txn, b[i].txn) << "position " << i;
    if (i > 0) {
      EXPECT_TRUE(a[i - 1].txn < a[i].txn);
    }
  }
}

TEST(WalTest, DecidedUnendedCanonicalOrderRegardlessOfAppendOrder) {
  std::vector<TxnId> txns = {{1, 4}, {0, 8}, {2, 2}, {0, 6}};
  Wal shuffled;
  for (TxnId t : txns) {
    shuffled.Append(WalRecord::Protocol(WalRecordKind::kCommitDecision, t,
                                        t.home, {}, {0, 1}, false));
  }
  Wal ordered;
  std::vector<TxnId> sorted = txns;
  std::sort(sorted.begin(), sorted.end());
  for (TxnId t : sorted) {
    ordered.Append(WalRecord::Protocol(WalRecordKind::kCommitDecision, t,
                                       t.home, {}, {0, 1}, false));
  }
  auto a = shuffled.DecidedUnended();
  auto b = ordered.DecidedUnended();
  ASSERT_EQ(a.size(), txns.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].txn, b[i].txn) << "position " << i;
    if (i > 0) {
      EXPECT_TRUE(a[i - 1].txn < a[i].txn);
    }
  }
}

TEST(WalTest, LoadFromFileReportsReadErrors) {
  // Regression: LoadFromFile returned whatever partial bytes fread
  // produced when the stream errored mid-read. fopen("rb") on a
  // directory succeeds on POSIX but every read fails, which exercises
  // exactly the ferror path.
  std::string dir = ::testing::TempDir() + "/rainbow_wal_dir_test";
  std::error_code ec;
  std::filesystem::create_directory(dir, ec);
  ASSERT_TRUE(std::filesystem::is_directory(dir));
  Wal wal;
  Status s = wal.LoadFromFile(dir);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_NE(s.message().find(dir), std::string::npos);
  EXPECT_EQ(wal.size(), 0u);
  std::filesystem::remove(dir);
}

WalRecord StoreUpdate(TxnId txn, ItemId item, Value before_v, Version before_ver,
                      Value value, Version version, bool tentative,
                      Lsn prev_lsn) {
  WalRecord r;
  r.kind = WalRecordKind::kStoreUpdate;
  r.txn = txn;
  r.prev_lsn = prev_lsn;
  r.store.item = item;
  r.store.page_id = 3;
  r.store.before_value = before_v;
  r.store.before_version = before_ver;
  r.store.value = value;
  r.store.version = version;
  r.store.tentative = tentative;
  return r;
}

TEST(WalTest, StoreRecordsRoundTrip) {
  Wal wal;
  TxnId txn{1, 6};
  WalRecord begin;
  begin.kind = WalRecordKind::kStoreBegin;
  begin.txn = txn;
  Lsn b = wal.Append(begin);
  Lsn u = wal.Append(StoreUpdate(txn, 4, 10, 2, 99, (1ull << 63) | 2, true, b));
  WalRecord clr;
  clr.kind = WalRecordKind::kStoreClr;
  clr.txn = txn;
  clr.prev_lsn = u;
  clr.undo_next_lsn = b;
  clr.store.item = 4;
  clr.store.value = 10;
  clr.store.version = 2;
  clr.store.before_value = 99;
  clr.store.before_version = (1ull << 63) | 2;
  wal.Append(clr);
  WalRecord end;
  end.kind = WalRecordKind::kStoreEnd;
  end.txn = txn;
  wal.Append(end);

  Wal loaded;
  ASSERT_TRUE(loaded.Deserialize(wal.Serialize()).ok());
  ASSERT_EQ(loaded.size(), 4u);
  const WalRecord& lu = loaded.At(2);
  EXPECT_EQ(lu.kind, WalRecordKind::kStoreUpdate);
  EXPECT_EQ(lu.store.item, 4u);
  EXPECT_EQ(lu.store.before_value, 10);
  EXPECT_EQ(lu.store.before_version, 2u);
  EXPECT_EQ(lu.store.value, 99);
  EXPECT_EQ(lu.store.version, (1ull << 63) | 2);
  EXPECT_TRUE(lu.store.tentative);
  EXPECT_EQ(lu.prev_lsn, b);
  const WalRecord& lc = loaded.At(3);
  EXPECT_EQ(lc.kind, WalRecordKind::kStoreClr);
  EXPECT_EQ(lc.undo_next_lsn, b);
}

TEST(WalTest, DeserializePrefixPropertyNeverPartiallyApplies) {
  // Property: for EVERY prefix of a valid serialized log, Deserialize
  // returns a clean error (no crash, no partial state) and leaves the
  // target's records untouched. Uses a log with protocol AND store
  // records so every field's decoder sees truncation.
  Wal wal;
  TxnId t1{0, 1}, t2{2, 5};
  wal.Append(Prepared(t1, {{1, 10, 1}, {2, -5, 7}}, {0, 1, 2}, true));
  WalRecord begin;
  begin.kind = WalRecordKind::kStoreBegin;
  begin.txn = t2;
  Lsn b = wal.Append(begin);
  wal.Append(StoreUpdate(t2, 7, 1, 0, 42, (1ull << 63) | 3, true, b));
  wal.Append(WalRecord::Protocol(WalRecordKind::kCommitDecision, t1, 0, {},
                                 {0, 1}, false));
  std::vector<uint8_t> good = wal.Serialize();

  Wal target;
  WalRecord seed;
  seed.kind = WalRecordKind::kStoreCommit;
  seed.txn = t1;
  target.Append(seed);
  for (size_t len = 0; len < good.size(); ++len) {
    std::vector<uint8_t> cut(good.begin(),
                             good.begin() + static_cast<ptrdiff_t>(len));
    Status s = target.Deserialize(cut);
    EXPECT_FALSE(s.ok()) << "prefix length " << len;
    ASSERT_EQ(target.size(), 1u) << "partial apply at length " << len;
    EXPECT_EQ(target.At(1).kind, WalRecordKind::kStoreCommit);
  }
  // The full buffer still parses (the loop didn't poison the target).
  ASSERT_TRUE(target.Deserialize(good).ok());
  EXPECT_EQ(target.size(), wal.size());
}

TEST(WalTest, TolerantLoadTruncatesTornTail) {
  // A crash mid-append leaves the final record cut short. The tolerant
  // loader must drop exactly the torn tail and keep every intact prefix
  // record, whatever byte the cut landed on.
  Wal wal;
  wal.Append(Prepared(TxnId{0, 1}, {{1, 10, 1}}, {0, 1}));
  wal.Append(WalRecord::Protocol(WalRecordKind::kCommitDecision, TxnId{0, 1},
                                 0, {}, {0, 1}, false));
  wal.Append(Prepared(TxnId{2, 7}, {{3, 30, 3}}, {2}));
  std::vector<uint8_t> good = wal.Serialize();

  // Find where the last record's frame begins: serialize a 2-record log
  // of the same prefix and measure.
  Wal prefix;
  prefix.Append(wal.At(1));
  prefix.Append(wal.At(2));
  const size_t last_frame = prefix.Serialize().size();

  for (size_t len = last_frame; len < good.size(); ++len) {
    std::vector<uint8_t> cut(good.begin(),
                             good.begin() + static_cast<ptrdiff_t>(len));
    Wal loaded;
    size_t dropped = 0;
    Status s = loaded.DeserializeTolerant(cut, &dropped);
    ASSERT_TRUE(s.ok()) << "cut at " << len << ": " << s;
    EXPECT_EQ(loaded.size(), 2u) << "cut at " << len;
    EXPECT_EQ(dropped, 1u) << "cut at " << len;
    // The strict loader must still reject the same bytes.
    Wal strict;
    EXPECT_FALSE(strict.Deserialize(cut).ok()) << "cut at " << len;
  }
}

TEST(WalTest, TolerantLoadDropsCorruptFinalRecord) {
  // A bit flipped inside the LAST record is indistinguishable from a
  // torn append of that record: dropped, not fatal.
  Wal wal;
  wal.Append(Prepared(TxnId{0, 1}, {{1, 10, 1}}, {0, 1}));
  wal.Append(Prepared(TxnId{0, 2}, {{2, 20, 2}}, {0, 1}));
  std::vector<uint8_t> bad = wal.Serialize();
  bad.back() ^= 0xff;  // payload tail of the final record

  Wal loaded;
  size_t dropped = 0;
  ASSERT_TRUE(loaded.DeserializeTolerant(bad, &dropped).ok());
  EXPECT_EQ(loaded.size(), 1u);
  EXPECT_EQ(dropped, 1u);
  EXPECT_EQ(loaded.At(1).txn, (TxnId{0, 1}));
}

TEST(WalTest, TolerantLoadRejectsMidLogCorruption) {
  // Corruption BEFORE intact records is media damage, not a torn
  // append: the tolerant loader reports IoError and leaves the target
  // untouched instead of silently truncating committed history.
  Wal wal;
  wal.Append(Prepared(TxnId{0, 1}, {{1, 10, 1}}, {0, 1}));
  wal.Append(Prepared(TxnId{0, 2}, {{2, 20, 2}}, {0, 1}));
  wal.Append(Prepared(TxnId{0, 3}, {{3, 30, 3}}, {0, 1}));
  std::vector<uint8_t> bad = wal.Serialize();
  // First record's payload starts right after the file header (v4 with
  // an empty truncation digest: magic + version + master + base +
  // digest count + record count = 32 bytes) and the first [len][crc]
  // frame: flip a byte there.
  bad[32 + 8 + 2] ^= 0x40;

  Wal target;
  target.Append(Prepared(TxnId{9, 9}, {}, {0}));
  size_t dropped = 77;
  Status s = target.DeserializeTolerant(bad, &dropped);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_NE(s.message().find("corruption"), std::string::npos);
  EXPECT_EQ(target.size(), 1u);  // unchanged
}

TEST(WalTest, MasterAndCheckpointRoundTrip) {
  Wal wal;
  wal.Append(Prepared(TxnId{0, 1}, {{1, 10, 1}}, {0, 1}));
  WalRecord begin;
  begin.kind = WalRecordKind::kCheckpointBegin;
  Lsn b = wal.Append(begin);
  WalRecord end;
  end.kind = WalRecordKind::kCheckpointEnd;
  end.prev_lsn = b;
  end.checkpoint.att = {{TxnId{0, 1}, 1}};
  end.checkpoint.dpt = {{2, 1}, {5, 3}};
  wal.Append(end);
  wal.SetMaster(b);

  Wal loaded;
  ASSERT_TRUE(loaded.Deserialize(wal.Serialize()).ok());
  EXPECT_EQ(loaded.master(), b);
  const WalRecord& got = loaded.At(3);
  EXPECT_EQ(got.kind, WalRecordKind::kCheckpointEnd);
  EXPECT_EQ(got.prev_lsn, b);
  ASSERT_EQ(got.checkpoint.att.size(), 1u);
  EXPECT_EQ(got.checkpoint.att[0].first, (TxnId{0, 1}));
  ASSERT_EQ(got.checkpoint.dpt.size(), 2u);
  EXPECT_EQ(got.checkpoint.dpt[1].first, 5u);
  EXPECT_EQ(got.checkpoint.dpt[1].second, 3u);

  // Tolerant file round trip preserves the master pointer too.
  std::string path = ::testing::TempDir() + "/rainbow_wal_ckpt_test.bin";
  ASSERT_TRUE(wal.SaveToFile(path).ok());
  Wal from_file;
  size_t dropped = 1;
  ASSERT_TRUE(from_file.LoadFromFile(path, &dropped).ok());
  EXPECT_EQ(dropped, 0u);
  EXPECT_EQ(from_file.master(), b);
  std::remove(path.c_str());
}

TEST(WalTest, IsPreparedUndecidedTracksAppendsAndReloads) {
  Wal wal;
  TxnId txn{1, 5};
  EXPECT_FALSE(wal.IsPreparedUndecided(txn));
  wal.Append(Prepared(txn, {}, {0, 1}));
  EXPECT_TRUE(wal.IsPreparedUndecided(txn));

  // The index survives a serialize/deserialize cycle.
  Wal loaded;
  ASSERT_TRUE(loaded.Deserialize(wal.Serialize()).ok());
  EXPECT_TRUE(loaded.IsPreparedUndecided(txn));

  wal.Append(WalRecord::Protocol(WalRecordKind::kAbortDecision, txn, 0, {}, {},
                                 false));
  EXPECT_FALSE(wal.IsPreparedUndecided(txn));
}

TEST(WalTest, SaveToFileReportsFlushErrors) {
  // Regression: SaveToFile checked fwrite's count but never fflush/
  // ferror, so a full disk (writes buffered, error surfacing only at
  // flush) reported success while the file was torn. /dev/full fails
  // exactly that way on Linux.
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "/dev/full not available";
  }
  Wal wal;
  wal.Append(Prepared(TxnId{0, 1}, {{1, 10, 1}}, {0, 1}));
  Status s = wal.SaveToFile("/dev/full");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

// --- head truncation -------------------------------------------------------

WalRecord Decision(WalRecordKind kind, TxnId txn,
                   std::vector<SiteId> participants = {}) {
  return WalRecord::Protocol(kind, txn, txn.home, {}, std::move(participants),
                             false);
}

TEST(WalTest, TruncateBeforeKeepsLsnsStable) {
  Wal wal;
  TxnId t1{0, 1}, t2{0, 2};
  Lsn l1 = wal.Append(Prepared(t1, {{1, 10, 1}}, {0, 1}));
  wal.Append(Decision(WalRecordKind::kCommitDecision, t1));
  wal.Append(Decision(WalRecordKind::kApplied, t1));
  Lsn l4 = wal.Append(Prepared(t2, {{2, 20, 2}}, {0, 1}));
  ASSERT_EQ(l1, 1u);
  ASSERT_EQ(l4, 4u);

  EXPECT_EQ(wal.TruncateBefore(4), 3u);
  EXPECT_EQ(wal.base(), 3u);
  EXPECT_EQ(wal.size(), 1u);
  EXPECT_EQ(wal.LastLsn(), 4u);
  EXPECT_EQ(wal.NextLsn(), 5u);
  EXPECT_FALSE(wal.Contains(3));
  ASSERT_TRUE(wal.Contains(4));
  EXPECT_EQ(wal.At(4).txn, t2);

  // Appends keep numbering from the pre-truncation LSN space.
  Lsn l5 = wal.Append(Decision(WalRecordKind::kAbortDecision, t2));
  EXPECT_EQ(l5, 5u);
  ASSERT_TRUE(wal.Contains(5));

  // Truncating at or below the current head is a no-op.
  EXPECT_EQ(wal.TruncateBefore(2), 0u);
  EXPECT_EQ(wal.TruncateBefore(4), 0u);
  EXPECT_EQ(wal.base(), 3u);
}

TEST(WalTest, TruncationGivesBackTheHeadsCapacity) {
  Wal wal;
  for (uint64_t seq = 1; seq <= 1000; ++seq) {
    wal.Append(Prepared(TxnId{0, seq}, {{1, 10, seq}}, {0, 1}));
  }
  const size_t high_water = wal.held_bytes();
  ASSERT_GE(high_water, wal.resident_bytes());

  EXPECT_EQ(wal.TruncateBefore(wal.LastLsn() - 2), 997u);
  EXPECT_EQ(wal.size(), 3u);
  EXPECT_EQ(wal.held_bytes(), wal.resident_bytes());
  EXPECT_LT(wal.held_bytes() * 100, high_water);
  EXPECT_EQ(wal.At(wal.LastLsn()).txn, (TxnId{0, 1000}));

  // Dropping the rest leaves nothing allocated.
  EXPECT_EQ(wal.TruncateBefore(wal.NextLsn()), 3u);
  EXPECT_EQ(wal.held_bytes(), 0u);
}

TEST(WalTest, ScanAnswersFromDigestAfterTruncation) {
  // Close a transaction completely (prepared -> commit -> applied),
  // truncate its records away, and the digest-backed queries must
  // answer exactly as before: a site answers decision queries from the
  // digest, so it must survive checkpoint-time head reclamation.
  Wal wal;
  TxnId closed{0, 1}, open{0, 2};
  wal.Append(Prepared(closed, {{1, 10, 1}}, {0, 1}));
  wal.Append(Decision(WalRecordKind::kCommitDecision, closed));
  wal.Append(Decision(WalRecordKind::kApplied, closed));
  Lsn open_first = wal.Append(Prepared(open, {{2, 20, 2}}, {0, 1}));

  // The open (in-doubt) transaction pins the protocol barrier.
  EXPECT_EQ(wal.ProtocolBarrier(), open_first);
  wal.TruncateBefore(wal.ProtocolBarrier());
  EXPECT_EQ(wal.base(), open_first - 1);

  auto scan = wal.Scan();
  ASSERT_TRUE(scan.contains(closed));
  EXPECT_TRUE(scan.at(closed).prepared);
  EXPECT_TRUE(scan.at(closed).decided);
  EXPECT_TRUE(scan.at(closed).commit);
  EXPECT_TRUE(scan.at(closed).applied);
  EXPECT_FALSE(wal.IsPreparedUndecided(closed));
  EXPECT_EQ(wal.Decision(closed), std::optional<bool>(true));
  EXPECT_EQ(wal.Decision(open), std::nullopt);

  // The in-doubt txn kept its full prepared record.
  auto doubts = wal.InDoubt();
  ASSERT_EQ(doubts.size(), 1u);
  EXPECT_EQ(doubts[0].txn, open);
  ASSERT_EQ(doubts[0].writes.size(), 1u);
  EXPECT_EQ(doubts[0].writes[0].value, 20);

  // And the digest survives a save/load round trip (v4 header).
  Wal loaded;
  ASSERT_TRUE(loaded.Deserialize(wal.Serialize()).ok());
  EXPECT_EQ(loaded.base(), wal.base());
  EXPECT_EQ(loaded.LastLsn(), wal.LastLsn());
  auto reloaded = loaded.Scan();
  ASSERT_TRUE(reloaded.contains(closed));
  EXPECT_TRUE(reloaded.at(closed).decided);
  EXPECT_TRUE(reloaded.at(closed).commit);
  EXPECT_TRUE(reloaded.at(closed).applied);
  ASSERT_EQ(loaded.InDoubt().size(), 1u);
  EXPECT_EQ(loaded.InDoubt()[0].txn, open);
}

TEST(WalTest, ProtocolBarrierTracksOpenTransactions) {
  Wal wal;
  TxnId coord{0, 1}, part{1, 2};
  EXPECT_EQ(wal.ProtocolBarrier(), wal.NextLsn());

  // Coordinator decision with a participant list: open until kEnd.
  Lsn dec = wal.Append(Decision(WalRecordKind::kCommitDecision, coord, {1, 2}));
  EXPECT_EQ(wal.ProtocolBarrier(), dec);

  // Participant prepare: open until decided AND applied.
  Lsn prep = wal.Append(Prepared(part, {{3, 30, 3}}, {0, 1}));
  EXPECT_EQ(wal.ProtocolBarrier(), dec);

  wal.Append(Decision(WalRecordKind::kEnd, coord));
  EXPECT_EQ(wal.ProtocolBarrier(), prep);  // coordinator txn closed

  wal.Append(Decision(WalRecordKind::kAbortDecision, part));
  EXPECT_EQ(wal.ProtocolBarrier(), prep);  // decided but not applied
  wal.Append(Decision(WalRecordKind::kApplied, part));
  EXPECT_EQ(wal.ProtocolBarrier(), wal.NextLsn());  // everything closed
}

TEST(WalTest, TruncationClearsDanglingMaster) {
  // A direct truncation past the master (storage-engine barriers never
  // do this, but tools can) must not leave master() naming a record
  // that no longer exists.
  Wal wal;
  WalRecord begin;
  begin.kind = WalRecordKind::kCheckpointBegin;
  Lsn b = wal.Append(begin);
  WalRecord end;
  end.kind = WalRecordKind::kCheckpointEnd;
  end.prev_lsn = b;
  wal.Append(end);
  wal.Append(Prepared(TxnId{0, 9}, {}, {0}));
  wal.SetMaster(b);

  wal.TruncateBefore(3);
  EXPECT_EQ(wal.base(), 2u);
  EXPECT_EQ(wal.master(), kNoLsn);
}

TEST(WalTest, TruncatedFileRoundTripKeepsMasterAndTornTailRules) {
  Wal wal;
  wal.Append(Prepared(TxnId{0, 1}, {{1, 10, 1}}, {0, 1}));
  wal.Append(Decision(WalRecordKind::kCommitDecision, TxnId{0, 1}));
  wal.Append(Decision(WalRecordKind::kApplied, TxnId{0, 1}));
  WalRecord begin;
  begin.kind = WalRecordKind::kCheckpointBegin;
  Lsn b = wal.Append(begin);
  WalRecord end;
  end.kind = WalRecordKind::kCheckpointEnd;
  end.prev_lsn = b;
  wal.Append(end);
  wal.SetMaster(b);
  wal.TruncateBefore(b);
  ASSERT_EQ(wal.base(), b - 1);

  std::vector<uint8_t> good = wal.Serialize();
  Wal loaded;
  ASSERT_TRUE(loaded.Deserialize(good).ok());
  EXPECT_EQ(loaded.master(), b);
  EXPECT_EQ(loaded.base(), b - 1);
  ASSERT_TRUE(loaded.Contains(b));
  EXPECT_EQ(loaded.At(b).kind, WalRecordKind::kCheckpointBegin);

  // Strict load still rejects every proper prefix of a truncated log.
  for (size_t len = 0; len < good.size(); ++len) {
    Wal target;
    std::vector<uint8_t> cut(good.begin(), good.begin() + len);
    EXPECT_FALSE(target.Deserialize(cut).ok()) << "prefix length " << len;
  }

  // Tolerant load of a torn final record drops it but keeps base/master.
  std::vector<uint8_t> torn = good;
  torn.back() ^= 0xff;
  Wal tolerant;
  size_t dropped = 0;
  ASSERT_TRUE(tolerant.DeserializeTolerant(torn, &dropped).ok());
  EXPECT_EQ(dropped, 1u);
  EXPECT_EQ(tolerant.base(), b - 1);
  // The dropped record was the checkpoint end; the master still points
  // at a retained begin record (clamping never resurrects it).
  EXPECT_EQ(tolerant.master(), b);
}

TEST(WalTest, PreCommittedTracked) {
  Wal wal;
  TxnId txn{1, 4};
  wal.Append(Prepared(txn, {}, {0, 1}, /*three_phase=*/true));
  wal.Append(
      WalRecord::Protocol(WalRecordKind::kPreCommitted, txn, 0, {}, {}, true));
  auto scan = wal.Scan();
  EXPECT_TRUE(scan.at(txn).precommitted);
  ASSERT_EQ(wal.InDoubt().size(), 1u);
  EXPECT_TRUE(wal.InDoubt()[0].three_phase);
}

// Overwrites the little-endian u32 header field at `off`.
void PokeU32(std::vector<uint8_t>& buf, size_t off, uint32_t v) {
  for (int i = 0; i < 4; ++i) buf[off + i] = static_cast<uint8_t>(v >> (8 * i));
}

// Overwrites the little-endian u64 header field at `off`.
void PokeU64(std::vector<uint8_t>& buf, size_t off, uint64_t v) {
  for (int i = 0; i < 8; ++i) buf[off + i] = static_cast<uint8_t>(v >> (8 * i));
}

uint32_t PeekU32(const std::vector<uint8_t>& buf, size_t off) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(buf[off + i]) << (8 * i);
  return v;
}

uint64_t PeekU64(const std::vector<uint8_t>& buf, size_t off) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(buf[off + i]) << (8 * i);
  return v;
}

// v4 header offsets: magic, version, master, base, then the digest
// count and one 21-byte entry (txn, flags, first_lsn) per digest entry,
// then the record count.
constexpr size_t kV4BaseOffset = 16;
constexpr size_t kV4DigestCountOffset = 24;
constexpr size_t kV4DigestEntryBytes = 12 + 1 + 8;

size_t V4CountOffset(const std::vector<uint8_t>& buf) {
  return kV4DigestCountOffset + 4 +
         kV4DigestEntryBytes * PeekU32(buf, kV4DigestCountOffset);
}

TEST(WalTest, ForgedRecordCountReturnsStatus) {
  // Regression: the loader reserved the 32-bit record count read from
  // the file before checking it, so a forged count aborted the process
  // with std::bad_alloc instead of returning a Status.
  Wal wal;
  wal.Append(Prepared(TxnId{0, 1}, {{1, 10, 1}}, {0, 1}));
  wal.Append(Decision(WalRecordKind::kCommitDecision, TxnId{0, 1}));
  std::vector<uint8_t> v4 = wal.Serialize();
  ASSERT_EQ(V4CountOffset(v4), 28u);
  ASSERT_EQ(PeekU32(v4, 28), 2u);
  PokeU32(v4, 28, 0xFFFFFFFFu);

  Wal target;
  target.Append(Prepared(TxnId{9, 9}, {}, {0}));
  Status strict = target.Deserialize(v4);
  EXPECT_EQ(strict.code(), StatusCode::kInvalidArgument) << strict;
  size_t dropped = 77;
  Status tolerant = target.DeserializeTolerant(v4, &dropped);
  EXPECT_EQ(tolerant.code(), StatusCode::kIoError) << tolerant;
  EXPECT_EQ(target.size(), 1u);  // unchanged
}

TEST(WalTest, ForgedBaseLsnReturnsStatus) {
  // Regression: the loader took the header's base LSN unchecked, so a
  // 3-record file forged with base = 2^64 - 2 loaded with LastLsn()
  // wrapped below base(). A base at which NextLsn() would wrap is
  // rejected; the largest base that does not wrap still loads.
  Wal wal;
  wal.Append(Prepared(TxnId{0, 1}, {{1, 10, 1}}, {0, 1}));
  wal.Append(Decision(WalRecordKind::kCommitDecision, TxnId{0, 1}));
  wal.Append(Decision(WalRecordKind::kApplied, TxnId{0, 1}));
  const std::vector<uint8_t> good = wal.Serialize();
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();

  Wal target;
  target.Append(Prepared(TxnId{9, 9}, {}, {0}));
  for (uint64_t base : {kMax - 1, kMax, kMax - 3}) {
    std::vector<uint8_t> forged = good;
    PokeU64(forged, kV4BaseOffset, base);
    EXPECT_EQ(target.Deserialize(forged).code(), StatusCode::kInvalidArgument)
        << base;
    EXPECT_EQ(target.DeserializeTolerant(forged).code(), StatusCode::kIoError)
        << base;
    EXPECT_EQ(target.size(), 1u);  // unchanged
  }
  std::vector<uint8_t> highest = good;
  PokeU64(highest, kV4BaseOffset, kMax - 4);
  ASSERT_TRUE(target.Deserialize(highest).ok());
  EXPECT_EQ(target.base(), kMax - 4);
  EXPECT_EQ(target.LastLsn(), kMax - 1);
  EXPECT_EQ(target.NextLsn(), kMax);
  EXPECT_EQ(target.At(kMax - 3).kind, WalRecordKind::kPrepared);
}

TEST(WalTest, DigestEntryForOpenTruncatedTxnRejected) {
  // Regression: the v4 loader accepted a digest entry for an open
  // transaction whose records were truncated. Nothing can resolve such
  // an entry — InDoubt() returned a default record for it and
  // ProtocolBarrier() fell below the retained log — so the loader must
  // reject it, and any entry anchored outside the truncated prefix.
  constexpr uint8_t kPrepared = 1u << 0, kDecided = 1u << 2,
                    kCommit = 1u << 3, kApplied = 1u << 4,
                    kCoordinator = 1u << 6;
  auto forge = [](uint8_t flags, Lsn first_lsn) {
    Encoder e;
    e.PutU32(0x4c415752);  // "RWAL"
    e.PutU32(4);
    e.PutU64(kNoLsn);  // master
    e.PutU64(5);       // base
    e.PutU32(1);       // digest entries
    e.PutTxnId(TxnId{2, 7});
    e.PutU8(flags);
    e.PutU64(first_lsn);
    e.PutU32(0);  // records
    return e.Take();
  };
  const uint8_t closed = kPrepared | kDecided | kCommit | kApplied;
  const std::pair<uint8_t, Lsn> hostile[] = {
      {kPrepared, 3},                     // in doubt
      {kPrepared | kDecided | kCommit, 3},  // committed, not applied
      {kDecided | kCoordinator, 3},       // coordinator, no kEnd
      {closed, kNoLsn},
      {closed, 6},  // past base
  };
  Wal target;
  target.Append(Prepared(TxnId{9, 9}, {}, {0}));
  for (const auto& [flags, first_lsn] : hostile) {
    std::vector<uint8_t> buf = forge(flags, first_lsn);
    EXPECT_EQ(target.Deserialize(buf).code(), StatusCode::kInvalidArgument)
        << int{flags} << "@" << first_lsn;
    EXPECT_EQ(target.DeserializeTolerant(buf).code(), StatusCode::kIoError)
        << int{flags} << "@" << first_lsn;
    EXPECT_EQ(target.size(), 1u);  // unchanged
  }
  // A closed entry inside the truncated prefix is what a save writes.
  ASSERT_TRUE(target.Deserialize(forge(closed, 3)).ok());
  EXPECT_EQ(target.base(), 5u);
  EXPECT_EQ(target.Decision(TxnId{2, 7}), std::optional<bool>(true));
  EXPECT_TRUE(target.InDoubt().empty());
  EXPECT_EQ(target.ProtocolBarrier(), target.NextLsn());
}

TEST(WalTest, ReopenedTruncatedTxnSavesAsClosedDigestEntry) {
  // Two transactions close and are truncated away, then a late
  // kPrepared and a late coordinator decision reopen them. The save
  // writes their digest entries closed (the loader rejects open ones),
  // and the reload rebuilds the reopened state from the retained
  // records.
  Wal wal;
  TxnId part{0, 1}, coord{1, 2};
  wal.Append(Decision(WalRecordKind::kAbortDecision, part));
  wal.Append(Decision(WalRecordKind::kCommitDecision, coord));
  wal.TruncateBefore(wal.ProtocolBarrier());
  ASSERT_EQ(wal.base(), 2u);
  wal.Append(Prepared(part, {{1, 10, 1}}, {0, 1}));
  wal.Append(Decision(WalRecordKind::kCommitDecision, coord, {0, 2}));
  ASSERT_TRUE(wal.Scan().at(part).Open());
  ASSERT_TRUE(wal.Scan().at(coord).Open());

  Wal loaded;
  ASSERT_TRUE(loaded.Deserialize(wal.Serialize()).ok());
  EXPECT_EQ(loaded.ProtocolBarrier(), wal.ProtocolBarrier());
  for (TxnId t : {part, coord}) {
    const Wal::TxnLogState& a = wal.Scan().at(t);
    const Wal::TxnLogState& b = loaded.Scan().at(t);
    EXPECT_EQ(b.first_lsn, a.first_lsn);
    EXPECT_EQ(b.prepared, a.prepared);
    EXPECT_EQ(b.decided, a.decided);
    EXPECT_EQ(b.commit, a.commit);
    EXPECT_EQ(b.applied, a.applied);
    EXPECT_EQ(b.coordinator, a.coordinator);
    EXPECT_EQ(b.ended, a.ended);
  }
  auto unended = loaded.DecidedUnended();
  ASSERT_EQ(unended.size(), 1u);
  EXPECT_EQ(unended[0].txn, coord);
  EXPECT_EQ(unended[0].participants, (std::vector<SiteId>{0, 2}));
}

TEST(WalTest, FuzzedBuffersNeverCrash) {
  // Hostile-input property for the WAL loaders, in the style of
  // CodecTest.FuzzedTruncationsAndBitFlipsNeverCrash: truncations, bit
  // flips, forged digest/record counts and forged base LSNs over an
  // untruncated and a head-truncated v4 buffer must each return a
  // Status — never crash, abort on allocation or read out of bounds —
  // and a buffer that does load must serialize to one that loads again.
  Wal wal;
  TxnId closed{0, 1}, open{1, 2}, coord{2, 3};
  wal.Append(Prepared(closed, {{1, 10, 1}}, {0, 1}));
  wal.Append(Decision(WalRecordKind::kCommitDecision, closed));
  wal.Append(Decision(WalRecordKind::kApplied, closed));
  Lsn open_first = wal.Append(Prepared(open, {{2, 20, 2}, {3, 30, 3}}, {1, 2}));
  wal.Append(StoreUpdate(open, 2, 0, 0, 20, 2, true, kNoLsn));
  wal.Append(Decision(WalRecordKind::kAbortDecision, coord, {0, 2}));
  const Wal untruncated = wal;
  wal.TruncateBefore(open_first);
  ASSERT_GT(wal.base(), 0u);

  const std::vector<uint8_t> truncated = wal.Serialize();
  ASSERT_EQ(PeekU32(truncated, kV4DigestCountOffset), 1u);
  const std::vector<uint8_t> whole = untruncated.Serialize();
  struct Case {
    const char* name;
    const std::vector<uint8_t>& good;
    std::vector<size_t> count_offsets;  // forgeable u32 header fields
  };
  const Case cases[] = {
      {"whole", whole, {kV4DigestCountOffset, V4CountOffset(whole)}},
      {"truncated", truncated,
       {kV4DigestCountOffset, V4CountOffset(truncated)}},
  };

  // Loads `buf` both ways. Whatever loads must answer the recovery
  // queries and re-serialize to a buffer that loads again.
  auto load_both = [](const std::vector<uint8_t>& buf, const std::string& what) {
    for (bool tolerant : {false, true}) {
      Wal target;
      Status s = tolerant ? target.DeserializeTolerant(buf)
                          : target.Deserialize(buf);
      if (!s.ok()) continue;
      EXPECT_LE(target.ProtocolBarrier(), target.NextLsn()) << what;
      (void)target.Scan();
      (void)target.InDoubt();
      (void)target.DecidedUnended();
      Wal again;
      ASSERT_TRUE(again.Deserialize(target.Serialize()).ok()) << what;
      EXPECT_EQ(again.size(), target.size()) << what;
      EXPECT_EQ(again.base(), target.base()) << what;
    }
  };

  Rng rng(20261017);
  for (const Case& c : cases) {
    {
      Wal target;
      ASSERT_TRUE(target.Deserialize(c.good).ok()) << c.name;
    }
    // (a) Every strict prefix: strict load rejects it; tolerant load
    // may salvage a torn tail but never crashes.
    for (size_t len = 0; len < c.good.size(); ++len) {
      std::vector<uint8_t> cut(c.good.begin(),
                               c.good.begin() + static_cast<ptrdiff_t>(len));
      Wal strict;
      EXPECT_FALSE(strict.Deserialize(cut).ok())
          << c.name << " prefix " << len;
      load_both(cut, std::string(c.name) + " prefix " + std::to_string(len));
    }
    // (b) Random 1-3 bit flips anywhere in the buffer.
    for (int round = 0; round < 400; ++round) {
      std::vector<uint8_t> mut = c.good;
      for (uint64_t i = 0, n = 1 + rng.NextUint(3); i < n; ++i) {
        mut[rng.NextUint(mut.size())] ^=
            static_cast<uint8_t>(1u << rng.NextUint(8));
      }
      load_both(mut, std::string(c.name) + " flip round " + std::to_string(round));
    }
    // (c) Forged counts: huge ones must be rejected outright, small
    // ones misframe the rest of the buffer.
    for (size_t off : c.count_offsets) {
      const uint32_t real = PeekU32(c.good, off);
      const uint32_t forged[] = {0u,          1u,          real + 1,
                                 real + 1000, 0x7FFFFFFFu, 0xFFFFFFFFu,
                                 static_cast<uint32_t>(rng.Next())};
      for (uint32_t value : forged) {
        std::vector<uint8_t> mut = c.good;
        PokeU32(mut, off, value);
        const std::string what = std::string(c.name) + " count@" +
                                 std::to_string(off) + "=" +
                                 std::to_string(value);
        load_both(mut, what);
        if (value >= 0x7FFFFFFFu) {
          Wal target;
          EXPECT_FALSE(target.Deserialize(mut).ok()) << what;
          EXPECT_FALSE(target.DeserializeTolerant(mut).ok()) << what;
        }
      }
    }
    // (d) Forged base LSNs: one at which NextLsn() would wrap must be
    // rejected; the others load or fail on the digest anchors.
    constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
    const uint64_t records = PeekU32(c.good, V4CountOffset(c.good));
    const uint64_t forged[] = {0,
                               1,
                               PeekU64(c.good, kV4BaseOffset) + 1,
                               kMax - records - 1,
                               kMax - records,
                               kMax - 1,
                               kMax,
                               rng.Next()};
    for (uint64_t value : forged) {
      std::vector<uint8_t> mut = c.good;
      PokeU64(mut, kV4BaseOffset, value);
      const std::string what =
          std::string(c.name) + " base=" + std::to_string(value);
      load_both(mut, what);
      if (value > kMax - records - 1) {
        Wal target;
        EXPECT_FALSE(target.Deserialize(mut).ok()) << what;
        EXPECT_FALSE(target.DeserializeTolerant(mut).ok()) << what;
      }
    }
  }
}

TEST(WalTest, ProtocolBarrierMatchesReferenceScan) {
  // Differential check of ProtocolBarrier() against a reference linear
  // scan kept in this test: a shadow of each transaction's protocol
  // bits and first LSN, and the smallest first LSN among the
  // transactions that are not closed. The random
  // mix reopens closed transactions (a participant-learned decision
  // followed by a coordinator decision with a participant list, or by
  // a late kPrepared), interleaves storage and checkpoint records, and
  // periodically truncates at the barrier and round-trips the file.
  struct Shadow {
    Lsn first = kNoLsn;
    bool prepared = false, decided = false, applied = false, ended = false,
         coordinator = false;
    bool Closed() const {
      return decided && (!prepared || applied) && (!coordinator || ended);
    }
  };
  std::map<TxnId, Shadow> shadow;
  auto reference = [&shadow](const Wal& w) {
    Lsn barrier = w.NextLsn();
    for (const auto& [txn, st] : shadow) {
      if (!st.Closed() && st.first < barrier) barrier = st.first;
    }
    return barrier;
  };

  Rng rng(20261017);
  Wal wal;
  size_t reopened = 0, truncations = 0, round_trips = 0;
  // Appends one record, mirrors it into the shadow and compares.
  auto append = [&](WalRecord rec) {
    const WalRecordKind kind = rec.kind;
    const TxnId txn = rec.txn;
    const bool has_participants = !rec.participants.empty();
    const Lsn lsn = wal.Append(std::move(rec));
    if (kind <= WalRecordKind::kEnd) {
      Shadow& st = shadow[txn];
      const bool was_closed = st.first != kNoLsn && st.Closed();
      if (st.first == kNoLsn) st.first = lsn;
      switch (kind) {
        case WalRecordKind::kPrepared:
          st.prepared = true;
          break;
        case WalRecordKind::kCommitDecision:
        case WalRecordKind::kAbortDecision:
          st.decided = true;
          if (has_participants) st.coordinator = true;
          break;
        case WalRecordKind::kApplied:
          st.applied = true;
          break;
        case WalRecordKind::kEnd:
          st.ended = true;
          break;
        default:
          break;
      }
      if (was_closed && !st.Closed()) ++reopened;
    }
    ASSERT_EQ(wal.ProtocolBarrier(), reference(wal)) << "lsn " << lsn;
  };

  uint64_t next_seq = 1;
  std::vector<TxnId> live;     // recent transactions the mix draws from
  std::vector<TxnId> retired;  // closed ones that may still hear late news
  // Open transactions whose first record is already truncated: only
  // the file's digest can tell a reload that they pin the barrier.
  auto truncated_open = [&]() {
    size_t n = 0;
    for (const auto& [txn, st] : shadow) {
      if (!st.Closed() && st.first <= wal.base()) ++n;
    }
    return n;
  };
  size_t reloads_with_truncated_open = 0;
  for (int step = 0; step < 20000; ++step) {
    const bool revive = !retired.empty() && rng.NextBool(0.02);
    if (live.empty() || revive || rng.NextBool(0.08)) {
      if (revive) {
        // A late record reopens a closed transaction, possibly long
        // after truncation reclaimed its first record.
        const size_t i = rng.NextUint(retired.size());
        const TxnId txn = retired[i];
        retired.erase(retired.begin() + static_cast<ptrdiff_t>(i));
        append(rng.NextBool(0.5)
                   ? Prepared(txn, {{1, 1, 1}}, {0, 1})
                   : Decision(WalRecordKind::kCommitDecision, txn, {0, 1}));
        live.push_back(txn);
      } else {
        live.push_back(
            TxnId{static_cast<SiteId>(rng.NextUint(4)), next_seq++});
      }
      if (live.size() > 12) {
        // A transaction leaving the window finishes its protocol, so
        // the barrier advances and truncation has work to do.
        const TxnId old = live.front();
        live.erase(live.begin());
        retired.push_back(old);
        if (retired.size() > 32) retired.erase(retired.begin());
        const Shadow& st = shadow[old];
        if (!st.decided) append(Decision(WalRecordKind::kAbortDecision, old));
        if (st.prepared && !st.applied) {
          append(Decision(WalRecordKind::kApplied, old));
        }
        if (st.coordinator && !st.ended) {
          append(Decision(WalRecordKind::kEnd, old));
        }
        ASSERT_TRUE(shadow[old].Closed());
      }
    }
    const TxnId txn = live[rng.NextUint(live.size())];
    WalRecord rec;
    switch (rng.NextUint(10)) {
      case 0:
        rec = Prepared(txn, {{1, 1, 1}}, {0, 1});
        break;
      case 1:
        rec = WalRecord::Protocol(WalRecordKind::kPreCommitted, txn, txn.home,
                                  {}, {}, true);
        break;
      case 2:  // participant-learned decision
        rec = Decision(rng.NextBool(0.5) ? WalRecordKind::kCommitDecision
                                         : WalRecordKind::kAbortDecision,
                       txn);
        break;
      case 3:  // coordinator decision with a participant list
        rec = Decision(rng.NextBool(0.5) ? WalRecordKind::kCommitDecision
                                         : WalRecordKind::kAbortDecision,
                       txn, {0, 1, 2});
        break;
      case 4:
        rec = Decision(WalRecordKind::kApplied, txn);
        break;
      case 5:
        rec = Decision(WalRecordKind::kEnd, txn);
        break;
      case 6:
      case 7:
        rec = StoreUpdate(txn, 3, 0, 0, 1, 1, false, kNoLsn);
        break;
      case 8:
        rec.kind = WalRecordKind::kStoreCommit;
        rec.txn = txn;
        break;
      default:
        rec.kind = rng.NextBool(0.5) ? WalRecordKind::kCheckpointBegin
                                     : WalRecordKind::kCheckpointEnd;
        break;
    }
    append(std::move(rec));
    if (HasFatalFailure()) return;

    if (step % 61 == 60) {
      wal.TruncateBefore(wal.ProtocolBarrier());
      ++truncations;
      ASSERT_EQ(wal.ProtocolBarrier(), reference(wal)) << "truncate " << step;
    }
    if (step % 409 == 408) {
      if (truncated_open() > 0) ++reloads_with_truncated_open;
      Wal loaded;
      ASSERT_TRUE(loaded.Deserialize(wal.Serialize()).ok());
      wal = std::move(loaded);
      ++round_trips;
      ASSERT_EQ(wal.ProtocolBarrier(), reference(wal)) << "reload " << step;
    }
  }
  // The mix really exercised what it claims to.
  EXPECT_GT(reopened, 50u);
  EXPECT_GT(wal.base(), 1000u);
  EXPECT_GT(truncations, 300u);
  EXPECT_GT(round_trips, 40u);
  EXPECT_GT(reloads_with_truncated_open, 5u);
}

}  // namespace
// --- the log's wire form ---------------------------------------------------

// Field-by-field equality, naming the first field that differs.
::testing::AssertionResult SameRecord(const WalRecord& got,
                                      const WalRecord& want) {
  auto differs = [](const char* field) {
    return ::testing::AssertionFailure() << field << " differs";
  };
  if (got.kind != want.kind) return differs("kind");
  if (!(got.txn == want.txn)) return differs("txn");
  if (got.coordinator != want.coordinator) return differs("coordinator");
  if (got.writes.size() != want.writes.size()) return differs("writes.size");
  for (size_t i = 0; i < got.writes.size(); ++i) {
    if (got.writes[i].item != want.writes[i].item ||
        got.writes[i].value != want.writes[i].value ||
        got.writes[i].version != want.writes[i].version) {
      return differs("writes");
    }
  }
  if (got.participants != want.participants) return differs("participants");
  if (got.three_phase != want.three_phase) return differs("three_phase");
  if (got.store.item != want.store.item) return differs("store.item");
  if (got.store.page_id != want.store.page_id) return differs("store.page_id");
  if (got.store.before_value != want.store.before_value) {
    return differs("store.before_value");
  }
  if (got.store.before_version != want.store.before_version) {
    return differs("store.before_version");
  }
  if (got.store.value != want.store.value) return differs("store.value");
  if (got.store.version != want.store.version) return differs("store.version");
  if (got.store.tentative != want.store.tentative) {
    return differs("store.tentative");
  }
  if (got.prev_lsn != want.prev_lsn) return differs("prev_lsn");
  if (got.undo_next_lsn != want.undo_next_lsn) return differs("undo_next_lsn");
  if (got.checkpoint.att != want.checkpoint.att) {
    return differs("checkpoint.att");
  }
  if (got.checkpoint.dpt != want.checkpoint.dpt) {
    return differs("checkpoint.dpt");
  }
  return ::testing::AssertionSuccess();
}

// The v4 payload size of `r`, spelled out independently of the codec:
// 83 fixed bytes, 20 per write, 4 per participant, and for
// kCheckpointEnd two counts plus 20 per ATT and 12 per dirty-page entry.
size_t PayloadBytes(const WalRecord& r) {
  size_t n = 83 + 20 * r.writes.size() + 4 * r.participants.size();
  if (r.kind == WalRecordKind::kCheckpointEnd) {
    n += 8 + 20 * r.checkpoint.att.size() + 12 * r.checkpoint.dpt.size();
  }
  return n;
}

TEST(WalTest, WireLogMatchesRecordModel) {
  // Model check of the byte log against a plain vector of records. A
  // seeded mix appends records of all 14 kinds with random vector sizes
  // (0 included) and random 64-bit field values, truncates the head at
  // random points up to the protocol barrier, and round-trips the log
  // through Serialize and both loaders, one of them over a torn tail.
  // After every step each retained LSN must decode to exactly the
  // model's record, and the resident size must be the sum of the
  // records' payload sizes plus one 8-byte offset each.
  constexpr int kSteps = 24000;
  constexpr uint64_t kKinds =
      static_cast<uint64_t>(WalRecordKind::kCheckpointEnd) + 1;
  Rng rng(20261018);
  Wal wal;
  std::vector<WalRecord> model;  // model[i] has LSN wal.base() + i + 1
  auto size_of = [&rng]() -> size_t {
    if (rng.NextBool(0.3)) return 0;
    return rng.NextBool(0.05) ? 40 + rng.NextUint(40) : 1 + rng.NextUint(5);
  };
  uint64_t next_seq = 1;
  std::vector<TxnId> live;  // transactions the mix draws from
  auto append = [&](const WalRecord& r) {
    wal.Append(r);
    model.push_back(r);
  };
  auto random_record = [&](TxnId txn) {
    WalRecord r;
    r.kind = static_cast<WalRecordKind>(rng.NextUint(kKinds));
    r.txn = txn;
    r.coordinator = rng.NextBool(0.1) ? kInvalidSite
                                      : static_cast<SiteId>(rng.Next());
    r.writes.resize(size_of());
    for (WalRecord::Write& w : r.writes) {
      w = {static_cast<ItemId>(rng.Next()), static_cast<Value>(rng.Next()),
           rng.Next()};
    }
    r.participants.resize(size_of());
    for (SiteId& s : r.participants) s = static_cast<SiteId>(rng.Next());
    r.three_phase = rng.NextBool(0.5);
    r.store = {static_cast<ItemId>(rng.Next()),
               static_cast<uint32_t>(rng.Next()),
               static_cast<Value>(rng.Next()),
               rng.Next(),
               static_cast<Value>(rng.Next()),
               rng.Next(),
               rng.NextBool(0.5)};
    r.prev_lsn = rng.Next();
    r.undo_next_lsn = rng.Next();
    if (r.kind == WalRecordKind::kCheckpointEnd) {
      r.checkpoint.att.resize(size_of());
      for (auto& [t, lsn] : r.checkpoint.att) {
        t = TxnId{static_cast<SiteId>(rng.Next()), rng.Next()};
        lsn = rng.Next();
      }
      r.checkpoint.dpt.resize(size_of());
      for (auto& [page, lsn] : r.checkpoint.dpt) {
        page = static_cast<uint32_t>(rng.Next());
        lsn = rng.Next();
      }
    }
    return r;
  };

  std::set<WalRecordKind> kinds_seen;
  size_t truncations = 0, strict_trips = 0, tolerant_trips = 0, torn = 0,
         max_retained = 0;
  for (int step = 0; step < kSteps; ++step) {
    const uint64_t action = rng.NextUint(100);
    if (action < 80) {
      if (live.empty() || rng.NextBool(0.05)) {
        live.push_back(TxnId{static_cast<SiteId>(rng.NextUint(4)), next_seq++});
      }
      if (live.size() > 8) {
        // A transaction leaving the mix closes its protocol, so the
        // barrier advances and truncation has a prefix to reclaim.
        const TxnId old = live.front();
        live.erase(live.begin());
        append(Decision(WalRecordKind::kAbortDecision, old));
        append(Decision(WalRecordKind::kApplied, old));
        append(Decision(WalRecordKind::kEnd, old));
      }
      WalRecord r = random_record(live[rng.NextUint(live.size())]);
      kinds_seen.insert(r.kind);
      append(r);
    } else if (action < 92) {
      const Lsn target = std::min<Lsn>(
          wal.base() + rng.NextUint(wal.size() + 2), wal.ProtocolBarrier());
      const size_t dropped = wal.TruncateBefore(target);
      ASSERT_LE(dropped, model.size());
      model.erase(model.begin(),
                  model.begin() + static_cast<ptrdiff_t>(dropped));
      if (dropped > 0) {
        // The retained tail was rebuilt to fit: no high-water slack.
        ASSERT_EQ(wal.held_bytes(), wal.resident_bytes()) << "step " << step;
        ++truncations;
      }
    } else {
      const std::vector<uint8_t> bytes = wal.Serialize();
      Wal loaded;
      const uint64_t how = rng.NextUint(3);
      if (how == 0) {
        ASSERT_TRUE(loaded.Deserialize(bytes).ok()) << "step " << step;
        // The loaded log keeps the file's bytes and writes them back.
        ASSERT_EQ(loaded.Serialize(), bytes) << "step " << step;
        ++strict_trips;
      } else if (how == 1 || model.empty()) {
        size_t dropped = 99;
        ASSERT_TRUE(loaded.DeserializeTolerant(bytes, &dropped).ok());
        ASSERT_EQ(dropped, 0u) << "step " << step;
        ++tolerant_trips;
      } else {
        // Cut into the last record's frame: exactly it is dropped.
        const size_t frame = 8 + PayloadBytes(model.back());
        const size_t cut = 1 + rng.NextUint(frame);
        const std::vector<uint8_t> torn_bytes(
            bytes.begin(), bytes.end() - static_cast<ptrdiff_t>(cut));
        size_t dropped = 0;
        ASSERT_TRUE(loaded.DeserializeTolerant(torn_bytes, &dropped).ok())
            << "step " << step << " cut " << cut;
        ASSERT_EQ(dropped, 1u) << "step " << step;
        model.pop_back();
        ++torn;
      }
      wal = std::move(loaded);
    }

    ASSERT_EQ(wal.size(), model.size()) << "step " << step;
    ASSERT_EQ(wal.LastLsn(), wal.base() + model.size()) << "step " << step;
    size_t expect_bytes = 0;
    for (size_t i = 0; i < model.size(); ++i) {
      const Lsn lsn = wal.base() + i + 1;
      ASSERT_TRUE(SameRecord(wal.At(lsn), model[i]))
          << "step " << step << " lsn " << lsn << " ("
          << WalRecordKindName(model[i].kind) << ")";
      expect_bytes += PayloadBytes(model[i]) + sizeof(uint64_t);
    }
    ASSERT_EQ(wal.resident_bytes(), expect_bytes) << "step " << step;
    max_retained = std::max(max_retained, model.size());
  }
  // The mix really exercised what it claims to.
  EXPECT_EQ(kinds_seen.size(), kKinds);
  EXPECT_GT(wal.base(), 10000u);
  EXPECT_GT(truncations, 500u);
  EXPECT_GT(strict_trips, 300u);
  EXPECT_GT(tolerant_trips, 300u);
  EXPECT_GT(torn, 300u);
  EXPECT_GT(max_retained, 100u);
}

// The map-based digest's rule for one protocol record: the reference
// the compact digest is checked against.
void ModelApply(Wal::TxnLogState& st, const WalRecord& r, Lsn lsn) {
  if (st.first_lsn == kNoLsn || lsn < st.first_lsn) st.first_lsn = lsn;
  switch (r.kind) {
    case WalRecordKind::kPrepared:
      st.prepared = true;
      st.prepared_lsn = lsn;
      break;
    case WalRecordKind::kPreCommitted:
      st.precommitted = true;
      break;
    case WalRecordKind::kCommitDecision:
    case WalRecordKind::kAbortDecision:
      st.decided = true;
      st.commit = r.kind == WalRecordKind::kCommitDecision;
      if (!r.participants.empty()) {
        st.coordinator = true;
        st.decision_lsn = lsn;
      }
      break;
    case WalRecordKind::kApplied:
      st.applied = true;
      break;
    case WalRecordKind::kEnd:
      st.ended = true;
      break;
    default:
      break;
  }
}

// What the digest keeps of an entry whatever store holds it.
auto DigestBits(const Wal::TxnLogState& s) {
  return std::tuple(s.first_lsn, s.prepared, s.precommitted, s.decided,
                    s.commit, s.applied, s.ended, s.coordinator);
}

TEST(WalTest, CompactDigestMatchesMapModel) {
  // Differential check of the two-store digest (open map plus sorted
  // array of closed entries in file form) against a plain
  // std::map<TxnId, TxnLogState> that applies every protocol record
  // and never forgets. About 300 transactions take random protocol
  // records; the oldest is closed and retired now and then, and a
  // retired one gets a late record: a decision after close, a
  // coordinator decision that reopens a participant-closed entry, or a
  // late kPrepared. TruncateBefore (which folds the closed entries) and
  // Serialize/Deserialize round trips interleave. After every step all
  // digest queries must answer as the model does.
  constexpr int kSteps = 4000;
  Rng rng(20261019);
  Wal wal;
  std::map<TxnId, Wal::TxnLogState> model;
  std::map<Lsn, WalRecord> records;  // every protocol record by LSN
  std::vector<TxnId> pool, retired;
  std::set<TxnId> folded;  // closed at the last fold
  uint64_t next_seq = 1;
  size_t late_closed = 0, reopened_prepared = 0, reopened_coordinator = 0,
         truncations = 0, trips = 0;

  auto append = [&](const WalRecord& r) {
    const Lsn lsn = wal.Append(r);
    if (r.kind >= WalRecordKind::kStoreBegin) return;
    records[lsn] = r;
    Wal::TxnLogState& st = model[r.txn];
    ModelApply(st, r, lsn);
    if (!folded.contains(r.txn)) return;
    if (st.Closed()) {
      ++late_closed;
      return;
    }
    folded.erase(r.txn);
    ++(r.kind == WalRecordKind::kPrepared ? reopened_prepared
                                          : reopened_coordinator);
  };
  auto fold = [&] {
    folded.clear();
    for (const auto& [txn, st] : model) {
      if (st.Closed()) folded.insert(txn);
    }
  };
  auto participants = [&] {
    return std::vector<SiteId>{static_cast<SiteId>(rng.NextUint(4)),
                               static_cast<SiteId>(4 + rng.NextUint(4))};
  };
  auto decision = [&](TxnId txn, bool coordinator) {
    return Decision(rng.NextBool(0.5) ? WalRecordKind::kCommitDecision
                                      : WalRecordKind::kAbortDecision,
                    txn, coordinator ? participants() : std::vector<SiteId>{});
  };
  auto random_record = [&](TxnId txn) {
    const uint64_t k = rng.NextUint(100);
    if (k < 25) {
      return Prepared(txn, {{static_cast<ItemId>(rng.NextUint(50)), 1, 1}},
                      participants(), rng.NextBool(0.3));
    }
    if (k < 35) return Decision(WalRecordKind::kPreCommitted, txn);
    if (k < 60) return decision(txn, rng.NextBool(0.4));
    if (k < 80) return Decision(WalRecordKind::kApplied, txn);
    return Decision(WalRecordKind::kEnd, txn);
  };

  auto check = [&](int step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const Wal::DigestView view = wal.Scan();
    ASSERT_EQ(view.size(), model.size());
    auto m = model.begin();
    size_t mismatches = 0;
    view.ForEach([&](const TxnId& txn, const Wal::TxnLogState& st) {
      if (m == model.end() || !(m->first == txn) ||
          DigestBits(st) != DigestBits(m->second)) {
        ++mismatches;
      }
      if (m != model.end()) ++m;
    });
    ASSERT_EQ(mismatches, 0u);
    Lsn barrier = wal.NextLsn();
    std::vector<WalRecord> in_doubt, unapplied;
    std::vector<Wal::UnendedDecision> unended;
    for (const auto& [txn, st] : model) {
      ASSERT_TRUE(view.contains(txn));
      ASSERT_EQ(DigestBits(view.at(txn)), DigestBits(st));
      ASSERT_EQ(wal.Decision(txn),
                st.decided ? std::optional<bool>(st.commit) : std::nullopt);
      ASSERT_EQ(wal.IsPreparedUndecided(txn), st.prepared && !st.decided);
      ASSERT_EQ(wal.Precommitted(txn), st.precommitted);
      if (st.Open()) barrier = std::min(barrier, st.first_lsn);
      if (st.prepared && !st.decided) {
        in_doubt.push_back(records.at(st.prepared_lsn));
      }
      if (st.prepared && st.decided && st.commit && !st.applied) {
        unapplied.push_back(records.at(st.prepared_lsn));
      }
      if (st.decided && st.coordinator && !st.ended) {
        unended.push_back(Wal::UnendedDecision{
            txn, st.commit, records.at(st.decision_lsn).participants});
      }
    }
    const TxnId absent{0, next_seq};
    ASSERT_FALSE(view.contains(absent));
    ASSERT_EQ(wal.Decision(absent), std::nullopt);
    ASSERT_EQ(wal.ProtocolBarrier(), barrier);
    for (const auto& [got, want] :
         {std::pair{wal.InDoubt(), in_doubt},
          std::pair{wal.CommittedUnapplied(), unapplied}}) {
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_TRUE(SameRecord(got[i], want[i])) << "entry " << i;
      }
    }
    const std::vector<Wal::UnendedDecision> got = wal.DecidedUnended();
    ASSERT_EQ(got.size(), unended.size());
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].txn, unended[i].txn);
      ASSERT_EQ(got[i].commit, unended[i].commit);
      ASSERT_EQ(got[i].participants, unended[i].participants);
    }
  };

  for (int step = 0; step < kSteps; ++step) {
    const uint64_t action = rng.NextUint(100);
    if (pool.empty() || (action < 6 && pool.size() < 16)) {
      pool.push_back(TxnId{static_cast<SiteId>(rng.NextUint(4)), next_seq++});
    } else if (action < 50) {
      append(random_record(pool[rng.NextUint(pool.size())]));
    } else if (action < 60) {
      // Storage records move the LSNs and leave the digest alone.
      WalRecord r;
      r.kind = WalRecordKind::kStoreUpdate;
      r.txn = pool[rng.NextUint(pool.size())];
      append(r);
    } else if (action < 68) {
      // Close the oldest transaction and retire it.
      const TxnId txn = pool.front();
      pool.erase(pool.begin());
      if (!model[txn].decided) append(decision(txn, false));
      if (model[txn].prepared && !model[txn].applied) {
        append(Decision(WalRecordKind::kApplied, txn));
      }
      if (model[txn].coordinator && !model[txn].ended) {
        append(Decision(WalRecordKind::kEnd, txn));
      }
      retired.push_back(txn);
    } else if (action < 78 && !retired.empty()) {
      // A late record for a retired transaction; one that reopens it
      // puts it back in the pool.
      const size_t i = rng.NextUint(retired.size());
      const TxnId txn = retired[i];
      const uint64_t late = rng.NextUint(3);
      if (late == 0) append(decision(txn, false));
      if (late == 1) append(decision(txn, true));
      if (late == 2) append(Prepared(txn, {{7, 7, 7}}, participants()));
      if (model[txn].Open()) {
        retired.erase(retired.begin() + static_cast<ptrdiff_t>(i));
        pool.push_back(txn);
      }
    } else if (action < 92) {
      // Up to the barrier, which a reopened transaction can hold at or
      // below base().
      const Lsn barrier = wal.ProtocolBarrier();
      const Lsn target =
          barrier <= wal.base() + 1 || rng.NextBool(0.7)
              ? barrier
              : wal.base() + 1 + rng.NextUint(barrier - wal.base());
      if (wal.TruncateBefore(target) > 0) ++truncations;
      fold();
    } else {
      const std::vector<uint8_t> bytes = wal.Serialize();
      Wal loaded;
      const Status loaded_ok = loaded.Deserialize(bytes);
      ASSERT_TRUE(loaded_ok.ok()) << "step " << step << ": " << loaded_ok;
      ASSERT_EQ(loaded.Serialize(), bytes) << "step " << step;
      wal = std::move(loaded);
      fold();
      ++trips;
    }
    ASSERT_NO_FATAL_FAILURE(check(step));
  }
  // The mix really exercised what it claims to.
  EXPECT_GE(model.size(), 200u);
  EXPECT_GT(wal.base(), 1000u);
  EXPECT_GT(truncations, 150u);
  EXPECT_GT(trips, 200u);
  EXPECT_GT(late_closed, 50u);
  EXPECT_GT(reopened_prepared, 10u);
  EXPECT_GT(reopened_coordinator, 10u);
  std::printf("  %zu txns, %zu truncations, %zu round trips; folded entries: "
              "%zu late records kept closed, %zu reopened by kPrepared, %zu "
              "by a coordinator decision\n",
              model.size(), truncations, trips, late_closed, reopened_prepared,
              reopened_coordinator);
}

// The golden log: a head-truncated closed transaction, so the file
// carries a digest entry, then one record of every kind, including a
// kCheckpointEnd with both an ATT and a dirty-page table, and the
// master pointing at its checkpoint.
Wal GoldenLog() {
  const TxnId closed{0, 1}, t2{1, 2}, t3{2, 3}, store{0, 4}, other{1, 5};
  Wal wal;
  wal.Append(Prepared(closed, {{1, 10, 1}}, {0, 1}));
  wal.Append(Decision(WalRecordKind::kCommitDecision, closed, {0, 1}));
  wal.Append(Decision(WalRecordKind::kApplied, closed));
  wal.Append(Decision(WalRecordKind::kEnd, closed));
  wal.TruncateBefore(wal.NextLsn());

  wal.Append(Prepared(t2, {{2, -5, 7}, {3, 30, (1ull << 63) | 9}}, {0, 1, 2},
                      /*three_phase=*/true));
  wal.Append(WalRecord::Protocol(WalRecordKind::kPreCommitted, t2, t2.home, {},
                                 {}, true));
  wal.Append(Decision(WalRecordKind::kCommitDecision, t2));
  wal.Append(Decision(WalRecordKind::kAbortDecision, t3, {0, 2}));
  wal.Append(Decision(WalRecordKind::kApplied, t2));
  wal.Append(Decision(WalRecordKind::kEnd, t3));
  WalRecord begin;
  begin.kind = WalRecordKind::kStoreBegin;
  begin.txn = store;
  const Lsn b = wal.Append(begin);
  const Lsn u = wal.Append(
      StoreUpdate(store, 7, 1, 1, -2, (1ull << 63) | 5, /*tentative=*/true, b));
  WalRecord ckpt_begin;
  ckpt_begin.kind = WalRecordKind::kCheckpointBegin;
  const Lsn cb = wal.Append(ckpt_begin);
  WalRecord ckpt_end;
  ckpt_end.kind = WalRecordKind::kCheckpointEnd;
  ckpt_end.prev_lsn = cb;
  ckpt_end.checkpoint.att = {{store, u}};
  ckpt_end.checkpoint.dpt = {{3, u}, {9, 2}};
  wal.Append(ckpt_end);
  wal.SetMaster(cb);
  WalRecord abort;
  abort.kind = WalRecordKind::kStoreAbort;
  abort.txn = store;
  abort.prev_lsn = u;
  const Lsn a = wal.Append(abort);
  WalRecord clr;
  clr.kind = WalRecordKind::kStoreClr;
  clr.txn = store;
  clr.prev_lsn = a;
  clr.undo_next_lsn = b;
  clr.store.item = 7;
  clr.store.page_id = 3;
  clr.store.value = 1;
  clr.store.version = 1;
  clr.store.before_value = -2;
  clr.store.before_version = (1ull << 63) | 5;
  const Lsn c = wal.Append(clr);
  WalRecord end;
  end.kind = WalRecordKind::kStoreEnd;
  end.txn = store;
  end.prev_lsn = c;
  wal.Append(end);
  WalRecord commit;
  commit.kind = WalRecordKind::kStoreCommit;
  commit.txn = other;
  commit.coordinator = 1;
  wal.Append(commit);
  return wal;
}

std::vector<uint8_t> FromHex(const std::string& hex) {
  std::vector<uint8_t> out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(
        static_cast<uint8_t>(std::stoul(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

TEST(WalTest, SerializeBytesMatchV4Golden) {
  // The v4 file bytes of a fixed log, captured while the log still held
  // its records as WalRecord structs. Serialize() must still write
  // exactly these bytes, and LoadFromFile must read them back into the
  // same log: files written before and after the byte log are
  // interchangeable.
  const std::vector<uint8_t> golden = FromHex(
      "5257414c040000000d0000000000000004000000000000000100000000000000"
      "01000000000000007d01000000000000000e000000870000001e5add62000100"
      "00000200000000000000010000000200000002000000fbffffffffffffff0700"
      "000000000000030000001e000000000000000900000000000080030000000000"
      "0000010000000200000001ffffffff0000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "00000000530000000e95f4ac0101000000020000000000000001000000000000"
      "000000000001ffffffff00000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000053"
      "0000009fe7b3ec02010000000200000000000000010000000000000000000000"
      "00ffffffff000000000000000000000000000000000000000000000000000000"
      "00000000000000000000000000000000000000000000000000005b000000aa0f"
      "6898030200000003000000000000000200000000000000020000000000000002"
      "00000000ffffffff000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000530000"
      "009b1db3f90401000000020000000000000001000000000000000000000000ff"
      "ffffff0000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000005300000073b21669"
      "0502000000030000000000000002000000000000000000000000ffffffff0000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "00000000000000000000000000000000000000530000007860970a0600000000"
      "0400000000000000ffffffff000000000000000000ffffffff00000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "000000000000000000000000000053000000fa764eeb07000000000400000000"
      "000000ffffffff00000000000000000007000000030000000100000000000000"
      "0100000000000000feffffffffffffff0500000000000080010b000000000000"
      "000000000000000000530000007d9596d00cffffffff0000000000000000ffff"
      "ffff000000000000000000ffffffff0000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "000000008700000035d489240dffffffff0000000000000000ffffffff000000"
      "000000000000ffffffff00000000000000000000000000000000000000000000"
      "0000000000000000000000000000000d00000000000000000000000000000001"
      "0000000000000004000000000000000c0000000000000002000000030000000c"
      "0000000000000009000000020000000000000053000000ba3a348d0900000000"
      "0400000000000000ffffffff000000000000000000ffffffff00000000000000"
      "0000000000000000000000000000000000000000000000000000000000000c00"
      "000000000000000000000000000053000000418c5b990a000000000400000000"
      "000000ffffffff0000000000000000000700000003000000feffffffffffffff"
      "050000000000008001000000000000000100000000000000000f000000000000"
      "000b0000000000000053000000107ecec00b000000000400000000000000ffff"
      "ffff000000000000000000ffffffff0000000000000000000000000000000000"
      "0000000000000000000000000000000000000000100000000000000000000000"
      "0000000053000000ab81484e0801000000050000000000000001000000000000"
      "000000000000ffffffff00000000000000000000000000000000000000000000"
      "00000000000000000000000000000000000000000000000000000000000000");
  const Wal wal = GoldenLog();
  ASSERT_EQ(wal.base(), 4u);
  ASSERT_EQ(wal.Serialize(), golden);

  const std::string path = ::testing::TempDir() + "/rainbow_wal_golden_v4.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(golden.data(), 1, golden.size(), f), golden.size());
  ASSERT_EQ(std::fclose(f), 0);
  Wal loaded;
  size_t dropped = 99;
  ASSERT_TRUE(loaded.LoadFromFile(path, &dropped).ok());
  std::remove(path.c_str());
  EXPECT_EQ(dropped, 0u);
  EXPECT_EQ(loaded.base(), wal.base());
  EXPECT_EQ(loaded.master(), wal.master());
  ASSERT_EQ(loaded.LastLsn(), wal.LastLsn());
  for (Lsn lsn = wal.base() + 1; lsn <= wal.LastLsn(); ++lsn) {
    EXPECT_TRUE(SameRecord(loaded.At(lsn), wal.At(lsn))) << "lsn " << lsn;
  }
  EXPECT_EQ(loaded.Scan().size(), wal.Scan().size());
  EXPECT_EQ(loaded.Decision(TxnId{0, 1}), std::optional<bool>(true));
  EXPECT_EQ(loaded.Serialize(), golden);
}

}  // namespace rainbow
