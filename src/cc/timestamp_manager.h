#ifndef RAINBOW_CC_TIMESTAMP_MANAGER_H_
#define RAINBOW_CC_TIMESTAMP_MANAGER_H_

#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "cc/cc_engine.h"

namespace rainbow {

/// Strict timestamp ordering over the local item copies of one site.
/// Every transaction carries a globally unique timestamp assigned at its
/// home site. Per item the engine keeps a chain of committed versions, a
/// floor, at most one pending prewrite and the requests waiting on it:
///
///  * read(ts) is rejected below the floor. It waits while a prewrite
///    with a smaller timestamp is pending (strictness: reads only ever
///    observe committed values). Otherwise it reads the version with the
///    largest write timestamp <= ts and records ts as that version's
///    read timestamp.
///  * prewrite(ts) is rejected below the floor, or if a transaction with
///    a larger timestamp already read the version this write would
///    follow (a version v with wts(v) < ts < rts(v)). One prewrite is
///    pending per item: a younger one waits behind it, an older one is
///    rejected.
///
/// Basic TO is multiversion TO that keeps only the newest version
/// (Bernstein, Hadzilacos and Goodman 1987, ch. 4–5), so one class runs
/// both CCPs:
///
///  * Versions::kAll — multiversion TSO, the paper's "multi-versioning
///    TSO" term project. Each committed write adds a version (OnApply)
///    and reads are served from the chain, so read-only transactions
///    never restart — the effect the E10 ablation quantifies.
///  * Versions::kOne — basic TSO. The chain is one base version, and a
///    commit raises the floor to the committed prewrite's timestamp: the
///    floor is TSO's write_ts and the base's read timestamp its read_ts.
///    Grants carry no value; the site reads its committed store.
///
/// Waiting is always younger-waits-for-older, so neither mode deadlocks.
/// All rejections surface as DenyReason::kTsoTooLate, counted by the
/// monitor as CCP aborts.
class TimestampManager final : public CcEngine {
 public:
  /// Whether an item keeps every committed version or only the newest.
  enum class Versions { kAll, kOne };

  explicit TimestampManager(Versions versions);

  void RequestRead(TxnId txn, TxnTimestamp ts, ItemId item,
                   CcCallback cb) override;
  void RequestWrite(TxnId txn, TxnTimestamp ts, ItemId item,
                    CcCallback cb) override;
  void Finish(TxnId txn, bool commit) override;
  void OnApply(TxnId txn, ItemId item, Value value, Version version) override;
  bool Tracks(TxnId txn) const override;
  std::string name() const override {
    return versions_ == Versions::kAll ? "MVTO" : "TSO";
  }

  /// Seeds the base version of an item (wts = -inf). Called by an MVTO
  /// site when the database is loaded (version 0) and again after a
  /// crash or a refresh adoption, when the committed store copy (at its
  /// current version) becomes the base version. Such a reseed passes a
  /// `floor` above every transaction that began before it, and the item
  /// then rejects (kTsoTooLate) every read and new prewrite below the
  /// floor: the copy may hold a write newer than an older reader must
  /// see, and the read timestamps that would fence an older writer are
  /// gone. A prewrite already pending keeps its grant, so a recovering
  /// site re-takes its in-doubt writes before it reseeds.
  void LoadInitial(ItemId item, Value value, Version version = 0,
                   TxnTimestamp floor = kNoFloor);

  // --- introspection for tests ---
  uint64_t rejections() const { return rejections_; }
  size_t num_versions(ItemId item) const;
  size_t num_waiting() const;

 private:
  struct VersionEntry {
    TxnTimestamp wts{-1, 0};  ///< writer's timestamp
    TxnTimestamp max_rts{-1, 0};
    Value value = 0;
    Version version = 0;  ///< system version number (for the checker)
  };
  struct Waiter {
    TxnId txn;
    TxnTimestamp ts;
    bool is_write = false;
    CcCallback cb;
  };
  static constexpr TxnTimestamp kNoFloor{-1, 0};

  struct ItemState {
    /// Committed versions keyed by writer timestamp (ascending).
    std::map<TxnTimestamp, VersionEntry> versions;
    /// No new access below this timestamp is granted.
    TxnTimestamp floor = kNoFloor;
    bool has_pending = false;
    TxnId pending_txn;
    TxnTimestamp pending_ts;  ///< the wts OnApply gives the new version
    std::vector<Waiter> waiters;  ///< kept sorted by ts
  };
  struct TxnInfo {
    std::set<ItemId> pending_items;
    std::set<ItemId> waiting_items;
  };

  enum class Verdict { kGrant, kDeny, kWait };
  Verdict Judge(const ItemState& st, TxnId txn, TxnTimestamp ts,
                bool is_write) const;

  void Request(TxnId txn, TxnTimestamp ts, ItemId item, bool is_write,
               CcCallback cb);

  /// Records a granted request: a prewrite takes the pending slot, a
  /// read raises its version's read timestamp (and, under kAll, returns
  /// that version's value).
  CcGrant Grant(ItemState& st, ItemId item, TxnId txn, TxnTimestamp ts,
                bool is_write);

  /// Re-examines waiters of `item` after state changed; decided ones are
  /// appended to `out`.
  void Rejudge(ItemId item, std::vector<std::pair<CcCallback, CcGrant>>& out);

  Versions versions_;
  std::unordered_map<ItemId, ItemState> items_;
  std::unordered_map<TxnId, TxnInfo> txns_;
  uint64_t rejections_ = 0;
};

}  // namespace rainbow

#endif  // RAINBOW_CC_TIMESTAMP_MANAGER_H_
