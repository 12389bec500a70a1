#ifndef RAINBOW_CC_MVTO_MANAGER_H_
#define RAINBOW_CC_MVTO_MANAGER_H_

#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "cc/cc_engine.h"

namespace rainbow {

/// Multiversion timestamp ordering — the "multi-versioning TSO" term
/// project the paper proposes. The engine keeps a chain of committed
/// versions per item (seeded from OnApply) and serves reads itself:
///
///  * read(ts) finds the version with the largest write timestamp <= ts
///    and records ts as that version's read timestamp. Reads wait only
///    when an uncommitted prewrite with a smaller timestamp could still
///    produce the version they must observe (strictness). They are
///    rejected only below a reseeded item's floor (LoadInitial).
///  * prewrite(ts) is rejected iff some transaction with a larger
///    timestamp already read the version that this write would
///    overwrite (i.e. a version v with wts(v) < ts and rts(v) > ts).
///    One prewrite pending per item at a time, as in strict TSO.
///
/// Compared to basic TSO, read-only transactions never restart — the
/// effect the E10 ablation quantifies.
class MvtoManager final : public CcEngine {
 public:
  MvtoManager();

  void RequestRead(TxnId txn, TxnTimestamp ts, ItemId item,
                   CcCallback cb) override;
  void RequestWrite(TxnId txn, TxnTimestamp ts, ItemId item,
                    CcCallback cb) override;
  void Finish(TxnId txn, bool commit) override;
  void MarkPrepared(TxnId txn) override;
  void OnApply(TxnId txn, ItemId item, Value value, Version version) override;
  bool Tracks(TxnId txn) const override;
  std::string name() const override { return "MVTO"; }

  /// Seeds the base version of an item (wts = -inf). Called by the site
  /// when the database is loaded (version 0) and again after a crash or
  /// a refresh adoption, when the committed store copy (at its current
  /// version) becomes the base version. Such a reseed passes a `floor`
  /// above every transaction that began before it, and the item then
  /// rejects (kTsoTooLate) every read and new prewrite below the floor:
  /// the copy may hold a write newer than an older reader must see, and
  /// the read timestamps that would fence an older writer are gone. A
  /// prewrite already pending keeps its grant, so a recovering site
  /// re-takes its in-doubt writes before it reseeds.
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
    /// No new access below this timestamp is granted (see LoadInitial).
    TxnTimestamp floor = kNoFloor;
    bool has_pending = false;
    TxnId pending_txn;
    TxnTimestamp pending_ts;
    std::vector<Waiter> waiters;
  };
  struct TxnInfo {
    std::set<ItemId> pending_items;
    std::set<ItemId> waiting_items;
    /// Pending timestamps per item (needed at OnApply time).
    std::map<ItemId, TxnTimestamp> pending_ts;
  };

  enum class Verdict { kGrant, kDeny, kWait };
  Verdict Judge(const ItemState& st, TxnId txn, TxnTimestamp ts,
                bool is_write) const;

  /// Grants a read: updates rts and fills value/version into the grant.
  CcGrant GrantRead(ItemState& st, TxnTimestamp ts);

  void Rejudge(ItemId item, std::vector<std::pair<CcCallback, CcGrant>>& out);

  std::unordered_map<ItemId, ItemState> items_;
  std::unordered_map<TxnId, TxnInfo> txns_;
  uint64_t rejections_ = 0;
};

}  // namespace rainbow

#endif  // RAINBOW_CC_MVTO_MANAGER_H_
