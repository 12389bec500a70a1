#ifndef RAINBOW_TXN_TRANSACTION_H_
#define RAINBOW_TXN_TRANSACTION_H_

#include <functional>
#include <string>
#include <vector>

#include "common/types.h"

namespace rainbow {

/// Kinds of operations a Rainbow transaction performs on database items.
enum class OpKind {
  kRead,       ///< read the item
  kWrite,      ///< blind write of a constant
  kIncrement,  ///< read-modify-write: new value = current + delta
  kScan,       ///< range read: `value` items starting at `item`
};

const char* OpKindName(OpKind k);

/// One operation of a transaction program. Items are referenced by id;
/// the manual workload panel composes these from item names via the
/// catalog.
struct Op {
  OpKind kind = OpKind::kRead;
  ItemId item = kInvalidItem;
  Value value = 0;  ///< write: new value; increment: delta; read: unused

  static Op Read(ItemId item) { return Op{OpKind::kRead, item, 0}; }
  static Op Write(ItemId item, Value v) { return Op{OpKind::kWrite, item, v}; }
  static Op Increment(ItemId item, Value delta) {
    return Op{OpKind::kIncrement, item, delta};
  }
  /// Range read of `length` consecutive items starting at `item`. The
  /// coordinator expands it into per-item reads at Start() (the RCP
  /// reads each copy through the replica-control path; the page engine
  /// serves the copies from its B+ tree leaf chain).
  static Op Scan(ItemId item, Value length) {
    return Op{OpKind::kScan, item, length};
  }

  bool reads() const { return kind != OpKind::kWrite; }
  bool writes() const {
    return kind != OpKind::kRead && kind != OpKind::kScan;
  }
  std::string ToString() const;
};

/// A transaction program: the ordered list of operations submitted to a
/// home site, processed one at a time by the RCP (paper §2.1).
struct TxnProgram {
  std::vector<Op> ops;
  std::string label;  ///< optional, for traces and the session log

  bool read_only() const;
  std::string ToString() const;
};

/// What happened to a submitted transaction, reported back to the
/// workload generator / progress monitor when the thread finishes.
struct TxnOutcome {
  TxnId id;
  TxnTimestamp ts;  ///< the timestamp the transaction ran with
  bool committed = false;
  AbortCause abort_cause = AbortCause::kNone;
  std::string abort_detail;
  SimTime submitted_at = 0;
  SimTime finished_at = 0;
  SiteId home = kInvalidSite;
  uint32_t num_ops = 0;
  uint32_t round_trips = 0;  ///< request/reply pairs the coordinator ran
  /// Values observed by read/increment ops, in program order (committed
  /// transactions only; used by examples and the serializability tests).
  std::vector<Value> reads;

  SimTime response_time() const { return finished_at - submitted_at; }
  std::string ToString() const;
};

/// Completion callback delivered by the home site when the transaction
/// finishes (commits or aborts).
using TxnCallback = std::function<void(const TxnOutcome&)>;

}  // namespace rainbow

#endif  // RAINBOW_TXN_TRANSACTION_H_
