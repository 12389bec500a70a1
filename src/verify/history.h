#ifndef RAINBOW_VERIFY_HISTORY_H_
#define RAINBOW_VERIFY_HISTORY_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "txn/transaction.h"

namespace rainbow {

/// One committed transaction with the versions it read and installed.
struct CommittedTxn {
  TxnId id;
  std::vector<CommittedAccess> accesses;
};

/// Collects the committed history of a Rainbow run. Coordinators report
/// each commit with per-item version information; the checker below then
/// validates conflict-serializability. Part of the library (not just the
/// tests) because inspecting executions is the paper's stated classroom
/// use.
class HistoryRecorder {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  void RecordCommit(TxnId txn, std::vector<CommittedAccess> accesses);

  const std::vector<CommittedTxn>& transactions() const { return txns_; }
  void Clear() { txns_.clear(); }

 private:
  bool enabled_ = false;
  std::vector<CommittedTxn> txns_;
};

/// Checks that the committed history is conflict-serializable, using the
/// per-item version order as the write order:
///
///  * ww: writer of version v precedes the writer of the next version;
///  * wr: writer of version v precedes every reader of v;
///  * rw: every reader of version v precedes the writer of the next
///        version after v.
///
/// Returns OK if the conflict graph is acyclic; otherwise kInternal with
/// a description of a cycle. Also fails if two committed transactions
/// installed the same version of the same item (lost update).
Status CheckConflictSerializable(const std::vector<CommittedTxn>& history);

/// Convenience: renders the history one transaction per line.
std::string RenderHistory(const std::vector<CommittedTxn>& history);

}  // namespace rainbow

#endif  // RAINBOW_VERIFY_HISTORY_H_
