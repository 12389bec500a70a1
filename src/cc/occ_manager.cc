#include "cc/occ_manager.h"

namespace rainbow {

bool OccManager::TryCommitLock(TxnId txn, ItemId item, bool exclusive) {
  using Mode = LockManager::Mode;
  Mode mode = exclusive ? Mode::kExclusive : Mode::kShared;
  if (locks_.TryLock(txn, item, mode)) return true;
  ++validation_conflicts_;
  return false;
}

}  // namespace rainbow
