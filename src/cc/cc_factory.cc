#include <memory>

#include "cc/cc_engine.h"
#include "cc/lock_manager.h"
#include "cc/occ_manager.h"
#include "cc/timestamp_manager.h"

namespace rainbow {

const char* CcKindName(CcKind k) {
  switch (k) {
    case CcKind::kTwoPhaseLocking:
      return "2PL";
    case CcKind::kTimestampOrdering:
      return "TSO";
    case CcKind::kMultiversionTso:
      return "MVTO";
    case CcKind::kOptimistic:
      return "OCC";
  }
  return "?";
}

const char* DeadlockPolicyName(DeadlockPolicy p) {
  switch (p) {
    case DeadlockPolicy::kWaitDie:
      return "wait-die";
    case DeadlockPolicy::kWoundWait:
      return "wound-wait";
    case DeadlockPolicy::kLocalWfg:
      return "local-wfg";
    case DeadlockPolicy::kTimeoutOnly:
      return "timeout-only";
    case DeadlockPolicy::kEdgeChasing:
      return "edge-chasing";
  }
  return "?";
}

std::unique_ptr<CcEngine> CreateCcEngine(CcKind kind, DeadlockPolicy policy) {
  switch (kind) {
    case CcKind::kTwoPhaseLocking:
      return std::make_unique<LockManager>(policy);
    case CcKind::kTimestampOrdering:
      return std::make_unique<TimestampManager>(
          TimestampManager::Versions::kOne);
    case CcKind::kMultiversionTso:
      return std::make_unique<TimestampManager>(
          TimestampManager::Versions::kAll);
    case CcKind::kOptimistic:
      return std::make_unique<OccManager>();
  }
  return nullptr;
}

}  // namespace rainbow
