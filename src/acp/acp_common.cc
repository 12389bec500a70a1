#include "acp/acp_common.h"

namespace rainbow {

const char* AcpKindName(AcpKind k) {
  switch (k) {
    case AcpKind::kTwoPhaseCommit:
      return "2PC";
    case AcpKind::kThreePhaseCommit:
      return "3PC";
  }
  return "?";
}

std::optional<bool> ThreePcTerminationDecision(
    const std::vector<AcpState>& states) {
  if (states.empty()) return std::nullopt;
  bool any_precommitted = false;
  for (AcpState s : states) {
    switch (s) {
      case AcpState::kCommitted:
        return true;
      case AcpState::kAborted:
      case AcpState::kUnknown:
      case AcpState::kActive:
        return false;
      case AcpState::kPreCommitted:
        any_precommitted = true;
        break;
      case AcpState::kPrepared:
        break;
    }
  }
  return any_precommitted;  // all prepared, none pre-committed -> abort
}

}  // namespace rainbow
