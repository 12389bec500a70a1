#ifndef RAINBOW_ACP_ACP_COMMON_H_
#define RAINBOW_ACP_ACP_COMMON_H_

#include <optional>
#include <vector>

#include "common/types.h"
#include "net/message.h"

namespace rainbow {

/// Which atomic commitment protocol a Rainbow instance runs.
enum class AcpKind {
  kTwoPhaseCommit,    ///< the paper's default ACP
  kThreePhaseCommit,  ///< non-blocking term-project extension
};

const char* AcpKindName(AcpKind k);

/// The 3PC cooperative-termination decision rule: given the states
/// reported by the reachable participants (including the caller's own),
/// decide the transaction's fate without the coordinator.
///
///  * any kCommitted         -> commit
///  * any kAborted / kUnknown / kActive -> abort (kUnknown or kActive
///    means that site had not voted YES, so commit cannot have been
///    decided)
///  * any kPreCommitted      -> commit (no site can be in both abort-
///    and commit-reachable states; pre-commit certifies all voted yes)
///  * all kPrepared          -> abort (safe in 3PC: pre-commit certifies
///    commit decisions, and no reachable site saw one)
///
/// Returns nullopt if `states` is empty.
std::optional<bool> ThreePcTerminationDecision(
    const std::vector<AcpState>& states);

}  // namespace rainbow

#endif  // RAINBOW_ACP_ACP_COMMON_H_
