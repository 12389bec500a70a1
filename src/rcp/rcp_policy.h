#ifndef RAINBOW_RCP_RCP_POLICY_H_
#define RAINBOW_RCP_RCP_POLICY_H_

#include <set>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/result.h"
#include "common/types.h"

namespace rainbow {

/// Which replication-control protocol a Rainbow instance runs.
enum class RcpKind {
  kRowa,             ///< read one copy, write ALL copies (write blocks on any failure)
  kRowaAvailable,    ///< read one, write all *available* copies (extension)
  kQuorumConsensus,  ///< weighted-vote read/write quorums (the paper's default)
  kPrimaryCopy,      ///< eager primary copy: all CC at the primary,
                     ///< reads at the primary, writes pushed to all
                     ///< backups inside the commit (extension)
};

const char* RcpKindName(RcpKind k);

/// The coordinator's plan for executing one operation under the RCP:
/// which replica sites to contact and what counts as success.
struct AccessPlan {
  std::vector<SiteId> targets;
  /// Votes that must be granted for success. Under require_all this is
  /// ignored — every target must grant.
  int needed_votes = 0;
  bool require_all = false;
  /// Primary copy only: the one site whose CC engine arbitrates this
  /// access; requests to the other targets bypass CC (their buffered
  /// writes ride on the primary's serialization). kInvalidSite = every
  /// target applies CC (the QC / ROWA behaviour).
  SiteId cc_site = kInvalidSite;
};

/// Pure planning logic for the three replication-control protocols.
/// Site selection prefers the coordinator's own site, then unsuspected
/// sites in ascending id order; suspected sites are used only when the
/// quorum is otherwise unreachable. With `broadcast_reads`, quorum reads
/// are sent to every copy and the coordinator takes the first replies
/// that reach the vote threshold (trades extra messages for latency and
/// fault tolerance — an ablation knob for experiment E3).
class RcpPlanner {
 public:
  RcpPlanner(RcpKind kind, bool broadcast);

  /// Plans a read of `item`'s copies. Fails with kUnavailable when no
  /// plan can possibly succeed (e.g. every copy suspected under ROWA-A).
  Result<AccessPlan> PlanRead(const ItemSchema& item, SiteId self,
                              const std::set<SiteId>& suspected) const;

  /// Plans a write (pre-write) of `item`'s copies.
  Result<AccessPlan> PlanWrite(const ItemSchema& item, SiteId self,
                               const std::set<SiteId>& suspected) const;

  RcpKind kind() const { return kind_; }
  std::string name() const { return RcpKindName(kind_); }

 private:
  /// Copies ordered by contact preference.
  static std::vector<size_t> PreferenceOrder(const ItemSchema& item,
                                             SiteId self,
                                             const std::set<SiteId>& suspected);

  /// Smallest preferred subset reaching `quorum` votes.
  static Result<AccessPlan> QuorumSubset(const ItemSchema& item, SiteId self,
                                         const std::set<SiteId>& suspected,
                                         int quorum);

  RcpKind kind_;
  bool broadcast_;
};

}  // namespace rainbow

#endif  // RAINBOW_RCP_RCP_POLICY_H_
