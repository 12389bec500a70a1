#include "rcp/rcp_policy.h"

#include <algorithm>

namespace rainbow {

const char* RcpKindName(RcpKind k) {
  switch (k) {
    case RcpKind::kRowa:
      return "ROWA";
    case RcpKind::kRowaAvailable:
      return "ROWA-A";
    case RcpKind::kQuorumConsensus:
      return "QC";
    case RcpKind::kPrimaryCopy:
      return "PRIMARY";
  }
  return "?";
}

RcpPlanner::RcpPlanner(RcpKind kind, bool broadcast)
    : kind_(kind), broadcast_(broadcast) {}

std::vector<size_t> RcpPlanner::PreferenceOrder(
    const ItemSchema& item, SiteId self, const std::set<SiteId>& suspected) {
  std::vector<size_t> order(item.copies.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  auto rank = [&](size_t i) {
    SiteId s = item.copies[i];
    if (suspected.contains(s)) return 2;
    return s == self ? 0 : 1;
  };
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    int ra = rank(a), rb = rank(b);
    if (ra != rb) return ra < rb;
    return item.copies[a] < item.copies[b];
  });
  return order;
}

Result<AccessPlan> RcpPlanner::QuorumSubset(const ItemSchema& item,
                                            SiteId self,
                                            const std::set<SiteId>& suspected,
                                            int quorum) {
  AccessPlan plan;
  plan.needed_votes = quorum;
  int gathered = 0;
  for (size_t i : PreferenceOrder(item, self, suspected)) {
    if (gathered >= quorum) break;
    plan.targets.push_back(item.copies[i]);
    gathered += item.votes[i];
  }
  if (gathered < quorum) {
    return Status::Unavailable("quorum unattainable: " +
                               std::to_string(gathered) + " of " +
                               std::to_string(quorum) + " votes reachable");
  }
  return plan;
}

Result<AccessPlan> RcpPlanner::PlanRead(const ItemSchema& item, SiteId self,
                                        const std::set<SiteId>& suspected) const {
  if (item.copies.empty()) {
    return Status::InvalidArgument("item has no copies");
  }
  switch (kind_) {
    case RcpKind::kRowa:
    case RcpKind::kRowaAvailable: {
      // Read any one copy, preferring local and unsuspected.
      AccessPlan plan;
      plan.require_all = true;
      plan.needed_votes = 1;
      size_t best = PreferenceOrder(item, self, suspected).front();
      if (kind_ == RcpKind::kRowaAvailable &&
          suspected.contains(item.copies[best])) {
        return Status::Unavailable("all copies suspected down");
      }
      plan.targets.push_back(item.copies[best]);
      return plan;
    }
    case RcpKind::kQuorumConsensus: {
      if (broadcast_) {
        AccessPlan plan;
        plan.targets = item.copies;
        plan.needed_votes = item.read_quorum;
        return plan;
      }
      return QuorumSubset(item, self, suspected, item.read_quorum);
    }
    case RcpKind::kPrimaryCopy: {
      // Reads go to the primary (the first copy in the schema) only.
      AccessPlan plan;
      plan.require_all = true;
      plan.cc_site = item.copies.front();
      plan.targets.push_back(item.copies.front());
      return plan;
    }
  }
  return Status::Internal("unknown RCP kind");
}

Result<AccessPlan> RcpPlanner::PlanWrite(const ItemSchema& item, SiteId self,
                                         const std::set<SiteId>& suspected) const {
  if (item.copies.empty()) {
    return Status::InvalidArgument("item has no copies");
  }
  switch (kind_) {
    case RcpKind::kRowa: {
      // Write ALL copies, regardless of suspicion — the protocol's
      // defining weakness: one dead copy blocks every write.
      AccessPlan plan;
      plan.targets = item.copies;
      plan.require_all = true;
      return plan;
    }
    case RcpKind::kRowaAvailable: {
      AccessPlan plan;
      plan.require_all = true;
      for (SiteId s : item.copies) {
        if (!suspected.contains(s)) plan.targets.push_back(s);
      }
      if (plan.targets.empty()) {
        return Status::Unavailable("all copies suspected down");
      }
      return plan;
    }
    case RcpKind::kQuorumConsensus: {
      if (broadcast_) {
        AccessPlan plan;
        plan.targets = item.copies;
        plan.needed_votes = item.write_quorum;
        return plan;
      }
      return QuorumSubset(item, self, suspected, item.write_quorum);
    }
    case RcpKind::kPrimaryCopy: {
      // Writes lock the primary and are pushed eagerly to every backup
      // (which buffer them without CC).
      AccessPlan plan;
      plan.targets = item.copies;
      plan.require_all = true;
      plan.cc_site = item.copies.front();
      return plan;
    }
  }
  return Status::Internal("unknown RCP kind");
}

}  // namespace rainbow
