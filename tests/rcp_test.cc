#include <gtest/gtest.h>

#include "rcp/rcp_policy.h"

namespace rainbow {
namespace {

ItemSchema View(std::vector<SiteId> copies, std::vector<int> votes, int r,
                int w) {
  ItemSchema v;
  v.copies = std::move(copies);
  v.votes = std::move(votes);
  v.read_quorum = r;
  v.write_quorum = w;
  return v;
}

ItemSchema Majority3() { return View({0, 1, 2}, {1, 1, 1}, 2, 2); }

TEST(RcpRowaTest, ReadPicksOneCopyPreferringLocal) {
  RcpPlanner planner(RcpKind::kRowa, false);
  auto plan = planner.PlanRead(Majority3(), /*self=*/1, {});
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->targets.size(), 1u);
  EXPECT_EQ(plan->targets[0], 1u);
  EXPECT_TRUE(plan->require_all);
}

TEST(RcpRowaTest, ReadAvoidsSuspectedSites) {
  RcpPlanner planner(RcpKind::kRowa, false);
  auto plan = planner.PlanRead(Majority3(), /*self=*/5, {0});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->targets[0], 1u);  // lowest unsuspected
}

TEST(RcpRowaTest, WriteTargetsAllCopiesEvenSuspected) {
  RcpPlanner planner(RcpKind::kRowa, false);
  auto plan = planner.PlanWrite(Majority3(), 0, {2});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->targets.size(), 3u);
  EXPECT_TRUE(plan->require_all);
}

TEST(RcpRowaAvailableTest, WriteSkipsSuspected) {
  RcpPlanner planner(RcpKind::kRowaAvailable, false);
  auto plan = planner.PlanWrite(Majority3(), 0, {2});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->targets.size(), 2u);
  EXPECT_TRUE(plan->require_all);
}

TEST(RcpRowaAvailableTest, AllSuspectedIsUnavailable) {
  RcpPlanner planner(RcpKind::kRowaAvailable, false);
  auto plan = planner.PlanWrite(Majority3(), 5, {0, 1, 2});
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kUnavailable);
  auto read = planner.PlanRead(Majority3(), 5, {0, 1, 2});
  EXPECT_FALSE(read.ok());
}

TEST(RcpQuorumTest, MinimalSubsetReachesQuorum) {
  RcpPlanner planner(RcpKind::kQuorumConsensus, false);
  auto plan = planner.PlanRead(Majority3(), /*self=*/2, {});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->needed_votes, 2);
  ASSERT_EQ(plan->targets.size(), 2u);
  EXPECT_EQ(plan->targets[0], 2u);  // self first
  EXPECT_EQ(plan->targets[1], 0u);  // then lowest id
  EXPECT_FALSE(plan->require_all);
}

TEST(RcpQuorumTest, WeightedVotesShrinkTargetSet) {
  // Site 0 has 3 of 5 votes; a write quorum of 3 needs only site 0.
  ItemSchema v = View({0, 1, 2}, {3, 1, 1}, 3, 3);
  RcpPlanner planner(RcpKind::kQuorumConsensus, false);
  auto plan = planner.PlanWrite(v, /*self=*/1, {});
  ASSERT_TRUE(plan.ok());
  // Preference: self (1 vote) then site 0 (3 votes) = 4 >= 3.
  EXPECT_EQ(plan->targets.size(), 2u);
}

TEST(RcpQuorumTest, SuspectedSitesUsedOnlyAsLastResort) {
  RcpPlanner planner(RcpKind::kQuorumConsensus, false);
  auto plan = planner.PlanRead(Majority3(), /*self=*/5, {1});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->targets, (std::vector<SiteId>{0, 2}));
}

TEST(RcpQuorumTest, FallsBackToSuspectedWhenNecessary) {
  RcpPlanner planner(RcpKind::kQuorumConsensus, false);
  auto plan = planner.PlanWrite(Majority3(), /*self=*/5, {0, 1});
  ASSERT_TRUE(plan.ok());
  // Needs 2 votes but only one unsuspected copy: one suspected site is
  // included as a gamble (suspicion is only a hint).
  EXPECT_EQ(plan->targets.size(), 2u);
  EXPECT_EQ(plan->targets[0], 2u);
}

TEST(RcpQuorumTest, BroadcastContactsEveryCopy) {
  RcpPlanner planner(RcpKind::kQuorumConsensus, true);
  auto plan = planner.PlanRead(Majority3(), 0, {});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->targets.size(), 3u);
  EXPECT_EQ(plan->needed_votes, 2);
}

TEST(RcpQuorumTest, EmptyViewIsInvalid) {
  RcpPlanner planner(RcpKind::kQuorumConsensus, false);
  ItemSchema empty;
  EXPECT_FALSE(planner.PlanRead(empty, 0, {}).ok());
  EXPECT_FALSE(planner.PlanWrite(empty, 0, {}).ok());
}

TEST(RcpQuorumTest, ReadWriteQuorumsIntersect) {
  // For every valid schema, any read-quorum subset and write-quorum
  // subset must share a site. Spot-check with the planner's subsets.
  ItemSchema v = View({0, 1, 2, 3, 4}, {1, 1, 1, 1, 1}, 3, 3);
  RcpPlanner planner(RcpKind::kQuorumConsensus, false);
  auto r = planner.PlanRead(v, 0, {});
  auto w = planner.PlanWrite(v, 4, {});
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(w.ok());
  int shared = 0;
  for (SiteId a : r->targets) {
    for (SiteId b : w->targets) shared += a == b;
  }
  EXPECT_GT(shared, 0);
}

TEST(RcpPrimaryCopyTest, ReadsGoToPrimaryOnly) {
  RcpPlanner planner(RcpKind::kPrimaryCopy, false);
  ItemSchema v = View({4, 1, 2}, {1, 1, 1}, 2, 2);  // primary = site 4
  auto plan = planner.PlanRead(v, /*self=*/1, {});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->targets, (std::vector<SiteId>{4}));
  EXPECT_EQ(plan->cc_site, 4u);
  EXPECT_TRUE(plan->require_all);
}

TEST(RcpPrimaryCopyTest, WritesTouchAllCopiesCcAtPrimary) {
  RcpPlanner planner(RcpKind::kPrimaryCopy, false);
  ItemSchema v = View({4, 1, 2}, {1, 1, 1}, 2, 2);
  auto plan = planner.PlanWrite(v, /*self=*/2, {1});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->targets.size(), 3u);  // suspicion does not shrink it
  EXPECT_EQ(plan->cc_site, 4u);
  EXPECT_TRUE(plan->require_all);
}

TEST(ItemSchemaTest, VoteOf) {
  ItemSchema v = View({3, 5}, {2, 1}, 2, 2);
  EXPECT_EQ(VoteOf(v, 3), 2);
  EXPECT_EQ(VoteOf(v, 5), 1);
  EXPECT_EQ(VoteOf(v, 9), 0);
}

}  // namespace
}  // namespace rainbow
