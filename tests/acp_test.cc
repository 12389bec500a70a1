#include <gtest/gtest.h>

#include "acp/acp_common.h"

namespace rainbow {
namespace {

TEST(ThreePcTerminationTest, EmptyIsUndecidable) {
  EXPECT_FALSE(ThreePcTerminationDecision({}).has_value());
}

TEST(ThreePcTerminationTest, CommittedForcesCommit) {
  auto d = ThreePcTerminationDecision(
      {AcpState::kPrepared, AcpState::kCommitted});
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(*d);
}

TEST(ThreePcTerminationTest, AbortedForcesAbort) {
  auto d = ThreePcTerminationDecision(
      {AcpState::kPreCommitted, AcpState::kAborted});
  ASSERT_TRUE(d.has_value());
  EXPECT_FALSE(*d);
}

TEST(ThreePcTerminationTest, UnpreparedSiteMeansAbort) {
  // A site still active (or with no record) never voted YES, so the
  // coordinator cannot have decided commit.
  auto d = ThreePcTerminationDecision(
      {AcpState::kPrepared, AcpState::kActive});
  ASSERT_TRUE(d.has_value());
  EXPECT_FALSE(*d);
  d = ThreePcTerminationDecision({AcpState::kPrepared, AcpState::kUnknown});
  ASSERT_TRUE(d.has_value());
  EXPECT_FALSE(*d);
}

TEST(ThreePcTerminationTest, PreCommittedMeansCommit) {
  auto d = ThreePcTerminationDecision(
      {AcpState::kPrepared, AcpState::kPreCommitted});
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(*d);
}

TEST(ThreePcTerminationTest, AllPreparedMeansAbort) {
  auto d = ThreePcTerminationDecision(
      {AcpState::kPrepared, AcpState::kPrepared, AcpState::kPrepared});
  ASSERT_TRUE(d.has_value());
  EXPECT_FALSE(*d);
}

}  // namespace
}  // namespace rainbow
