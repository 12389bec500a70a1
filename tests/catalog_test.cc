#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "catalog/schema.h"

namespace rainbow {
namespace {

TEST(SchemaTest, AddAndLookup) {
  ReplicationSchema schema(3);
  auto id = schema.AddItem("x", 10, {0, 1, 2}, {1, 1, 1}, 2, 2);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*schema.IdOf("x"), *id);
  auto item = schema.Find(*id);
  ASSERT_TRUE(item.ok());
  EXPECT_EQ((*item)->name, "x");
  EXPECT_EQ((*item)->copies, (std::vector<SiteId>{0, 1, 2}));
  EXPECT_EQ((*item)->votes, (std::vector<int>{1, 1, 1}));
  EXPECT_FALSE(schema.IdOf("y").ok());
  EXPECT_FALSE(schema.Find(99).ok());
}

TEST(SchemaTest, RejectsDuplicatesAndBadShapes) {
  ReplicationSchema schema(2);
  ASSERT_TRUE(schema.AddItem("x", 0, {0}, {1}, 1, 1).ok());
  EXPECT_FALSE(schema.AddItem("x", 0, {1}, {1}, 1, 1).ok());  // dup name
  EXPECT_FALSE(schema.AddItem("a", 0, {}, {}, 1, 1).ok());    // no copies
  EXPECT_FALSE(schema.AddItem("b", 0, {0, 1}, {1}, 1, 1).ok());  // mismatch
  EXPECT_FALSE(schema.AddItem("c", 0, {0, 0}, {1, 1}, 1, 1).ok());  // dup site
  EXPECT_FALSE(schema.AddItem("d", 0, {0}, {0}, 1, 1).ok());  // zero vote
  EXPECT_FALSE(schema.AddItem("e", 0, {2}, {1}, 1, 1).ok());  // no site 2
  // Vote weights whose sum overflows an int.
  EXPECT_FALSE(
      schema.AddItem("f", 0, {0, 1}, {2147483647, 2}, 1, 2147483647).ok());
  EXPECT_EQ(schema.num_items(), 1u);  // rejected items leave no trace
  EXPECT_FALSE(schema.IdOf("a").ok());
}

TEST(SchemaTest, ValidateEnforcesQuorumIntersection) {
  // AddItem, which SystemConfig::Validate() runs for every item, holds
  // the quorum rules: each quorum in [1, V], R + W > V and 2W > V.
  ReplicationSchema s(3);
  EXPECT_FALSE(s.AddItem("a", 0, {0, 1, 2}, {1, 1, 1}, 1, 1).ok());  // R+W=2
  // R + W = 4 > 3 but 2W = 2 <= 3: write quorums don't intersect.
  EXPECT_FALSE(s.AddItem("b", 0, {0, 1, 2}, {1, 1, 1}, 3, 1).ok());
  EXPECT_FALSE(s.AddItem("c", 0, {0, 1}, {1, 1}, 3, 2).ok());  // R > V
  EXPECT_FALSE(s.AddItem("d", 0, {0, 1}, {1, 1}, 0, 2).ok());  // R < 1
  // Weighted: votes 2,1,1; R=2, W=3: R+W=5 > 4, 2W=6 > 4. Valid.
  EXPECT_TRUE(s.AddItem("e", 0, {0, 1, 2}, {2, 1, 1}, 2, 3).ok());
}

}  // namespace
}  // namespace rainbow
