#ifndef RAINBOW_CATALOG_SCHEMA_H_
#define RAINBOW_CATALOG_SCHEMA_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/types.h"

namespace rainbow {

/// Replication metadata for one database item: which sites hold copies,
/// the vote weight of each copy, and the quorum thresholds. This is the
/// name server's "database fragmentation, replication and distribution
/// schema" from the paper.
struct ItemSchema {
  ItemId id = kInvalidItem;
  std::string name;
  Value initial_value = 0;
  std::vector<SiteId> copies;
  std::vector<int> votes;  ///< parallel to `copies`; all >= 1
  int read_quorum = 0;     ///< in votes
  int write_quorum = 0;    ///< in votes
};

/// The vote weight of `site`'s copy of `item`, or 0 when it holds none.
int VoteOf(const ItemSchema& item, SiteId site);

/// The database schema: items, their placement, and quorum parameters.
/// Configured once per Rainbow instance ("Database Replication
/// Configuration panel") and then distributed via the name server.
/// SystemConfig::Validate() builds it; every item in it passed
/// AddItem's checks.
class ReplicationSchema {
 public:
  /// A schema whose copies may be placed on sites [0, num_sites).
  explicit ReplicationSchema(uint32_t num_sites) : num_sites_(num_sites) {}

  /// Makes room for `n` items, so adding them moves no earlier item.
  void Reserve(size_t n) {
    items_.reserve(n);
    by_name_.reserve(n);
  }

  /// Adds an item with explicit copies/votes/quorums and returns its id,
  /// or says why the item is malformed: a duplicate name; no copies, a
  /// duplicate copy site or one at or above num_sites; votes not one per
  /// copy, below 1, or summing past INT_MAX; quorums outside
  /// [1, total votes], or failing R + W > V and 2W > V (the quorum
  /// intersection conditions). This is the only per-item check.
  Result<ItemId> AddItem(const std::string& name, Value initial_value,
                         std::vector<SiteId> copies, std::vector<int> votes,
                         int read_quorum, int write_quorum);

  Result<ItemId> IdOf(const std::string& name) const;
  Result<const ItemSchema*> Find(ItemId id) const;
  const std::vector<ItemSchema>& items() const { return items_; }
  size_t num_items() const { return items_.size(); }

 private:
  uint32_t num_sites_;
  std::vector<ItemSchema> items_;
  std::unordered_map<std::string, ItemId> by_name_;
};

}  // namespace rainbow

#endif  // RAINBOW_CATALOG_SCHEMA_H_
