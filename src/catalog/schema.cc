#include "catalog/schema.h"

#include <climits>

namespace rainbow {

int VoteOf(const ItemSchema& item, SiteId site) {
  for (size_t i = 0; i < item.copies.size(); ++i) {
    if (item.copies[i] == site) return item.votes[i];
  }
  return 0;
}

Result<ItemId> ReplicationSchema::AddItem(const std::string& name,
                                          Value initial_value,
                                          std::vector<SiteId> copies,
                                          std::vector<int> votes,
                                          int read_quorum, int write_quorum) {
  auto bad = [&name](const std::string& why) {
    return Status::InvalidArgument("item '" + name + "'" + why);
  };
  if (by_name_.contains(name)) {
    return Status::AlreadyExists("item '" + name + "' already defined");
  }
  if (copies.empty()) return bad(" has no copies");
  for (size_t i = 0; i < copies.size(); ++i) {
    if (copies[i] >= num_sites_) {
      return bad(" placed on unknown site " + std::to_string(copies[i]));
    }
    for (size_t j = i + 1; j < copies.size(); ++j) {
      if (copies[i] == copies[j]) return bad(": duplicate copy site");
    }
  }
  if (votes.size() != copies.size()) {
    return bad(": votes/copies size mismatch");
  }
  int64_t total = 0;
  for (int w : votes) {
    if (w < 1) return bad(": vote weights must be >= 1");
    total += w;
  }
  if (total > INT_MAX) {
    return bad(": total votes exceed " + std::to_string(INT_MAX));
  }
  const int v = static_cast<int>(total);
  if (read_quorum < 1 || write_quorum < 1) {
    return bad(": quorums must be >= 1");
  }
  if (read_quorum > v || write_quorum > v) {
    return bad(": quorum exceeds total votes");
  }
  // int64 sums: each quorum is at most INT_MAX.
  if (int64_t{read_quorum} + write_quorum <= v) {
    return bad(
        ": R + W must exceed total votes (read/write quorums must "
        "intersect)");
  }
  if (2 * int64_t{write_quorum} <= v) {
    return bad(": 2W must exceed total votes (write quorums must intersect)");
  }
  ItemSchema item;
  item.id = static_cast<ItemId>(items_.size());
  item.name = name;
  item.initial_value = initial_value;
  item.copies = std::move(copies);
  item.votes = std::move(votes);
  item.read_quorum = read_quorum;
  item.write_quorum = write_quorum;
  by_name_[name] = item.id;
  items_.push_back(std::move(item));
  return items_.back().id;
}

Result<ItemId> ReplicationSchema::IdOf(const std::string& name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return Status::NotFound("no item named '" + name + "'");
  }
  return it->second;
}

Result<const ItemSchema*> ReplicationSchema::Find(ItemId id) const {
  if (id >= items_.size()) {
    return Status::NotFound("no item with id " + std::to_string(id));
  }
  return &items_[id];
}

}  // namespace rainbow
