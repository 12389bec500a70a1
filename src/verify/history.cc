#include "verify/history.h"

#include <map>
#include <set>
#include <sstream>

#include "common/string_util.h"

namespace rainbow {

void HistoryRecorder::RecordCommit(TxnId txn,
                                   std::vector<CommittedAccess> accesses) {
  if (!enabled_) return;
  txns_.push_back(CommittedTxn{txn, std::move(accesses)});
}

namespace {

struct ItemVersions {
  /// version -> writer index in history
  std::map<Version, size_t> writers;
  /// version -> reader indices
  std::map<Version, std::vector<size_t>> readers;
};

}  // namespace

Status CheckConflictSerializable(const std::vector<CommittedTxn>& history) {
  // Index accesses per item. Sorted map, not unordered: the edge-build
  // loop below returns the first inconsistency it sees, and which one
  // that is must not depend on hash order (rainbow_lint D1).
  std::map<ItemId, ItemVersions> items;
  for (size_t i = 0; i < history.size(); ++i) {
    for (const CommittedAccess& a : history[i].accesses) {
      ItemVersions& iv = items[a.item];
      if (a.is_write) {
        auto [it, inserted] = iv.writers.emplace(a.version, i);
        if (!inserted && it->second != i) {
          return Status::Internal(StringPrintf(
              "item %u version %llu installed by both %s and %s", a.item,
              static_cast<unsigned long long>(a.version),
              history[it->second].id.ToString().c_str(),
              history[i].id.ToString().c_str()));
        }
      } else {
        iv.readers[a.version].push_back(i);
      }
    }
  }

  // Build conflict edges.
  std::vector<std::set<size_t>> edges(history.size());
  auto add_edge = [&](size_t a, size_t b) {
    if (a != b) edges[a].insert(b);
  };
  for (const auto& [item, iv] : items) {
    // ww edges along the version order.
    const size_t* prev_writer = nullptr;
    for (const auto& [version, writer] : iv.writers) {
      if (prev_writer != nullptr) add_edge(*prev_writer, writer);
      prev_writer = &writer;
    }
    for (const auto& [version, readers] : iv.readers) {
      // wr: the writer of `version` precedes its readers (version 0 is
      // the initial load, no writer).
      auto w = iv.writers.find(version);
      if (w != iv.writers.end()) {
        for (size_t r : readers) add_edge(w->second, r);
      } else if (version != 0 && !iv.writers.contains(version)) {
        return Status::Internal(StringPrintf(
            "item %u: version %llu was read but never written", item,
            static_cast<unsigned long long>(version)));
      }
      // rw: readers of `version` precede the writer of the next version.
      auto next = iv.writers.upper_bound(version);
      if (next != iv.writers.end()) {
        for (size_t r : readers) add_edge(r, next->second);
      }
    }
  }

  // Cycle detection (iterative DFS, colors).
  std::vector<int> color(history.size(), 0);
  std::vector<size_t> stack;
  for (size_t start = 0; start < history.size(); ++start) {
    if (color[start] != 0) continue;
    stack.push_back(start);
    while (!stack.empty()) {
      size_t n = stack.back();
      if (color[n] == 0) {
        color[n] = 1;
        for (size_t next : edges[n]) {
          if (color[next] == 1) {
            return Status::Internal(
                "conflict cycle involving " + history[next].id.ToString() +
                " and " + history[n].id.ToString());
          }
          if (color[next] == 0) stack.push_back(next);
        }
      } else {
        if (color[n] == 1) color[n] = 2;
        stack.pop_back();
      }
    }
  }
  return Status::OK();
}

std::string RenderHistory(const std::vector<CommittedTxn>& history) {
  std::ostringstream os;
  for (const CommittedTxn& t : history) {
    os << t.id.ToString() << ":";
    for (const CommittedAccess& a : t.accesses) {
      os << StringPrintf(" %s(%u@v%llu)", a.is_write ? "w" : "r", a.item,
                         static_cast<unsigned long long>(a.version));
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace rainbow
