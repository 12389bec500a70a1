// Lint fixture: unordered-container patterns that are LEGAL and must
// produce zero findings — order-independent reductions, lookups,
// sorted-copy iteration, and ordered containers feeding output.
#include <algorithm>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

// Order-independent reduction: no output leaves the loop.
size_t TotalWaiters(const std::unordered_map<unsigned, std::vector<int>>& m) {
  size_t n = 0;
  for (const auto& [item, waiters] : m) n += waiters.size();
  return n;
}

// Lookup, not iteration.
int Find(const std::unordered_map<unsigned, int>& m, unsigned k) {
  auto it = m.find(k);
  return it == m.end() ? -1 : it->second;
}

// The sanctioned fix-it shape: range-construct a vector of entries
// (no emitting loop over the hash map), sort it, iterate the copy.
std::string RenderSorted(const std::unordered_map<unsigned, int>& m) {
  std::vector<std::pair<unsigned, int>> entries(m.begin(), m.end());
  std::sort(entries.begin(), entries.end());
  std::string out;
  for (const auto& [k, v] : entries) {
    out.append(std::to_string(k));
    out.append("=");
    out.append(std::to_string(v));
  }
  return out;
}

// Ordered container: iteration order is the key order, emit freely.
// (Named `ordered`, not `m`: rainbow_lint resolves declarations
// file-locally by name, so reusing an unordered-declared name for an
// ordered container in another function would look hash-ordered.)
std::string RenderMap(const std::map<unsigned, int>& ordered) {
  std::string out;
  for (const auto& [k, v] : ordered) out.append(std::to_string(k));
  return out;
}

// `auto` from a function returning an ordered container stays clean,
// even when the loop over it emits.
std::map<unsigned, int> Snapshot();
std::string RenderSnapshot() {
  auto snap = Snapshot();
  std::string out;
  for (const auto& [k, v] : snap) out.append(std::to_string(k));
  return out;
}
