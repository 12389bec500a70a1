// Lint fixture: the PR-7 Wal::InDoubt bug, reduced. Recovery scanned a
// hash map and pushed the in-doubt transactions into the reinstatement
// list in iteration order — so the order recovery re-prepared them (and
// every trace line downstream) depended on the standard library's hash
// layout. rainbow_lint rule D1 must flag every loop shape below.
//
// EXPECT-LINT lines are consumed by tests/lint_test.cc: each names the
// rule that must fire on that exact line.
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

struct TxnLogState {
  bool prepared = false;
  bool decided = false;
  unsigned txn = 0;
};

std::unordered_map<unsigned, TxnLogState> Scan();

std::vector<unsigned> InDoubt() {
  std::unordered_map<unsigned, TxnLogState> scanned = Scan();
  std::vector<unsigned> out;
  for (const auto& [txn, st] : scanned) {  // EXPECT-LINT: D1
    if (st.prepared && !st.decided) out.push_back(txn);
  }
  return out;  // hash order escapes into recovery-visible output
}

std::vector<unsigned> InDoubtViaCall() {
  std::vector<unsigned> out;
  // Iterating the returned temporary is exactly as hash-ordered as the
  // named variable above.
  for (const auto& [txn, st] : Scan()) {  // EXPECT-LINT: D1
    if (st.prepared && !st.decided) out.push_back(txn);
  }
  return out;
}

std::vector<unsigned> InDoubtViaAuto() {
  // `auto` takes the hash map type from Scan()'s declaration.
  auto recovered = Scan();
  std::vector<unsigned> out;
  for (const auto& [txn, st] : recovered) {  // EXPECT-LINT: D1
    if (st.prepared && !st.decided) out.push_back(txn);
  }
  return out;
}

std::string RenderSeen(const std::unordered_set<unsigned>& seen) {
  std::string s;
  for (auto it = seen.begin(); it != seen.end(); ++it) {  // EXPECT-LINT: D1
    s.append(std::to_string(*it));
    s.append(",");
  }
  return s;
}
