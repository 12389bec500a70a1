#include "verify/checker.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "common/string_util.h"
#include "common/table.h"

namespace rainbow {

const char* InvariantKindName(InvariantKind k) {
  switch (k) {
    case InvariantKind::kQuorumConfig:
      return "quorum-config";
    case InvariantKind::kSerializability:
      return "serializability";
    case InvariantKind::kAtomicity:
      return "atomicity";
    case InvariantKind::kReplication:
      return "replication";
    case InvariantKind::kLockDiscipline:
      return "lock-discipline";
  }
  return "?";
}

std::string Violation::ToString() const {
  std::string out = StringPrintf("VIOLATION [%s/%s]",
                                 InvariantKindName(invariant), code.c_str());
  if (txn.valid()) out += " " + txn.ToString();
  if (item != kInvalidItem) out += StringPrintf(" item %u", item);
  if (site != kInvalidSite) out += StringPrintf(" @S%u", site);
  out += ": " + message;
  return out;
}

size_t CheckReport::CountFor(InvariantKind kind) const {
  size_t n = 0;
  for (const Violation& v : violations) {
    if (v.invariant == kind) ++n;
  }
  return n;
}

std::string CheckReport::Render() const {
  std::ostringstream os;
  os << "history check: " << events << " events, " << committed
     << " committed, " << aborted << " aborted";
  if (truncated) {
    os << " (trace truncated: " << dropped
       << " records dropped — trace passes skipped)";
  }
  os << "\n";
  TablePrinter t({"invariant", "violations", "checked"});
  t.AddRow({InvariantKindName(InvariantKind::kSerializability),
            std::to_string(CountFor(InvariantKind::kSerializability)),
            StringPrintf("%zu txns, %zu edges", graph_nodes, graph_edges)});
  t.AddRow({InvariantKindName(InvariantKind::kAtomicity),
            std::to_string(CountFor(InvariantKind::kAtomicity)),
            StringPrintf("%zu committed", committed)});
  t.AddRow({InvariantKindName(InvariantKind::kReplication),
            std::to_string(CountFor(InvariantKind::kReplication)),
            StringPrintf("%zu events", events)});
  t.AddRow({InvariantKindName(InvariantKind::kLockDiscipline),
            std::to_string(CountFor(InvariantKind::kLockDiscipline)),
            StringPrintf("%zu committed", committed)});
  t.AddRow({InvariantKindName(InvariantKind::kQuorumConfig),
            std::to_string(CountFor(InvariantKind::kQuorumConfig)), "static"});
  os << t.ToString();
  if (violations.empty()) {
    os << "all invariants hold\n";
  } else {
    for (const Violation& v : violations) os << v.ToString() << "\n";
  }
  return os.str();
}

HistoryChecker::HistoryChecker(SystemConfig config)
    : config_(std::move(config)) {}

namespace {

/// Classification of the transactions a trace mentions. A transaction
/// counts as committed when its coordinator reported commit or any
/// replica applied a commit decision (3PC termination can commit a
/// transaction whose coordinator never came back).
struct TxnOutcomes {
  std::set<TxnId> committed;
  std::set<TxnId> aborted;

  static TxnOutcomes From(const TraceCollector& trace) {
    TxnOutcomes out;
    for (const TraceRecord& r : trace.records()) {
      switch (r.kind) {
        case TraceEventKind::kTxnCommit:
          out.committed.insert(r.txn);
          break;
        case TraceEventKind::kTxnAbort:
          out.aborted.insert(r.txn);
          break;
        case TraceEventKind::kDecision:
        case TraceEventKind::kDecisionApplied:
          if (r.arg == 1) out.committed.insert(r.txn);
          break;
        default:
          break;
      }
    }
    return out;
  }
};

}  // namespace

CheckReport HistoryChecker::Check(const TraceCollector& trace) const {
  CheckReport report;
  report.events = trace.records().size();
  report.dropped = trace.dropped();
  CheckQuorumConfig(report);
  if (trace.dropped() > 0) {
    // An evicted prefix would make every absence-based check unsound
    // (e.g. "no vote recorded" when the vote was simply dropped).
    report.truncated = true;
    return report;
  }
  TxnOutcomes outcomes = TxnOutcomes::From(trace);
  report.committed = outcomes.committed.size();
  report.aborted = outcomes.aborted.size();
  CheckSerializability(trace, report);
  CheckAtomicity(trace, report);
  CheckReplication(trace, report);
  if (config_.protocols.cc == CcKind::kTwoPhaseLocking) {
    CheckLockDiscipline(trace, report);
  }
  return report;
}

void HistoryChecker::CheckQuorumConfig(CheckReport& report) const {
  if (config_.protocols.rcp != RcpKind::kQuorumConsensus) return;
  for (const ItemConfig& item : config_.items) {
    const int total = item.TotalVotes();
    const int rq = item.EffectiveReadQuorum();
    const int wq = item.EffectiveWriteQuorum();
    // Widened: a config that validates can hold quorums near INT_MAX.
    if (int64_t{rq} + wq <= total) {
      Violation v;
      v.invariant = InvariantKind::kQuorumConfig;
      v.code = "rw-no-intersect";
      v.message = StringPrintf(
          "item '%s': R(%d) + W(%d) <= total votes (%d); a read quorum "
          "can miss the latest write",
          item.name.c_str(), rq, wq, total);
      report.violations.push_back(std::move(v));
    }
    if (2 * int64_t{wq} <= total) {
      Violation v;
      v.invariant = InvariantKind::kQuorumConfig;
      v.code = "ww-no-intersect";
      v.message = StringPrintf(
          "item '%s': 2W(%d) <= total votes (%d); two write quorums can "
          "be disjoint and install conflicting versions",
          item.name.c_str(), wq, total);
      report.violations.push_back(std::move(v));
    }
  }
}

namespace {

/// Finds one cycle in a directed graph (adjacency sets over dense node
/// indices) and returns it as a node sequence (first == last), or empty
/// when the graph is acyclic. Iterative colored DFS keeping the current
/// path so the offending cycle can be printed.
std::vector<size_t> FindCycle(const std::vector<std::set<size_t>>& edges) {
  const size_t n = edges.size();
  std::vector<int> color(n, 0);  // 0 white, 1 on path, 2 done
  struct Frame {
    size_t node;
    std::set<size_t>::const_iterator next;
  };
  std::vector<Frame> path;
  for (size_t start = 0; start < n; ++start) {
    if (color[start] != 0) continue;
    color[start] = 1;
    path.push_back(Frame{start, edges[start].begin()});
    while (!path.empty()) {
      Frame& f = path.back();
      if (f.next == edges[f.node].end()) {
        color[f.node] = 2;
        path.pop_back();
        continue;
      }
      size_t succ = *f.next;
      ++f.next;
      if (color[succ] == 1) {
        // Back edge: the cycle is the path suffix from succ to f.node.
        std::vector<size_t> cycle;
        size_t i = 0;
        while (path[i].node != succ) ++i;
        for (; i < path.size(); ++i) cycle.push_back(path[i].node);
        cycle.push_back(succ);
        return cycle;
      }
      if (color[succ] == 0) {
        color[succ] = 1;
        path.push_back(Frame{succ, edges[succ].begin()});
      }
    }
  }
  return {};
}

}  // namespace

void HistoryChecker::CheckSerializability(const TraceCollector& trace,
                                          CheckReport& report) const {
  TxnOutcomes outcomes = TxnOutcomes::From(trace);
  const std::set<TxnId>& committed = outcomes.committed;

  // Per item: the committed writer of each version, and the committed
  // readers of each version. kWriteApplied repeats per replica; the
  // replication pass checks cross-replica agreement, so the first writer
  // wins here.
  struct ItemHistory {
    std::map<Version, TxnId> writers;
    std::map<Version, std::set<TxnId>> readers;
  };
  // Keyed by ItemId in a *sorted* map: the iteration below assigns the
  // precedence-graph node indices and emits violations, so hash-order
  // iteration would leak into the printed cycle and the violation list
  // (rainbow_lint D1).
  std::map<ItemId, ItemHistory> items;
  for (const TraceRecord& r : trace.records()) {
    if (!committed.contains(r.txn)) continue;
    if (r.kind == TraceEventKind::kWriteApplied) {
      items[r.item].writers.emplace(static_cast<Version>(r.arg), r.txn);
    } else if (r.kind == TraceEventKind::kReadDone) {
      items[r.item].readers[static_cast<Version>(r.arg)].insert(r.txn);
    }
  }

  // Dense node indices over the committed transactions that conflict.
  std::map<TxnId, size_t> index;
  std::vector<TxnId> nodes;
  auto node_of = [&](TxnId t) {
    auto [it, inserted] = index.try_emplace(t, nodes.size());
    if (inserted) nodes.push_back(t);
    return it->second;
  };
  std::vector<std::set<size_t>> edges;
  size_t edge_count = 0;
  auto add_edge = [&](TxnId a, TxnId b) {
    if (a == b) return;
    size_t ia = node_of(a), ib = node_of(b);
    if (edges.size() < nodes.size()) edges.resize(nodes.size());
    if (edges[ia].insert(ib).second) ++edge_count;
  };

  for (const auto& [item, hist] : items) {
    // ww: the writer of each version precedes the writer of the next.
    const TxnId* prev = nullptr;
    for (const auto& [version, writer] : hist.writers) {
      if (prev != nullptr) add_edge(*prev, writer);
      prev = &writer;
    }
    for (const auto& [version, readers] : hist.readers) {
      // wr: the writer of `version` precedes its readers. Version 0 is
      // the initial load and has no writer.
      auto w = hist.writers.find(version);
      if (w != hist.writers.end()) {
        for (TxnId rdr : readers) add_edge(w->second, rdr);
      } else if (version != 0) {
        Violation v;
        v.invariant = InvariantKind::kSerializability;
        v.code = "read-uninstalled-version";
        v.txn = *readers.begin();
        v.item = item;
        v.message = StringPrintf(
            "version %llu was read but no committed transaction installed "
            "it", static_cast<unsigned long long>(version));
        report.violations.push_back(std::move(v));
      }
      // rw: readers of `version` precede the writer of the next version.
      auto next = hist.writers.upper_bound(version);
      if (next != hist.writers.end()) {
        for (TxnId rdr : readers) add_edge(rdr, next->second);
      }
    }
  }
  if (edges.size() < nodes.size()) edges.resize(nodes.size());
  report.graph_nodes = nodes.size();
  report.graph_edges = edge_count;

  std::vector<size_t> cycle = FindCycle(edges);
  if (!cycle.empty()) {
    std::string path;
    for (size_t i = 0; i < cycle.size(); ++i) {
      if (i) path += " -> ";
      path += nodes[cycle[i]].ToString();
    }
    Violation v;
    v.invariant = InvariantKind::kSerializability;
    v.code = "precedence-cycle";
    v.txn = nodes[cycle.front()];
    v.message = "conflict cycle: " + path;
    report.violations.push_back(std::move(v));
  }
}

void HistoryChecker::CheckAtomicity(const TraceCollector& trace,
                                    CheckReport& report) const {
  struct AcpView {
    std::set<SiteId> applied_commit;
    std::set<SiteId> applied_abort;
    std::set<SiteId> yes_voters;
    std::set<SiteId> no_voters;
    int64_t prepared_cohort = -1;  ///< kPrepare arg; -1 = never prepared
    int decisions_commit = 0;      ///< coordinator kDecision arg==1
    int decisions_abort = 0;
  };
  std::map<TxnId, AcpView> txns;
  for (const TraceRecord& r : trace.records()) {
    switch (r.kind) {
      case TraceEventKind::kPrepare:
        txns[r.txn].prepared_cohort =
            std::max(txns[r.txn].prepared_cohort, r.arg);
        break;
      case TraceEventKind::kVote:
        (r.arg == 1 ? txns[r.txn].yes_voters : txns[r.txn].no_voters)
            .insert(r.site);
        break;
      case TraceEventKind::kDecision:
        ++(r.arg == 1 ? txns[r.txn].decisions_commit
                      : txns[r.txn].decisions_abort);
        break;
      case TraceEventKind::kDecisionApplied:
        (r.arg == 1 ? txns[r.txn].applied_commit : txns[r.txn].applied_abort)
            .insert(r.site);
        break;
      default:
        break;
    }
  }
  for (const auto& [txn, view] : txns) {
    if (!view.applied_commit.empty() && !view.applied_abort.empty()) {
      Violation v;
      v.invariant = InvariantKind::kAtomicity;
      v.code = "split-decision";
      v.txn = txn;
      v.site = *view.applied_commit.begin();
      v.message = StringPrintf(
          "COMMIT applied at %zu site(s) (first @S%u) but ABORT applied "
          "at %zu site(s) (first @S%u)",
          view.applied_commit.size(), *view.applied_commit.begin(),
          view.applied_abort.size(), *view.applied_abort.begin());
      report.violations.push_back(std::move(v));
    }
    if (view.decisions_commit > 0 && view.decisions_abort > 0) {
      Violation v;
      v.invariant = InvariantKind::kAtomicity;
      v.code = "contradictory-decisions";
      v.txn = txn;
      v.message = "coordinator recorded both COMMIT and ABORT decisions";
      report.violations.push_back(std::move(v));
    }
    bool committed =
        view.decisions_commit > 0 || !view.applied_commit.empty();
    if (committed && view.prepared_cohort >= 0) {
      if (!view.no_voters.empty()) {
        Violation v;
        v.invariant = InvariantKind::kAtomicity;
        v.code = "commit-despite-no-vote";
        v.txn = txn;
        v.site = *view.no_voters.begin();
        v.message = StringPrintf("committed although site %u voted NO",
                                 *view.no_voters.begin());
        report.violations.push_back(std::move(v));
      }
      if (static_cast<int64_t>(view.yes_voters.size()) <
          view.prepared_cohort) {
        Violation v;
        v.invariant = InvariantKind::kAtomicity;
        v.code = "commit-without-votes";
        v.txn = txn;
        v.message = StringPrintf(
            "committed with %zu YES vote(s) from a prepare cohort of %lld",
            view.yes_voters.size(),
            static_cast<long long>(view.prepared_cohort));
        report.violations.push_back(std::move(v));
      }
    }
  }
}

void HistoryChecker::CheckReplication(const TraceCollector& trace,
                                      CheckReport& report) const {
  // Per replica copy: the last installed version must grow strictly.
  // Per (item, version): every install must come from one transaction.
  std::map<std::pair<SiteId, ItemId>, Version> last_at_replica;
  std::map<std::pair<ItemId, Version>, TxnId> installer;
  for (const TraceRecord& r : trace.records()) {
    if (r.kind != TraceEventKind::kWriteApplied) continue;
    Version version = static_cast<Version>(r.arg);
    auto key = std::make_pair(r.site, r.item);
    auto it = last_at_replica.find(key);
    if (it != last_at_replica.end() && version < it->second) {
      Violation v;
      v.invariant = InvariantKind::kReplication;
      v.code = "replica-regression";
      v.txn = r.txn;
      v.item = r.item;
      v.site = r.site;
      v.message = StringPrintf(
          "installed version %llu after version %llu was already applied "
          "at this replica",
          static_cast<unsigned long long>(version),
          static_cast<unsigned long long>(it->second));
      report.violations.push_back(std::move(v));
    } else {
      last_at_replica[key] = version;
    }
    auto [ins, inserted] =
        installer.emplace(std::make_pair(r.item, version), r.txn);
    if (!inserted && ins->second != r.txn) {
      Violation v;
      v.invariant = InvariantKind::kReplication;
      v.code = "divergent-install";
      v.txn = r.txn;
      v.item = r.item;
      v.site = r.site;
      v.message = StringPrintf(
          "version %llu installed by both %s and %s (lost update: "
          "write quorums failed to intersect)",
          static_cast<unsigned long long>(version),
          ins->second.ToString().c_str(), r.txn.ToString().c_str());
      report.violations.push_back(std::move(v));
    }
  }
}

void HistoryChecker::CheckLockDiscipline(const TraceCollector& trace,
                                         CheckReport& report) const {
  TxnOutcomes outcomes = TxnOutcomes::From(trace);
  const std::vector<TraceRecord>& records = trace.records();

  // First release point per committed transaction, in global emission
  // order: a read-only YES vote releases that participant's locks early;
  // an applied decision releases them at commit/abort time.
  std::map<TxnId, size_t> first_release;
  // Sites whose grants the transaction actually used (voted or applied a
  // decision). Surplus broadcast grants that the coordinator cancelled
  // never participate and are exempt: the transaction never used them.
  std::map<TxnId, std::set<SiteId>> participants;
  for (size_t i = 0; i < records.size(); ++i) {
    const TraceRecord& r = records[i];
    if (!outcomes.committed.contains(r.txn)) continue;
    bool releases =
        r.kind == TraceEventKind::kDecisionApplied ||
        (r.kind == TraceEventKind::kVote && r.arg == 1 &&
         r.detail == "read-only");
    if (releases) first_release.try_emplace(r.txn, i);
    if (r.kind == TraceEventKind::kVote ||
        r.kind == TraceEventKind::kDecisionApplied) {
      participants[r.txn].insert(r.site);
    }
  }
  for (size_t i = 0; i < records.size(); ++i) {
    const TraceRecord& r = records[i];
    if (r.kind != TraceEventKind::kCcGrant) continue;
    auto rel = first_release.find(r.txn);
    if (rel == first_release.end() || i <= rel->second) continue;
    auto used = participants.find(r.txn);
    if (used == participants.end() || !used->second.contains(r.site)) {
      continue;
    }
    Violation v;
    v.invariant = InvariantKind::kLockDiscipline;
    v.code = "grant-after-release";
    v.txn = r.txn;
    v.item = r.item;
    v.site = r.site;
    v.message = StringPrintf(
        "lock granted (event #%zu) after the transaction's first release "
        "(event #%zu): growing phase violated",
        i, rel->second);
    report.violations.push_back(std::move(v));
  }
}

}  // namespace rainbow
