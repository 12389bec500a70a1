#include "stats/trace_export.h"

#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "common/table.h"
#include "core/system.h"
#include "workload/workload.h"

namespace rainbow {

namespace {

/// Minimal JSON string escaping (quotes, backslashes, control chars).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// pid assignment: 0 = "system" (events without a transaction), then
/// 1.. in order of first appearance — emission order, so deterministic.
std::map<TxnId, int> AssignPids(const TraceCollector& collector) {
  std::map<TxnId, int> pids;
  int next = 1;
  for (const TraceRecord& r : collector.records()) {
    if (r.txn.valid() && pids.emplace(r.txn, next).second) ++next;
  }
  return pids;
}

int64_t TidOf(const TraceRecord& r) {
  return r.site == kInvalidSite ? -1 : static_cast<int64_t>(r.site);
}

}  // namespace

std::string ChromeTraceJson(const TraceCollector& raw) {
  // Canonicalize: the collector stores records in execution order;
  // (time, site) stable order groups each instant by site, and the
  // export (and the pid first-appearance assignment below) follows it.
  TraceCollector collector = raw;
  collector.CanonicalSort();
  std::map<TxnId, int> pids = AssignPids(collector);

  // (pid, tid) pairs in use, for thread_name metadata.
  std::set<std::pair<int, int64_t>> threads;
  for (const TraceRecord& r : collector.records()) {
    int pid = r.txn.valid() ? pids.at(r.txn) : 0;
    threads.emplace(pid, TidOf(r));
  }

  std::ostringstream os;
  os << "[\n";
  bool first = true;
  auto sep = [&]() {
    if (!first) os << ",\n";
    first = false;
  };

  // Metadata: process names in pid order (std::map iteration order on
  // TxnId is deterministic), then thread names.
  std::map<int, TxnId> by_pid;
  for (const auto& [txn, pid] : pids) by_pid[pid] = txn;
  sep();
  os << R"({"name":"process_name","ph":"M","pid":0,"tid":0,)"
     << R"("args":{"name":"system"}})";
  for (const auto& [pid, txn] : by_pid) {
    sep();
    os << R"({"name":"process_name","ph":"M","pid":)" << pid
       << R"(,"tid":0,"args":{"name":")" << txn.ToString() << R"("}})";
  }
  for (const auto& [pid, tid] : threads) {
    sep();
    os << R"({"name":"thread_name","ph":"M","pid":)" << pid << R"(,"tid":)"
       << tid << R"(,"args":{"name":")"
       << (tid < 0 ? std::string("nowhere") : "site " + std::to_string(tid))
       << R"("}})";
  }

  for (const TraceRecord& r : collector.records()) {
    sep();
    int pid = r.txn.valid() ? pids.at(r.txn) : 0;
    os << R"({"name":")" << TraceEventKindName(r.kind)
       << R"(","ph":"i","s":"t","pid":)" << pid << R"(,"tid":)" << TidOf(r)
       << R"(,"ts":)" << r.time << R"(,"args":{"arg":)" << r.arg;
    if (r.item != kInvalidItem) os << R"(,"item":)" << r.item;
    if (r.peer != kInvalidSite) os << R"(,"peer":)" << r.peer;
    if (!r.detail.empty()) {
      os << R"(,"detail":")" << JsonEscape(r.detail) << '"';
    }
    os << "}}";
  }
  os << "\n]\n";
  return os.str();
}

std::string RenderTxnTimeline(const TraceCollector& collector, TxnId txn) {
  std::vector<TraceRecord> events = collector.ForTxn(txn);
  std::ostringstream os;
  os << "timeline of " << txn.ToString() << " (" << events.size()
     << " events)\n";
  if (events.empty()) return os.str();
  TablePrinter t({"time_us", "+us", "site", "event", "item", "peer", "arg",
                  "detail"});
  SimTime prev = events.front().time;
  for (const TraceRecord& r : events) {
    t.AddRow({r.time, r.time - prev,
              r.site == kInvalidSite ? std::string("-")
                                     : std::to_string(r.site),
              TraceEventKindName(r.kind),
              r.item == kInvalidItem ? std::string("-")
                                     : std::to_string(r.item),
              r.peer == kInvalidSite ? std::string("-")
                                     : std::to_string(r.peer),
              r.arg, r.detail});
    prev = r.time;
  }
  os << t.ToString();
  return os.str();
}

std::string RenderTraceSummary(const TraceCollector& collector) {
  TablePrinter t({"txn", "events", "sites", "blocks", "retries", "outcome",
                  "span_us"});
  for (TxnId txn : collector.Transactions()) {
    std::vector<TraceRecord> events = collector.ForTxn(txn);
    std::set<SiteId> sites;
    size_t blocks = 0, retries = 0;
    std::string outcome = "in-flight";
    for (const TraceRecord& r : events) {
      if (r.site != kInvalidSite) sites.insert(r.site);
      if (r.kind == TraceEventKind::kCcBlock) ++blocks;
      if (r.kind == TraceEventKind::kRpcRetry) ++retries;
      if (r.kind == TraceEventKind::kTxnCommit) outcome = "commit";
      if (r.kind == TraceEventKind::kTxnAbort) outcome = "abort";
    }
    SimTime span = events.empty() ? 0 : events.back().time - events.front().time;
    t.AddRow({txn.ToString(), static_cast<uint64_t>(events.size()),
              static_cast<uint64_t>(sites.size()),
              static_cast<uint64_t>(blocks), static_cast<uint64_t>(retries),
              outcome, span});
  }
  std::ostringstream os;
  os << t.ToString();
  if (collector.dropped() > 0) {
    os << "(" << collector.dropped()
       << " events dropped at the capacity cap; earliest timelines are "
          "incomplete)\n";
  }
  return os.str();
}

std::string TraceDiff::Describe() const {
  if (identical) return "identical (" + std::to_string(left_lines) + " lines)";
  std::ostringstream os;
  os << "first divergence at line " << line << " (left " << left_lines
     << " lines, right " << right_lines << " lines)\n";
  os << "  left:  " << left << "\n";
  os << "  right: " << right << "\n";
  return os.str();
}

TraceDiff DiffTraceText(const std::string& a, const std::string& b) {
  TraceDiff d;
  std::istringstream sa(a), sb(b);
  std::string la, lb;
  size_t line = 0;
  bool more_a = true, more_b = true;
  while (true) {
    more_a = static_cast<bool>(std::getline(sa, la));
    more_b = static_cast<bool>(std::getline(sb, lb));
    if (more_a) ++d.left_lines;
    if (more_b) ++d.right_lines;
    ++line;
    if (!more_a && !more_b) break;
    if (!more_a || !more_b || la != lb) {
      d.line = line;
      d.left = more_a ? la : "<end of input>";
      d.right = more_b ? lb : "<end of input>";
      // Keep counting so Describe() reports full sizes.
      while (std::getline(sa, la)) ++d.left_lines;
      while (std::getline(sb, lb)) ++d.right_lines;
      return d;
    }
  }
  d.identical = true;
  return d;
}

Result<std::string> RunAndExportChromeTrace(
    const SystemConfig& config, const WorkloadConfig& workload,
    const std::vector<FaultEvent>& faults) {
  SystemConfig traced = config;
  traced.trace_enabled = true;
  traced.trace_detail = TraceDetail::kFull;
  RAINBOW_ASSIGN_OR_RETURN(std::unique_ptr<RainbowSystem> sys,
                           RainbowSystem::Create(std::move(traced)));
  FaultInjector inject(sys.get());
  inject.ScheduleAll(faults);
  WorkloadGenerator gen(sys.get(), workload);
  gen.Run();
  sys->RunToQuiescence();
  return ChromeTraceJson(sys->collector());
}

Result<TraceDiff> SameSeedTraceDiff(const SystemConfig& config,
                                    const WorkloadConfig& workload,
                                    const std::vector<FaultEvent>& faults) {
  RAINBOW_ASSIGN_OR_RETURN(std::string first,
                           RunAndExportChromeTrace(config, workload, faults));
  RAINBOW_ASSIGN_OR_RETURN(std::string second,
                           RunAndExportChromeTrace(config, workload, faults));
  return DiffTraceText(first, second);
}

}  // namespace rainbow
