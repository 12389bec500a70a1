#ifndef RAINBOW_STATS_TRACE_EXPORT_H_
#define RAINBOW_STATS_TRACE_EXPORT_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/trace.h"
#include "fault/fault_injector.h"

namespace rainbow {

struct SystemConfig;
struct WorkloadConfig;

/// Serializes the collector as Chrome trace_event JSON (the array
/// format), loadable in chrome://tracing and Perfetto. Mapping:
///   pid = transaction (process_name "T<seq>@<home>"; pid 0 = "system"
///         for events not tied to a transaction)
///   tid = site (thread_name "site N")
///   ts  = virtual time in microseconds, ph "i" (instant, scope "t")
/// One event per line so exports of two runs diff line-by-line. The
/// records are canonicalized — stable-sorted by (time, site) — before
/// serialization, so same-seed runs produce byte-identical files.
std::string ChromeTraceJson(const TraceCollector& collector);

/// ASCII timeline of one transaction: its events in time order, one row
/// each, the per-transaction "execution window" of the paper's GUI.
std::string RenderTxnTimeline(const TraceCollector& collector, TxnId txn);

/// One summary row per traced transaction (events, sites touched,
/// blocks, retries, outcome).
std::string RenderTraceSummary(const TraceCollector& collector);

/// First divergence between two line-oriented exports.
struct TraceDiff {
  bool identical = false;
  size_t line = 0;  ///< 1-based first differing line (0 if identical)
  std::string left;
  std::string right;
  size_t left_lines = 0;
  size_t right_lines = 0;

  std::string Describe() const;
};

TraceDiff DiffTraceText(const std::string& a, const std::string& b);

/// The determinism gate: builds the system + workload twice from the
/// same configs (tracing forced to kFull), schedules `faults` on each,
/// runs both to quiescence, and diffs the Chrome-trace exports.
/// Identical inputs must yield `identical == true`; anything else is a
/// determinism regression.
Result<TraceDiff> SameSeedTraceDiff(const SystemConfig& config,
                                    const WorkloadConfig& workload,
                                    const std::vector<FaultEvent>& faults = {});

/// Single run of (config, workload, faults) to quiescence with tracing
/// forced to kFull; returns the Chrome-trace JSON. Shared by
/// SameSeedTraceDiff and the trace_explorer example.
Result<std::string> RunAndExportChromeTrace(
    const SystemConfig& config, const WorkloadConfig& workload,
    const std::vector<FaultEvent>& faults = {});

}  // namespace rainbow

#endif  // RAINBOW_STATS_TRACE_EXPORT_H_
