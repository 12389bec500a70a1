#ifndef RAINBOW_STATS_PROGRESS_MONITOR_H_
#define RAINBOW_STATS_PROGRESS_MONITOR_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/types.h"
#include "fault/fault_injector.h"
#include "net/network.h"
#include "txn/transaction.h"

namespace rainbow {

class TraceCollector;

/// The paper's Progress Monitor (PM): collects execution statistics for
/// a Rainbow instance and renders them — the C++ stand-in for the GUI's
/// "Tx Processing" and "Display" menus. The §3 list of output statistics
/// maps to the accessors below.
class ProgressMonitor {
 public:
  /// Width of the time buckets used for the "messages / commits per
  /// time unit" series.
  void set_bucket_width(SimTime w) { bucket_width_ = w; }

  /// Keep every TxnOutcome for the session log (Figure 5 view). Off by
  /// default to bound memory in long sweeps.
  void set_keep_outcomes(bool keep) { keep_outcomes_ = keep; }

  // --- event intake (called by sites / the session driver) ---

  void OnSubmit(SiteId home, SimTime now);
  void OnComplete(const TxnOutcome& outcome);
  /// A participant unilaterally cleaned up a transaction orphaned by a
  /// home-site failure.
  void OnOrphanCleanup(TxnId txn, SiteId site);
  /// A prepared participant was blocked for `duration` waiting for a
  /// decision it could not learn immediately (E7's metric).
  void OnBlockedTime(TxnId txn, SimTime duration);
  /// The fault injector applied an event of `kind` (no-op transitions —
  /// crashing an already-down site — are not reported).
  void OnFaultInjected(FaultEvent::Kind kind);

  // --- the §3 statistics ---

  uint64_t submitted() const { return submitted_; }
  uint64_t committed() const { return committed_; }
  uint64_t aborted_total() const;
  uint64_t aborted(AbortCause cause) const;
  uint64_t orphans() const { return orphans_; }
  uint64_t round_trips() const { return round_trips_; }
  uint64_t faults_injected(FaultEvent::Kind kind) const {
    return faults_by_kind_[static_cast<size_t>(kind)];
  }
  uint64_t faults_injected_total() const;

  /// Fraction of finished transactions that committed, in [0,1].
  double commit_rate() const;
  /// Fraction of finished transactions aborted with `cause`.
  double abort_rate(AbortCause cause) const;

  /// Committed transactions per simulated second over [0, duration].
  double throughput_tps(SimTime duration) const;

  const Histogram& response_times() const { return response_committed_; }
  const Histogram& response_times_all() const { return response_all_; }
  const Histogram& blocked_times() const { return blocked_; }

  /// Committed-transaction counts per time bucket.
  const std::vector<uint64_t>& commits_per_bucket() const {
    return commit_buckets_;
  }

  /// Load-balance indicator: coefficient of variation of per-site homed
  /// transaction counts (0 = perfectly balanced).
  double home_load_cv() const;

  /// Load-balance indicator over message handling: CV of per-site
  /// delivered message counts (name server excluded).
  static double net_load_cv(const NetworkStats& net);
  const std::map<SiteId, uint64_t>& homed_per_site() const {
    return homed_per_site_;
  }

  const std::vector<TxnOutcome>& outcomes() const { return outcomes_; }

  // --- rendering ---

  /// The full §3 statistics table for a finished run.
  std::string RenderStatistics(const NetworkStats& net,
                               SimTime duration) const;

  /// The Figure-5 style session log: one line per transaction (requires
  /// set_keep_outcomes(true)).
  std::string RenderSessionLog() const;

  /// ASCII chart of committed transactions per time bucket — the
  /// "Display menu" throughput graph.
  std::string RenderThroughputChart() const;

  /// ASCII chart of network messages per time bucket (series kept by
  /// the NetworkStats passed in).
  static std::string RenderMessageChart(const NetworkStats& net);

  /// The GUI's live "execution window": the most recent `last_n`
  /// structured trace events as an aligned table (all of them when
  /// last_n is 0). Requires tracing enabled on the collector.
  static std::string RenderExecutionWindow(const TraceCollector& collector,
                                           size_t last_n = 40);

  void Reset();

 private:
  SimTime bucket_width_ = Millis(100);
  bool keep_outcomes_ = false;

  uint64_t submitted_ = 0;
  uint64_t committed_ = 0;
  std::array<uint64_t, 6> aborted_by_cause_{};  // indexed by AbortCause
  uint64_t orphans_ = 0;
  uint64_t round_trips_ = 0;
  std::array<uint64_t, kNumFaultKinds> faults_by_kind_{};

  Histogram response_committed_;
  Histogram response_all_;
  Histogram blocked_;
  std::vector<uint64_t> commit_buckets_;
  /// Sorted map, not unordered: home_load_cv() accumulates doubles in
  /// iteration order, so hash-order iteration would make the reported
  /// CV (and anything rendered from this table) depend on the order
  /// sites were first seen (rainbow_lint D1).
  std::map<SiteId, uint64_t> homed_per_site_;
  std::vector<TxnOutcome> outcomes_;
};

}  // namespace rainbow

#endif  // RAINBOW_STATS_PROGRESS_MONITOR_H_
