#ifndef RAINBOW_CORE_SESSION_H_
#define RAINBOW_CORE_SESSION_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/config.h"
#include "core/system.h"
#include "fault/fault_injector.h"
#include "workload/workload.h"

namespace rainbow {

/// Aggregate results of one Rainbow session, in the units the paper's
/// §3 statistics list uses. One SessionResult is one row of most bench
/// tables.
struct SessionResult {
  SimTime duration = 0;  ///< virtual time from start to last completion

  uint64_t submitted = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t aborted_ccp = 0;
  uint64_t aborted_rcp = 0;
  uint64_t aborted_acp = 0;
  uint64_t aborted_fail = 0;
  uint64_t orphans = 0;
  uint64_t retries = 0;

  double commit_rate = 0;       ///< committed / finished
  double throughput_tps = 0;    ///< committed per virtual second
  double mean_response_us = 0;  ///< committed transactions
  int64_t p95_response_us = 0;
  int64_t p99_response_us = 0;

  uint64_t net_messages = 0;  ///< inter-site messages sent
  uint64_t net_bytes = 0;
  uint64_t dropped = 0;
  double msgs_per_commit = 0;
  double msgs_per_txn = 0;  ///< per finished transaction

  double mean_blocked_us = 0;  ///< prepared-participant decision wait
  int64_t max_blocked_us = 0;

  double load_cv = 0;
  /// Bytes the sites' write-ahead logs hold at the end of the session
  /// (Wal::resident_bytes summed over sites).
  uint64_t wal_resident_bytes = 0;
  /// Bytes the sites' logs hold allocated at the end of the session
  /// (Wal::held_bytes summed over sites): resident bytes plus slack.
  uint64_t wal_held_bytes = 0;
  /// Bytes the sites' protocol digests hold at the end of the session
  /// (Wal::digest_bytes summed over sites).
  uint64_t wal_digest_bytes = 0;
  /// Bytes the RPC duplicate windows hold allocated at the end of the
  /// session (RpcEndpoint::held_bytes summed over the sites and the name
  /// server).
  uint64_t rpc_window_bytes = 0;

  std::string stats_table;   ///< full §3 rendering
  std::string session_log;   ///< Figure-5 lines (when kept)
  std::string verify_report; ///< invariant-checker report (when enabled)
};

/// Options for RunSession beyond system + workload config.
struct SessionOptions {
  std::vector<FaultEvent> faults;
  /// Declarative fault script (fault/fault_script.h grammar), scheduled
  /// in addition to `faults`. Parse errors fail the session.
  std::string fault_script;
  /// Random faults (0 = disabled): exponential MTTF/MTTR per site while
  /// the workload runs.
  SimTime random_mttf = 0;
  SimTime random_mttr = 0;
  /// Hard stop: the session ends at this virtual time even if the
  /// workload has not drained (e.g. when a crash never recovers).
  SimTime max_duration = Seconds(600);
  /// Keep per-transaction outcomes for the Figure-5 session log.
  bool keep_session_log = false;
};

/// Configures a Rainbow instance, drives a workload through it (with
/// optional fault injection), and gathers the statistics — one full
/// "Rainbow session" as §4.2 of the paper describes, minus the browser.
Result<SessionResult> RunSession(const SystemConfig& system_config,
                                 const WorkloadConfig& workload_config,
                                 const SessionOptions& options = {});

}  // namespace rainbow

#endif  // RAINBOW_CORE_SESSION_H_
