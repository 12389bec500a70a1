#include "core/session.h"

#include "fault/fault_script.h"
#include "verify/checker.h"

namespace rainbow {

Result<SessionResult> RunSession(const SystemConfig& system_config,
                                 const WorkloadConfig& workload_config,
                                 const SessionOptions& options) {
  SystemConfig sys_cfg = system_config;
  if (sys_cfg.verify_history && !sys_cfg.trace_enabled) {
    // The checker consumes the structured trace; protocol detail is
    // enough (per-message records are not needed).
    sys_cfg.trace_enabled = true;
    sys_cfg.trace_detail = TraceDetail::kProtocol;
  }

  auto created = RainbowSystem::Create(sys_cfg);
  RAINBOW_RETURN_IF_ERROR(created.status());
  RainbowSystem& sys = **created;
  if (options.keep_session_log) sys.set_keep_outcomes(true);

  FaultInjector injector(&sys);
  injector.ScheduleAll(options.faults);
  if (!options.fault_script.empty()) {
    Result<std::vector<FaultEvent>> scripted =
        ParseFaultScript(options.fault_script);
    RAINBOW_RETURN_IF_ERROR(scripted.status());
    injector.ScheduleAll(*scripted);
  }
  if (options.random_mttf > 0 && options.random_mttr > 0) {
    injector.EnableRandomFaults(options.random_mttf, options.random_mttr,
                                options.max_duration, sys_cfg.seed ^ 0xfa17u);
  }

  WorkloadGenerator wlg(&sys, workload_config);
  wlg.Run();

  // Drive the simulation until the workload drains (or the cap).
  const SimTime step = Millis(50);
  while (!wlg.finished() && sys.sim().Now() < options.max_duration) {
    sys.RunFor(step);
    if (sys.Idle() && !wlg.finished()) {
      // Nothing can make progress any more (e.g. every site crashed and
      // nothing is scheduled): stop.
      break;
    }
  }
  SimTime duration = sys.sim().Now();
  // Let stragglers (acks, closers, refreshes) settle for accounting.
  sys.RunFor(Millis(500));

  const ProgressMonitor& pm = sys.monitor();
  const NetworkStats& net = sys.net().stats();

  SessionResult r;
  r.duration = duration;
  r.submitted = pm.submitted();
  r.committed = pm.committed();
  r.aborted = pm.aborted_total();
  r.aborted_ccp = pm.aborted(AbortCause::kCcp);
  r.aborted_rcp = pm.aborted(AbortCause::kRcp);
  r.aborted_acp = pm.aborted(AbortCause::kAcp);
  r.aborted_fail = pm.aborted(AbortCause::kSiteFailure);
  r.orphans = pm.orphans();
  r.retries = wlg.retries();
  r.commit_rate = pm.commit_rate();
  r.throughput_tps = pm.throughput_tps(duration);
  r.mean_response_us = pm.response_times().mean();
  r.p95_response_us = pm.response_times().Percentile(0.95);
  r.p99_response_us = pm.response_times().Percentile(0.99);
  r.net_messages = net.network_sent();
  r.net_bytes = net.bytes;
  r.dropped = net.total_dropped();
  uint64_t finished = r.committed + r.aborted;
  r.msgs_per_commit =
      r.committed ? static_cast<double>(r.net_messages) /
                        static_cast<double>(r.committed)
                  : 0;
  r.msgs_per_txn = finished ? static_cast<double>(r.net_messages) /
                                  static_cast<double>(finished)
                            : 0;
  r.mean_blocked_us = pm.blocked_times().mean();
  r.max_blocked_us = pm.blocked_times().max();
  r.load_cv = pm.home_load_cv();
  for (size_t s = 0; s < sys.num_sites(); ++s) {
    Site* site = sys.site(static_cast<SiteId>(s));
    const Wal& wal = site->wal();
    r.wal_resident_bytes += wal.resident_bytes();
    r.wal_held_bytes += wal.held_bytes();
    r.wal_digest_bytes += wal.digest_bytes();
    r.rpc_window_bytes += site->rpc().held_bytes();
  }
  r.rpc_window_bytes += sys.name_server().rpc().held_bytes();
  r.stats_table = pm.RenderStatistics(net, duration);
  if (options.keep_session_log) r.session_log = pm.RenderSessionLog();

  if (sys_cfg.verify_history) {
    CheckReport report = sys.VerifyHistory();
    r.verify_report = report.Render();
    if (!report.ok()) {
      return Status::Internal("history check failed:\n" + r.verify_report);
    }
    if (report.truncated) {
      // The checker skipped every trace pass, so ok() above proved
      // nothing: refuse to call an unchecked session verified.
      return Status::Internal(
          "history check incomplete: trace truncated, " +
          std::to_string(report.dropped) + " records dropped");
    }
  }
  return r;
}

}  // namespace rainbow
