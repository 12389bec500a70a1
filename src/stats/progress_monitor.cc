#include "stats/progress_monitor.h"

#include <cmath>
#include <sstream>

#include "common/string_util.h"
#include "common/table.h"
#include "common/trace.h"

namespace rainbow {

void ProgressMonitor::OnSubmit(SiteId home, SimTime now) {
  (void)now;
  ++submitted_;
  ++homed_per_site_[home];
}

void ProgressMonitor::OnComplete(const TxnOutcome& outcome) {
  response_all_.Add(outcome.response_time());
  round_trips_ += outcome.round_trips;
  if (outcome.committed) {
    ++committed_;
    response_committed_.Add(outcome.response_time());
    size_t bucket = static_cast<size_t>(outcome.finished_at / bucket_width_);
    if (bucket >= commit_buckets_.size()) commit_buckets_.resize(bucket + 1, 0);
    commit_buckets_[bucket]++;
  } else {
    ++aborted_by_cause_[static_cast<size_t>(outcome.abort_cause)];
  }
  if (keep_outcomes_) outcomes_.push_back(outcome);
}

void ProgressMonitor::OnOrphanCleanup(TxnId txn, SiteId site) {
  (void)txn;
  (void)site;
  ++orphans_;
}

void ProgressMonitor::OnBlockedTime(TxnId txn, SimTime duration) {
  (void)txn;
  blocked_.Add(duration);
}

void ProgressMonitor::OnFaultInjected(FaultEvent::Kind kind) {
  ++faults_by_kind_[static_cast<size_t>(kind)];
}

uint64_t ProgressMonitor::faults_injected_total() const {
  uint64_t n = 0;
  for (uint64_t f : faults_by_kind_) n += f;
  return n;
}

uint64_t ProgressMonitor::aborted_total() const {
  uint64_t n = 0;
  for (uint64_t a : aborted_by_cause_) n += a;
  return n;
}

uint64_t ProgressMonitor::aborted(AbortCause cause) const {
  return aborted_by_cause_[static_cast<size_t>(cause)];
}

double ProgressMonitor::commit_rate() const {
  uint64_t finished = committed_ + aborted_total();
  return finished
             ? static_cast<double>(committed_) / static_cast<double>(finished)
             : 0.0;
}

double ProgressMonitor::abort_rate(AbortCause cause) const {
  uint64_t finished = committed_ + aborted_total();
  return finished ? static_cast<double>(aborted(cause)) /
                        static_cast<double>(finished)
                  : 0.0;
}

double ProgressMonitor::throughput_tps(SimTime duration) const {
  if (duration <= 0) return 0.0;
  return static_cast<double>(committed_) /
         (static_cast<double>(duration) / 1e6);
}

double ProgressMonitor::home_load_cv() const {
  if (homed_per_site_.empty()) return 0.0;
  double n = static_cast<double>(homed_per_site_.size());
  double sum = 0;
  for (const auto& [s, c] : homed_per_site_) sum += static_cast<double>(c);
  double mean = sum / n;
  if (mean == 0) return 0.0;
  double var = 0;
  for (const auto& [s, c] : homed_per_site_) {
    double d = static_cast<double>(c) - mean;
    var += d * d;
  }
  var /= n;
  return std::sqrt(var) / mean;
}

double ProgressMonitor::net_load_cv(const NetworkStats& net) {
  double n = 0, sum = 0;
  net.per_site_delivered.ForEach([&](SiteId site, uint64_t count) {
    if (site == kNameServerId) return;
    n += 1;
    sum += static_cast<double>(count);
  });
  if (n == 0 || sum == 0) return 0.0;
  double mean = sum / n;
  double var = 0;
  net.per_site_delivered.ForEach([&](SiteId site, uint64_t count) {
    if (site == kNameServerId) return;
    double d = static_cast<double>(count) - mean;
    var += d * d;
  });
  var /= n;
  return std::sqrt(var) / mean;
}

std::string ProgressMonitor::RenderStatistics(const NetworkStats& net,
                                              SimTime duration) const {
  TablePrinter t({"statistic", "value"});
  uint64_t finished = committed_ + aborted_total();
  t.AddRow({"transactions submitted", TablePrinter::Cell(submitted_).text});
  t.AddRow({"transactions finished", TablePrinter::Cell(finished).text});
  t.AddRow({"committed transactions", TablePrinter::Cell(committed_).text});
  t.AddRow({"aborted transactions", TablePrinter::Cell(aborted_total()).text});
  t.AddRow({"  aborts due to CCP", TablePrinter::Cell(aborted(AbortCause::kCcp)).text});
  t.AddRow({"  aborts due to RCP", TablePrinter::Cell(aborted(AbortCause::kRcp)).text});
  t.AddRow({"  aborts due to ACP", TablePrinter::Cell(aborted(AbortCause::kAcp)).text});
  t.AddRow({"  aborts due to site failure",
            TablePrinter::Cell(aborted(AbortCause::kSiteFailure)).text});
  t.AddRow({"commit rate", FormatDouble(commit_rate() * 100, 1) + "%"});
  t.AddRow({"abort rate (CCP)",
            FormatDouble(abort_rate(AbortCause::kCcp) * 100, 1) + "%"});
  t.AddRow({"abort rate (RCP)",
            FormatDouble(abort_rate(AbortCause::kRcp) * 100, 1) + "%"});
  t.AddRow({"abort rate (ACP)",
            FormatDouble(abort_rate(AbortCause::kAcp) * 100, 1) + "%"});
  t.AddRow({"orphan transactions", TablePrinter::Cell(orphans_).text});
  t.AddRow({"round-trip message pairs", TablePrinter::Cell(round_trips_).text});
  t.AddRow({"network messages sent", TablePrinter::Cell(net.network_sent()).text});
  t.AddRow({"messages delivered", TablePrinter::Cell(net.delivered).text});
  t.AddRow({"messages dropped", TablePrinter::Cell(net.total_dropped()).text});
  t.AddRow({"message bytes", TablePrinter::Cell(net.bytes).text});
  t.AddRow({"rpc calls", TablePrinter::Cell(net.rpc_calls).text});
  t.AddRow({"rpc attempts", TablePrinter::Cell(net.rpc_attempts).text});
  t.AddRow({"rpc retries", TablePrinter::Cell(net.rpc_retries).text});
  t.AddRow({"rpc timeouts", TablePrinter::Cell(net.rpc_timeouts).text});
  t.AddRow({"rpc terminal failures", TablePrinter::Cell(net.rpc_failures).text});
  t.AddRow({"rpc duplicates suppressed",
            TablePrinter::Cell(net.rpc_duplicates_suppressed).text});
  t.AddRow({"rpc acknowledged copies dropped",
            TablePrinter::Cell(net.rpc_acked_dropped).text});
  t.AddRow({"mean rpc latency (us)",
            FormatDouble(net.rpc_latency.count() > 0 ? net.rpc_latency.mean() : 0,
                         0)});
  double secs = static_cast<double>(duration) / 1e6;
  t.AddRow({"messages per second",
            FormatDouble(secs > 0 ? static_cast<double>(net.network_sent()) / secs : 0, 1)});
  t.AddRow({"throughput (committed tps)", FormatDouble(throughput_tps(duration), 2)});
  t.AddRow({"mean response time (us)", FormatDouble(response_committed_.mean(), 0)});
  t.AddRow({"p95 response time (us)",
            TablePrinter::Cell(response_committed_.Percentile(0.95)).text});
  t.AddRow({"p99 response time (us)",
            TablePrinter::Cell(response_committed_.Percentile(0.99)).text});
  t.AddRow({"home-load imbalance (CV)", FormatDouble(home_load_cv(), 3)});
  t.AddRow({"message-load imbalance (CV)", FormatDouble(net_load_cv(net), 3)});
  t.AddRow({"faults injected", TablePrinter::Cell(faults_injected_total()).text});
  for (size_t k = 0; k < kNumFaultKinds; ++k) {
    if (faults_by_kind_[k] == 0) continue;
    t.AddRow({std::string("  faults: ") +
                  FaultKindName(static_cast<FaultEvent::Kind>(k)),
              TablePrinter::Cell(faults_by_kind_[k]).text});
  }
  return t.ToString();
}

std::string ProgressMonitor::RenderSessionLog() const {
  std::ostringstream os;
  for (const TxnOutcome& o : outcomes_) {
    os << StringPrintf("%10lld  ", static_cast<long long>(o.finished_at))
       << o.ToString() << "\n";
  }
  return os.str();
}

std::string ProgressMonitor::RenderThroughputChart() const {
  std::vector<std::pair<double, double>> series;
  for (size_t i = 0; i < commit_buckets_.size(); ++i) {
    series.emplace_back(
        static_cast<double>(i) * static_cast<double>(bucket_width_) / 1000.0,
        static_cast<double>(commit_buckets_[i]));
  }
  return AsciiChart("commits per bucket (x = time in ms)", series);
}

std::string ProgressMonitor::RenderMessageChart(const NetworkStats& net) {
  std::vector<std::pair<double, double>> series;
  for (size_t i = 0; i < net.per_bucket.size(); ++i) {
    series.emplace_back(
        static_cast<double>(i) * static_cast<double>(net.bucket_width) /
            1000.0,
        static_cast<double>(net.per_bucket[i]));
  }
  return AsciiChart("network messages per bucket (x = time in ms)", series);
}

std::string ProgressMonitor::RenderExecutionWindow(
    const TraceCollector& collector, size_t last_n) {
  const std::vector<TraceRecord>& all = collector.records();
  size_t begin = (last_n == 0 || all.size() <= last_n) ? 0
                                                       : all.size() - last_n;
  TablePrinter t({"time_us", "txn", "site", "event", "item", "detail"});
  for (size_t i = begin; i < all.size(); ++i) {
    const TraceRecord& r = all[i];
    t.AddRow({r.time, r.txn.valid() ? r.txn.ToString() : std::string("-"),
              r.site == kInvalidSite ? std::string("-")
                                     : std::to_string(r.site),
              TraceEventKindName(r.kind),
              r.item == kInvalidItem ? std::string("-")
                                     : std::to_string(r.item),
              r.detail});
  }
  std::ostringstream os;
  os << "execution window (" << (all.size() - begin) << " of " << all.size()
     << " events)\n"
     << t.ToString();
  return os.str();
}

void ProgressMonitor::Reset() {
  submitted_ = committed_ = orphans_ = round_trips_ = 0;
  aborted_by_cause_ = {};
  faults_by_kind_ = {};
  response_committed_.Reset();
  response_all_.Reset();
  blocked_.Reset();
  commit_buckets_.clear();
  homed_per_site_.clear();
  outcomes_.clear();
}

}  // namespace rainbow
