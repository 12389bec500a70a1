#include "core/experiment.h"

#include "common/string_util.h"

namespace rainbow {

Experiment::Experiment(std::string title) : title_(std::move(title)) {}

void Experiment::AddPoint(Point point) { points_.push_back(std::move(point)); }

Status Experiment::Run() {
  results_.clear();
  for (const Point& p : points_) {
    auto r = RunSession(p.system, p.workload, p.options);
    if (!r.ok()) {
      return Status(r.status().code(),
                    title_ + " point '" + p.label + "': " +
                        r.status().message());
    }
    results_.push_back(std::move(r).value());
  }
  return Status::OK();
}

std::string Experiment::RenderTable(const std::vector<Metric>& metrics) const {
  std::vector<std::string> headers{"point"};
  for (const Metric& m : metrics) headers.push_back(m.name);
  TablePrinter t(std::move(headers));
  for (size_t i = 0; i < results_.size(); ++i) {
    std::vector<std::string> row{points_[i].label};
    for (const Metric& m : metrics) {
      row.push_back(FormatDouble(m.get(results_[i]), 2));
    }
    t.AddRow(std::move(row));
  }
  return title_ + "\n" + t.ToString();
}

std::string Experiment::RenderChart(const Metric& metric) const {
  std::vector<std::pair<double, double>> series;
  for (size_t i = 0; i < results_.size(); ++i) {
    double x = static_cast<double>(i);
    auto parsed = ParseDouble(points_[i].label);
    if (parsed.ok()) x = *parsed;
    series.emplace_back(x, metric.get(results_[i]));
  }
  return AsciiChart(title_ + " — " + metric.name, series);
}

namespace metrics {

Experiment::Metric CommitRate() {
  return {"commit_rate",
          [](const SessionResult& r) { return r.commit_rate * 100.0; }};
}
Experiment::Metric Throughput() {
  return {"tput_tps", [](const SessionResult& r) { return r.throughput_tps; }};
}
Experiment::Metric MeanResponseMs() {
  return {"mean_rt_ms",
          [](const SessionResult& r) { return r.mean_response_us / 1000.0; }};
}
Experiment::Metric P95ResponseMs() {
  return {"p95_rt_ms", [](const SessionResult& r) {
            return static_cast<double>(r.p95_response_us) / 1000.0;
          }};
}
Experiment::Metric MsgsPerCommit() {
  return {"msgs/commit",
          [](const SessionResult& r) { return r.msgs_per_commit; }};
}
Experiment::Metric MsgsPerTxn() {
  return {"msgs/txn", [](const SessionResult& r) { return r.msgs_per_txn; }};
}
Experiment::Metric AbortRateCcp() {
  return {"abort_ccp%", [](const SessionResult& r) {
            uint64_t f = r.committed + r.aborted;
            return f ? 100.0 * static_cast<double>(r.aborted_ccp) /
                           static_cast<double>(f)
                     : 0.0;
          }};
}
Experiment::Metric AbortRateRcp() {
  return {"abort_rcp%", [](const SessionResult& r) {
            uint64_t f = r.committed + r.aborted;
            return f ? 100.0 * static_cast<double>(r.aborted_rcp) /
                           static_cast<double>(f)
                     : 0.0;
          }};
}
Experiment::Metric AbortRateAcp() {
  return {"abort_acp%", [](const SessionResult& r) {
            uint64_t f = r.committed + r.aborted;
            return f ? 100.0 * static_cast<double>(r.aborted_acp) /
                           static_cast<double>(f)
                     : 0.0;
          }};
}
Experiment::Metric AbortRateTotal() {
  return {"abort%", [](const SessionResult& r) {
            uint64_t f = r.committed + r.aborted;
            return f ? 100.0 * static_cast<double>(r.aborted) /
                           static_cast<double>(f)
                     : 0.0;
          }};
}
Experiment::Metric Committed() {
  return {"committed",
          [](const SessionResult& r) { return static_cast<double>(r.committed); }};
}
Experiment::Metric Aborted() {
  return {"aborted",
          [](const SessionResult& r) { return static_cast<double>(r.aborted); }};
}
Experiment::Metric Retries() {
  return {"retries",
          [](const SessionResult& r) { return static_cast<double>(r.retries); }};
}
Experiment::Metric Orphans() {
  return {"orphans",
          [](const SessionResult& r) { return static_cast<double>(r.orphans); }};
}
Experiment::Metric MeanBlockedMs() {
  return {"mean_blocked_ms",
          [](const SessionResult& r) { return r.mean_blocked_us / 1000.0; }};
}
Experiment::Metric MaxBlockedMs() {
  return {"max_blocked_ms", [](const SessionResult& r) {
            return static_cast<double>(r.max_blocked_us) / 1000.0;
          }};
}

}  // namespace metrics

}  // namespace rainbow
