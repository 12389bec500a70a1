#ifndef RAINBOW_CORE_EXPERIMENT_H_
#define RAINBOW_CORE_EXPERIMENT_H_

#include <functional>
#include <string>
#include <vector>

#include "common/table.h"
#include "core/session.h"

namespace rainbow {

/// A parameter sweep: runs one Rainbow session per point and renders the
/// series as a table (and optional ASCII chart) — the automation the
/// paper's GUI provides for experiments, in library form. Every bench
/// binary is a thin wrapper around one or more Experiments.
class Experiment {
 public:
  /// A metric column: name + extractor from a SessionResult.
  struct Metric {
    std::string name;
    std::function<double(const SessionResult&)> get;
  };

  explicit Experiment(std::string title);

  /// Adds one sweep point. The setup callback produces the configs.
  struct Point {
    std::string label;
    SystemConfig system;
    WorkloadConfig workload;
    SessionOptions options;
  };
  void AddPoint(Point point);

  /// Runs every point; failures abort the experiment with the status.
  Status Run();

  /// Results, parallel to the points.
  const std::vector<SessionResult>& results() const { return results_; }

  /// Renders the sweep: one row per point, one column per metric.
  std::string RenderTable(const std::vector<Metric>& metrics) const;

  /// ASCII chart of one metric over the numeric interpretation of the
  /// point labels (or the point index when labels are not numeric).
  std::string RenderChart(const Metric& metric) const;

  const std::string& title() const { return title_; }

 private:
  std::string title_;
  std::vector<Point> points_;
  std::vector<SessionResult> results_;
};

/// Commonly used metric columns.
namespace metrics {
Experiment::Metric CommitRate();
Experiment::Metric Throughput();
Experiment::Metric MeanResponseMs();
Experiment::Metric P95ResponseMs();
Experiment::Metric MsgsPerCommit();
Experiment::Metric MsgsPerTxn();
Experiment::Metric AbortRateCcp();
Experiment::Metric AbortRateRcp();
Experiment::Metric AbortRateAcp();
Experiment::Metric AbortRateTotal();
Experiment::Metric Committed();
Experiment::Metric Aborted();
Experiment::Metric Orphans();
Experiment::Metric Retries();
Experiment::Metric MeanBlockedMs();
Experiment::Metric MaxBlockedMs();
}  // namespace metrics

}  // namespace rainbow

#endif  // RAINBOW_CORE_EXPERIMENT_H_
