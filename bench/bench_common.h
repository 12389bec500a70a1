#ifndef RAINBOW_BENCH_BENCH_COMMON_H_
#define RAINBOW_BENCH_BENCH_COMMON_H_

// Shared helpers for the experiment benches. Each bench binary
// regenerates one table/figure from the Rainbow experiment index
// (DESIGN.md §4) and prints the rows the paper's progress monitor would
// display.

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "core/experiment.h"
#include "core/session.h"

namespace rainbow::bench {

/// Number of global operator-new calls so far in this process. Defined
/// in counting_alloc.cc, which replaces operator new/delete; only the
/// benches that link it may call this.
uint64_t Allocs();

inline void PrintHeader(const std::string& id, const std::string& what) {
  std::cout << "==============================================================\n";
  std::cout << id << ": " << what << "\n";
  std::cout << "==============================================================\n";
}

/// Runs the experiment and prints the table; exits non-zero on failure.
inline int RunAndPrint(Experiment& exp,
                       const std::vector<Experiment::Metric>& columns) {
  Status s = exp.Run();
  if (!s.ok()) {
    std::cerr << "experiment failed: " << s << "\n";
    return 1;
  }
  std::cout << exp.RenderTable(columns) << "\n";
  return 0;
}

/// Environment fields every bench JSON report records: the machine's
/// hardware threads, so a reader can tell which kind of machine
/// produced a baseline.
inline void AddEnvFields(std::vector<std::pair<std::string, double>>& fields) {
  fields.emplace_back("hardware_threads",
                      static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
}

/// Writes a flat JSON object of numeric fields, in the given order, to
/// `path`. This is the machine-readable side of a bench: the BENCH_*.json
/// baselines checked into the repo and compared by CI perf-smoke steps.
inline bool EmitJson(
    const std::string& path,
    const std::vector<std::pair<std::string, double>>& fields) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\n";
  for (size_t i = 0; i < fields.size(); ++i) {
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", fields[i].second);
    out << "  \"" << fields[i].first << "\": " << num
        << (i + 1 < fields.size() ? "," : "") << "\n";
  }
  out << "}\n";
  return static_cast<bool>(out);
}

/// Reads back a flat JSON object in the shape EmitJson writes (one
/// `"key": number` pair per line; no nesting). Returns an empty map if
/// the file cannot be read.
inline std::map<std::string, double> ParseFlatJson(const std::string& path) {
  std::map<std::string, double> fields;
  std::ifstream in(path);
  if (!in) return fields;
  std::string line;
  while (std::getline(in, line)) {
    size_t k0 = line.find('"');
    if (k0 == std::string::npos) continue;
    size_t k1 = line.find('"', k0 + 1);
    if (k1 == std::string::npos) continue;
    size_t colon = line.find(':', k1);
    if (colon == std::string::npos) continue;
    try {
      fields[line.substr(k0 + 1, k1 - k0 - 1)] =
          std::stod(line.substr(colon + 1));
    } catch (...) {
      // Not a numeric field; skip.
    }
  }
  return fields;
}

/// Writes the report to `path` when one was given (`--out`); a bench run
/// without `--out` writes nothing, so `--check BENCH_M*.json` can never
/// overwrite the checked-in baseline it reads. Returns false only when a
/// requested write fails.
inline bool WriteReport(
    const std::string& path,
    const std::vector<std::pair<std::string, double>>& fields) {
  if (path.empty()) return true;
  if (!EmitJson(path, fields)) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

/// One baseline comparison: fails (returns false) when `current` is
/// worse than `allowed_ratio` times the baseline value. `higher_is_better`
/// flips the direction for throughput-style metrics. `slack` absorbs
/// quantization around zero-valued allocation baselines. A key missing
/// from either side is reported and skipped.
inline bool CheckMetric(const std::map<std::string, double>& baseline,
                        const std::map<std::string, double>& current,
                        const std::string& key, double allowed_ratio,
                        bool higher_is_better, double slack = 0.0) {
  auto b = baseline.find(key);
  auto c = current.find(key);
  if (b == baseline.end() || c == current.end()) {
    std::printf("  check %-28s SKIPPED (missing from %s)\n", key.c_str(),
                b == baseline.end() ? "baseline" : "current run");
    return true;
  }
  bool ok = higher_is_better ? c->second >= b->second / allowed_ratio
                             : c->second <= b->second * allowed_ratio + slack;
  std::printf("  check %-28s %s (current %.6g vs baseline %.6g, allowed %gx)\n",
              key.c_str(), ok ? "ok" : "REGRESSED", c->second, b->second,
              allowed_ratio);
  return ok;
}

/// Exact comparison for deterministic counters (committed transactions,
/// network messages): any change in the execution fails it.
inline bool CheckExact(const std::map<std::string, double>& baseline,
                       const std::map<std::string, double>& current,
                       const std::string& key) {
  auto b = baseline.find(key);
  auto c = current.find(key);
  if (b == baseline.end() || c == current.end()) {
    std::printf("  check %-28s SKIPPED (missing from %s)\n", key.c_str(),
                b == baseline.end() ? "baseline" : "current run");
    return true;
  }
  bool ok = b->second == c->second;
  std::printf("  check %-28s %s (current %.0f vs baseline %.0f, exact)\n",
              key.c_str(), ok ? "ok" : "REGRESSED", c->second, b->second);
  return ok;
}

}  // namespace rainbow::bench

#endif  // RAINBOW_BENCH_BENCH_COMMON_H_
