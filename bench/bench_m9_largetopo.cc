// M9: large-topology macro bench — the hot path at classroom scale.
//
// PR 10's calendar event queue, same-tick delivery batching, and arena
// codec were tuned on small systems (M6 runs 3 sites); this bench pins
// their behavior on a topology shaped like the paper's scale
// experiments: 128 sites, 3-way partial replication, one client per
// site. The run is fully deterministic, so committed transactions and
// total network messages are exact CI gates (any protocol or kernel
// change that alters the execution must regenerate the baseline in the
// same PR), while wall time, msgs/sec, and allocations per transaction
// are gated with loose ratio bounds the way M6 gates its macro section.
//
// Flags:
//   --out FILE    write the JSON report here (nothing is written without it)
//   --check FILE  compare against a baseline JSON; exit 1 on regression
//   --txns N      transactions to drive (default 2000)

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/session.h"
#include "core/system.h"
#include "workload/workload.h"

namespace rainbow {
namespace {

using Clock = std::chrono::steady_clock;
using bench::Allocs;
using bench::CheckExact;
using bench::CheckMetric;

constexpr uint32_t kSites = 128;
constexpr int kItems = 384;  // 3 item classes per site on average
constexpr int kReplication = 3;

int Main(int argc, char** argv) {
  std::string out_path;
  std::string check_path;
  uint32_t txns = 2000;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : std::string();
    };
    if (arg == "--out") {
      out_path = next();
    } else if (arg == "--check") {
      check_path = next();
    } else if (arg == "--txns") {
      txns = static_cast<uint32_t>(std::stoul(next()));
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }

  bench::PrintHeader("M9", "large-topology hot path (" +
                               std::to_string(kSites) + " sites, " +
                               std::to_string(kReplication) +
                               "-way replication)");

  SystemConfig system;
  system.seed = 2026;
  system.num_sites = kSites;
  system.AddUniformItems(kItems, 100, kReplication);

  WorkloadConfig workload;
  workload.seed = 9;
  workload.num_txns = txns;
  workload.mpl = kSites;  // one in-flight transaction per site
  workload.read_fraction = 0.6;
  workload.per_site_clients = true;

  uint64_t allocs_before = Allocs();
  Clock::time_point t0 = Clock::now();
  auto result = RunSession(system, workload);
  Clock::time_point t1 = Clock::now();
  uint64_t allocs = Allocs() - allocs_before;

  if (!result.ok()) {
    std::printf("M9 FAIL: session failed: %s\n",
                result.status().ToString().c_str());
    return 1;
  }

  double wall_ms = std::chrono::duration<double>(t1 - t0).count() * 1e3;
  uint64_t finished = result->committed + result->aborted;
  double msgs_per_sec =
      wall_ms > 0 ? static_cast<double>(result->net_messages) / (wall_ms / 1e3)
                  : 0;

  std::vector<std::pair<std::string, double>> fields;
  auto add = [&](const std::string& key, double value) {
    fields.emplace_back(key, value);
    std::printf("  %-24s %.6g\n", key.c_str(), value);
  };
  add("sites", kSites);
  add("replication", kReplication);
  add("txns", txns);
  add("wall_ms", wall_ms);
  add("msgs_per_sec", msgs_per_sec);
  add("allocs_per_txn", static_cast<double>(allocs) /
                            static_cast<double>(finished == 0 ? 1 : finished));
  add("committed", static_cast<double>(result->committed));
  add("aborted", static_cast<double>(result->aborted));
  add("net_messages", static_cast<double>(result->net_messages));

  bench::AddEnvFields(fields);
  if (!bench::WriteReport(out_path, fields)) return 1;

  if (!check_path.empty()) {
    std::printf("-- checking against baseline %s --\n", check_path.c_str());
    std::map<std::string, double> baseline = bench::ParseFlatJson(check_path);
    if (baseline.empty()) {
      std::fprintf(stderr, "baseline %s missing or unreadable\n",
                   check_path.c_str());
      return 1;
    }
    std::map<std::string, double> current(fields.begin(), fields.end());
    bool pass = true;
    // Deterministic counters: exact. A legitimate behavior change must
    // regenerate the baseline in the same PR (bench/README.md).
    pass &= CheckExact(baseline, current, "committed");
    pass &= CheckExact(baseline, current, "net_messages");
    // Wall-time-shaped metrics: 2x bounds — this run is an order of
    // magnitude longer than M6's macro section and its wall time swings
    // ~40% between cold and warm runs on small CI boxes.
    pass &= CheckMetric(baseline, current, "wall_ms", 2.0, false);
    pass &= CheckMetric(baseline, current, "msgs_per_sec", 2.0, true);
    // Allocation behavior: exact measurement, 2x bound with slack.
    pass &= CheckMetric(baseline, current, "allocs_per_txn", 2.0, false,
                        /*slack=*/16.0);
    if (!pass) {
      std::printf("perf-smoke: REGRESSION against %s\n", check_path.c_str());
      return 1;
    }
    std::printf("perf-smoke: ok\n");
  }
  return 0;
}

}  // namespace
}  // namespace rainbow

int main(int argc, char** argv) { return rainbow::Main(argc, argv); }
