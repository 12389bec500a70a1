// M7: sharded-kernel scaling on a wide topology, with a machine-readable
// report and a CI speedup gate.
//
// The bench builds a 120-site partially replicated system, drives the
// same seeded per-site-client workload through the single-shard kernel
// and through the sharded kernel (--shards, default 4), and reports
// wall-clock messages/sec for both. Because the sharded kernel is
// deterministic *across shard counts*, the two runs must also agree on
// committed transactions and total network messages — the bench
// hard-fails on any divergence (a free end-to-end determinism check on
// a topology much wider than the unit tests').
//
// The speedup gate (with --check) fails when the sharded run's msgs/sec
// is below 2x the single-shard run — but only on machines with at least
// 4 hardware threads; on smaller boxes the gate is reported and
// skipped, and the baseline records `hardware_threads` so readers can
// tell which kind of machine produced it.
//
// Flags:
//   --out FILE    write the JSON report here (nothing is written without it)
//   --check FILE  compare against a baseline JSON + enforce the speedup
//                 gate; exit 1 on failure
//   --shards N    parallel shard count to measure (default 4)
//   --txns N      transactions to drive (default 3000)

#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/session.h"
#include "core/system.h"
#include "workload/workload.h"

namespace rainbow {
namespace {

using Clock = std::chrono::steady_clock;

constexpr uint32_t kSites = 120;
constexpr int kItems = 360;
constexpr int kReplication = 3;

struct RunNumbers {
  double wall_ms = 0;
  double msgs_per_sec = 0;
  uint64_t committed = 0;
  uint64_t net_messages = 0;
  bool ok = false;
};

RunNumbers RunOnce(uint32_t shards, uint32_t txns) {
  SystemConfig system;
  system.seed = 2026;
  system.num_sites = kSites;
  system.sim_shards = shards;
  system.AddUniformItems(kItems, 100, kReplication);

  WorkloadConfig workload;
  workload.seed = 7;
  workload.num_txns = txns;
  workload.mpl = kSites;  // one in-flight transaction per site
  workload.read_fraction = 0.6;
  workload.per_site_clients = true;  // identical model at any shard count

  RunNumbers n;
  Clock::time_point t0 = Clock::now();
  auto result = RunSession(system, workload);
  Clock::time_point t1 = Clock::now();
  if (!result.ok()) {
    std::printf("run (shards=%u) FAILED: %s\n", shards,
                result.status().ToString().c_str());
    return n;
  }
  n.wall_ms =
      std::chrono::duration<double>(t1 - t0).count() * 1e3;
  n.committed = result->committed;
  n.net_messages = result->net_messages;
  n.msgs_per_sec = n.wall_ms > 0
                       ? static_cast<double>(n.net_messages) / (n.wall_ms / 1e3)
                       : 0;
  n.ok = true;
  std::printf("  shards=%-3u wall %.1f ms, %llu msgs (%.3g msgs/sec), "
              "%llu committed\n",
              shards, n.wall_ms, static_cast<unsigned long long>(n.net_messages),
              n.msgs_per_sec, static_cast<unsigned long long>(n.committed));
  return n;
}

int Main(int argc, char** argv) {
  std::string out_path;
  std::string check_path;
  uint32_t txns = 3000;
  uint32_t shards = bench::ShardsFlag(argc, argv, 4);
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : std::string();
    };
    if (arg == "--out") {
      out_path = next();
    } else if (arg == "--check") {
      check_path = next();
    } else if (arg == "--shards") {
      next();  // consumed by bench::ShardsFlag
    } else if (arg == "--txns") {
      txns = static_cast<uint32_t>(std::stoul(next()));
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }

  bench::PrintHeader(
      "M7", "sharded kernel scaling (120 sites, shards=1 vs " +
                std::to_string(shards) + ")");

  RunNumbers base = RunOnce(1, txns);
  RunNumbers par = RunOnce(shards, txns);
  if (!base.ok || !par.ok) return 1;

  // Determinism cross-check: shard count must not change the execution.
  bool parity = base.committed == par.committed &&
                base.net_messages == par.net_messages;
  if (!parity) {
    std::printf("PARITY FAILED: shards=1 (%llu committed, %llu msgs) vs "
                "shards=%u (%llu committed, %llu msgs)\n",
                static_cast<unsigned long long>(base.committed),
                static_cast<unsigned long long>(base.net_messages), shards,
                static_cast<unsigned long long>(par.committed),
                static_cast<unsigned long long>(par.net_messages));
  }

  double speedup =
      base.msgs_per_sec > 0 ? par.msgs_per_sec / base.msgs_per_sec : 0;
  std::printf("  speedup (msgs/sec, %u shards vs 1): %.2fx\n", shards,
              speedup);

  std::vector<std::pair<std::string, double>> fields;
  fields.emplace_back("sites", kSites);
  fields.emplace_back("txns", txns);
  fields.emplace_back("wall_ms_1shard", base.wall_ms);
  fields.emplace_back("msgs_per_sec_1shard", base.msgs_per_sec);
  fields.emplace_back("committed_1shard", static_cast<double>(base.committed));
  fields.emplace_back("wall_ms_sharded", par.wall_ms);
  fields.emplace_back("msgs_per_sec_sharded", par.msgs_per_sec);
  fields.emplace_back("committed_sharded", static_cast<double>(par.committed));
  fields.emplace_back("net_messages", static_cast<double>(base.net_messages));
  fields.emplace_back("speedup_msgs_per_sec", speedup);
  fields.emplace_back("parity", parity ? 1 : 0);
  bench::AddEnvFields(fields, shards);
  if (!bench::WriteReport(out_path, fields)) return 1;

  bool pass = parity;
  if (!check_path.empty()) {
    std::printf("-- checking against baseline %s --\n", check_path.c_str());
    std::map<std::string, double> baseline = bench::ParseFlatJson(check_path);
    if (baseline.empty()) {
      std::fprintf(stderr, "baseline %s missing or unreadable\n",
                   check_path.c_str());
      return 1;
    }
    // Workload-shape sanity: the run must still drive the same
    // execution the baseline recorded (message totals are exact).
    pass &= bench::CheckExact(
        baseline, {{"net_messages", static_cast<double>(base.net_messages)}},
        "net_messages");
    // The scaling gate: >= 2x msgs/sec at >= 4 shards, enforced only on
    // machines with enough hardware threads to possibly show it.
    unsigned hw = std::thread::hardware_concurrency();
    if (hw >= 4 && shards >= 4) {
      bool ok = speedup >= 2.0;
      std::printf("  check speedup_msgs_per_sec  %s (%.2fx, need >= 2.0x)\n",
                  ok ? "ok" : "REGRESSED", speedup);
      pass &= ok;
    } else {
      std::printf("  check speedup_msgs_per_sec  SKIPPED (%u hardware "
                  "threads, %u shards)\n",
                  hw, shards);
    }
  }

  std::printf(pass ? "M7 PASS\n" : "M7 FAIL\n");
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace rainbow

int main(int argc, char** argv) { return rainbow::Main(argc, argv); }
