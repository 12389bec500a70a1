// M6: the simulator's event/message hot path, with a machine-readable
// baseline. Three sections:
//
//   * micro/messages — fault-free Send()→Deliver() bursts through the
//     Network (the substrate every RCP/CCP/ACP experiment runs on).
//     Reports messages/sec and heap allocations per delivered message,
//     and hard-gates the steady state at ZERO allocations per
//     send→deliver cycle (the way bench_m5_nemesis gates the
//     no-override path).
//   * micro/events — raw EventQueue schedule/fire throughput, with the
//     same zero-allocation steady-state gate.
//   * macro/session — a full classroom_default-shaped session
//     (3 sites, QC + 2PL + 2PC, 12 fully replicated items), reporting
//     wall time and allocations per finished transaction.
//
// The numbers are written as flat JSON (bench::EmitJson). The repo
// checks in BENCH_M6.json as the baseline; the CI perf-smoke step runs
// this binary with --check BENCH_M6.json, which fails on a >2x
// allocation-count or >1.5x wall-time regression, or on any change in
// the macro session's committed transactions or network messages. The
// wall-time bound is deliberately loose (CI machines are noisy); the
// allocation and execution counts are exact and are the real gate.
//
// Flags:
//   --out FILE        write the JSON report here (nothing is written
//                     without it)
//   --check FILE      compare against a baseline JSON; exit 1 on regression
//   --seed-json FILE  merge a pre-change run's numbers as seed_* keys
//   --no-gate         skip the zero-allocation steady-state gates (only
//                     for measuring pre-change code, which fails them)

#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace rainbow {
namespace {

using Clock = std::chrono::steady_clock;
using bench::Allocs;
using bench::CheckExact;
using bench::CheckMetric;

double ElapsedSec(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

LatencyConfig BenchLatency() {
  LatencyConfig cfg;
  cfg.distribution = LatencyDistribution::kFixed;
  cfg.mean = Millis(1);
  cfg.min = Micros(10);
  cfg.per_kb = 0;
  return cfg;
}

struct MsgHarness {
  Simulator sim;
  Network net;
  uint64_t received = 0;

  MsgHarness() : net(&sim, BenchLatency(), Rng(7)) {
    for (SiteId s = 0; s < 4; ++s) {
      net.RegisterHandler(s, [this](const Message&) { ++received; });
    }
    // One giant stats bucket: sim time advancing during the bench must
    // not grow the per-bucket histogram mid-measurement.
    net.set_stats_bucket_width(Seconds(1000000));
  }

  void Burst(int n) {
    for (int i = 0; i < n; ++i) {
      net.Send(0, 1, Ack{TxnId{0, static_cast<uint64_t>(i)}});
    }
    sim.RunToQuiescence();
  }
};

constexpr int kBurst = 1000;
constexpr int kMsgBursts = 500;
constexpr int kEventBatch = 4096;
constexpr int kEventRounds = 300;

struct Report {
  std::vector<std::pair<std::string, double>> fields;
  void Add(const std::string& key, double value) {
    fields.emplace_back(key, value);
    std::printf("  %-28s %.6g\n", key.c_str(), value);
  }
};

bool RunMicroMessages(bool gate, Report& report) {
  std::printf("-- micro/messages: %d bursts x %d sends (0 -> 1) --\n",
              kMsgBursts, kBurst);
  MsgHarness h;
  for (int i = 0; i < 10; ++i) h.Burst(kBurst);  // warm pools/tables

  // Steady-state gate: one warmed-up, fault-free burst must not touch
  // the heap at all.
  uint64_t gate_before = Allocs();
  h.Burst(kBurst);
  uint64_t steady = Allocs() - gate_before;

  uint64_t received_before = h.received;
  uint64_t allocs_before = Allocs();
  Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kMsgBursts; ++i) h.Burst(kBurst);
  Clock::time_point t1 = Clock::now();
  uint64_t delivered = h.received - received_before;
  uint64_t allocs = Allocs() - allocs_before;

  report.Add("micro_msgs_per_sec",
             static_cast<double>(delivered) / ElapsedSec(t0, t1));
  report.Add("micro_allocs_per_msg",
             static_cast<double>(allocs) / static_cast<double>(delivered));
  report.Add("micro_steady_allocs_per_burst", static_cast<double>(steady));
  if (steady != 0) {
    std::printf("  %s: steady-state burst performed %llu heap allocations "
                "(expected 0)\n",
                gate ? "GATE FAILED" : "note (gate skipped)",
                static_cast<unsigned long long>(steady));
    if (gate) return false;
  }
  return true;
}

bool RunMicroEvents(bool gate, Report& report) {
  std::printf("-- micro/events: %d rounds x %d schedule+fire --\n",
              kEventRounds, kEventBatch);
  EventQueue q;
  auto round = [&q] {
    for (int i = 0; i < kEventBatch; ++i) q.Schedule(i, [] {});
    while (!q.empty()) q.PopNext().cb();
  };
  for (int i = 0; i < 3; ++i) round();  // warm the slot table and heap

  uint64_t gate_before = Allocs();
  round();
  uint64_t steady = Allocs() - gate_before;

  uint64_t allocs_before = Allocs();
  Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kEventRounds; ++i) round();
  Clock::time_point t1 = Clock::now();
  uint64_t events =
      static_cast<uint64_t>(kEventRounds) * static_cast<uint64_t>(kEventBatch);
  uint64_t allocs = Allocs() - allocs_before;

  report.Add("micro_events_per_sec",
             static_cast<double>(events) / ElapsedSec(t0, t1));
  report.Add("micro_allocs_per_event",
             static_cast<double>(allocs) / static_cast<double>(events));
  report.Add("micro_steady_allocs_per_round", static_cast<double>(steady));
  if (steady != 0) {
    std::printf("  %s: steady-state round performed %llu heap allocations "
                "(expected 0)\n",
                gate ? "GATE FAILED" : "note (gate skipped)",
                static_cast<unsigned long long>(steady));
    if (gate) return false;
  }
  return true;
}

bool RunMacroSession(Report& report) {
  std::printf("-- macro/session: classroom_default workload --\n");
  SystemConfig system;
  system.seed = 2026;
  system.num_sites = 3;
  system.AddFullyReplicatedItems(12, 100);

  WorkloadConfig workload;
  workload.num_txns = 400;
  workload.mpl = 8;
  workload.read_fraction = 0.6;

  uint64_t allocs_before = Allocs();
  Clock::time_point t0 = Clock::now();
  auto result = RunSession(system, workload);
  Clock::time_point t1 = Clock::now();
  uint64_t allocs = Allocs() - allocs_before;

  if (!result.ok()) {
    std::printf("GATE FAILED: session failed: %s\n",
                result.status().ToString().c_str());
    return false;
  }
  uint64_t finished = result->committed + result->aborted;
  report.Add("macro_wall_ms", ElapsedSec(t0, t1) * 1e3);
  report.Add("macro_allocs_per_txn",
             static_cast<double>(allocs) /
                 static_cast<double>(finished == 0 ? 1 : finished));
  report.Add("macro_committed", static_cast<double>(result->committed));
  report.Add("macro_net_messages", static_cast<double>(result->net_messages));
  return true;
}

int Main(int argc, char** argv) {
  std::string out_path;
  std::string check_path;
  std::string seed_json_path;
  bool gate = true;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : std::string();
    };
    if (arg == "--out") {
      out_path = next();
    } else if (arg == "--check") {
      check_path = next();
    } else if (arg == "--seed-json") {
      seed_json_path = next();
    } else if (arg == "--no-gate") {
      gate = false;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }

  bench::PrintHeader("M6", "event/message hot path (alloc counts + throughput)");
  Report report;
  bool ok = RunMicroMessages(gate, report);
  ok = RunMicroEvents(gate, report) && ok;
  ok = RunMacroSession(report) && ok;

  // Merge a pre-change run (--seed-json) as seed_* keys plus the two
  // headline ratios the acceptance criteria track.
  if (!seed_json_path.empty()) {
    std::map<std::string, double> seed = bench::ParseFlatJson(seed_json_path);
    std::map<std::string, double> current(report.fields.begin(),
                                          report.fields.end());
    for (const auto& [key, value] : seed) {
      report.fields.emplace_back("seed_" + key, value);
    }
    if (seed.count("micro_msgs_per_sec") != 0 &&
        seed["micro_msgs_per_sec"] > 0) {
      report.Add("speedup_msgs_per_sec",
                 current["micro_msgs_per_sec"] / seed["micro_msgs_per_sec"]);
    }
    if (seed.count("micro_allocs_per_msg") != 0 &&
        seed["micro_allocs_per_msg"] > 0) {
      report.Add("alloc_reduction_per_msg",
                 1.0 - current["micro_allocs_per_msg"] /
                           seed["micro_allocs_per_msg"]);
    }
  }

  bench::AddEnvFields(report.fields);
  if (!bench::WriteReport(out_path, report.fields)) return 1;

  if (!check_path.empty()) {
    std::printf("-- checking against baseline %s --\n", check_path.c_str());
    std::map<std::string, double> baseline = bench::ParseFlatJson(check_path);
    if (baseline.empty()) {
      std::fprintf(stderr, "baseline %s missing or unreadable\n",
                   check_path.c_str());
      return 1;
    }
    std::map<std::string, double> current(report.fields.begin(),
                                          report.fields.end());
    bool pass = true;
    // The macro session is deterministic: an engine or protocol change
    // that alters its execution must regenerate the baseline.
    pass &= CheckExact(baseline, current, "macro_committed");
    pass &= CheckExact(baseline, current, "macro_net_messages");
    // Wall-time-shaped metrics: loose 1.5x bound (CI machines are noisy).
    pass &= CheckMetric(baseline, current, "micro_msgs_per_sec", 1.5, true);
    pass &= CheckMetric(baseline, current, "micro_events_per_sec", 1.5, true);
    pass &= CheckMetric(baseline, current, "macro_wall_ms", 1.5, false);
    // Allocation counts: exact measurements, 2x bound. The small
    // absolute slack absorbs ratio-vs-zero edge cases.
    pass &= CheckMetric(baseline, current, "micro_allocs_per_msg", 2.0, false,
                        /*slack=*/0.5);
    pass &= CheckMetric(baseline, current, "macro_allocs_per_txn", 2.0, false,
                        /*slack=*/16.0);
    // Acceptance floor from the calendar-queue/batching/arena pass: the
    // hot path must hold >= 2x the frozen PR-5 seed throughput (the
    // seed_* keys are historical measurements and are never re-run).
    // The checked-in run sits near 3x, so the floor leaves ~33%
    // headroom for CI machine noise.
    auto seed = baseline.find("seed_micro_msgs_per_sec");
    if (seed != baseline.end() && seed->second > 0 &&
        current.count("micro_msgs_per_sec") != 0) {
      double ratio = current["micro_msgs_per_sec"] / seed->second;
      bool ok = ratio >= 2.0;
      std::printf("  check %-28s %s (%.2fx over PR-5 seed, need >= 2x)\n",
                  "speedup_vs_seed", ok ? "ok" : "REGRESSED", ratio);
      pass &= ok;
    }
    if (!pass) {
      std::printf("perf-smoke: REGRESSION against %s\n", check_path.c_str());
      return 1;
    }
    std::printf("perf-smoke: ok\n");
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace rainbow

int main(int argc, char** argv) { return rainbow::Main(argc, argv); }
