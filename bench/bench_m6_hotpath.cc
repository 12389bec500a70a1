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
// Each section's time is the median of kReps repetitions (the macro
// session after one untimed warm-up run). Every repetition must read
// the same allocation count, and the macro session the same committed
// transactions and messages; the gates read that count.
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
//   --out FILE    write the JSON report here (nothing is written without it)
//   --check FILE  compare against a baseline JSON; exit 1 on regression

#include "bench_common.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace rainbow {
namespace {

using bench::Allocs;
using bench::CheckExact;
using bench::CheckMetric;

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

constexpr int kReps = 9;
constexpr int kBurst = 1000;
constexpr int kMsgBursts = 500;
constexpr int kEventBatch = 4096;
constexpr int kEventRounds = 300;

bool SteadyStateGate(uint64_t steady, const char* unit) {
  if (steady == 0) return true;
  std::printf("  GATE FAILED: steady-state %s performed %llu heap "
              "allocations (expected 0)\n",
              unit, static_cast<unsigned long long>(steady));
  return false;
}

bool RunMicroMessages(bench::Report& report) {
  std::printf("-- micro/messages: %d reps x %d bursts x %d sends (0 -> 1) --\n",
              kReps, kMsgBursts, kBurst);
  MsgHarness h;
  for (int i = 0; i < 10; ++i) h.Burst(kBurst);  // warm pools/tables

  // Steady-state gate: one warmed-up, fault-free burst must not touch
  // the heap at all.
  uint64_t gate_before = Allocs();
  h.Burst(kBurst);
  uint64_t steady = Allocs() - gate_before;

  bench::RepeatedCount delivered;
  bench::RepeatedCount allocs;
  bench::Spread secs = bench::TimeReps(kReps, [&] {
    uint64_t received_before = h.received;
    uint64_t allocs_before = Allocs();
    for (int i = 0; i < kMsgBursts; ++i) h.Burst(kBurst);
    allocs.Record(Allocs() - allocs_before);
    delivered.Record(h.received - received_before);
  });

  report.Add("micro_msgs_per_sec",
             secs.Rate(static_cast<double>(delivered.value)));
  report.Add("micro_allocs_per_msg", static_cast<double>(allocs.value) /
                                         static_cast<double>(delivered.value));
  report.Add("micro_steady_allocs_per_burst", static_cast<double>(steady));
  bool ok = SteadyStateGate(steady, "burst");
  ok = delivered.Check("delivered messages") && ok;
  return allocs.Check("allocation count") && ok;
}

bool RunMicroEvents(bench::Report& report) {
  std::printf("-- micro/events: %d reps x %d rounds x %d schedule+fire --\n",
              kReps, kEventRounds, kEventBatch);
  EventQueue q;
  auto round = [&q] {
    for (int i = 0; i < kEventBatch; ++i) q.Schedule(i, [] {});
    while (!q.empty()) q.PopNext().cb();
  };
  for (int i = 0; i < 3; ++i) round();  // warm the slot table and heap

  uint64_t gate_before = Allocs();
  round();
  uint64_t steady = Allocs() - gate_before;

  bench::RepeatedCount allocs;
  bench::Spread secs = bench::TimeReps(kReps, [&] {
    uint64_t allocs_before = Allocs();
    for (int i = 0; i < kEventRounds; ++i) round();
    allocs.Record(Allocs() - allocs_before);
  });
  double events =
      static_cast<double>(kEventRounds) * static_cast<double>(kEventBatch);

  report.Add("micro_events_per_sec", secs.Rate(events));
  report.Add("micro_allocs_per_event",
             static_cast<double>(allocs.value) / events);
  report.Add("micro_steady_allocs_per_round", static_cast<double>(steady));
  bool ok = SteadyStateGate(steady, "round");
  return allocs.Check("allocation count") && ok;
}

bool RunMacroSession(bench::Report& report) {
  std::printf("-- macro/session: classroom_default workload, %d reps --\n",
              kReps);
  SystemConfig system;
  system.seed = 2026;
  system.num_sites = 3;
  system.AddFullyReplicatedItems(12, 100);

  WorkloadConfig workload;
  workload.num_txns = 400;
  workload.mpl = 8;
  workload.read_fraction = 0.6;

  bench::SessionReps s = bench::TimeSession(kReps, system, workload);
  report.Add("macro_wall_ms", s.secs.Scaled(1e3));
  report.Add("macro_allocs_per_txn", s.AllocsPerTxn());
  report.Add("macro_committed", static_cast<double>(s.committed.value));
  report.Add("macro_net_messages", static_cast<double>(s.messages.value));
  return s.Check();
}

int Main(int argc, char** argv) {
  bench::Args args;
  if (!bench::ParseArgs(argc, argv, args)) return 2;

  bench::PrintHeader("M6", "event/message hot path (alloc counts + throughput)");
  bench::Report report;
  bool ok = RunMicroMessages(report);
  ok = RunMicroEvents(report) && ok;
  ok = RunMacroSession(report) && ok;

  return bench::RunChecks(
      args, report, ok,
      [](const bench::Fields& baseline, const bench::Fields& current) {
        bool pass = true;
        // The macro session is deterministic: an engine or protocol
        // change that alters its execution must regenerate the baseline.
        pass &= CheckExact(baseline, current, "macro_committed");
        pass &= CheckExact(baseline, current, "macro_net_messages");
        // Wall-time-shaped metrics (medians): loose 1.5x bound.
        pass &= CheckMetric(baseline, current, "micro_msgs_per_sec", 1.5, true);
        pass &=
            CheckMetric(baseline, current, "micro_events_per_sec", 1.5, true);
        pass &= CheckMetric(baseline, current, "macro_wall_ms", 1.5, false);
        // Allocation counts: exact measurements, 2x bound. The small
        // absolute slack absorbs ratio-vs-zero edge cases.
        pass &= CheckMetric(baseline, current, "micro_allocs_per_msg", 2.0,
                            false, /*slack=*/0.5);
        pass &= CheckMetric(baseline, current, "macro_allocs_per_txn", 2.0,
                            false, /*slack=*/16.0);
        return pass;
      });
}

}  // namespace
}  // namespace rainbow

int main(int argc, char** argv) { return rainbow::Main(argc, argv); }
