// M5: microbenchmark of the per-link fault-override machinery behind
// the nemesis fuzzer. Two questions: (a) what does a Send() cost on the
// no-override fast path versus with overrides installed, and (b) is the
// fast path genuinely free — the acceptance bar is that a network that
// has never seen an override and one whose overrides were erased back
// to identity run the hot path with byte-identical allocation behavior,
// since every Network::Send runs through the override check. (b) is a
// hard gate: the process exits 1 when it fails. Timings are the median
// of kReps repetitions.

#include <cstdio>
#include <string>

#include "bench_common.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace rainbow {
namespace {

LatencyConfig BenchLatency() {
  LatencyConfig cfg;
  cfg.distribution = LatencyDistribution::kFixed;
  cfg.mean = Millis(1);
  cfg.min = Micros(10);
  cfg.per_kb = 0;
  return cfg;
}

struct Harness {
  Simulator sim;
  Network net;
  uint64_t received = 0;

  Harness() : net(&sim, BenchLatency(), Rng(7)) {
    for (SiteId s = 0; s < 4; ++s) {
      net.RegisterHandler(s, [this](const Message&) { ++received; });
    }
  }

  // One measured unit: a burst of sends drained to quiescence.
  void Burst(int n) {
    for (int i = 0; i < n; ++i) {
      net.Send(0, 1, Ack{TxnId{0, static_cast<uint64_t>(i)}});
    }
    sim.RunToQuiescence();
  }
};

constexpr int kBurst = 1000;
constexpr int kReps = 9;
constexpr int kBurstsPerRep = 100;
constexpr int kParityRounds = 100;

// --- (a) Send() cost across override states ---------------------------

void SendCase(bench::Report& report, const std::string& name, Harness& h) {
  bench::Spread secs = bench::TimeReps(kReps, [&] {
    for (int i = 0; i < kBurstsPerRep; ++i) h.Burst(kBurst);
  });
  report.Add(name, secs.Rate(static_cast<double>(kBurstsPerRep) * kBurst));
}

void SendCost(bench::Report& report) {
  Harness plain;
  SendCase(report, "send_no_overrides_per_sec", plain);

  // An override on 2->3 makes the map non-empty: sends on 0->1 now pay
  // the hash lookup (the "someone else is being faulted" cost).
  Harness unrelated;
  LinkOverride loss;
  loss.loss = 0.5;
  unrelated.net.SetLinkOverride(2, 3, loss);
  SendCase(report, "send_unrelated_override_per_sec", unrelated);

  // The full slow path: every message duplicated with its own delay
  // sample, both copies delivered.
  Harness dup;
  LinkOverride dup_all;
  dup_all.dup_probability = 1.0;
  dup.net.SetLinkOverride(0, 1, dup_all);
  SendCase(report, "send_dup_override_per_sec", dup);
}

// --- (b) the fast path is genuinely restored --------------------------

// Not a timing: a network whose overrides were installed and then
// erased (identity install + ClearLinkOverrides) must allocate exactly
// as much per burst as one that never had any. If the erased map left
// residue — a tombstone, a capacity check, anything that allocates —
// the counters diverge and the gate fails.
bool ErasedOverridesAllocParity() {
  Harness pristine;
  Harness erased;
  LinkOverride o;
  o.delay_multiplier = 8.0;
  erased.net.SetLinkOverride(0, 1, o);
  erased.net.SetLinkOverride(0, 1, LinkOverride{});  // identity erases
  o.reorder_jitter = Millis(2);
  erased.net.SetLinkOverride(2, 3, o);
  erased.net.ClearLinkOverrides();
  if (erased.net.has_link_overrides()) {
    std::printf("GATE FAILED: identity/clear did not empty the override "
                "map\n");
    return false;
  }
  // Warm both harnesses so steady-state container capacity is reached.
  pristine.Burst(kBurst);
  erased.Burst(kBurst);
  for (int round = 0; round < kParityRounds; ++round) {
    uint64_t before = bench::Allocs();
    pristine.Burst(kBurst);
    uint64_t mid = bench::Allocs();
    erased.Burst(kBurst);
    uint64_t after = bench::Allocs();
    if (mid - before != after - mid) {
      std::printf("GATE FAILED: erased-override fast path allocates "
                  "differently from the never-overridden path (%llu vs "
                  "%llu allocations per burst)\n",
                  static_cast<unsigned long long>(after - mid),
                  static_cast<unsigned long long>(mid - before));
      return false;
    }
  }
  std::printf("gate ok: erased-override bursts allocate like pristine ones "
              "over %d rounds\n",
              kParityRounds);
  return true;
}

}  // namespace
}  // namespace rainbow

int main() {
  using namespace rainbow;
  bench::PrintHeader("M5", "link fault overrides (send cost + parity gate)");
  bench::Report report;
  SendCost(report);
  return ErasedOverridesAllocParity() ? 0 : 1;
}
