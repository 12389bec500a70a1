// M5: microbenchmark of the per-link fault-override machinery behind
// the nemesis fuzzer. Two questions: (a) what does a Send() cost on the
// no-override fast path versus with overrides installed, and (b) is the
// fast path genuinely free — the acceptance bar is that a network that
// has never seen an override and one whose overrides were erased back
// to identity run the hot path with byte-identical allocation behavior,
// since every Network::Send runs through the override check.

#include <benchmark/benchmark.h>

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

// --- (a) Send() cost across override states ---------------------------

void BM_SendNoOverrides(benchmark::State& state) {
  Harness h;
  for (auto _ : state) {
    h.Burst(kBurst);
  }
  state.SetItemsProcessed(state.iterations() * kBurst);
}
BENCHMARK(BM_SendNoOverrides);

void BM_SendWithUnrelatedOverride(benchmark::State& state) {
  // An override on 2->3 makes the map non-empty: sends on 0->1 now pay
  // the hash lookup (the "someone else is being faulted" cost).
  Harness h;
  LinkOverride o;
  o.loss = 0.5;
  h.net.SetLinkOverride(2, 3, o);
  for (auto _ : state) {
    h.Burst(kBurst);
  }
  state.SetItemsProcessed(state.iterations() * kBurst);
}
BENCHMARK(BM_SendWithUnrelatedOverride);

void BM_SendThroughDupOverride(benchmark::State& state) {
  // The full slow path: every message duplicated with its own delay
  // sample, both copies delivered.
  Harness h;
  LinkOverride o;
  o.dup_probability = 1.0;
  h.net.SetLinkOverride(0, 1, o);
  for (auto _ : state) {
    h.Burst(kBurst);
  }
  state.SetItemsProcessed(state.iterations() * kBurst);
}
BENCHMARK(BM_SendThroughDupOverride);

// --- (b) the fast path is genuinely restored --------------------------

// Not a timing benchmark: hard assertion that a network whose overrides
// were installed and then erased (identity install + ClearLinkOverrides)
// allocates exactly as much per burst as one that never had any. If the
// erased map left residue — a tombstone, a capacity check, anything that
// allocates — the counters diverge and the benchmark fails.
void BM_ErasedOverridesAllocParity(benchmark::State& state) {
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
    state.SkipWithError("identity/clear did not empty the override map");
    return;
  }
  // Warm both harnesses so steady-state container capacity is reached.
  pristine.Burst(kBurst);
  erased.Burst(kBurst);
  for (auto _ : state) {
    uint64_t before = bench::Allocs();
    pristine.Burst(kBurst);
    uint64_t mid = bench::Allocs();
    erased.Burst(kBurst);
    uint64_t after = bench::Allocs();
    if (mid - before != after - mid) {
      state.SkipWithError(
          "erased-override fast path allocates differently from the "
          "never-overridden path");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() * kBurst * 2);
}
BENCHMARK(BM_ErasedOverridesAllocParity);

}  // namespace
}  // namespace rainbow

BENCHMARK_MAIN();
