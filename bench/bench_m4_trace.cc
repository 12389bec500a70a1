// M4: microbenchmark of the structured tracing subsystem. Two
// questions: (a) what does one Emit() cost at each detail level, and
// (b) does *disabled* tracing stay free on the message hot path — the
// acceptance bar is zero allocations per message when trace_detail is
// off, since every Network::Deliver and RpcEndpoint::SendAttempt runs
// through the collector guard.

#include <benchmark/benchmark.h>

#include <cstdlib>

#include "bench_common.h"
#include "common/trace.h"
#include "core/system.h"
#include "workload/workload.h"

namespace rainbow {
namespace {

// --- (a) raw Emit() cost per detail level -----------------------------

void BM_EmitDisabled(benchmark::State& state) {
  TraceCollector c;  // kOff
  for (auto _ : state) {
    // The caller-side pattern: one branch, no record constructed.
    if (c.enabled()) {
      c.Emit(TraceRecord{0, TraceEventKind::kMsgSend, TxnId{0, 1}, 0, 1,
                         kInvalidItem, 0, "ReadRequest"});
    }
    benchmark::DoNotOptimize(&c);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EmitDisabled);

void BM_EmitProtocol(benchmark::State& state) {
  TraceCollector c;
  c.set_detail(TraceDetail::kProtocol);
  c.set_capacity(1 << 16);
  for (auto _ : state) {
    if (c.enabled()) {
      c.Emit(TraceRecord{0, TraceEventKind::kCcGrant, TxnId{0, 1}, 0,
                         kInvalidSite, 3, 0, std::string()});
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EmitProtocol);

void BM_EmitFullWithDetailString(benchmark::State& state) {
  TraceCollector c;
  c.set_detail(TraceDetail::kFull);
  c.set_capacity(1 << 16);
  for (auto _ : state) {
    if (c.full()) {
      c.Emit(TraceRecord{0, TraceEventKind::kMsgSend, TxnId{0, 1}, 0, 1,
                         kInvalidItem, 42, "PrewriteRequest"});
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EmitFullWithDetailString);

// --- (b) whole-system message hot path --------------------------------

void RunWorkload(TraceDetail detail, uint64_t* messages, uint64_t* allocs) {
  SystemConfig cfg;
  cfg.seed = 99;
  cfg.num_sites = 3;
  cfg.trace_enabled = detail != TraceDetail::kOff;
  cfg.trace_detail = detail;
  cfg.AddFullyReplicatedItems(16, 100);
  auto sys = RainbowSystem::Create(cfg);
  if (!sys.ok()) std::abort();
  WorkloadConfig wl;
  wl.seed = 99;
  wl.num_txns = 100;
  wl.mpl = 8;
  WorkloadGenerator gen(sys->get(), wl);
  gen.Run();
  uint64_t before = bench::Allocs();
  (*sys)->RunToQuiescence();
  *allocs = bench::Allocs() - before;
  *messages = (*sys)->net().stats().delivered;
}

void BM_SystemRunTraced(benchmark::State& state) {
  auto detail = static_cast<TraceDetail>(state.range(0));
  uint64_t messages = 0, allocs = 0;
  for (auto _ : state) {
    RunWorkload(detail, &messages, &allocs);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(messages));
  state.counters["msgs"] = static_cast<double>(messages);
  state.counters["allocs_per_msg"] =
      static_cast<double>(allocs) / static_cast<double>(messages);
}
BENCHMARK(BM_SystemRunTraced)
    ->Arg(static_cast<int>(TraceDetail::kOff))
    ->Arg(static_cast<int>(TraceDetail::kProtocol))
    ->Arg(static_cast<int>(TraceDetail::kFull));

// Not a timing benchmark: hard assertion that the disabled collector
// adds zero allocations per emitted-site check. Runs the caller-side
// guard a million times against a steady-state collector and verifies
// the allocation counter did not move.
void BM_DisabledEmitZeroAllocs(benchmark::State& state) {
  TraceCollector c;  // kOff
  for (auto _ : state) {
    uint64_t before = bench::Allocs();
    for (int i = 0; i < 1'000'000; ++i) {
      if (c.enabled()) {
        c.Emit(TraceRecord{i, TraceEventKind::kMsgRecv, TxnId{0, 1}, 0, 1,
                           kInvalidItem, i, "ReadReply"});
      }
    }
    uint64_t after = bench::Allocs();
    if (after != before) {
      state.SkipWithError("disabled tracing allocated on the hot path");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() * 1'000'000);
}
BENCHMARK(BM_DisabledEmitZeroAllocs);

}  // namespace
}  // namespace rainbow

BENCHMARK_MAIN();
