// M4: microbenchmark of the structured tracing subsystem. Two
// questions: (a) what does one Emit() cost at each detail level, and
// (b) does *disabled* tracing stay free on the message hot path — the
// acceptance bar is zero allocations per message when trace_detail is
// off, since every Network::Deliver and RpcEndpoint::SendAttempt runs
// through the collector guard. (b) is a hard gate: the process exits 1
// when it fails. Timings are the median of kReps repetitions.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_common.h"
#include "common/trace.h"
#include "core/system.h"
#include "workload/workload.h"

namespace rainbow {
namespace {

constexpr int kReps = 9;
constexpr int kEmitsPerRep = 200000;

// --- (a) raw Emit() cost per detail level -----------------------------

// Times kEmitsPerRep calls of `emit` per repetition.
template <typename Emit>
void EmitCase(bench::Report& report, const std::string& name, Emit&& emit) {
  bench::Spread secs = bench::TimeReps(kReps, [&] {
    for (int i = 0; i < kEmitsPerRep; ++i) emit();
  });
  report.Add(name, secs.Scaled(1e9 / kEmitsPerRep));
}

void EmitCost(bench::Report& report) {
  TraceCollector off;  // kOff
  EmitCase(report, "emit_disabled_ns", [&] {
    // The caller-side pattern: one branch, no record constructed.
    if (off.enabled()) {
      off.Emit(TraceRecord{0, TraceEventKind::kMsgSend, TxnId{0, 1}, 0, 1,
                           kInvalidItem, 0, "ReadRequest"});
    }
    bench::DoNotOptimize(&off);
  });

  TraceCollector protocol;
  protocol.set_detail(TraceDetail::kProtocol);
  protocol.set_capacity(1 << 16);
  EmitCase(report, "emit_protocol_ns", [&] {
    if (protocol.enabled()) {
      protocol.Emit(TraceRecord{0, TraceEventKind::kCcGrant, TxnId{0, 1}, 0,
                                kInvalidSite, 3, 0, std::string()});
    }
  });

  TraceCollector full;
  full.set_detail(TraceDetail::kFull);
  full.set_capacity(1 << 16);
  EmitCase(report, "emit_full_detail_string_ns", [&] {
    if (full.full()) {
      full.Emit(TraceRecord{0, TraceEventKind::kMsgSend, TxnId{0, 1}, 0, 1,
                            kInvalidItem, 42, "PrewriteRequest"});
    }
  });
}

// --- whole-system message hot path per detail level --------------------

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

void SystemRunTraced(bench::Report& report, TraceDetail detail,
                     const std::string& name) {
  uint64_t messages = 0;
  uint64_t allocs = 0;
  bench::Spread secs = bench::TimeReps(
      kReps, [&] { RunWorkload(detail, &messages, &allocs); });
  report.Add("system_" + name + "_msgs_per_sec",
             secs.Rate(static_cast<double>(messages)));
  report.Add("system_" + name + "_allocs_per_msg",
             static_cast<double>(allocs) / static_cast<double>(messages));
}

// --- (b) the zero-allocation gate --------------------------------------

// Not a timing: runs the caller-side guard a million times against a
// disabled collector and requires the allocation counter not to move.
bool DisabledEmitZeroAllocs() {
  TraceCollector c;  // kOff
  uint64_t before = bench::Allocs();
  for (int i = 0; i < 1'000'000; ++i) {
    if (c.enabled()) {
      c.Emit(TraceRecord{i, TraceEventKind::kMsgRecv, TxnId{0, 1}, 0, 1,
                         kInvalidItem, i, "ReadReply"});
    }
    bench::DoNotOptimize(&c);
  }
  uint64_t after = bench::Allocs();
  if (after != before) {
    std::printf("GATE FAILED: disabled tracing allocated on the hot path "
                "(%llu allocations over 1M guarded emits)\n",
                static_cast<unsigned long long>(after - before));
    return false;
  }
  std::printf("gate ok: disabled tracing made 0 allocations over 1M "
              "guarded emits\n");
  return true;
}

}  // namespace
}  // namespace rainbow

int main() {
  using namespace rainbow;
  bench::PrintHeader("M4", "structured tracing (emit cost + zero-alloc gate)");
  bench::Report report;
  EmitCost(report);
  SystemRunTraced(report, TraceDetail::kOff, "off");
  SystemRunTraced(report, TraceDetail::kProtocol, "protocol");
  SystemRunTraced(report, TraceDetail::kFull, "full");
  return DisabledEmitZeroAllocs() ? 0 : 1;
}
