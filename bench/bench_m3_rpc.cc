// M3: microbenchmark of the typed RPC sub-layer (net/rpc.h) — call
// dispatch overhead vs raw Network::Send, retry/timeout machinery under
// a slow link, and duplicate-suppression window cost. Not gated: each
// case prints the median of kReps repetitions with its quartiles.

#include <string>

#include "bench_common.h"
#include "common/rng.h"
#include "net/network.h"
#include "net/rpc.h"
#include "sim/simulator.h"

namespace rainbow {
namespace {

constexpr int kReps = 9;
// Round trips per repetition in the ping-pong cases.
constexpr int kCallsPerRep = 65536;

LatencyConfig FastLink() {
  LatencyConfig lat;
  lat.distribution = LatencyDistribution::kFixed;
  lat.mean = Micros(100);
  lat.min = 0;
  lat.per_kb = 0;
  return lat;
}

/// Baseline: raw request/reply ping-pong over Network::Send, no RPC
/// layer. Measures the floor the RPC layer adds overhead on top of.
void RunRawSendPingPong(int pairs) {
  Simulator sim;
  Network net(&sim, FastLink(), Rng(1));
  net.RegisterHandler(1, [&](const Message& m) {
    net.Send(1, 0, Ack{std::get<AbortRequest>(m.payload).txn});
  });
  net.RegisterHandler(0, [](const Message&) {});
  for (int i = 0; i < pairs; ++i) {
    net.Send(0, 1, AbortRequest{TxnId{0, static_cast<uint64_t>(i)}});
  }
  sim.RunToQuiescence();
}

/// The same ping-pong through RpcEndpoint::Call / Reply: correlation
/// ids, per-call timers, and the duplicate window are all in the path.
/// With `slow_link` the one-way delay exceeds the per-attempt timeout,
/// the worst case for the retry machinery: every call burns several
/// attempts and the server's duplicate window absorbs the
/// retransmissions.
void RunRpcPingPong(int calls, bool slow_link) {
  Simulator sim;
  LatencyConfig lat = FastLink();
  RpcPolicy policy;  // generous timeout: no retries on the fast link
  if (slow_link) {
    lat.mean = Millis(30);
    policy.timeout = Millis(10);
    policy.max_attempts = 0;
    policy.backoff_base = Millis(2);
  }
  Network net(&sim, lat, Rng(1));
  RpcEndpoint client(&sim, &net, 0, 1);
  RpcEndpoint server(&sim, &net, 1, 2);
  net.RegisterHandler(0, [&](const Message& m) { client.Accept(m); });
  net.RegisterHandler(1, [&](const Message& m) {
    RpcDelivery d = server.Accept(m);
    if (d.consumed) return;
    server.Reply(d.ctx, Ack{std::get<AbortRequest>(m.payload).txn});
  });
  for (int i = 0; i < calls; ++i) {
    client.Call(1, AbortRequest{TxnId{0, static_cast<uint64_t>(i)}}, policy,
                [](Result<Payload>) {});
  }
  sim.RunToQuiescence();
}

/// Times `rounds` runs of `run` per repetition; `calls` is the work one
/// run does.
template <typename Run>
void PingPongCase(bench::Report& report, const std::string& name, int calls,
                  int rounds, Run&& run) {
  bench::Spread secs = bench::TimeReps(kReps, [&] {
    for (int n = 0; n < rounds; ++n) run();
  });
  report.Add(name + "_" + std::to_string(calls) + "_calls_per_sec",
             secs.Rate(static_cast<double>(calls) * rounds));
}

/// Duplicate-suppression window under sustained one-way traffic: every
/// request is served and cached, so the bounded window constantly
/// trims. Measures Accept()+Reply() bookkeeping cost alone; the
/// replies are drained after timing.
void RpcDuplicateWindow(bench::Report& report) {
  constexpr int kRequests = 20000;
  Simulator sim;
  Network net(&sim, FastLink(), Rng(1));
  RpcEndpoint server(&sim, &net, 1, 2);
  net.RegisterHandler(0, [](const Message&) {});
  uint64_t rpc_id = 0;
  Message m;
  m.from = 0;
  m.to = 1;
  m.payload = AbortRequest{TxnId{0, 1}};
  bench::Spread secs = bench::TimeReps(kReps, [&] {
    for (int i = 0; i < kRequests; ++i) {
      m.rpc_id = ++rpc_id;
      RpcDelivery d = server.Accept(m);
      server.Reply(d.ctx, Ack{TxnId{0, 1}});
    }
  });
  sim.RunToQuiescence();
  report.Add("duplicate_window_requests_per_sec", secs.Rate(kRequests));
}

}  // namespace
}  // namespace rainbow

int main() {
  using namespace rainbow;
  bench::PrintHeader("M3", "typed RPC sub-layer (median of repetitions)");
  bench::Report report;
  for (int pairs : {64, 1024}) {
    PingPongCase(report, "raw_send_ping_pong", pairs, kCallsPerRep / pairs,
                 [pairs] { RunRawSendPingPong(pairs); });
  }
  for (int pairs : {64, 1024}) {
    PingPongCase(report, "rpc_call_ping_pong", pairs, kCallsPerRep / pairs,
                 [pairs] { RunRpcPingPong(pairs, /*slow_link=*/false); });
  }
  PingPongCase(report, "rpc_retry_storm", 256, 20,
               [] { RunRpcPingPong(256, /*slow_link=*/true); });
  RpcDuplicateWindow(report);
  return 0;
}
