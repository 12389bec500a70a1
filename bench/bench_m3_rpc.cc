// M3: microbenchmark of the typed RPC sub-layer (net/rpc.h) — call
// dispatch overhead vs raw Network::Send, retry/timeout machinery under
// a slow link, and duplicate-suppression window cost (google-benchmark).

#include <benchmark/benchmark.h>

#include <memory>

#include "common/rng.h"
#include "net/network.h"
#include "net/rpc.h"
#include "sim/simulator.h"

namespace rainbow {
namespace {

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
void BM_RawSendPingPong(benchmark::State& state) {
  const int pairs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Simulator sim;
    Network net(&sim, FastLink(), Rng(1));
    int completed = 0;
    net.RegisterHandler(1, [&](const Message& m) {
      net.Send(1, 0, Ack{std::get<AbortRequest>(m.payload).txn});
    });
    net.RegisterHandler(0, [&](const Message&) { ++completed; });
    for (int i = 0; i < pairs; ++i) {
      net.Send(0, 1, AbortRequest{TxnId{0, static_cast<uint64_t>(i)}});
    }
    sim.RunToQuiescence();
    benchmark::DoNotOptimize(completed);
  }
  state.SetItemsProcessed(state.iterations() * pairs);
}
BENCHMARK(BM_RawSendPingPong)->Arg(64)->Arg(1024);

/// The same ping-pong through RpcEndpoint::Call / Reply: correlation
/// ids, per-call timers, and the duplicate window are all in the path.
void BM_RpcCallPingPong(benchmark::State& state) {
  const int pairs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Simulator sim;
    Network net(&sim, FastLink(), Rng(1));
    RpcEndpoint client(&sim, &net, 0, 1);
    RpcEndpoint server(&sim, &net, 1, 2);
    int completed = 0;
    net.RegisterHandler(0, [&](const Message& m) { client.Accept(m); });
    net.RegisterHandler(1, [&](const Message& m) {
      RpcDelivery d = server.Accept(m);
      if (d.consumed) return;
      server.Reply(d.ctx, Ack{std::get<AbortRequest>(m.payload).txn});
    });
    RpcPolicy policy;  // generous timeout: no retries on the fast link
    for (int i = 0; i < pairs; ++i) {
      client.Call(1, AbortRequest{TxnId{0, static_cast<uint64_t>(i)}},
                  policy, [&](Result<Payload>) { ++completed; });
    }
    sim.RunToQuiescence();
    benchmark::DoNotOptimize(completed);
  }
  state.SetItemsProcessed(state.iterations() * pairs);
}
BENCHMARK(BM_RpcCallPingPong)->Arg(64)->Arg(1024);

/// Worst case for the retry machinery: the one-way delay exceeds the
/// per-attempt timeout, so every call burns several attempts and the
/// server's duplicate window absorbs the retransmissions.
void BM_RpcRetryStorm(benchmark::State& state) {
  const int calls = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Simulator sim;
    LatencyConfig lat = FastLink();
    lat.mean = Millis(30);
    Network net(&sim, lat, Rng(1));
    RpcEndpoint client(&sim, &net, 0, 1);
    RpcEndpoint server(&sim, &net, 1, 2);
    int completed = 0;
    net.RegisterHandler(0, [&](const Message& m) { client.Accept(m); });
    net.RegisterHandler(1, [&](const Message& m) {
      RpcDelivery d = server.Accept(m);
      if (d.consumed) return;
      server.Reply(d.ctx, Ack{std::get<AbortRequest>(m.payload).txn});
    });
    RpcPolicy policy;
    policy.timeout = Millis(10);
    policy.max_attempts = 0;
    policy.backoff_base = Millis(2);
    for (int i = 0; i < calls; ++i) {
      client.Call(1, AbortRequest{TxnId{0, static_cast<uint64_t>(i)}},
                  policy, [&](Result<Payload>) { ++completed; });
    }
    sim.RunToQuiescence();
    benchmark::DoNotOptimize(completed);
  }
  state.SetItemsProcessed(state.iterations() * calls);
}
BENCHMARK(BM_RpcRetryStorm)->Arg(256);

/// Duplicate-suppression window under sustained one-way traffic: every
/// request is served and cached, so the bounded window constantly
/// trims. Measures Accept()+Reply() bookkeeping cost alone.
void BM_RpcDuplicateWindow(benchmark::State& state) {
  Simulator sim;
  Network net(&sim, FastLink(), Rng(1));
  RpcEndpoint server(&sim, &net, 1, 2);
  net.RegisterHandler(0, [](const Message&) {});
  uint64_t rpc_id = 0;
  Message m;
  m.from = 0;
  m.to = 1;
  m.payload = AbortRequest{TxnId{0, 1}};
  for (auto _ : state) {
    m.rpc_id = ++rpc_id;
    RpcDelivery d = server.Accept(m);
    server.Reply(d.ctx, Ack{TxnId{0, 1}});
  }
  sim.RunToQuiescence();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RpcDuplicateWindow);

}  // namespace
}  // namespace rainbow

BENCHMARK_MAIN();
