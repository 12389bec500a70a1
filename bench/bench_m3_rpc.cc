// M3: microbenchmark of the typed RPC sub-layer (net/rpc.h) — call
// dispatch overhead vs raw Network::Send, retry/timeout machinery under
// a slow link, and duplicate-suppression window cost. Each case prints
// the median of kReps repetitions with its quartiles. Two gates set the
// exit code: a warmed-up, rotating duplicate window serves a repetition
// of requests without a single heap allocation, and on the sparse shape
// of a large topology the senders' acknowledgement floors leave the
// endpoint holding only each sender's latest call.

#include <cstdio>
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
/// request is served and its reply cached, so the bounded window
/// constantly rotates. Measures Accept()+Reply() plus the delivery of
/// the replies, which each repetition drains. Gate: once warmed up, a
/// repetition allocates nothing.
bool RpcDuplicateWindow(bench::Report& report) {
  constexpr int kRequests = 20000;
  Simulator sim;
  Network net(&sim, FastLink(), Rng(1));
  // One giant stats bucket: sim time advancing during the bench must
  // not grow the per-bucket histogram mid-measurement.
  net.set_stats_bucket_width(Seconds(1000000));
  RpcEndpoint server(&sim, &net, 1, 2);
  net.RegisterHandler(0, [](const Message&) {});
  uint64_t rpc_id = 0;
  Message m;
  m.from = 0;
  m.to = 1;
  m.payload = AbortRequest{TxnId{0, 1}};
  auto rep = [&] {
    for (int i = 0; i < kRequests; ++i) {
      m.rpc_id = ++rpc_id;
      RpcDelivery d = server.Accept(m);
      server.Reply(d.ctx, Ack{TxnId{0, 1}});
    }
    sim.RunToQuiescence();
  };
  rep();  // warm the window, the network tables and the event queue
  uint64_t allocs_before = bench::Allocs();
  rep();
  uint64_t steady = bench::Allocs() - allocs_before;
  bench::Spread secs = bench::TimeReps(kReps, rep);
  report.Add("duplicate_window_requests_per_sec", secs.Rate(kRequests));
  report.Add("duplicate_window_steady_allocs_per_request",
             static_cast<double>(steady) / kRequests);
  if (steady == 0) return true;
  std::printf("  GATE FAILED: a steady-state repetition of %d requests "
              "performed %llu heap allocations (expected 0)\n",
              kRequests, static_cast<unsigned long long>(steady));
  return false;
}

/// The shape most windows have on a large topology: a replica hears
/// from many senders a few times each (512 senders x 4 requests), on a
/// fresh endpoint per repetition. Each request carries the floor a
/// caller whose earlier calls here have all finished stamps, so it
/// acknowledges the sender's previous request. Prints the allocations
/// per request. Gate: the endpoint ends every repetition holding one
/// entry per sender, its latest call, which only that sender's next
/// call can acknowledge; everything older is gone.
bool RpcSparseWindows(bench::Report& report) {
  constexpr SiteId kSenders = 512;
  constexpr uint64_t kPerSender = 4;
  constexpr double kRequests = kSenders * kPerSender;
  Simulator sim;
  Network net(&sim, FastLink(), Rng(1));
  net.set_stats_bucket_width(Seconds(1000000));
  for (SiteId s = 0; s < kSenders; ++s) {
    net.RegisterHandler(s, [](const Message&) {});
  }
  Message m;
  m.to = kSenders;
  m.payload = AbortRequest{TxnId{0, 1}};
  bench::RepeatedCount allocs;
  bench::RepeatedCount entries;
  size_t held = 0;
  auto rep = [&] {
    uint64_t allocs_before = bench::Allocs();
    {
      RpcEndpoint server(&sim, &net, kSenders, 2);
      for (uint64_t id = 1; id <= kPerSender; ++id) {
        for (SiteId s = 0; s < kSenders; ++s) {
          m.from = s;
          m.rpc_id = id;
          m.ack_floor = id - 1;
          RpcDelivery d = server.Accept(m);
          server.Reply(d.ctx, Ack{TxnId{s, id}});
        }
      }
      sim.RunToQuiescence();
      entries.Record(server.window_entries());
      held = server.held_bytes();
    }
    allocs.Record(bench::Allocs() - allocs_before);
  };
  rep();  // warm the network tables and the event queue
  allocs = {};
  bench::Spread secs = bench::TimeReps(kReps, rep);
  report.Add("sparse_windows_requests_per_sec", secs.Rate(kRequests));
  report.Add("sparse_windows_allocs_per_request",
             static_cast<double>(allocs.value) / kRequests);
  report.Add("sparse_windows_entries_held", static_cast<double>(entries.value));
  report.Add("sparse_windows_held_bytes", static_cast<double>(held));
  bool ok = allocs.Check("sparse-window allocation count");
  ok = entries.Check("sparse-window entries") && ok;
  if (entries.value == kSenders) return ok;
  std::printf("  GATE FAILED: the endpoint holds %llu entries after every "
              "sender's calls but the last were acknowledged (expected "
              "%u, one per sender)\n",
              static_cast<unsigned long long>(entries.value), kSenders);
  return false;
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
  bool ok = RpcDuplicateWindow(report);
  ok = RpcSparseWindows(report) && ok;
  return ok ? 0 : 1;
}
