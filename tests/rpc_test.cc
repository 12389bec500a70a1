#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/system.h"
#include "net/codec.h"
#include "net/network.h"
#include "net/rpc.h"
#include "random_payload.h"
#include "sim/simulator.h"
#include "workload/workload.h"

namespace rainbow {
namespace {

// ---------------------------------------------------------------------------
// Backoff policy
// ---------------------------------------------------------------------------

TEST(RpcPolicyTest, BackoffIsCappedExponential) {
  Rng rng(1);
  RpcPolicy p;
  p.backoff_base = Millis(2);
  p.backoff_cap = Millis(20);
  p.jitter = 0;  // deterministic
  EXPECT_EQ(RetryBackoffDelay(p, 1, rng), Millis(2));
  EXPECT_EQ(RetryBackoffDelay(p, 2, rng), Millis(4));
  EXPECT_EQ(RetryBackoffDelay(p, 3, rng), Millis(8));
  EXPECT_EQ(RetryBackoffDelay(p, 4, rng), Millis(16));
  EXPECT_EQ(RetryBackoffDelay(p, 5, rng), Millis(20));  // capped
  EXPECT_EQ(RetryBackoffDelay(p, 50, rng), Millis(20));
}

TEST(RpcPolicyTest, JitterStaysWithinBounds) {
  Rng rng(7);
  RpcPolicy p;
  p.backoff_base = Millis(8);
  p.backoff_cap = Millis(8);
  p.jitter = 0.25;
  for (int i = 0; i < 200; ++i) {
    SimTime d = RetryBackoffDelay(p, 3, rng);
    EXPECT_GE(d, Millis(6));
    EXPECT_LE(d, Millis(10));
  }
}

// ---------------------------------------------------------------------------
// Endpoint behaviour on a two-node network
// ---------------------------------------------------------------------------

LatencyConfig FixedLatency(SimTime one_way) {
  LatencyConfig lat;
  lat.distribution = LatencyDistribution::kFixed;
  lat.mean = one_way;
  lat.min = 0;
  lat.per_kb = 0;
  return lat;
}

/// A client endpoint at site 0 and echo servers at sites 1 and 2 with a
/// fixed, deterministic one-way delay. Every request delivered to a
/// server is logged, whether or not its endpoint consumes it.
struct RpcHarness {
  Simulator sim;
  std::unique_ptr<Network> net;
  std::unique_ptr<RpcEndpoint> client;
  std::unique_ptr<RpcEndpoint> server;
  std::unique_ptr<RpcEndpoint> other;  ///< the server at site 2
  std::vector<Message> delivered_requests;
  int server_requests = 0;
  int late_replies = 0;

  explicit RpcHarness(SimTime one_way) {
    net = std::make_unique<Network>(&sim, FixedLatency(one_way), Rng(99));
    client = std::make_unique<RpcEndpoint>(&sim, net.get(), 0, 1);
    server = std::make_unique<RpcEndpoint>(&sim, net.get(), 1, 2);
    other = std::make_unique<RpcEndpoint>(&sim, net.get(), 2, 3);
    client->set_late_reply_handler(
        [this](const Message&) { ++late_replies; });
    net->RegisterHandler(0, [this](const Message& m) { client->Accept(m); });
    auto serve = [this](RpcEndpoint* ep) {
      return [this, ep](const Message& m) {
        delivered_requests.push_back(m);
        RpcDelivery d = ep->Accept(m);
        if (d.consumed) return;
        ++server_requests;
        ep->Reply(d.ctx, Ack{std::get<AbortRequest>(m.payload).txn});
      };
    };
    net->RegisterHandler(1, serve(server.get()));
    net->RegisterHandler(2, serve(other.get()));
  }
};

TEST(RpcEndpointTest, CallCompletesWithReply) {
  RpcHarness h(Millis(2));
  RpcPolicy policy;
  int callbacks = 0;
  h.client->Call(1, AbortRequest{TxnId{0, 7}}, policy,
                 [&](Result<Payload> r) {
                   ++callbacks;
                   ASSERT_TRUE(r.ok());
                   EXPECT_EQ(std::get<Ack>(*r).txn, (TxnId{0, 7}));
                 });
  h.sim.RunToQuiescence();
  EXPECT_EQ(callbacks, 1);
  EXPECT_EQ(h.server_requests, 1);
  EXPECT_EQ(h.net->stats().rpc_calls, 1u);
  EXPECT_EQ(h.net->stats().rpc_attempts, 1u);
  EXPECT_EQ(h.net->stats().rpc_retries, 0u);
  EXPECT_EQ(h.net->stats().rpc_latency.count(), 1u);
  EXPECT_EQ(h.client->pending_calls(), 0u);
}

TEST(RpcEndpointTest, SlowNetworkForcesRetriesButOneCallbackAndOneService) {
  // One-way delay (30ms) far exceeds the per-attempt timeout (10ms):
  // every attempt "times out" yet eventually arrives. The server must
  // serve the request once (duplicates suppressed, cached reply
  // resent), and the client must see exactly one callback; the surplus
  // cached replies surface as late replies and are dropped.
  RpcHarness h(Millis(30));
  RpcPolicy policy;
  policy.timeout = Millis(10);
  policy.max_attempts = 0;  // retry until the reply lands
  policy.backoff_base = Millis(2);
  policy.jitter = 0;
  int callbacks = 0;
  h.client->Call(1, AbortRequest{TxnId{1, 3}}, policy,
                 [&](Result<Payload> r) {
                   ++callbacks;
                   EXPECT_TRUE(r.ok());
                 });
  h.sim.RunToQuiescence();
  EXPECT_EQ(callbacks, 1);
  EXPECT_EQ(h.server_requests, 1) << "duplicate requests reached the app";
  const NetworkStats& st = h.net->stats();
  EXPECT_GT(st.rpc_retries, 0u);
  EXPECT_GT(st.rpc_timeouts, 0u);
  EXPECT_GT(st.rpc_duplicates_suppressed, 0u);
  EXPECT_GT(h.late_replies, 0) << "cached resends should arrive late";
  EXPECT_EQ(st.rpc_failures, 0u);
  EXPECT_EQ(h.client->pending_calls(), 0u);
}

TEST(RpcEndpointTest, TerminalFailureAfterMaxAttempts) {
  RpcHarness h(Millis(2));
  h.net->SetSiteUp(1, false);  // server unreachable: every attempt is lost
  RpcPolicy policy;
  policy.timeout = Millis(5);
  policy.max_attempts = 3;
  policy.jitter = 0;
  std::optional<Status> failure;
  h.client->Call(1, AbortRequest{TxnId{0, 1}}, policy,
                 [&](Result<Payload> r) {
                   ASSERT_FALSE(r.ok());
                   failure = r.status();
                 });
  h.sim.RunToQuiescence();
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(h.net->stats().rpc_attempts, 3u);
  EXPECT_EQ(h.net->stats().rpc_failures, 1u);
  EXPECT_EQ(h.client->pending_calls(), 0u);
}

TEST(RpcEndpointTest, CancelSuppressesCallbackAndLateReplyIsObserved) {
  RpcHarness h(Millis(2));
  RpcPolicy policy;
  int callbacks = 0;
  uint64_t id = h.client->Call(1, AbortRequest{TxnId{0, 9}}, policy,
                               [&](Result<Payload>) { ++callbacks; });
  EXPECT_TRUE(h.client->Cancel(id));
  EXPECT_FALSE(h.client->Cancel(id));  // idempotent
  h.sim.RunToQuiescence();
  EXPECT_EQ(callbacks, 0);
  // The server still answered; the reply of the cancelled call reaches
  // the late-reply observer instead of a callback.
  EXPECT_EQ(h.server_requests, 1);
  EXPECT_EQ(h.late_replies, 1);
}

TEST(RpcEndpointTest, ResetDropsAllPendingCalls) {
  RpcHarness h(Millis(2));
  RpcPolicy policy;
  int callbacks = 0;
  for (int i = 0; i < 4; ++i) {
    h.client->Call(1, AbortRequest{TxnId{0, static_cast<uint64_t>(i)}},
                   policy, [&](Result<Payload>) { ++callbacks; });
  }
  EXPECT_EQ(h.client->pending_calls(), 4u);
  h.client->Reset();  // crash semantics
  EXPECT_EQ(h.client->pending_calls(), 0u);
  h.sim.RunToQuiescence();
  EXPECT_EQ(callbacks, 0);
}

// ---------------------------------------------------------------------------
// Duplicate-window rotation (floor eviction)
// ---------------------------------------------------------------------------

Message ForgedRequest(SiteId from, SiteId to, uint64_t rpc_id,
                      uint64_t ack_floor = 0) {
  Message m;
  m.from = from;
  m.to = to;
  m.rpc_id = rpc_id;
  m.ack_floor = ack_floor;
  m.payload = AbortRequest{TxnId{from, rpc_id}};
  return m;
}

TEST(RpcEndpointTest, StaleIdBelowFloorIsReadmittedNotSwallowed) {
  // Regression: once the per-sender window rotates past an id, a
  // retransmission of that id used to be suppressed with no cached
  // reply to resend — the caller (possibly a retry-forever decision
  // query) starved silently. It must be re-admitted as a fresh request.
  RpcHarness h(Millis(2));

  RpcDelivery first = h.server->Accept(ForgedRequest(0, 1, 1));
  ASSERT_FALSE(first.consumed);
  ASSERT_TRUE(first.ctx.valid());
  h.server->Reply(first.ctx, Ack{TxnId{0, 1}});

  // While the id is still in the window, a duplicate is suppressed and
  // the cached reply is resent.
  RpcDelivery dup = h.server->Accept(ForgedRequest(0, 1, 1));
  EXPECT_TRUE(dup.consumed);
  EXPECT_FALSE(dup.ctx.valid());
  EXPECT_EQ(h.net->stats().rpc_duplicates_suppressed, 1u);
  EXPECT_EQ(h.net->stats().rpc_stale_readmitted, 0u);

  // Rotate the window far past id 1 (capacity is 256 entries).
  for (uint64_t id = 1000; id < 1400; ++id) {
    RpcDelivery d = h.server->Accept(ForgedRequest(0, 1, id));
    ASSERT_FALSE(d.consumed);
  }

  // The same retransmission now falls below the floor: it must surface
  // to the application again instead of vanishing.
  RpcDelivery stale = h.server->Accept(ForgedRequest(0, 1, 1));
  EXPECT_FALSE(stale.consumed) << "stale retransmission was swallowed";
  ASSERT_TRUE(stale.ctx.valid());
  EXPECT_EQ(h.net->stats().rpc_stale_readmitted, 1u);
  h.server->Reply(stale.ctx, Ack{TxnId{0, 1}});

  // Windows are per sender: another sender's id 1 is simply fresh.
  RpcDelivery other = h.server->Accept(ForgedRequest(2, 1, 1));
  EXPECT_FALSE(other.consumed);
  EXPECT_EQ(h.net->stats().rpc_stale_readmitted, 1u);

  h.sim.RunToQuiescence();  // flush the replies sent above
}

TEST(RpcEndpointTest, RetryForeverCallSurvivesWindowRotation) {
  // End to end: the reply to call #1 is lost, and before the client's
  // retransmission lands the server's window rotates past the call's
  // id. With silent suppression the client would retransmit forever;
  // re-admission lets the exchange complete.
  RpcHarness h(Millis(2));
  RpcPolicy policy;
  policy.timeout = Millis(30);
  policy.max_attempts = 0;  // retry forever
  policy.backoff_base = Millis(2);
  policy.jitter = 0;

  int callbacks = 0;
  h.client->Call(1, AbortRequest{TxnId{0, 5}}, policy,
                 [&](Result<Payload> r) {
                   ++callbacks;
                   EXPECT_TRUE(r.ok());
                 });
  // Take the client down around the reply's delivery so only the reply
  // leg is lost (request out at 0ms, reply in flight 2ms..4ms).
  h.sim.After(Millis(1), [&] { h.net->SetSiteUp(0, false); });
  h.sim.After(Millis(6), [&] { h.net->SetSiteUp(0, true); });
  // Before the ~30ms retransmission, hammer the server with enough
  // other traffic from the same sender to rotate its window.
  h.sim.After(Millis(10), [&] {
    for (uint64_t id = 10000; id < 10400; ++id) {
      RpcDelivery d = h.server->Accept(ForgedRequest(0, 1, id));
      ASSERT_FALSE(d.consumed);
      h.server->Reply(d.ctx, Ack{TxnId{0, id}});
    }
  });

  h.sim.RunUntil(Seconds(2));
  EXPECT_EQ(callbacks, 1) << "retry-forever call starved after rotation";
  EXPECT_GT(h.net->stats().rpc_stale_readmitted, 0u);
  EXPECT_EQ(h.client->pending_calls(), 0u);
}

// ---------------------------------------------------------------------------
// Implicit acknowledgements (ack floors)
// ---------------------------------------------------------------------------

TEST(RpcEndpointTest, LateCopyAtOrBelowAckFloorIsConsumed) {
  // Once a sender's next request says its calls up to the floor have
  // finished, their entries go, and a late copy of one of them is
  // dropped: not surfaced to the application and not answered.
  RpcHarness h(Millis(2));
  RpcDelivery first = h.server->Accept(ForgedRequest(0, 1, 5));
  ASSERT_TRUE(first.ctx.valid());
  h.server->Reply(first.ctx, Ack{TxnId{0, 5}});
  RpcDelivery second = h.server->Accept(ForgedRequest(0, 1, 6));
  ASSERT_TRUE(second.ctx.valid());
  EXPECT_EQ(h.server->window_entries(), 2u);

  RpcDelivery next = h.server->Accept(ForgedRequest(0, 1, 9, /*ack=*/5));
  ASSERT_TRUE(next.ctx.valid());
  EXPECT_EQ(h.server->window_entries(), 2u) << "id 5 is acknowledged";
  h.sim.RunToQuiescence();  // deliver the reply to id 5
  const uint64_t sent = h.net->stats().sent;

  for (uint64_t id : {5u, 3u}) {  // answered before, and never seen
    RpcDelivery late = h.server->Accept(ForgedRequest(0, 1, id));
    EXPECT_TRUE(late.consumed) << id;
    EXPECT_FALSE(late.ctx.valid()) << id;
  }
  h.sim.RunToQuiescence();
  EXPECT_EQ(h.net->stats().rpc_acked_dropped, 2u);
  EXPECT_EQ(h.net->stats().rpc_duplicates_suppressed, 0u);
  EXPECT_EQ(h.net->stats().sent, sent) << "a dropped copy was answered";

  // Above the floor nothing changed: id 6 is still served.
  RpcDelivery dup = h.server->Accept(ForgedRequest(0, 1, 6, /*ack=*/5));
  EXPECT_TRUE(dup.consumed);
  EXPECT_EQ(h.net->stats().rpc_duplicates_suppressed, 1u);
  // Floors are per sender: another sender's id 5 is fresh.
  EXPECT_TRUE(h.server->Accept(ForgedRequest(2, 1, 5)).ctx.valid());
}

TEST(RpcEndpointTest, LateCopyOfAFailedCallIsNotExecuted) {
  // End to end: a call fails while two copies of it are still crawling
  // over a congested link. The caller's next call to the same server
  // overtakes them and acknowledges the failed call, so the copies are
  // dropped on arrival instead of executing a request nobody waits for.
  RpcHarness h(Millis(2));
  LinkOverride slow;
  slow.delay_multiplier = 25;  // 50 ms one way
  h.net->SetLinkOverride(0, 1, slow);
  RpcPolicy policy;
  policy.timeout = Millis(5);
  policy.max_attempts = 2;
  policy.backoff_base = Millis(2);
  policy.jitter = 0;
  std::optional<Status> failed;
  h.client->Call(1, AbortRequest{TxnId{0, 1}}, policy,
                 [&](Result<Payload> r) { failed = r.status(); });
  h.sim.RunUntil(Millis(20));
  ASSERT_TRUE(failed.has_value());
  EXPECT_FALSE(failed->ok());
  EXPECT_TRUE(h.delivered_requests.empty()) << "copies arrived early";

  h.net->ClearLinkOverrides();
  int answered = 0;
  h.client->Call(1, AbortRequest{TxnId{0, 2}}, policy,
                 [&](Result<Payload> r) { answered += r.ok(); });
  h.sim.RunToQuiescence();
  EXPECT_EQ(answered, 1);
  ASSERT_EQ(h.delivered_requests.size(), 3u);
  EXPECT_EQ(h.delivered_requests[0].ack_floor, 1u);
  EXPECT_EQ(h.server_requests, 1) << "a failed call's copy was executed";
  EXPECT_EQ(h.net->stats().rpc_acked_dropped, 2u);
  EXPECT_EQ(h.late_replies, 0);
}

TEST(RpcEndpointTest, FloorStaysBelowEveryPendingCallToTheDestination) {
  // Three overlapping calls to one server: each request's floor stays
  // below the oldest of them still pending, so none acknowledges a call
  // whose retransmission could still come. Only the call made after the
  // first two finished acknowledges them.
  RpcHarness h(Millis(2));
  RpcPolicy policy;
  int answered = 0;
  auto call = [&](uint64_t n) {
    return h.client->Call(1, AbortRequest{TxnId{0, n}}, policy,
                          [&](Result<Payload> r) { answered += r.ok(); });
  };
  uint64_t a = call(1);
  uint64_t b = call(2);
  h.sim.RunToQuiescence();
  uint64_t c = call(3);
  h.sim.RunToQuiescence();
  EXPECT_EQ(answered, 3);
  ASSERT_EQ(h.delivered_requests.size(), 3u);
  EXPECT_EQ(h.delivered_requests[0].rpc_id, a);
  EXPECT_EQ(h.delivered_requests[0].ack_floor, a - 1);
  EXPECT_EQ(h.delivered_requests[1].rpc_id, b);
  EXPECT_EQ(h.delivered_requests[1].ack_floor, a - 1) << "acked a pending call";
  EXPECT_EQ(h.delivered_requests[2].rpc_id, c);
  EXPECT_EQ(h.delivered_requests[2].ack_floor, c - 1);
  EXPECT_EQ(h.server->window_entries(), 1u);
}

TEST(RpcEndpointTest, RetryForeverCallPinsOnlyItsDestinationsFloor) {
  // A retry-forever call to a down site must not hold back what the
  // caller acknowledges elsewhere: calls to site 1 carry rising floors,
  // and site 1's window keeps only the call no later one has
  // acknowledged yet, while every attempt to site 2 keeps acknowledging
  // nothing past the stuck call.
  RpcHarness h(Millis(2));
  h.net->SetSiteUp(2, false);
  RpcPolicy forever;
  forever.timeout = Millis(10);
  forever.max_attempts = 0;
  forever.backoff_base = Millis(2);
  forever.jitter = 0;
  int stuck_done = 0;
  uint64_t stuck = h.client->Call(2, AbortRequest{TxnId{0, 100}}, forever,
                                  [&](Result<Payload> r) {
                                    stuck_done += r.ok();
                                  });
  RpcPolicy policy;
  int answered = 0;
  size_t peak_entries = 0;
  for (uint64_t i = 0; i < 20; ++i) {
    h.client->Call(1, AbortRequest{TxnId{0, i}}, policy,
                   [&](Result<Payload> r) { answered += r.ok(); });
    h.sim.RunUntil(h.sim.Now() + Millis(5));
    peak_entries = std::max(peak_entries, h.server->window_entries());
  }
  EXPECT_EQ(answered, 20);
  EXPECT_EQ(h.client->pending_calls(), 1u);
  ASSERT_EQ(h.delivered_requests.size(), 20u);
  for (const Message& m : h.delivered_requests) {
    EXPECT_EQ(m.ack_floor, m.rpc_id - 1) << "floor pinned by the call to 2";
  }
  EXPECT_EQ(peak_entries, 1u);
  EXPECT_EQ(h.server->window_entries(), 1u);

  // Site 2 comes back: its retransmissions acknowledged nothing at or
  // above the stuck call, so the call completes normally.
  h.delivered_requests.clear();
  h.net->SetSiteUp(2, true);
  h.sim.RunUntil(h.sim.Now() + Seconds(1));
  EXPECT_EQ(stuck_done, 1);
  ASSERT_FALSE(h.delivered_requests.empty());
  for (const Message& m : h.delivered_requests) {
    EXPECT_EQ(m.rpc_id, stuck);
    EXPECT_EQ(m.ack_floor, stuck - 1);
  }
  EXPECT_EQ(h.net->stats().rpc_acked_dropped, 0u);
}

TEST(RpcEndpointTest, FloorsAreRelearnedAfterReset) {
  // A crash forgets every sender's floor, so a late copy that arrives
  // first is served again (as before acknowledgements existed). The
  // sender's next request sets the floor again and drops the rest.
  RpcHarness h(Millis(2));
  ASSERT_TRUE(h.server->Accept(ForgedRequest(0, 1, 10, /*ack=*/9)).ctx.valid());
  h.server->Reset();
  EXPECT_EQ(h.server->window_entries(), 0u);
  RpcDelivery early = h.server->Accept(ForgedRequest(0, 1, 8));
  EXPECT_TRUE(early.ctx.valid()) << "floors survived the crash";

  RpcDelivery next = h.server->Accept(ForgedRequest(0, 1, 12, /*ack=*/11));
  ASSERT_TRUE(next.ctx.valid());
  EXPECT_EQ(h.server->window_entries(), 1u) << "id 8 was acknowledged";
  RpcDelivery late = h.server->Accept(ForgedRequest(0, 1, 10, /*ack=*/9));
  EXPECT_TRUE(late.consumed);
  EXPECT_FALSE(late.ctx.valid());
  EXPECT_EQ(h.net->stats().rpc_acked_dropped, 1u);
}

TEST(RpcEndpointTest, ForgedFloorAtOrAboveOwnIdIsIgnored) {
  // No honest sender acknowledges the call it is making. A request whose
  // floor reaches its own id is counted and served, and its floor is
  // never applied: it drops neither itself nor anything else.
  RpcHarness h(Millis(2));
  RpcDelivery first = h.server->Accept(ForgedRequest(0, 1, 5));
  ASSERT_TRUE(first.ctx.valid());
  h.server->Reply(first.ctx, Ack{TxnId{0, 5}});
  for (uint64_t ack : {6u, 100u}) {
    RpcDelivery forged = h.server->Accept(ForgedRequest(0, 1, 6, ack));
    EXPECT_EQ(forged.ctx.valid(), ack == 6u) << "second copy is a duplicate";
  }
  EXPECT_EQ(h.net->stats().rpc_bad_ack_floors, 2u);
  EXPECT_EQ(h.net->stats().rpc_acked_dropped, 0u);
  EXPECT_EQ(h.server->window_entries(), 2u);
  // Id 5 is still cached: its duplicate is re-answered.
  RpcDelivery dup = h.server->Accept(ForgedRequest(0, 1, 5));
  EXPECT_TRUE(dup.consumed);
  EXPECT_EQ(h.net->stats().rpc_duplicates_suppressed, 2u);
  h.sim.RunToQuiescence();
  std::string render = h.net->stats().Render();
  EXPECT_NE(render.find("rpc bad ack floors (ignored): 2"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Replies cached in wire form
// ---------------------------------------------------------------------------

/// A server endpoint at site 1 fed forged requests by the test; senders
/// 0, 2 and 3 record every message the server sends them.
struct ServerHarness {
  static constexpr SiteId kSenders[] = {0, 2, 3};

  Simulator sim;
  Network net{&sim, FixedLatency(Millis(1)), Rng(5)};
  RpcEndpoint server{&sim, &net, 1, 3};
  std::vector<Message> received;

  ServerHarness() {
    for (SiteId s : kSenders) {
      net.RegisterHandler(s,
                          [this](const Message& m) { received.push_back(m); });
    }
  }

  /// Delivers everything in flight and returns what the senders got.
  std::vector<Message> Flush() {
    sim.RunToQuiescence();
    return std::exchange(received, {});
  }
};

TEST(RpcEndpointTest, EveryReplyKindIsResentByteForByte) {
  ServerHarness h;
  Rng rng(20261017);
  uint64_t id = 0;
  for (int k = 0; k < static_cast<int>(MessageKind::kCount); ++k) {
    MessageKind kind = static_cast<MessageKind>(k);
    for (int round = 0; round < 20; ++round) {
      Payload p = *RandomPayload(kind, rng);
      RpcDelivery first = h.server.Accept(ForgedRequest(0, 1, ++id));
      ASSERT_TRUE(first.ctx.valid());
      h.server.Reply(first.ctx, p);
      ASSERT_EQ(h.Flush().size(), 1u);

      RpcDelivery dup = h.server.Accept(ForgedRequest(0, 1, id));
      EXPECT_TRUE(dup.consumed);
      std::vector<Message> resent = h.Flush();
      ASSERT_EQ(resent.size(), 1u) << MessageKindName(kind);
      EXPECT_TRUE(resent[0].rpc_is_reply);
      EXPECT_EQ(resent[0].rpc_id, id);
      EXPECT_EQ(EncodePayload(resent[0].payload), EncodePayload(p))
          << MessageKindName(kind) << " round " << round;
    }
  }
}

/// The duplicate window as a std::map per sender that holds each
/// answered request's reply as a Payload: the representation RpcEndpoint
/// used before it cached replies in wire form, plus the acknowledgement
/// floor, kept as the reference model of the behaviour the endpoint's
/// one compacted table must reproduce.
class MapWindowModel {
 public:
  struct Outcome {
    bool consumed = false;
    bool fresh = false;             ///< Accept surfaced a valid context
    std::optional<Payload> resent;  ///< the cached reply sent back
  };

  Outcome Accept(SiteId from, uint64_t id, uint64_t ack) {
    Window& w = windows_[from];
    if (ack >= id) {
      ++bad_floors;
    } else if (ack > w.acked) {
      w.acked = ack;
      w.entries.erase(w.entries.begin(), w.entries.upper_bound(ack));
    }
    if (id <= w.acked) {
      ++acked_dropped;
      return {true, false, std::nullopt};
    }
    auto it = w.entries.find(id);
    if (it != w.entries.end()) {
      ++duplicates;
      return {true, false, it->second};
    }
    if (id <= w.floor) ++stale;
    w.entries[id] = std::nullopt;
    while (w.entries.size() > 256) {
      w.floor = std::max(w.floor, w.entries.begin()->first);
      w.entries.erase(w.entries.begin());
    }
    return {false, true, std::nullopt};
  }

  void Reply(SiteId from, uint64_t id, const Payload& p) {
    Window& w = windows_[from];
    auto it = w.entries.find(id);
    if (it != w.entries.end()) it->second = p;
  }

  void Reset() { windows_.clear(); }

  uint64_t Floor(SiteId from) {
    auto it = windows_.find(from);
    return it == windows_.end() ? 0 : it->second.floor;
  }

  uint64_t Acked(SiteId from) {
    auto it = windows_.find(from);
    return it == windows_.end() ? 0 : it->second.acked;
  }

  size_t entries() const {
    size_t n = 0;
    for (const auto& [from, w] : windows_) n += w.entries.size();
    return n;
  }

  uint64_t duplicates = 0;
  uint64_t stale = 0;
  uint64_t acked_dropped = 0;
  uint64_t bad_floors = 0;

 private:
  struct Window {
    uint64_t floor = 0;  ///< evicted at or below
    uint64_t acked = 0;  ///< acknowledged at or below
    /// nullopt while the request is in progress.
    std::map<uint64_t, std::optional<Payload>> entries;
  };
  std::map<SiteId, Window> windows_;
};

TEST(RpcEndpointTest, DuplicateWindowMatchesMapModel) {
  // Seeded random traffic from three senders: fresh ids with gaps, ids
  // that arrive out of order, duplicates of answered and unanswered
  // requests, ids long evicted below the floor and ids on either side
  // of it, second replies to one request, and the odd crash. Requests
  // carry random acknowledgement floors: close behind, lagging far
  // behind (so the window still rotates), none (a pinned floor), and
  // forged ones at or above the request's own id. The endpoint must
  // agree with the model at every step.
  constexpr MessageKind kReplyKinds[] = {
      MessageKind::kAck, MessageKind::kVoteReply, MessageKind::kPrewriteReply,
      MessageKind::kReadReply, MessageKind::kNsLookupReply};
  ServerHarness h;
  MapWindowModel model;
  Rng rng(7);
  std::map<SiteId, uint64_t> top;  // highest id each sender has issued
  struct Surfaced {
    RpcContext ctx;
    bool answered = false;
  };
  std::vector<Surfaced> surfaced;
  uint64_t resends = 0;
  uint64_t second_replies = 0;
  for (int step = 0; step < 40000; ++step) {
    SCOPED_TRACE(step);
    SiteId from = ServerHarness::kSenders[rng.NextUint(3)];
    double r = rng.NextDouble();
    if (r < 0.0002) {
      h.server.Reset();
      model.Reset();
      continue;
    }
    if (r < 0.3 && !surfaced.empty()) {
      // Answer a surfaced request, mostly a recent one; a third stay
      // surfaced and are answered again later, some after the window
      // evicted them.
      size_t n = surfaced.size();
      size_t i = rng.NextBool(0.8)
                     ? n - 1 - rng.NextUint(std::min<size_t>(n, 8))
                     : rng.NextUint(n);
      RpcContext ctx = surfaced[i].ctx;
      if (surfaced[i].answered) ++second_replies;
      surfaced[i].answered = true;
      if (rng.NextBool(0.67)) {
        surfaced[i] = surfaced.back();
        surfaced.pop_back();
      }
      Payload p = *RandomPayload(kReplyKinds[rng.NextUint(5)], rng);
      h.server.Reply(ctx, p);
      model.Reply(ctx.from, ctx.rpc_id, p);
      std::vector<Message> sent = h.Flush();
      ASSERT_EQ(sent.size(), 1u);
      EXPECT_EQ(EncodePayload(sent[0].payload), EncodePayload(p));
      continue;
    }
    uint64_t& hi = top[from];
    uint64_t id;
    if (r < 0.75) {
      id = hi += 1 + rng.NextUint(3);  // fresh, leaving gaps
    } else if (r < 0.9) {
      id = 1 + hi - std::min<uint64_t>(hi, rng.NextUint(12));  // recent
    } else if (r < 0.925 && model.Floor(from) > 0) {
      id = model.Floor(from) + rng.NextUint(2);  // either side of the floor
    } else if (r < 0.95 && model.Acked(from) > 0) {
      id = model.Acked(from) + rng.NextUint(2);  // and of the acked one
    } else {
      id = 1 + rng.NextUint(hi + 1);  // anywhere, often below the floor
    }
    // Sender 0 acknowledges close behind, sender 2 lags far enough
    // behind for its window to rotate, and sender 3's floor is pinned.
    double a = rng.NextDouble();
    uint64_t ack = 0;
    if (a < 0.03) {
      ack = id + rng.NextUint(3);  // forged
    } else if (from == 0 && a < 0.25) {
      ack = id - 1 - rng.NextUint(std::min<uint64_t>(id, 6));
    } else if (from == 2 && a < 0.33 && hi > 1000) {
      ack = hi - 600 - rng.NextUint(400);
    }
    RpcDelivery got = h.server.Accept(ForgedRequest(from, 1, id, ack));
    MapWindowModel::Outcome want = model.Accept(from, id, ack);
    ASSERT_EQ(got.consumed, want.consumed);
    ASSERT_EQ(got.ctx.valid(), want.fresh);
    if (got.ctx.valid()) {
      EXPECT_EQ(got.ctx.from, from);
      EXPECT_EQ(got.ctx.rpc_id, id);
      surfaced.push_back({got.ctx});
    }
    std::vector<Message> sent = h.Flush();
    ASSERT_EQ(sent.size(), want.resent ? 1u : 0u);
    if (want.resent) {
      ++resends;
      EXPECT_TRUE(sent[0].rpc_is_reply);
      EXPECT_EQ(sent[0].rpc_id, id);
      EXPECT_EQ(EncodePayload(sent[0].payload), EncodePayload(*want.resent));
    }
    ASSERT_EQ(h.net.stats().rpc_duplicates_suppressed, model.duplicates);
    ASSERT_EQ(h.net.stats().rpc_stale_readmitted, model.stale);
    ASSERT_EQ(h.net.stats().rpc_acked_dropped, model.acked_dropped);
    ASSERT_EQ(h.net.stats().rpc_bad_ack_floors, model.bad_floors);
    ASSERT_EQ(h.server.window_entries(), model.entries());
  }
  // Every branch was exercised, many times.
  EXPECT_GT(resends, 500u);
  EXPECT_GT(model.duplicates, resends + 500);
  EXPECT_GT(model.stale, 500u);
  EXPECT_GT(second_replies, 500u);
  EXPECT_GT(model.acked_dropped, 500u);
  EXPECT_GT(model.bad_floors, 500u);
  std::printf("  resends %llu, duplicates %llu, stale %llu, acked dropped "
              "%llu, bad floors %llu\n",
              static_cast<unsigned long long>(resends),
              static_cast<unsigned long long>(model.duplicates),
              static_cast<unsigned long long>(model.stale),
              static_cast<unsigned long long>(model.acked_dropped),
              static_cast<unsigned long long>(model.bad_floors));
}

// ---------------------------------------------------------------------------
// End to end: the full protocol stack over a lossy network
// ---------------------------------------------------------------------------

TEST(RpcLossyNetworkTest, TransactionsCompleteDespiteLoss) {
  // 5% of messages vanish. The RPC layer's retransmissions and
  // duplicate suppression must carry a quorum-consensus / 2PL workload
  // to completion: every transaction either commits or aborts cleanly.
  SystemConfig cfg;
  cfg.seed = 4242;
  cfg.num_sites = 4;
  cfg.message_loss = 0.05;
  cfg.protocols.rcp = RcpKind::kQuorumConsensus;
  cfg.protocols.cc = CcKind::kTwoPhaseLocking;
  cfg.AddUniformItems(40, 100, 3);
  auto sys = RainbowSystem::Create(cfg);
  ASSERT_TRUE(sys.ok());
  RainbowSystem& s = **sys;

  WorkloadConfig wl;
  wl.seed = 17;
  wl.num_txns = 200;
  wl.mpl = 6;
  WorkloadGenerator wlg(&s, wl);
  bool done = false;
  wlg.Run([&] { done = true; });
  s.RunFor(Seconds(60));
  EXPECT_TRUE(done) << "workload did not drain under loss";
  s.RunFor(Seconds(3));

  const ProgressMonitor& mon = s.monitor();
  uint64_t finished = mon.committed() + mon.aborted_total();
  EXPECT_GE(finished, wlg.submitted())
      << "transactions vanished instead of committing or aborting";
  EXPECT_GE(static_cast<double>(finished), 0.99 * 200.0);
  EXPECT_GT(mon.committed(), 100u);
  EXPECT_TRUE(s.CheckReplicaConsistency(false).ok());

  // The loss really exercised the retry machinery.
  const NetworkStats& st = s.net().stats();
  EXPECT_GT(st.dropped[static_cast<size_t>(DropCause::kRandomLoss)], 0u);
  EXPECT_GT(st.rpc_retries, 0u);
  EXPECT_GT(st.rpc_duplicates_suppressed, 0u);

  // And the counters are rendered for operators.
  std::string stats = mon.RenderStatistics(st, Seconds(60));
  EXPECT_NE(stats.find("rpc retries"), std::string::npos);
  EXPECT_NE(stats.find("rpc duplicates suppressed"), std::string::npos);
  EXPECT_NE(stats.find("rpc acknowledged copies dropped"), std::string::npos);
  std::string net_render = st.Render();
  EXPECT_NE(net_render.find("rpc:"), std::string::npos);
  EXPECT_NE(net_render.find("dup_suppressed="), std::string::npos);
  EXPECT_NE(net_render.find("acked_dropped="), std::string::npos);
  // Honest senders never stamp a floor at or above their own call.
  EXPECT_EQ(st.rpc_bad_ack_floors, 0u);
}

}  // namespace
}  // namespace rainbow
