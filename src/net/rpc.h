#ifndef RAINBOW_NET_RPC_H_
#define RAINBOW_NET_RPC_H_

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/trace.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace rainbow {

/// Retry/timeout policy for one RPC call. Each attempt gets `timeout`
/// to produce a reply; after a timeout the request is retransmitted with
/// exponential backoff: delay doubles per retry from `backoff_base` up
/// to `backoff_cap`, scaled by a deterministic jitter factor drawn
/// uniformly from [1 - jitter, 1 + jitter]. With `max_attempts == 0`
/// the call retries forever (used where the protocol must eventually
/// hear from a recovering peer, e.g. decision queries).
struct RpcPolicy {
  SimTime timeout = Millis(80);  ///< per-attempt reply deadline
  int max_attempts = 3;          ///< total attempts incl. the first; 0 = ∞
  SimTime backoff_base = Millis(2);
  SimTime backoff_cap = Millis(200);
  double jitter = 0.25;
};

/// Replica-side handle identifying the request a reply answers. Invalid
/// (rpc_id == 0) for messages that did not arrive as RPC requests, e.g.
/// one-way sends or raw messages injected by tests.
struct RpcContext {
  SiteId from = kInvalidSite;
  uint64_t rpc_id = 0;

  bool valid() const { return rpc_id != 0; }
};

/// Delay before retry number `retries_so_far` (1-based) under `policy`:
/// capped exponential backoff with jitter drawn from `rng`. Shared by
/// RpcEndpoint and the workload generator's client-level restarts.
SimTime RetryBackoffDelay(const RpcPolicy& policy, int retries_so_far,
                          Rng& rng);

/// Result of feeding a delivered message through RpcEndpoint::Accept.
struct RpcDelivery {
  /// True if the endpoint fully handled the message (a reply that
  /// completed a pending call, or a duplicate request that was
  /// suppressed). The application must not process consumed messages.
  bool consumed = false;
  /// Valid iff the message is a fresh RPC request; pass it back to
  /// Reply() once the application has an answer.
  RpcContext ctx;
};

/// One endpoint of the typed RPC sub-layer, layered on Network. Every
/// site (and the name server) owns one. It plays both roles:
///
///  * Client: Call() stamps a correlation id on the request, arms one
///    per-attempt timer, retransmits with exponential backoff +
///    deterministic jitter, and reports the reply — or terminal failure
///    after max_attempts — to the caller as a Result<Payload>. The
///    correlation id stays stable across retransmissions. Every attempt
///    also carries the endpoint's acknowledgement floor for that
///    destination: one below its oldest call there still pending, so
///    every call to it at or below the floor is finished (answered,
///    failed or cancelled) and will never be retransmitted. A
///    retry-forever call pins only its own destination's floor.
///  * Replica: Accept() routes delivered messages. Replies complete
///    pending calls; duplicate requests (retransmissions whose original
///    arrived) are suppressed — if the original was already answered
///    the cached reply is resent, so resent ReadRequest /
///    PrewriteRequest / Decision messages are idempotent. A request's
///    floor lets the replica forget every call of that sender at or
///    below it (Birrell and Nelson's implicit acknowledgement: the next
///    call acknowledges the previous result), and a later copy of such
///    a call is dropped unexecuted. So what a replica caches is bounded
///    by its senders' unacknowledged calls: those in flight plus each
///    sender's latest one, which its next call acknowledges.
///
/// Everything is driven by the shared Simulator, and jitter comes from
/// a forked deterministic Rng, so runs remain reproducible.
class RpcEndpoint {
 public:
  using ReplyCallback = std::function<void(Result<Payload>)>;
  using LateReplyHandler = std::function<void(const Message&)>;

  RpcEndpoint(Simulator* sim, Network* net, SiteId self, uint64_t seed);
  ~RpcEndpoint();
  RpcEndpoint(const RpcEndpoint&) = delete;
  RpcEndpoint& operator=(const RpcEndpoint&) = delete;

  /// Starts an RPC call to `to`; `cb` fires exactly once with the reply
  /// payload or a terminal Status, unless the call is cancelled first.
  /// Returns a call id usable with Cancel().
  uint64_t Call(SiteId to, Payload request, const RpcPolicy& policy,
                ReplyCallback cb);

  /// Cancels a pending call without firing its callback. Returns true
  /// if the call was still pending. Safe on unknown / completed ids.
  bool Cancel(uint64_t call_id);

  /// Feeds a message delivered to this site through the RPC layer.
  /// The caller (the site's network handler) should drop messages with
  /// `consumed == true` and otherwise dispatch normally, threading
  /// `ctx` through so request handlers can Reply().
  RpcDelivery Accept(const Message& m);

  /// Sends the reply for a request previously surfaced by Accept() and
  /// caches it so retransmitted duplicates are re-answered. No-op for
  /// invalid contexts (callers handle raw-message replies themselves).
  void Reply(const RpcContext& ctx, Payload payload);

  /// Observes replies that arrive for calls no longer pending (finished
  /// or cancelled). The RPC layer still consumes them, but the owner may
  /// need to compensate — e.g. a granted copy-access reply reaching a
  /// retired coordinator means the replica holds CC state that must be
  /// released explicitly, or it leaks until an orphan timer fires.
  void set_late_reply_handler(LateReplyHandler h) {
    late_reply_ = std::move(h);
  }

  /// Crash semantics: drops every pending call (no callbacks fire) and
  /// forgets the duplicate-suppression windows and senders' floors. A
  /// sender's next request sets its floor again.
  void Reset();

  /// Structured tracing of retries and terminal failures (and, at full
  /// detail, every attempt). Optional; null disables.
  void set_collector(TraceCollector* c) { collector_ = c; }

  size_t pending_calls() const { return calls_.size(); }

  /// Requests the replica side holds: admitted and not yet acknowledged
  /// or evicted, answered or not.
  size_t window_entries() const { return live_entries_; }

  /// Bytes the replica side holds allocated (capacity): the served
  /// table, the cached replies' wire bytes and the senders' floors.
  size_t held_bytes() const {
    return served_.capacity() * sizeof(Served) + replies_.capacity() +
           senders_.capacity() * sizeof(SenderFloors);
  }

 private:
  struct PendingCall {
    SiteId to = kInvalidSite;
    Payload request;
    RpcPolicy policy;
    ReplyCallback cb;
    int attempts = 0;
    SimTime started_at = 0;
    TimerHandle timer;
  };

  /// Replica-side record of one admitted request from `from`: in
  /// progress while `size == 0`; once Reply() caches the answer, its wire
  /// encoding is `replies_[offset, offset + size)` (never empty: every
  /// encoding starts with a kind byte). `id == 0` marks a tombstone.
  struct Served {
    uint64_t id = 0;
    SiteId from = kInvalidSite;
    uint32_t offset = 0;
    uint32_t size = 0;
  };

  /// What the replica keeps of one sender between its requests. Ids at
  /// or below `acked` are finished at the sender: their entries are gone
  /// and later copies are dropped. Ids at or below `evicted` left the
  /// window to hold it at kWindowCapacity entries while the sender's
  /// floor stayed pinned: later copies are re-admitted. `live` counts
  /// the sender's entries in the table.
  struct SenderFloors {
    uint64_t acked = 0;
    uint64_t evicted = 0;
    SiteId from = kInvalidSite;
    uint32_t live = 0;
  };

  using ServedIter = std::vector<Served>::iterator;

  void SendAttempt(uint64_t call_id);
  void OnAttemptTimeout(uint64_t call_id);
  SimTime BackoffDelay(const RpcPolicy& policy, int retries_so_far);
  uint64_t AckFloor(SiteId to) const;
  SenderFloors& FloorsOf(SiteId from);
  ServedIter FirstAtOrAbove(SiteId from, uint64_t id);
  Served* FindServed(SiteId from, uint64_t id);
  void Forget(SenderFloors& f, ServedIter first, ServedIter last);
  void Admit(SenderFloors& f, ServedIter pos, uint64_t id);
  void MaybeCompact();

  Simulator* sim_;
  Network* net_;
  SiteId self_;
  TraceCollector* collector_ = nullptr;
  Rng rng_;
  uint64_t next_rpc_id_ = 1;
  LateReplyHandler late_reply_;
  std::map<uint64_t, PendingCall> calls_;
  /// Replica side, one table for every sender. `served_` is sorted by
  /// (from, id); `live_entries_` of its entries are served, the rest are
  /// tombstones (id 0) of acknowledged or evicted ones. `replies_` holds
  /// the cached replies' bytes, of which `live_bytes_` belong to served
  /// entries; the rest died with an entry or a second reply.
  /// MaybeCompact() drops the dead parts in place. `senders_` is sorted
  /// by sender.
  std::vector<Served> served_;
  size_t live_entries_ = 0;
  std::vector<uint8_t> replies_;
  size_t live_bytes_ = 0;
  std::vector<SenderFloors> senders_;
  /// Reused buffer Reply() encodes into.
  Arena encode_;
};

}  // namespace rainbow

#endif  // RAINBOW_NET_RPC_H_
