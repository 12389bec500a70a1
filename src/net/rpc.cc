#include "net/rpc.h"

#include <algorithm>
#include <span>
#include <string>

#include "common/status.h"
#include "net/codec.h"

namespace rainbow {

namespace {
/// Bounds each per-sender duplicate window; evicted ids fall below the
/// floor and are treated as old duplicates.
constexpr size_t kWindowCapacity = 256;
/// First capacity of a window's entry and reply-byte arrays. On a large
/// topology most windows stay sparse (a replica hears from most senders
/// only a few times), and growing both arrays one step at a time from
/// empty would allocate more often than one node per request.
constexpr size_t kFirstEntries = 4;
constexpr size_t kFirstReplyBytes = 128;
}  // namespace

RpcEndpoint::RpcEndpoint(Simulator* sim, Network* net, SiteId self,
                         uint64_t seed)
    : sim_(sim),
      net_(net),
      self_(self),
      rng_(seed ^ (0x9e3779b97f4a7c15ULL * (static_cast<uint64_t>(self) + 1))) {
}

RpcEndpoint::~RpcEndpoint() { Reset(); }

uint64_t RpcEndpoint::Call(SiteId to, Payload request,
                           const RpcPolicy& policy, ReplyCallback cb) {
  uint64_t id = next_rpc_id_++;
  PendingCall& c = calls_[id];
  c.to = to;
  c.request = std::move(request);
  c.policy = policy;
  c.cb = std::move(cb);
  c.started_at = sim_->Now();
  net_->stats().rpc_calls++;
  SendAttempt(id);
  return id;
}

bool RpcEndpoint::Cancel(uint64_t call_id) {
  auto it = calls_.find(call_id);
  if (it == calls_.end()) return false;
  it->second.timer.Cancel();
  calls_.erase(it);
  return true;
}

void RpcEndpoint::SendAttempt(uint64_t call_id) {
  auto it = calls_.find(call_id);
  if (it == calls_.end()) return;
  PendingCall& c = it->second;
  c.attempts++;
  NetworkStats& stats = net_->stats();
  stats.rpc_attempts++;
  if (c.attempts > 1) stats.rpc_retries++;
  if (collector_ && collector_->enabled()) {
    bool retry = c.attempts > 1;
    if (retry || collector_->full()) {
      collector_->Emit(TraceRecord{
          sim_->Now(),
          retry ? TraceEventKind::kRpcRetry : TraceEventKind::kRpcAttempt,
          PayloadTxnId(c.request), self_, c.to, kInvalidItem, c.attempts,
          std::string(MessageKindName(MessageKindOf(c.request)))});
    }
  }
  net_->SendRpc(self_, c.to, c.request, call_id, /*is_reply=*/false);
  c.timer = sim_->After(c.policy.timeout,
                        [this, call_id] { OnAttemptTimeout(call_id); });
}

void RpcEndpoint::OnAttemptTimeout(uint64_t call_id) {
  auto it = calls_.find(call_id);
  if (it == calls_.end()) return;
  PendingCall& c = it->second;
  NetworkStats& stats = net_->stats();
  stats.rpc_timeouts++;
  if (c.policy.max_attempts > 0 && c.attempts >= c.policy.max_attempts) {
    stats.rpc_failures++;
    if (collector_ && collector_->enabled()) {
      collector_->Emit(TraceRecord{
          sim_->Now(), TraceEventKind::kRpcFailure, PayloadTxnId(c.request),
          self_, c.to, kInvalidItem, c.attempts,
          std::string(MessageKindName(MessageKindOf(c.request)))});
    }
    ReplyCallback cb = std::move(c.cb);
    SiteId to = c.to;
    int attempts = c.attempts;
    calls_.erase(it);
    if (cb) {
      cb(Status::TimedOut("rpc to site " + std::to_string(to) + " failed (" +
                          std::to_string(attempts) + " attempts)"));
    }
    return;
  }
  SimTime delay = BackoffDelay(c.policy, c.attempts);
  c.timer = sim_->After(delay, [this, call_id] { SendAttempt(call_id); });
}

SimTime RetryBackoffDelay(const RpcPolicy& policy, int retries_so_far,
                          Rng& rng) {
  SimTime base = policy.backoff_base > 0 ? policy.backoff_base : Millis(1);
  int shift = std::min(retries_so_far - 1, 20);
  if (shift < 0) shift = 0;
  SimTime delay = base << shift;
  if (policy.backoff_cap > 0) delay = std::min(delay, policy.backoff_cap);
  if (policy.jitter > 0) {
    double factor = 1.0 + policy.jitter * (2.0 * rng.NextDouble() - 1.0);
    delay = std::max<SimTime>(
        1, static_cast<SimTime>(static_cast<double>(delay) * factor));
  }
  return delay;
}

SimTime RpcEndpoint::BackoffDelay(const RpcPolicy& policy,
                                  int retries_so_far) {
  return RetryBackoffDelay(policy, retries_so_far, rng_);
}

RpcDelivery RpcEndpoint::Accept(const Message& m) {
  RpcDelivery out;
  if (m.rpc_id == 0) return out;  // raw message: dispatch normally

  if (m.rpc_is_reply) {
    out.consumed = true;
    auto it = calls_.find(m.rpc_id);
    if (it == calls_.end()) {
      // Late reply of a finished or cancelled call: dropped, but the
      // owner may need to release replica-side state it represents.
      if (late_reply_) late_reply_(m);
      return out;
    }
    PendingCall call = std::move(it->second);
    calls_.erase(it);
    call.timer.Cancel();
    net_->stats().rpc_latency.Add(sim_->Now() - call.started_at);
    if (call.cb) call.cb(Payload(m.payload));
    return out;
  }

  // Request leg: suppress retransmitted duplicates per sender.
  SenderWindow& w = windows_[m.from];
  if (const Served* s = FindServed(w, m.rpc_id)) {
    out.consumed = true;
    NetworkStats& stats = net_->stats();
    stats.rpc_duplicates_suppressed++;
    if (s->size != 0) {
      // The original was already answered; the reply must have been
      // lost — resend the cached one so the exchange stays idempotent.
      Result<Payload> reply = DecodePayload(
          std::span<const uint8_t>(w.replies).subspan(s->offset, s->size));
      if (reply.ok()) {
        net_->SendRpc(self_, m.from, std::move(reply).value(), m.rpc_id,
                      /*is_reply=*/true);
      } else {
        stats.codec_failures++;
      }
    }
    return out;
  }
  if (m.rpc_id <= w.floor) {
    // The window rotated past this id and its cached reply is gone. The
    // sender is still retransmitting, so its call is still pending:
    // suppressing silently would starve it forever (fatal for
    // retry-forever calls such as decision queries). Request handlers
    // are duplicate-tolerant, so re-admit it as a fresh request and let
    // the application answer again. It is not recorded: the window is
    // full of higher ids, so it would be the next one evicted anyway.
    net_->stats().rpc_stale_readmitted++;
  } else {
    Admit(w, m.rpc_id);
  }
  out.ctx = RpcContext{m.from, m.rpc_id};
  return out;
}

void RpcEndpoint::Reply(const RpcContext& ctx, Payload payload) {
  if (!ctx.valid()) return;
  auto wit = windows_.find(ctx.from);
  Served* s = wit == windows_.end() ? nullptr
                                    : FindServed(wit->second, ctx.rpc_id);
  if (s != nullptr) {
    SenderWindow& w = wit->second;
    std::span<const uint8_t> wire = EncodePayloadTo(encode_, payload);
    w.live_bytes += static_cast<uint32_t>(wire.size()) - s->size;
    s->offset = static_cast<uint32_t>(w.replies.size());
    s->size = static_cast<uint32_t>(wire.size());
    if (w.replies.capacity() == 0) w.replies.reserve(kFirstReplyBytes);
    w.replies.insert(w.replies.end(), wire.begin(), wire.end());
    MaybeCompact(w);
  }
  net_->SendRpc(self_, ctx.from, std::move(payload), ctx.rpc_id,
                /*is_reply=*/true);
}

void RpcEndpoint::Reset() {
  for (auto& [id, call] : calls_) call.timer.Cancel();
  calls_.clear();
  windows_.clear();
}

std::vector<RpcEndpoint::Served>::iterator RpcEndpoint::FirstAtOrAbove(
    SenderWindow& w, uint64_t id) {
  return std::lower_bound(
      w.entries.begin() + w.head, w.entries.end(), id,
      [](const Served& s, uint64_t v) { return s.id < v; });
}

RpcEndpoint::Served* RpcEndpoint::FindServed(SenderWindow& w,
                                              uint64_t id) {
  if (w.entries.size() == w.head || id > w.entries.back().id) return nullptr;
  auto it = FirstAtOrAbove(w, id);
  return it->id == id ? &*it : nullptr;
}

void RpcEndpoint::Admit(SenderWindow& w, uint64_t id) {
  if (w.entries.capacity() == 0) w.entries.reserve(kFirstEntries);
  // One sender's ids arrive almost in order, so the new id usually goes
  // at the end; FindServed() has already ruled out a duplicate.
  auto pos = w.entries.end();
  if (w.entries.size() > w.head && id < w.entries.back().id) {
    pos = FirstAtOrAbove(w, id);
  }
  w.entries.insert(pos, Served{id, 0, 0});
  if (w.entries.size() - w.head > kWindowCapacity) {
    const Served& oldest = w.entries[w.head++];
    w.floor = oldest.id;  // every live id is above the old floor
    w.live_bytes -= oldest.size;
    MaybeCompact(w);
  }
}

void RpcEndpoint::MaybeCompact(SenderWindow& w) {
  // Compacts once the evicted entries and the dead reply bytes take half
  // as much room as the live ones, so a window holds about 1.5 times its
  // live part at most. A compaction copies the live part once, and at
  // least half as much died since the last one: amortized O(1) per
  // request.
  size_t live = (w.entries.size() - w.head) * sizeof(Served) + w.live_bytes;
  size_t dead = w.head * sizeof(Served) + (w.replies.size() - w.live_bytes);
  if (dead == 0 || 2 * dead < live) return;
  compact_.clear();
  size_t out = 0;
  for (size_t i = w.head; i < w.entries.size(); ++i) {
    Served s = w.entries[i];
    if (s.size != 0) {
      auto bytes = w.replies.begin() + s.offset;
      s.offset = static_cast<uint32_t>(compact_.size());
      compact_.insert(compact_.end(), bytes, bytes + s.size);
    }
    w.entries[out++] = s;
  }
  w.entries.resize(out);
  w.head = 0;
  // Copied back rather than swapped, so each window keeps its own
  // capacity and a rotating window stops allocating.
  w.replies.assign(compact_.begin(), compact_.end());
}

}  // namespace rainbow
