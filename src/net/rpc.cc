#include "net/rpc.h"

#include <algorithm>
#include <string>

#include "common/status.h"

namespace rainbow {

namespace {
/// Bounds each per-sender duplicate window; evicted ids fall below the
/// floor and are treated as old duplicates.
constexpr size_t kWindowCapacity = 256;
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
  auto it = w.entries.find(m.rpc_id);
  if (it != w.entries.end()) {
    out.consumed = true;
    net_->stats().rpc_duplicates_suppressed++;
    if (it->second.done) {
      // The original was already answered; the reply must have been
      // lost — resend the cached one so the exchange stays idempotent.
      net_->SendRpc(self_, m.from, it->second.reply, m.rpc_id,
                    /*is_reply=*/true);
    }
    return out;
  }
  if (m.rpc_id <= w.floor) {
    // The window rotated past this id and its cached reply is gone. The
    // sender is still retransmitting, so its call is still pending:
    // suppressing silently would starve it forever (fatal for
    // retry-forever calls such as decision queries). Request handlers
    // are duplicate-tolerant, so re-admit it as a fresh request and let
    // the application answer again.
    net_->stats().rpc_stale_readmitted++;
  }
  w.entries[m.rpc_id] = ServedRequest{};
  TrimWindow(w);
  out.ctx = RpcContext{m.from, m.rpc_id};
  return out;
}

void RpcEndpoint::Reply(const RpcContext& ctx, Payload payload) {
  if (!ctx.valid()) return;
  SenderWindow& w = windows_[ctx.from];
  auto it = w.entries.find(ctx.rpc_id);
  if (it != w.entries.end()) {
    it->second.done = true;
    it->second.reply = payload;
  }
  net_->SendRpc(self_, ctx.from, std::move(payload), ctx.rpc_id,
                /*is_reply=*/true);
}

void RpcEndpoint::Reset() {
  for (auto& [id, call] : calls_) call.timer.Cancel();
  calls_.clear();
  windows_.clear();
}

void RpcEndpoint::TrimWindow(SenderWindow& w) {
  while (w.entries.size() > kWindowCapacity) {
    w.floor = std::max(w.floor, w.entries.begin()->first);
    w.entries.erase(w.entries.begin());
  }
}

}  // namespace rainbow
