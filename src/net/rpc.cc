#include "net/rpc.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <span>
#include <string>

#include "common/status.h"
#include "net/codec.h"

namespace rainbow {

namespace {
/// Bounds what one sender can leave cached while its acknowledgement
/// floor stays pinned (its oldest call here never finishes): past it the
/// sender's lowest id is evicted, and a later copy of an evicted id is
/// re-admitted.
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
  net_->SendRpc(self_, c.to, c.request, call_id, /*is_reply=*/false,
                AckFloor(c.to));
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

uint64_t RpcEndpoint::AckFloor(SiteId to) const {
  // calls_ is ordered by id, so the first call to `to` is the oldest one
  // still pending there; the call being sent is one of them.
  for (const auto& [id, call] : calls_) {
    if (call.to == to) return id - 1;
  }
  return 0;
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

  // Request leg. First learn what the sender has finished with.
  NetworkStats& stats = net_->stats();
  SenderFloors& f = FloorsOf(m.from);
  if (m.ack_floor >= m.rpc_id) {
    // No honest sender acknowledges the call it is making: applying
    // this floor would let a forged request drop itself.
    stats.rpc_bad_ack_floors++;
  } else if (m.ack_floor > f.acked) {
    f.acked = m.ack_floor;
    if (f.live > 0) {
      // The sender's live entries start its run, lowest id first.
      ServedIter first = FirstAtOrAbove(m.from, 1);
      ServedIter last = first;
      while (last != served_.end() && last->from == m.from &&
             last->id <= f.acked) {
        ++last;
      }
      Forget(f, first, last);
    }
  }
  if (m.rpc_id <= f.acked) {
    // A late copy of a call that has finished at the sender: nobody
    // waits for its reply, and executing it would leave orphaned state.
    out.consumed = true;
    stats.rpc_acked_dropped++;
    return out;
  }

  // Then suppress retransmitted duplicates.
  ServedIter pos = FirstAtOrAbove(m.from, m.rpc_id);
  if (pos != served_.end() && pos->from == m.from && pos->id == m.rpc_id) {
    const Served* s = &*pos;
    out.consumed = true;
    stats.rpc_duplicates_suppressed++;
    if (s->size != 0) {
      // The original was already answered; the reply must have been
      // lost — resend the cached one so the exchange stays idempotent.
      Result<Payload> reply = DecodePayload(
          std::span<const uint8_t>(replies_).subspan(s->offset, s->size));
      if (reply.ok()) {
        net_->SendRpc(self_, m.from, std::move(reply).value(), m.rpc_id,
                      /*is_reply=*/true, /*ack_floor=*/0);
      } else {
        stats.codec_failures++;
      }
    }
    return out;
  }
  if (m.rpc_id <= f.evicted) {
    // The window rotated past this id and its cached reply is gone. The
    // sender is still retransmitting, so its call is still pending:
    // suppressing silently would starve it forever (fatal for
    // retry-forever calls such as decision queries). Request handlers
    // are duplicate-tolerant, so re-admit it as a fresh request and let
    // the application answer again. It is not recorded: the sender's
    // window is full of higher ids, so it would be the next one evicted
    // anyway.
    stats.rpc_stale_readmitted++;
  } else {
    Admit(f, pos, m.rpc_id);
  }
  out.ctx = RpcContext{m.from, m.rpc_id};
  return out;
}

void RpcEndpoint::Reply(const RpcContext& ctx, Payload payload) {
  if (!ctx.valid()) return;
  if (Served* s = FindServed(ctx.from, ctx.rpc_id)) {
    std::span<const uint8_t> wire = EncodePayloadTo(encode_, payload);
    live_bytes_ = live_bytes_ + wire.size() - s->size;
    s->offset = static_cast<uint32_t>(replies_.size());
    s->size = static_cast<uint32_t>(wire.size());
    replies_.insert(replies_.end(), wire.begin(), wire.end());
    MaybeCompact();
  }
  net_->SendRpc(self_, ctx.from, std::move(payload), ctx.rpc_id,
                /*is_reply=*/true, /*ack_floor=*/0);
}

void RpcEndpoint::Reset() {
  for (auto& [id, call] : calls_) call.timer.Cancel();
  calls_.clear();
  served_.clear();
  live_entries_ = 0;
  replies_.clear();
  live_bytes_ = 0;
  senders_.clear();
}

RpcEndpoint::SenderFloors& RpcEndpoint::FloorsOf(SiteId from) {
  auto it = std::lower_bound(
      senders_.begin(), senders_.end(), from,
      [](const SenderFloors& f, SiteId v) { return f.from < v; });
  if (it == senders_.end() || it->from != from) {
    it = senders_.insert(it, SenderFloors{0, 0, from, 0});
  }
  return *it;
}

RpcEndpoint::ServedIter RpcEndpoint::FirstAtOrAbove(SiteId from,
                                                    uint64_t id) {
  return std::lower_bound(
      served_.begin(), served_.end(), std::pair{from, id},
      [](const Served& s, const std::pair<SiteId, uint64_t>& key) {
        return s.from != key.first ? s.from < key.first : s.id < key.second;
      });
}

RpcEndpoint::Served* RpcEndpoint::FindServed(SiteId from, uint64_t id) {
  auto it = FirstAtOrAbove(from, id);
  return it != served_.end() && it->from == from && it->id == id ? &*it
                                                                 : nullptr;
}

void RpcEndpoint::Forget(SenderFloors& f, ServedIter first,
                         ServedIter last) {
  // Leaves tombstones: id 0 sorts first in its sender's run, so the
  // table stays sorted without moving anything.
  for (ServedIter it = first; it != last; ++it) {
    live_bytes_ -= it->size;
    *it = Served{0, it->from, 0, 0};
  }
  f.live -= static_cast<uint32_t>(last - first);
  live_entries_ -= static_cast<size_t>(last - first);
  MaybeCompact();
}

void RpcEndpoint::Admit(SenderFloors& f, ServedIter pos, uint64_t id) {
  // `pos` is the new entry's place, and it is not a duplicate. A
  // tombstone on either side of it can take the entry and keep the table
  // sorted: the usual request acknowledges its sender's previous one and
  // lands in that one's slot.
  const Served fresh{id, f.from, 0, 0};
  if (pos != served_.end() && pos->id == 0) {
    *pos = fresh;
  } else if (pos != served_.begin() && std::prev(pos)->id == 0) {
    *std::prev(pos) = fresh;
  } else {
    served_.insert(pos, fresh);
  }
  ++f.live;
  ++live_entries_;
  if (f.live > kWindowCapacity) {
    ServedIter oldest = FirstAtOrAbove(f.from, 1);
    f.evicted = oldest->id;  // every live id is above both floors
    Forget(f, oldest, std::next(oldest));
  }
}

void RpcEndpoint::MaybeCompact() {
  // Compacts once tombstones and dead reply bytes take half as much room
  // as the live entries and bytes, so the table holds about 1.5 times
  // its live part at most. A compaction moves the live part once and
  // sorts the entries twice, and at least half as much died since the
  // last one.
  size_t live = live_entries_ * sizeof(Served) + live_bytes_;
  size_t dead = (served_.size() - live_entries_) * sizeof(Served) +
                replies_.size() - live_bytes_;
  if (dead == 0 || 2 * dead < live) return;
  served_.erase(std::remove_if(served_.begin(), served_.end(),
                               [](const Served& s) { return s.id == 0; }),
                served_.end());
  if (replies_.size() == live_bytes_) return;
  // Slides the live bytes down in offset order, in place, so both arrays
  // keep their capacity and a steady state allocates nothing. Replies
  // usually come back in request order, so the table often is in offset
  // order already; otherwise it is sorted by offset and back.
  bool in_order = true;
  uint32_t end = 0;  // of the last cached reply seen
  for (const Served& s : served_) {
    if (s.size == 0) continue;
    if (s.offset < end) {
      in_order = false;
      break;
    }
    end = s.offset + s.size;
  }
  if (!in_order) {
    std::sort(served_.begin(), served_.end(),
              [](const Served& a, const Served& b) {
                return a.offset < b.offset;
              });
  }
  uint32_t out = 0;
  for (Served& s : served_) {
    if (s.size == 0) continue;
    std::memmove(replies_.data() + out, replies_.data() + s.offset, s.size);
    s.offset = out;
    out += s.size;
  }
  replies_.resize(out);
  if (!in_order) {
    std::sort(served_.begin(), served_.end(),
              [](const Served& a, const Served& b) {
                return a.from != b.from ? a.from < b.from : a.id < b.id;
              });
  }
}

}  // namespace rainbow
