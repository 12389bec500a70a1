#include "net/network.h"

#include <algorithm>
#include <sstream>

#include "net/codec.h"

#include "common/string_util.h"

namespace rainbow {

const char* DropCauseName(DropCause c) {
  switch (c) {
    case DropCause::kRandomLoss:
      return "random_loss";
    case DropCause::kLinkDown:
      return "link_down";
    case DropCause::kPartition:
      return "partition";
    case DropCause::kDestinationDown:
      return "destination_down";
    case DropCause::kSourceDown:
      return "source_down";
    case DropCause::kLinkLoss:
      return "link_loss";
    case DropCause::kCount:
      break;
  }
  return "?";
}

uint64_t NetworkStats::total_dropped() const {
  uint64_t n = 0;
  for (uint64_t d : dropped) n += d;
  return n;
}

void NetworkStats::RecordSend(const Message& m, SimTime now,
                              size_t bytes_size) {
  sent++;
  bytes += bytes_size;
  by_kind[static_cast<size_t>(m.kind())]++;
  if (m.from == m.to) {
    local++;
  } else {
    size_t bucket = static_cast<size_t>(now / bucket_width);
    if (bucket >= per_bucket.size()) per_bucket.resize(bucket + 1, 0);
    per_bucket[bucket]++;
  }
}

void NetworkStats::RecordDeliver(const Message& m) {
  delivered++;
  per_site_delivered[m.to]++;
}

namespace {

void AppendPerSiteEntry(std::ostringstream& os, SiteId site, uint64_t count) {
  if (site == kNameServerId) {
    os << " ns=" << count;
  } else {
    os << " s" << site << "=" << count;
  }
}

}  // namespace

void NetworkStats::RecordDrop(DropCause cause) {
  dropped[static_cast<size_t>(cause)]++;
}

std::string NetworkStats::Render() const {
  std::ostringstream os;
  os << StringPrintf(
      "messages: sent=%llu (network=%llu local=%llu) delivered=%llu "
      "dropped=%llu bytes=%llu\n",
      static_cast<unsigned long long>(sent),
      static_cast<unsigned long long>(network_sent()),
      static_cast<unsigned long long>(local),
      static_cast<unsigned long long>(delivered),
      static_cast<unsigned long long>(total_dropped()),
      static_cast<unsigned long long>(bytes));
  if (duplicated > 0) {
    os << StringPrintf("duplicated (injected): %llu\n",
                       static_cast<unsigned long long>(duplicated));
  }
  os << "by kind:";
  for (size_t k = 0; k < by_kind.size(); ++k) {
    if (by_kind[k] == 0) continue;
    os << " " << MessageKindName(static_cast<MessageKind>(k)) << "="
       << by_kind[k];
  }
  os << "\n";
  os << StringPrintf(
      "rpc: calls=%llu attempts=%llu retries=%llu timeouts=%llu "
      "failures=%llu dup_suppressed=%llu acked_dropped=%llu "
      "stale_readmitted=%llu\n",
      static_cast<unsigned long long>(rpc_calls),
      static_cast<unsigned long long>(rpc_attempts),
      static_cast<unsigned long long>(rpc_retries),
      static_cast<unsigned long long>(rpc_timeouts),
      static_cast<unsigned long long>(rpc_failures),
      static_cast<unsigned long long>(rpc_duplicates_suppressed),
      static_cast<unsigned long long>(rpc_acked_dropped),
      static_cast<unsigned long long>(rpc_stale_readmitted));
  if (rpc_bad_ack_floors > 0) {
    os << StringPrintf("rpc bad ack floors (ignored): %llu\n",
                       static_cast<unsigned long long>(rpc_bad_ack_floors));
  }
  if (rpc_latency.count() > 0) {
    os << "rpc latency (us): " << rpc_latency.Summary() << "\n";
  }
  if (!per_site_delivered.empty()) {
    os << "per-site delivered:";
    per_site_delivered.ForEach([&os](SiteId site, uint64_t count) {
      AppendPerSiteEntry(os, site, count);
    });
    os << "\n";
  }
  return os.str();
}

Network::Network(Simulator* sim, LatencyConfig latency, Rng rng)
    : sim_(sim),
      latency_(latency, rng.Fork()),
      site_seed_base_(rng.Next()) {}

void Network::EnsureSiteTables(size_t slot) {
  while (site_rng_.size() <= slot) {
    // Stream seeds are a pure function of (network seed base, slot), so
    // a site's draw sequence does not depend on registration order or
    // on other sites' activity.
    size_t next = site_rng_.size();
    site_rng_.emplace_back(site_seed_base_ ^
                           (0x9e3779b97f4a7c15ULL * (next + 1)));
    site_msg_seq_.push_back(0);
  }
}

void Network::EmitMessageEvent(TraceEventKind kind, const Message& m,
                               SiteId at, const char* note) {
  std::string detail = MessageKindName(m.kind());
  if (note[0] != '\0') {
    detail += " ";
    detail += note;
  }
  collector_->Emit(TraceRecord{sim_->Now(), kind, PayloadTxnId(m.payload),
                               at, at == m.from ? m.to : m.from, kInvalidItem,
                               static_cast<int64_t>(m.rpc_id),
                               std::move(detail)});
}

void Network::RegisterHandler(SiteId site, Handler handler) {
  size_t slot = SiteSlot(site);
  if (slot >= handlers_.size()) handlers_.resize(slot + 1);
  handlers_[slot] = std::move(handler);
  EnsureSiteTables(slot);
}

void Network::SetSiteUp(SiteId site, bool up) {
  size_t slot = SiteSlot(site);
  if (slot >= site_down_.size()) {
    if (up) return;  // never marked down; nothing to restore
    site_down_.resize(slot + 1, 0);
  }
  site_down_[slot] = up ? 0 : 1;
}

bool Network::IsSiteUp(SiteId site) const {
  size_t slot = SiteSlot(site);
  return slot >= site_down_.size() || site_down_[slot] == 0;
}

void Network::SetLinkUp(SiteId a, SiteId b, bool up) {
  auto key = std::minmax(a, b);
  if (up) {
    down_links_.erase({key.first, key.second});
  } else {
    down_links_.insert({key.first, key.second});
  }
}

void Network::SetLinkUpOneWay(SiteId from, SiteId to, bool up) {
  if (up) {
    down_links_oneway_.erase({from, to});
  } else {
    down_links_oneway_.insert({from, to});
  }
}

void Network::SetLinkOverride(SiteId from, SiteId to, LinkOverride o) {
  if (o.identity()) {
    link_overrides_.erase({from, to});
  } else {
    link_overrides_[{from, to}] = o;
  }
}

const LinkOverride* Network::FindLinkOverride(SiteId from, SiteId to) const {
  auto it = link_overrides_.find({from, to});
  return it == link_overrides_.end() ? nullptr : &it->second;
}

void Network::ClearLinkOverrides() { link_overrides_.clear(); }

void Network::SetPartitions(const std::vector<std::vector<SiteId>>& groups) {
  partitioned_ = true;
  partition_group_.clear();
  int32_t g = 0;
  for (const auto& group : groups) {
    for (SiteId s : group) {
      size_t slot = SiteSlot(s);
      if (slot >= partition_group_.size()) {
        partition_group_.resize(slot + 1, -1);
      }
      partition_group_[slot] = g;
    }
    ++g;
  }
}

void Network::HealPartitions() {
  partitioned_ = false;
  partition_group_.clear();
}

bool Network::SameGroup(SiteId a, SiteId b) const {
  if (!partitioned_) return true;
  // Unlisted sites (e.g. the name server) share an implicit group -1.
  size_t slot_a = SiteSlot(a);
  size_t slot_b = SiteSlot(b);
  int32_t group_a =
      slot_a < partition_group_.size() ? partition_group_[slot_a] : -1;
  int32_t group_b =
      slot_b < partition_group_.size() ? partition_group_[slot_b] : -1;
  return group_a == group_b;
}

bool Network::Reachable(SiteId a, SiteId b) const {
  if (a == b) return IsSiteUp(a);
  if (!IsSiteUp(a) || !IsSiteUp(b)) return false;
  if (!down_links_.empty()) {
    auto key = std::minmax(a, b);
    if (down_links_.contains({key.first, key.second})) return false;
  }
  if (!down_links_oneway_.empty() && down_links_oneway_.contains({a, b})) {
    return false;
  }
  return SameGroup(a, b);
}

void Network::Send(SiteId from, SiteId to, Payload payload) {
  Message msg;
  msg.from = from;
  msg.to = to;
  msg.payload = std::move(payload);
  SendMessage(std::move(msg));
}

void Network::SendRpc(SiteId from, SiteId to, Payload payload,
                      uint64_t rpc_id, bool is_reply, uint64_t ack_floor) {
  Message msg;
  msg.from = from;
  msg.to = to;
  msg.rpc_id = rpc_id;
  msg.rpc_is_reply = is_reply;
  msg.ack_floor = ack_floor;
  msg.payload = std::move(payload);
  SendMessage(std::move(msg));
}

void Network::SendMessage(Message msg) {
  size_t from_slot = SiteSlot(msg.from);
  EnsureSiteTables(from_slot);
  Rng& rng = SiteRng(from_slot);
  msg.id = NextMsgId(from_slot);
  msg.sent_at = sim_->Now();

  const size_t size = EncodedPayloadSize(msg.payload) + kEnvelopeBytes;
  if (verify_codec_) {
    // Arena-backed round trip: encode into the reusable arena and
    // decode the view in place — no per-message buffer allocation or
    // copy on codec-verified runs. A pure check: `size` is the same
    // with the flag off, so the simulated execution does not change.
    std::span<const uint8_t> wire = EncodePayloadTo(arena_, msg.payload);
    Result<Payload> decoded = DecodePayload(wire);
    if (!decoded.ok() || wire.size() + kEnvelopeBytes != size) {
      stats_.codec_failures++;
      return;
    }
    msg.payload = std::move(decoded).value();
  }
  stats_.RecordSend(msg, sim_->Now(), size);

  if (!IsSiteUp(msg.from)) {
    stats_.RecordDrop(DropCause::kSourceDown);
    if (collector_ && collector_->full()) {
      EmitMessageEvent(TraceEventKind::kMsgDrop, msg, msg.from,
                       DropCauseName(DropCause::kSourceDown));
    }
    return;
  }
  if (msg.from != msg.to && loss_probability_ > 0 &&
      rng.NextBool(loss_probability_)) {
    stats_.RecordDrop(DropCause::kRandomLoss);
    if (collector_ && collector_->full()) {
      EmitMessageEvent(TraceEventKind::kMsgDrop, msg, msg.from,
                       DropCauseName(DropCause::kRandomLoss));
    }
    return;
  }

  SimTime delay = latency_.SampleDelay(msg.from, msg.to, size, rng);
  bool duplicate = false;
  // Per-link fault overrides. The emptiness check is the entire cost of
  // this feature on a fault-free run.
  if (!link_overrides_.empty() && msg.from != msg.to) {
    if (const LinkOverride* o = FindLinkOverride(msg.from, msg.to)) {
      if (o->loss > 0 && rng.NextBool(o->loss)) {
        stats_.RecordDrop(DropCause::kLinkLoss);
        if (collector_ && collector_->full()) {
          EmitMessageEvent(TraceEventKind::kMsgDrop, msg, msg.from,
                           DropCauseName(DropCause::kLinkLoss));
        }
        return;
      }
      if (o->delay_multiplier != 1.0) {
        delay = static_cast<SimTime>(static_cast<double>(delay) *
                                     o->delay_multiplier);
      }
      if (o->reorder_jitter > 0) {
        // Independent uniform jitter per message lets later sends
        // overtake earlier ones — bounded reordering, bounded by the
        // jitter window.
        delay += static_cast<SimTime>(
            rng.NextUint(static_cast<uint64_t>(o->reorder_jitter) + 1));
      }
      duplicate = o->dup_probability > 0 && rng.NextBool(o->dup_probability);
    }
  }
  // Cross-site messages take at least one tick, even when a
  // delay_multiplier shrinks the sample to zero, so a request and its
  // reply never share an instant.
  if (msg.from != msg.to) delay = std::max<SimTime>(delay, 1);
  if (collector_ && collector_->full()) {
    EmitMessageEvent(TraceEventKind::kMsgSend, msg, msg.from, "");
  }
  if (duplicate) {
    // The duplicate travels independently: its own delay sample (plus
    // the same override treatment minus further duplication), so it can
    // arrive before OR after the original.
    stats_.duplicated++;
    SimTime dup_delay = latency_.SampleDelay(msg.from, msg.to, size, rng);
    if (const LinkOverride* o = FindLinkOverride(msg.from, msg.to)) {
      if (o->delay_multiplier != 1.0) {
        dup_delay = static_cast<SimTime>(static_cast<double>(dup_delay) *
                                         o->delay_multiplier);
      }
      if (o->reorder_jitter > 0) {
        dup_delay += static_cast<SimTime>(
            rng.NextUint(static_cast<uint64_t>(o->reorder_jitter) + 1));
      }
    }
    dup_delay = std::max<SimTime>(dup_delay, 1);
    // The injected copy is its own wire-level message: it gets a fresh
    // network id (so per-message accounting and trace timelines can
    // tell the copies apart, and same-tick arrivals order by id) while
    // keeping the rpc_id, which is what duplicate suppression keys on.
    // The original is handed to ScheduleDelivery first so per-sender
    // arrivals there are monotone in id — the invariant delivery
    // batching relies on. Same-tick ordering is by id either way.
    Message dup = msg;
    dup.id = NextMsgId(from_slot);
    ScheduleDelivery(std::move(msg), delay);
    ScheduleDelivery(std::move(dup), dup_delay);
    return;
  }
  ScheduleDelivery(std::move(msg), delay);
}

uint32_t Network::AcquireSlot() {
  if (!pool_free_.empty()) {
    uint32_t slot = pool_free_.back();
    pool_free_.pop_back();
    return slot;
  }
  uint32_t slot = static_cast<uint32_t>(pool_.size());
  pool_.emplace_back();
  pool_next_.push_back(kNoSlot);
  return slot;
}

void Network::ScheduleDelivery(Message msg, SimTime delay) {
  SimTime when = sim_->Now() + delay;
  // The delivery's ordering key: same-tick arrivals at a destination
  // execute in (sender, per-sender sequence) order — a pure function of
  // message identity.
  uint64_t key = msg.id;
  uint32_t slot = AcquireSlot();
  uint32_t sender_slot = static_cast<uint32_t>(SiteSlot(msg.from));
  uint32_t dst_slot = static_cast<uint32_t>(SiteSlot(msg.to));
  pool_[slot] = std::move(msg);
  pool_next_[slot] = kNoSlot;

  // Same-tick batching: if the destination's open batch matches this
  // (sender, destination, instant), chain the message onto it — no new
  // event. Appends keep the batch's ids contiguous and increasing (see
  // Batch): SendMessage hands messages over in per-sender id order.
  if (dst_slot < open_batch_.size()) {
    uint32_t open = open_batch_[dst_slot];
    if (open != kNoSlot) {
      Batch& b = batches_[open];
      if (b.open && b.when == when && b.sender_slot == sender_slot) {
        pool_next_[b.tail] = slot;
        b.tail = slot;
        return;
      }
    }
  }

  // Open a new batch for this (sender, destination, instant); it
  // supersedes whatever batch was open for the destination before.
  uint32_t batch_idx;
  if (!batch_free_.empty()) {
    batch_idx = batch_free_.back();
    batch_free_.pop_back();
  } else {
    batch_idx = static_cast<uint32_t>(batches_.size());
    batches_.emplace_back();
  }
  Batch& b = batches_[batch_idx];
  b.head = b.tail = slot;
  b.when = when;
  b.sender_slot = sender_slot;
  b.dst_slot = dst_slot;
  b.open = true;
  if (dst_slot >= open_batch_.size()) {
    open_batch_.resize(dst_slot + 1, kNoSlot);
  }
  open_batch_[dst_slot] = batch_idx;

  auto thunk = [this, batch_idx] { DeliverBatch(batch_idx); };
  static_assert(sizeof(thunk) <= EventQueue::kInlineCallbackBytes,
                "delivery closure must fit the event queue's inline "
                "callback storage (the zero-allocation hot path)");
  sim_->AtKeyed(when, key, std::move(thunk));
}

void Network::DeliverBatch(uint32_t batch_idx) {
  uint32_t slot;
  {
    // Handlers invoked below may send, growing `batches_` — don't hold
    // the reference across the walk.
    Batch& b = batches_[batch_idx];
    b.open = false;
    if (open_batch_[b.dst_slot] == batch_idx) {
      open_batch_[b.dst_slot] = kNoSlot;
    }
    slot = b.head;
  }
  while (slot != kNoSlot) {
    uint32_t next = pool_next_[slot];
    Deliver(pool_[slot]);
    ReleaseSlot(slot);
    slot = next;
  }
  batch_free_.push_back(batch_idx);
}

void Network::Deliver(const Message& msg) {
  // Connectivity is re-checked at delivery time so that faults striking
  // while a message is in flight drop it.
  if (!IsSiteUp(msg.to)) {
    stats_.RecordDrop(DropCause::kDestinationDown);
    if (collector_ && collector_->full()) {
      EmitMessageEvent(TraceEventKind::kMsgDrop, msg, msg.to,
                       DropCauseName(DropCause::kDestinationDown));
    }
    return;
  }
  if (msg.from != msg.to) {
    bool link_down = false;
    if (!down_links_.empty()) {
      auto key = std::minmax(msg.from, msg.to);
      link_down = down_links_.contains({key.first, key.second});
    }
    if (!link_down && !down_links_oneway_.empty()) {
      link_down = down_links_oneway_.contains({msg.from, msg.to});
    }
    if (link_down) {
      stats_.RecordDrop(DropCause::kLinkDown);
      if (collector_ && collector_->full()) {
        EmitMessageEvent(TraceEventKind::kMsgDrop, msg, msg.to,
                         DropCauseName(DropCause::kLinkDown));
      }
      return;
    }
    if (!SameGroup(msg.from, msg.to)) {
      stats_.RecordDrop(DropCause::kPartition);
      if (collector_ && collector_->full()) {
        EmitMessageEvent(TraceEventKind::kMsgDrop, msg, msg.to,
                         DropCauseName(DropCause::kPartition));
      }
      return;
    }
  }
  size_t slot = SiteSlot(msg.to);
  if (slot >= handlers_.size() || !handlers_[slot]) {
    stats_.RecordDrop(DropCause::kDestinationDown);
    return;
  }
  stats_.RecordDeliver(msg);
  if (collector_ && collector_->full()) {
    EmitMessageEvent(TraceEventKind::kMsgRecv, msg, msg.to, "");
  }
  handlers_[slot](msg);
}

}  // namespace rainbow
