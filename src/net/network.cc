#include "net/network.h"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "net/codec.h"
#include "sim/sharded_simulator.h"

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

void NetworkStats::MergeFrom(const NetworkStats& other) {
  sent += other.sent;
  delivered += other.delivered;
  local += other.local;
  bytes += other.bytes;
  duplicated += other.duplicated;
  for (size_t k = 0; k < by_kind.size(); ++k) by_kind[k] += other.by_kind[k];
  for (size_t c = 0; c < dropped.size(); ++c) dropped[c] += other.dropped[c];
  if (other.per_bucket.size() > per_bucket.size()) {
    per_bucket.resize(other.per_bucket.size(), 0);
  }
  for (size_t b = 0; b < other.per_bucket.size(); ++b) {
    per_bucket[b] += other.per_bucket[b];
  }
  per_site_delivered.MergeFrom(other.per_site_delivered);
  codec_failures += other.codec_failures;
  rpc_calls += other.rpc_calls;
  rpc_attempts += other.rpc_attempts;
  rpc_retries += other.rpc_retries;
  rpc_timeouts += other.rpc_timeouts;
  rpc_failures += other.rpc_failures;
  rpc_duplicates_suppressed += other.rpc_duplicates_suppressed;
  rpc_stale_readmitted += other.rpc_stale_readmitted;
  rpc_latency.Merge(other.rpc_latency);
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
      "failures=%llu dup_suppressed=%llu stale_readmitted=%llu\n",
      static_cast<unsigned long long>(rpc_calls),
      static_cast<unsigned long long>(rpc_attempts),
      static_cast<unsigned long long>(rpc_retries),
      static_cast<unsigned long long>(rpc_timeouts),
      static_cast<unsigned long long>(rpc_failures),
      static_cast<unsigned long long>(rpc_duplicates_suppressed),
      static_cast<unsigned long long>(rpc_stale_readmitted));
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
    : latency_(latency, rng.Fork()), site_seed_base_(rng.Next()) {
  lanes_.emplace_back().sim = sim;
}

void Network::EnableSharding(ShardedSimulator* driver,
                             const std::vector<NetworkShardContext>& shards) {
  assert(driver != nullptr && !shards.empty());
  driver_ = driver;
  num_shards_ = static_cast<uint32_t>(shards.size());
  lanes_.clear();
  for (const NetworkShardContext& ctx : shards) {
    Lane& lane = lanes_.emplace_back();
    lane.sim = ctx.sim;
    lane.collector = ctx.collector;
  }
}

uint32_t Network::ShardOf(SiteId site) const {
  return ShardedSimulator::ShardOfSite(site, num_shards_);
}

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

void Network::EmitMessageEvent(Lane& lane, TraceEventKind kind,
                               const Message& m, SiteId at, const char* note) {
  std::string detail = MessageKindName(m.kind());
  if (note[0] != '\0') {
    detail += " ";
    detail += note;
  }
  lane.collector->Emit(TraceRecord{lane.sim->Now(), kind,
                                   PayloadTxnId(m.payload), at,
                                   at == m.from ? m.to : m.from, kInvalidItem,
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

void Network::RecomputeMinDelayMultiplier() {
  min_delay_multiplier_ = 1.0;
  for (const auto& [link, o] : link_overrides_) {
    (void)link;
    min_delay_multiplier_ = std::min(min_delay_multiplier_, o.delay_multiplier);
  }
}

void Network::SetLinkOverride(SiteId from, SiteId to, LinkOverride o) {
  if (o.identity()) {
    link_overrides_.erase({from, to});
  } else {
    link_overrides_[{from, to}] = o;
  }
  RecomputeMinDelayMultiplier();
}

const LinkOverride* Network::FindLinkOverride(SiteId from, SiteId to) const {
  auto it = link_overrides_.find({from, to});
  return it == link_overrides_.end() ? nullptr : &it->second;
}

void Network::ClearLinkOverrides() {
  link_overrides_.clear();
  min_delay_multiplier_ = 1.0;
}

SimTime Network::MinCrossShardDelay() const {
  double mult = std::min(1.0, min_delay_multiplier_);
  SimTime floor = static_cast<SimTime>(
      static_cast<double>(latency_.MinCrossSiteDelay()) * mult);
  return std::max<SimTime>(1, floor);
}

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

const NetworkStats& Network::stats() const {
  if (lanes_.size() == 1) return lanes_[0].stats;
  merged_stats_ = NetworkStats{};
  merged_stats_.bucket_width = lanes_[0].stats.bucket_width;
  for (const Lane& lane : lanes_) merged_stats_.MergeFrom(lane.stats);
  return merged_stats_;
}

NetworkStats& Network::stats_for(SiteId site) { return LaneFor(site).stats; }

void Network::set_stats_bucket_width(SimTime width) {
  for (Lane& lane : lanes_) lane.stats.bucket_width = width;
}

void Network::Send(SiteId from, SiteId to, Payload payload) {
  Message msg;
  msg.from = from;
  msg.to = to;
  msg.payload = std::move(payload);
  SendMessage(std::move(msg));
}

void Network::SendRpc(SiteId from, SiteId to, Payload payload,
                      uint64_t rpc_id, bool is_reply) {
  Message msg;
  msg.from = from;
  msg.to = to;
  msg.rpc_id = rpc_id;
  msg.rpc_is_reply = is_reply;
  msg.payload = std::move(payload);
  SendMessage(std::move(msg));
}

void Network::SendMessage(Message msg) {
  size_t from_slot = SiteSlot(msg.from);
  EnsureSiteTables(from_slot);
  Lane& lane = LaneFor(msg.from);
  Rng& rng = SiteRng(from_slot);
  msg.id = NextMsgId(from_slot);
  msg.sent_at = lane.sim->Now();

  size_t size = PayloadSizeBytes(msg.payload);
  if (verify_codec_) {
    // Arena-backed round trip: encode into the lane's reusable arena
    // and decode the view in place — no per-message buffer allocation
    // or copy on codec-verified runs.
    std::span<const uint8_t> wire = EncodePayloadTo(lane.arena, msg.payload);
    size = wire.size() + 33;  // payload bytes + envelope
    Result<Payload> decoded = DecodePayload(wire);
    if (!decoded.ok()) {
      lane.stats.codec_failures++;
      return;
    }
    msg.payload = std::move(decoded).value();
  }
  lane.stats.RecordSend(msg, lane.sim->Now(), size);

  if (!IsSiteUp(msg.from)) {
    lane.stats.RecordDrop(DropCause::kSourceDown);
    if (lane.collector && lane.collector->full()) {
      EmitMessageEvent(lane, TraceEventKind::kMsgDrop, msg, msg.from,
                       DropCauseName(DropCause::kSourceDown));
    }
    return;
  }
  if (msg.from != msg.to && loss_probability_ > 0 &&
      rng.NextBool(loss_probability_)) {
    lane.stats.RecordDrop(DropCause::kRandomLoss);
    if (lane.collector && lane.collector->full()) {
      EmitMessageEvent(lane, TraceEventKind::kMsgDrop, msg, msg.from,
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
        lane.stats.RecordDrop(DropCause::kLinkLoss);
        if (lane.collector && lane.collector->full()) {
          EmitMessageEvent(lane, TraceEventKind::kMsgDrop, msg, msg.from,
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
  // Cross-site messages take at least one tick: MinCrossShardDelay's
  // guarantee (the conservative lookahead) must hold even when a
  // delay_multiplier shrinks the sample to zero.
  if (msg.from != msg.to) delay = std::max<SimTime>(delay, 1);
  if (lane.collector && lane.collector->full()) {
    EmitMessageEvent(lane, TraceEventKind::kMsgSend, msg, msg.from, "");
  }
  if (duplicate) {
    // The duplicate travels independently: its own delay sample (plus
    // the same override treatment minus further duplication), so it can
    // arrive before OR after the original.
    lane.stats.duplicated++;
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

uint32_t Network::AcquireSlot(Lane& lane) {
  if (!lane.pool_free.empty()) {
    uint32_t slot = lane.pool_free.back();
    lane.pool_free.pop_back();
    return slot;
  }
  uint32_t slot = static_cast<uint32_t>(lane.pool.size());
  lane.pool.emplace_back();
  lane.pool_next.push_back(kNoSlot);
  return slot;
}

void Network::ReleaseSlot(Lane& lane, uint32_t slot) {
  lane.pool_free.push_back(slot);
}

void Network::ScheduleDelivery(Message msg, SimTime delay) {
  uint32_t src_shard = ShardOf(msg.from);
  uint32_t dst_shard = ShardOf(msg.to);
  SimTime when = lanes_[src_shard].sim->Now() + delay;
  // The delivery's ordering key: same-tick arrivals at a destination
  // execute in (sender, per-sender sequence) order — a pure function of
  // message identity, independent of shard count and of the real-time
  // order in which shards inserted them.
  uint64_t key = msg.id;
  if (dst_shard != src_shard) {
    // Cross-shard hop: post the message (by value) to the destination
    // shard's mailbox; its worker drains it at the next barrier. The
    // lookahead rule guarantees `when` is at/after that barrier.
    driver_->PostToShard(dst_shard, when, key,
                         [this, m = std::move(msg)] { Deliver(m); });
    return;
  }
  Lane& lane = lanes_[dst_shard];
  uint32_t slot = AcquireSlot(lane);
  uint32_t sender_slot = static_cast<uint32_t>(SiteSlot(msg.from));
  uint32_t dst_slot = static_cast<uint32_t>(SiteSlot(msg.to));
  lane.pool[slot] = std::move(msg);
  lane.pool_next[slot] = kNoSlot;

  // Same-tick batching: if the destination's open batch matches this
  // (sender, destination, instant), chain the message onto it — no new
  // event. Appends keep the batch's ids contiguous and increasing (see
  // Batch): SendMessage hands messages over in per-sender id order.
  if (dst_slot < lane.open_batch.size()) {
    uint32_t open = lane.open_batch[dst_slot];
    if (open != kNoSlot) {
      Batch& b = lane.batches[open];
      if (b.open && b.when == when && b.sender_slot == sender_slot) {
        lane.pool_next[b.tail] = slot;
        b.tail = slot;
        return;
      }
    }
  }

  // Open a new batch for this (sender, destination, instant); it
  // supersedes whatever batch was open for the destination before.
  uint32_t batch_idx;
  if (!lane.batch_free.empty()) {
    batch_idx = lane.batch_free.back();
    lane.batch_free.pop_back();
  } else {
    batch_idx = static_cast<uint32_t>(lane.batches.size());
    lane.batches.emplace_back();
  }
  Batch& b = lane.batches[batch_idx];
  b.head = b.tail = slot;
  b.when = when;
  b.sender_slot = sender_slot;
  b.dst_slot = dst_slot;
  b.open = true;
  if (dst_slot >= lane.open_batch.size()) {
    lane.open_batch.resize(dst_slot + 1, kNoSlot);
  }
  lane.open_batch[dst_slot] = batch_idx;

  auto thunk = [this, dst_shard, batch_idx] {
    DeliverBatch(dst_shard, batch_idx);
  };
  static_assert(sizeof(thunk) <= EventQueue::kInlineCallbackBytes,
                "delivery closure must fit the event queue's inline "
                "callback storage (the zero-allocation hot path)");
  lane.sim->AtKeyed(when, key, std::move(thunk));
}

void Network::DeliverBatch(uint32_t lane_idx, uint32_t batch_idx) {
  Lane& lane = lanes_[lane_idx];
  uint32_t slot;
  {
    // Handlers invoked below may send, growing `batches` — don't hold
    // the reference across the walk.
    Batch& b = lane.batches[batch_idx];
    b.open = false;
    if (lane.open_batch[b.dst_slot] == batch_idx) {
      lane.open_batch[b.dst_slot] = kNoSlot;
    }
    slot = b.head;
  }
  while (slot != kNoSlot) {
    uint32_t next = lane.pool_next[slot];
    Deliver(lane.pool[slot]);
    ReleaseSlot(lane, slot);
    slot = next;
  }
  lane.batch_free.push_back(batch_idx);
}

void Network::Deliver(const Message& msg) {
  Lane& lane = LaneFor(msg.to);
  // Connectivity is re-checked at delivery time so that faults striking
  // while a message is in flight drop it.
  if (!IsSiteUp(msg.to)) {
    lane.stats.RecordDrop(DropCause::kDestinationDown);
    if (lane.collector && lane.collector->full()) {
      EmitMessageEvent(lane, TraceEventKind::kMsgDrop, msg, msg.to,
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
      lane.stats.RecordDrop(DropCause::kLinkDown);
      if (lane.collector && lane.collector->full()) {
        EmitMessageEvent(lane, TraceEventKind::kMsgDrop, msg, msg.to,
                         DropCauseName(DropCause::kLinkDown));
      }
      return;
    }
    if (!SameGroup(msg.from, msg.to)) {
      lane.stats.RecordDrop(DropCause::kPartition);
      if (lane.collector && lane.collector->full()) {
        EmitMessageEvent(lane, TraceEventKind::kMsgDrop, msg, msg.to,
                         DropCauseName(DropCause::kPartition));
      }
      return;
    }
  }
  size_t slot = SiteSlot(msg.to);
  if (slot >= handlers_.size() || !handlers_[slot]) {
    lane.stats.RecordDrop(DropCause::kDestinationDown);
    return;
  }
  lane.stats.RecordDeliver(msg);
  if (lane.collector && lane.collector->full()) {
    EmitMessageEvent(lane, TraceEventKind::kMsgRecv, msg, msg.to, "");
  }
  handlers_[slot](msg);
}

}  // namespace rainbow
