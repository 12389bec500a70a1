#ifndef RAINBOW_NET_NETWORK_H_
#define RAINBOW_NET_NETWORK_H_

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/trace.h"
#include "common/types.h"
#include "net/latency_model.h"
#include "net/message.h"
#include "sim/simulator.h"

namespace rainbow {

/// Why a message never reached its destination.
enum class DropCause {
  kRandomLoss,
  kLinkDown,
  kPartition,
  kDestinationDown,
  kSourceDown,
  kLinkLoss,  ///< per-link loss override (fault injector / nemesis)
  kCount,
};

const char* DropCauseName(DropCause c);

/// Flat per-site counter table. Site ids are small dense integers
/// assigned from 0 upward, so a counter lookup is a bounds check plus
/// an array index instead of a hash probe; the name server's reserved
/// huge id maps to slot 0 (regular site s lives in slot s + 1) to keep
/// the table dense.
class PerSiteCounters {
 public:
  /// Counter for `site`, growing the table as needed.
  uint64_t& operator[](SiteId site) {
    size_t slot = Slot(site);
    if (slot >= counts_.size()) counts_.resize(slot + 1, 0);
    return counts_[slot];
  }

  /// Counter for `site`; 0 if never touched.
  uint64_t Get(SiteId site) const {
    size_t slot = Slot(site);
    return slot < counts_.size() ? counts_[slot] : 0;
  }

  /// True if every counter is zero.
  bool empty() const {
    for (uint64_t c : counts_) {
      if (c != 0) return false;
    }
    return true;
  }

  /// Visits (site, count) for every nonzero counter: regular sites in
  /// ascending id order, the name server last — the order renders show
  /// (previously achieved by sorting an unordered_map snapshot).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 1; i < counts_.size(); ++i) {
      if (counts_[i] != 0) fn(static_cast<SiteId>(i - 1), counts_[i]);
    }
    if (!counts_.empty() && counts_[0] != 0) fn(kNameServerId, counts_[0]);
  }

 private:
  static size_t Slot(SiteId site) {
    return site == kNameServerId ? 0 : static_cast<size_t>(site) + 1;
  }
  std::vector<uint64_t> counts_;
};

/// Per-directed-link fault overrides, installed by the fault injector
/// (and composed by the nemesis schedule generator). The default value
/// is the identity: no extra loss, unscaled delay, no duplication, no
/// reordering. Overrides are directional — an override on a→b leaves
/// b→a untouched — which is what makes asymmetric network pathologies
/// (grey failures, one-way congestion) expressible.
struct LinkOverride {
  double loss = 0.0;              ///< extra per-message loss probability
  double delay_multiplier = 1.0;  ///< scales the sampled one-way delay
  double dup_probability = 0.0;   ///< chance the message is delivered twice
  SimTime reorder_jitter = 0;     ///< extra uniform delay in [0, jitter]

  bool identity() const {
    return loss == 0.0 && delay_multiplier == 1.0 && dup_probability == 0.0 &&
           reorder_jitter == 0;
  }
  bool operator==(const LinkOverride&) const = default;
};

/// Traffic accounting for the simulated network. Feeds the paper's
/// "total number of messages generated per time unit" and message-kind
/// breakdown statistics.
struct NetworkStats {
  uint64_t sent = 0;          ///< all Send() calls (incl. local)
  uint64_t delivered = 0;
  uint64_t local = 0;         ///< from == to (not counted as network traffic)
  uint64_t bytes = 0;
  /// Extra copies injected by per-link duplication overrides (each such
  /// copy is delivered — or dropped — in addition to the original).
  uint64_t duplicated = 0;
  std::array<uint64_t, static_cast<size_t>(MessageKind::kCount)> by_kind{};
  std::array<uint64_t, static_cast<size_t>(DropCause::kCount)> dropped{};
  /// Messages per bucket of `bucket_width` simulated time.
  SimTime bucket_width = Millis(100);
  std::vector<uint64_t> per_bucket;
  /// Messages handled per destination site (load-balance indicator).
  PerSiteCounters per_site_delivered;
  /// Wire-codec round-trip failures (must stay zero).
  uint64_t codec_failures = 0;
  /// RPC sub-layer accounting (net/rpc.h). Attempts include the first
  /// transmission; retries are the retransmissions after an attempt
  /// timeout; failures are calls that exhausted every attempt.
  uint64_t rpc_calls = 0;
  uint64_t rpc_attempts = 0;
  uint64_t rpc_retries = 0;
  uint64_t rpc_timeouts = 0;
  uint64_t rpc_failures = 0;
  uint64_t rpc_duplicates_suppressed = 0;
  /// Late copies of requests at or below their sender's acknowledgement
  /// floor: the call had already finished at the sender, so the copy was
  /// dropped without being executed or answered.
  uint64_t rpc_acked_dropped = 0;
  /// Requests whose ack_floor was not below their own rpc_id. No honest
  /// sender stamps one; the floor is ignored so a request cannot
  /// acknowledge itself away.
  uint64_t rpc_bad_ack_floors = 0;
  /// Retransmissions whose id had been evicted from the suppression
  /// window (so no cached reply existed) and were served again rather
  /// than silently dropped.
  uint64_t rpc_stale_readmitted = 0;
  /// End-to-end latency (first send to reply) of successful RPC calls.
  Histogram rpc_latency;

  uint64_t total_dropped() const;
  uint64_t network_sent() const { return sent - local; }
  void RecordSend(const Message& m, SimTime now, size_t bytes_size);
  void RecordDeliver(const Message& m);
  void RecordDrop(DropCause cause);
  std::string Render() const;
};

/// The simulated network: delivers typed messages between registered
/// sites with configurable latency, loss, link failures, and partitions.
/// This is the paper's "network simulator and fault/recovery injector"
/// substrate (the injector drives the control methods below).
///
/// Semantics:
///  * Messages in flight when a fault strikes are dropped if, at their
///    scheduled delivery instant, the destination is down or unreachable
///    from the source (checked again at delivery time).
///  * A crashed site neither sends nor receives.
///  * Partitions override per-link state: two sites communicate iff they
///    are in the same partition group AND the link is up.
///
/// ## Determinism
/// Every randomness draw (loss, latency, override jitter) comes from a
/// per-*site* RNG stream keyed by site id, and every message id is
/// (sender slot, per-sender sequence), which is also the delivery's
/// event-queue key. Each site's draws are therefore a pure function of
/// its own send history, same-tick arrivals order by message identity,
/// and the same seed produces a byte-identical trace.
class Network {
 public:
  using Handler = std::function<void(const Message&)>;

  Network(Simulator* sim, LatencyConfig latency, Rng rng);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Registers the message handler for `site`. One handler per site.
  /// Also sizes the per-site RNG / message-id tables.
  void RegisterHandler(SiteId site, Handler handler);

  /// Sends `payload` from `from` to `to`. Delivery is asynchronous via
  /// the simulator. Silently drops (with accounting) if unreachable.
  void Send(SiteId from, SiteId to, Payload payload);

  /// Like Send but stamps the RPC correlation envelope (net/rpc.h):
  /// the call's id, which leg this is, and the sender's acknowledgement
  /// floor for `to` (0 on replies).
  void SendRpc(SiteId from, SiteId to, Payload payload, uint64_t rpc_id,
               bool is_reply, uint64_t ack_floor);

  /// Random per-message loss probability in [0,1].
  void set_loss_probability(double p) { loss_probability_ = p; }

  /// Round-trips every payload through the binary wire codec
  /// (net/codec.h) and delivers the decoded copy — proves the codec can
  /// carry the full protocol. A pure check: message sizes come from the
  /// codec whether or not it is on, so it never changes the simulated
  /// execution. A failed decode, or an encoding whose length disagrees
  /// with EncodedPayloadSize(), drops the message and is counted in
  /// stats().codec_failures.
  void set_verify_codec(bool on) { verify_codec_ = on; }

  /// Marks a site up/down. Down sites send and receive nothing.
  void SetSiteUp(SiteId site, bool up);
  bool IsSiteUp(SiteId site) const;

  /// Severs / restores the (bidirectional) link between `a` and `b`.
  void SetLinkUp(SiteId a, SiteId b, bool up);

  /// Severs / restores only the `from` → `to` direction: `to` can still
  /// reach `from`, which is exactly the asymmetric ("grey") failure mode
  /// bidirectional SetLinkUp cannot express.
  void SetLinkUpOneWay(SiteId from, SiteId to, bool up);

  /// Installs fault overrides on the directed link `from` → `to`
  /// (replacing any previous override there). Installing the identity
  /// override erases the entry, so the fast path recovers its zero-cost
  /// emptiness check. See LinkOverride.
  void SetLinkOverride(SiteId from, SiteId to, LinkOverride o);

  /// The override installed on `from` → `to`, or null.
  const LinkOverride* FindLinkOverride(SiteId from, SiteId to) const;

  /// Removes every per-link override (one-way down links are separate:
  /// restore those with SetLinkUpOneWay).
  void ClearLinkOverrides();
  bool has_link_overrides() const { return !link_overrides_.empty(); }

  /// Installs a partition: each inner vector is a group; sites in
  /// different groups cannot communicate. Sites not listed form an
  /// implicit extra group together.
  void SetPartitions(const std::vector<std::vector<SiteId>>& groups);

  /// Removes any partition.
  void HealPartitions();

  /// True if a message from `a` to `b` would currently be deliverable.
  bool Reachable(SiteId a, SiteId b) const;

  /// Traffic counters; the RPC sub-layer (net/rpc.h) adds its own.
  const NetworkStats& stats() const { return stats_; }
  NetworkStats& stats() { return stats_; }

  /// Sets the per_bucket histogram granularity.
  void set_stats_bucket_width(SimTime width) { stats_.bucket_width = width; }

  Simulator* sim() { return sim_; }

  /// Structured tracing: at kFull detail every send/recv/drop is
  /// recorded against the payload's transaction. Optional; null
  /// disables. No cost on the hot path below kFull.
  void set_collector(TraceCollector* c) { collector_ = c; }

 private:
  /// A same-tick delivery batch: the chain of pooled messages one
  /// sender addressed to one destination for one delivery instant. All
  /// of them ride a single event-queue entry (keyed by the first
  /// message's id) whose closure walks the chain — N same-tick sends
  /// cost one schedule/pop instead of N. Ordering is unchanged because
  /// a batch's message ids form a contiguous run of the destination's
  /// same-tick key set: per-sender ids are monotone in scheduling
  /// order and no other event can carry a key between them.
  struct Batch {
    uint32_t head = 0;         ///< first pool slot in the chain
    uint32_t tail = 0;         ///< last pool slot in the chain
    SimTime when = 0;          ///< delivery instant
    uint32_t sender_slot = 0;  ///< SiteSlot(from)
    uint32_t dst_slot = 0;     ///< SiteSlot(to)
    /// Accepting appends: cleared when the batch fires or when a later
    /// send to the same destination supersedes it.
    bool open = false;
  };

  static constexpr uint32_t kNoSlot = 0xffffffffu;

  /// Dense table index shared by the flat site tables (handlers, the
  /// down-site flags, RNG streams): name server in slot 0, regular site
  /// s in s + 1.
  static size_t SiteSlot(SiteId site) {
    return site == kNameServerId ? 0 : static_cast<size_t>(site) + 1;
  }

  /// Per-site deterministic RNG stream (seeded by site id, not draw
  /// order).
  Rng& SiteRng(size_t slot) { return site_rng_[slot]; }

  /// (sender slot + 1) << 40 | per-sender sequence: globally unique,
  /// monotone per sender, and the event-queue ordering key for the
  /// delivery — same-tick deliveries order by (sender, sequence).
  uint64_t NextMsgId(size_t slot) {
    return ((static_cast<uint64_t>(slot) + 1) << 40) | ++site_msg_seq_[slot];
  }

  void EnsureSiteTables(size_t slot);
  void SendMessage(Message msg);
  void ScheduleDelivery(Message msg, SimTime delay);
  /// Delivers every pooled message chained on batch `batch`, recycling
  /// the slots and the batch record.
  void DeliverBatch(uint32_t batch);
  void Deliver(const Message& msg);
  void EmitMessageEvent(TraceEventKind kind, const Message& m, SiteId at,
                        const char* note);
  bool SameGroup(SiteId a, SiteId b) const;

  uint32_t AcquireSlot();
  void ReleaseSlot(uint32_t slot) { pool_free_.push_back(slot); }

  Simulator* sim_;
  TraceCollector* collector_ = nullptr;
  NetworkStats stats_;
  LatencyModel latency_;
  double loss_probability_ = 0;
  bool verify_codec_ = false;

  /// Message pool: ScheduleDelivery parks the message in a pool slot
  /// and the delivery closure captures only {this, batch} — small
  /// enough for the event queue's inline callback storage, so a
  /// send→deliver cycle allocates nothing in steady state. A deque
  /// keeps slots at stable addresses while handlers (which may send,
  /// acquiring new slots) hold a reference to the message being
  /// delivered.
  std::deque<Message> pool_;
  std::vector<uint32_t> pool_free_;
  /// pool_next_[slot]: next pool slot in the slot's batch chain
  /// (kNoSlot terminates). Parallel to `pool_`.
  std::vector<uint32_t> pool_next_;
  /// Free-listed batch records, and the currently open batch per
  /// destination SiteSlot (kNoSlot when none).
  std::vector<Batch> batches_;
  std::vector<uint32_t> batch_free_;
  std::vector<uint32_t> open_batch_;
  /// Reusable encode buffer for the codec-verification round trip:
  /// capacity persists across messages, so verified runs stop paying a
  /// per-message allocation.
  Arena arena_;

  /// Per-site streams indexed by SiteSlot, grown on registration and on
  /// a site's first send.
  uint64_t site_seed_base_;
  std::vector<Rng> site_rng_;
  std::vector<uint64_t> site_msg_seq_;

  /// Flat per-site tables indexed by SiteSlot (consulted on every send
  /// and delivery; the old unordered_map/set cost a hash probe each).
  std::vector<Handler> handlers_;
  std::vector<uint8_t> site_down_;
  /// Partition group per SiteSlot while partitioned_; -1 (also for
  /// sites beyond the table) is the implicit shared group.
  std::vector<int32_t> partition_group_;

  std::set<std::pair<SiteId, SiteId>> down_links_;
  /// Directed down links (from, to); disjoint bookkeeping from the
  /// bidirectional set so healing one never resurrects the other.
  std::set<std::pair<SiteId, SiteId>> down_links_oneway_;
  /// Directed per-link overrides. Empty in a fault-free run: the send
  /// path pays one emptiness branch and nothing else (bench_m5_nemesis
  /// holds this to zero allocations and no measurable slowdown).
  std::map<std::pair<SiteId, SiteId>, LinkOverride> link_overrides_;
  bool partitioned_ = false;
};

}  // namespace rainbow

#endif  // RAINBOW_NET_NETWORK_H_
