#ifndef RAINBOW_SITE_SITE_H_
#define RAINBOW_SITE_SITE_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "cc/cc_engine.h"
#include "common/trace.h"
#include "common/types.h"
#include "net/network.h"
#include "net/rpc.h"
#include "site/participant.h"
#include "site/protocol_config.h"
#include "sim/simulator.h"
#include "stats/progress_monitor.h"
#include "storage/storage_engine.h"
#include "storage/wal.h"
#include "txn/transaction.h"

namespace rainbow {

class Coordinator;

/// A Rainbow site: holds item copies, processes transactions homed here
/// (one Coordinator per in-flight transaction — the paper's "one thread
/// per transaction"), and serves as an RCP/ACP participant for
/// transactions homed elsewhere.
///
/// All request/reply messaging runs through the site's RpcEndpoint
/// (net/rpc.h): outgoing requests carry correlation ids and retry with
/// backoff; incoming duplicates are suppressed. One-way messages
/// (aborts, notifies, refresh, deadlock probes) use plain sends.
///
/// Crash semantics: Crash() destroys all volatile state (CC engine,
/// participant and coordinator records, the set of items looked up at
/// the name server, timers, pending RPC calls, the page engine's buffer
/// pool) and stops network delivery; the storage engine's durable half
/// (disk image, B+ tree skeleton) and the Wal persist. Recover() first runs the engine's
/// ARIES restart pass (analysis -> redo -> undo over the shared WAL),
/// then rebuilds the volatile state, reinstates in-doubt transactions
/// from the WAL, re-propagates unfinished decisions, and optionally
/// refreshes item copies from the live peers that share its items.
class Site {
 public:
  /// Shared infrastructure injected by RainbowSystem.
  struct Env {
    Simulator* sim = nullptr;
    Network* net = nullptr;
    TraceCollector* collector = nullptr;  ///< structured tracing
    ProgressMonitor* monitor = nullptr;
    const ProtocolConfig* config = nullptr;
    /// The one catalog's schema; coordinators read replica views from it.
    const ReplicationSchema* schema = nullptr;
    uint64_t seed = 0;  ///< system seed; forked per site for RPC jitter
  };

  Site(SiteId id, Env env);
  ~Site();

  Site(const Site&) = delete;
  Site& operator=(const Site&) = delete;

  /// Loads the initial copy of an item (configuration time).
  void LoadItem(ItemId item, Value initial);

  /// Registers the network handler. Call once after construction.
  void Start();

  // --- client API (the WLG / manual panel entry point) ---

  /// Submits a transaction with this site as home. The callback fires
  /// exactly once, when the transaction commits or aborts. Submitting to
  /// a crashed site aborts immediately with kSiteFailure.
  ///
  /// `inherit_ts` re-runs a restarted transaction under its original
  /// timestamp — the classic fairness requirement of wait-die /
  /// wound-wait (a restarted transaction keeps ageing, so it cannot be
  /// starved by forever being the youngest).
  void Submit(TxnProgram program, TxnCallback cb,
              std::optional<TxnTimestamp> inherit_ts = std::nullopt);

  // --- fault injection ---
  void Crash();
  void Recover();
  bool crashed() const { return crashed_; }

  /// What the storage engine's restart pass did on the most recent
  /// Recover() (all zero before the first recovery).
  const RestartSummary& last_restart() const { return last_restart_; }

  /// Incarnation number: bumped on every recovery. Copy-access grants
  /// carry it so a coordinator can tell that a replica restarted between
  /// two of its grants (all volatile CC state it held for the
  /// transaction — locks, buffered prewrites, timestamp table entries —
  /// died with the crash) and abort instead of committing on amnesia.
  uint64_t epoch() const { return epoch_; }

  // --- introspection ---
  SiteId id() const { return id_; }
  const PageStore& store() const { return store_; }
  PageStore& mutable_store() { return store_; }
  const Wal& wal() const { return wal_; }
  CcEngine* cc() { return cc_.get(); }
  size_t active_coordinators() const { return coordinators_.size(); }
  size_t active_participants() const;

  // --- services used by Coordinator and ParticipantManager ---
  Env& env() { return env_; }
  const ProtocolConfig& config() const { return *env_.config; }
  const ReplicationSchema& schema() const { return *env_.schema; }
  SimTime Now() const;
  void SendTo(SiteId to, Payload payload);

  /// Structured tracing. Check tracing() BEFORE constructing a
  /// TraceRecord so disabled tracing costs one branch, no allocations.
  bool tracing() const {
    return env_.collector && env_.collector->enabled();
  }
  /// Stamps time and site, then forwards to the collector. Callers may
  /// leave `rec.site` set when the event concerns a different site.
  void EmitTrace(TraceRecord rec);

  /// The site's RPC endpoint (request/reply messaging).
  RpcEndpoint& rpc() { return *rpc_; }
  /// An RpcPolicy with the given per-attempt timeout and the configured
  /// rpc_max_attempts / rpc_backoff_* knobs.
  RpcPolicy MakeRpcPolicy(SimTime timeout) const;
  /// Replies through the RPC layer when `ctx` is valid (the request
  /// arrived as an RPC), else falls back to a plain send to `to` (raw
  /// requests, e.g. injected by tests).
  void Respond(const RpcContext& ctx, SiteId to, Payload payload);

  Wal& mutable_wal() { return wal_; }

  /// Crude failure detector: sites that recently timed out on us.
  bool IsSuspected(SiteId s) const;
  void Suspect(SiteId s);
  std::set<SiteId> SuspectedSet() const;

  /// Whether this site looked `item` up at the name server since it
  /// last started or recovered (the site-level schema cache, when
  /// config.cache_schema). An id past the schema is never known.
  bool KnowsItem(ItemId item) const {
    return item < known_items_.size() && known_items_[item];
  }
  void NoteKnownItem(ItemId item) { known_items_[item] = true; }

  /// Registers the post-decision "closer": one Decision RPC per
  /// participant (the RPC layer retries until acked), then logs kEnd.
  void StartCloser(TxnId txn, bool commit, std::vector<SiteId> participants);

  /// Called by a Coordinator when it is completely finished.
  void CoordinatorFinished(TxnId txn);

  ParticipantManager* participants() { return participants_.get(); }

 private:
  friend class Coordinator;

  void HandleMessage(const Message& m, const RpcContext& ctx);
  void OnLateRpcReply(const Message& m);
  void HandleDecisionQuery(SiteId from, const DecisionQuery& q,
                           const RpcContext& ctx);
  void HandleStateQuery(SiteId from, const StateQuery& q,
                        const RpcContext& ctx);
  void HandleRefreshRequest(SiteId from, const RefreshRequest& r);
  void HandleRefreshReply(const RefreshReply& r);
  void HandleDeadlockProbe(const DeadlockProbe& p);
  void HandleDeadlockProbeCheck(const DeadlockProbeCheck& p);

  void BuildVolatileState();
  /// The floor a reseeded MVTO base version gets
  /// (TimestampManager::LoadInitial).
  TxnTimestamp ReseedFloor() const;

  /// The Decision RPC in flight to each participant that has not acked,
  /// sorted by participant.
  using CloserCalls = std::vector<std::pair<SiteId, uint64_t>>;
  void OnCloserReply(TxnId txn, SiteId participant, bool ok);
  void RequestRefresh();

  SiteId id_;
  Env env_;
  bool crashed_ = false;
  uint64_t epoch_ = 0;
  bool started_ = false;
  RestartSummary last_restart_;

  // Durable state. The engine logs into wal_, so wal_ is declared (and
  // constructed) first.
  Wal wal_;
  PageStore store_;

  // The RPC endpoint outlives coordinators/participants (their
  // destructors cancel pending calls), so it is declared first.
  std::unique_ptr<RpcEndpoint> rpc_;

  // Volatile state (rebuilt on recovery).
  std::unique_ptr<CcEngine> cc_;
  std::unique_ptr<ParticipantManager> participants_;
  std::map<TxnId, std::unique_ptr<Coordinator>> coordinators_;
  std::map<TxnId, CloserCalls> closers_;
  std::vector<bool> known_items_;  ///< indexed by ItemId
  std::map<SiteId, SimTime> suspected_until_;
  uint64_t next_txn_seq_ = 1;
  SimTime last_ts_time_ = -1;
};

}  // namespace rainbow

#endif  // RAINBOW_SITE_SITE_H_
