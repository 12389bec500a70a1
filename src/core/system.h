#ifndef RAINBOW_CORE_SYSTEM_H_
#define RAINBOW_CORE_SYSTEM_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/trace.h"
#include "core/config.h"
#include "nameserver/name_server.h"
#include "net/network.h"
#include "sim/sharded_simulator.h"
#include "sim/simulator.h"
#include "site/site.h"
#include "stats/progress_monitor.h"
#include "verify/checker.h"
#include "verify/history.h"

namespace rainbow {

/// One fully assembled Rainbow instance: the simulated network, the name
/// server, the sites with their item copies, and the measurement
/// apparatus. This is the programmatic equivalent of completing every
/// GUI configuration panel and pressing "start".
///
/// With config.sim_shards > 1 the instance runs on the sharded kernel:
/// sites are partitioned over N shard simulators driven by worker
/// threads that synchronize at conservative virtual-time barriers (see
/// sim/sharded_simulator.h). Each shard gets its own trace collector,
/// monitor and history recorder so site callbacks never
/// contend; the accessors below transparently return canonical merged
/// views, which are byte-identical across shard counts for the same
/// seed.
class RainbowSystem {
 public:
  /// Validates the configuration and builds the instance.
  static Result<std::unique_ptr<RainbowSystem>> Create(SystemConfig config);

  RainbowSystem(const RainbowSystem&) = delete;
  RainbowSystem& operator=(const RainbowSystem&) = delete;

  // --- components ---

  /// The control-lane simulator. Scheduling here is always safe from the
  /// driving thread: in sharded mode control events run at barriers with
  /// every worker parked; in single-shard mode this is the one kernel.
  Simulator& sim() { return sharded_ ? sharded_->control() : sim_; }
  Network& net() { return *net_; }
  NameServer& name_server() { return *name_server_; }
  Site* site(SiteId id) { return sites_.at(id).get(); }
  size_t num_sites() const { return sites_.size(); }
  const Catalog& catalog() const { return catalog_; }
  const SystemConfig& config() const { return config_; }
  Rng& client_rng() { return client_rng_; }

  /// The sharded driver, or nullptr when running single-shard.
  ShardedSimulator* sharded() { return sharded_.get(); }

  /// The simulator that owns `site`'s callbacks. Work targeting a site
  /// (submissions, per-site client timers) must be scheduled here so it
  /// runs on the owning shard.
  Simulator& SimForSite(SiteId site) {
    if (!sharded_) return sim_;
    return sharded_->shard(
        ShardedSimulator::ShardOfSite(site, config_.sim_shards));
  }

  /// True when no work is pending anywhere (all shards, the control
  /// lane, and cross-shard mailboxes).
  bool Idle() const { return sharded_ ? sharded_->idle() : sim_.idle(); }

  // --- measurement views ---
  //
  // In sharded mode these return canonical merged snapshots (rebuilt on
  // access); use the control_*() accessors for intake from control-lane
  // code such as the fault injector.

  ProgressMonitor& monitor() {
    if (!sharded_) return monitor_;
    RefreshMerged();
    return merged_.monitor;
  }
  TraceCollector& collector() {
    if (!sharded_) return collector_;
    RefreshMerged();
    return merged_.collector;
  }
  const TraceCollector& collector() const {
    if (!sharded_) return collector_;
    RefreshMerged();
    return merged_.collector;
  }
  HistoryRecorder& history() {
    if (!sharded_) return history_;
    RefreshMerged();
    return merged_.history;
  }

  /// Control-lane intake instruments (always safe to write from the
  /// driving thread; identical to the merged views when single-shard).
  TraceCollector& control_collector() { return collector_; }
  ProgressMonitor& control_monitor() { return monitor_; }

  /// Fans the session-log flag out to every shard's monitor.
  void set_keep_outcomes(bool keep);

  // --- convenience ---
  Result<ItemId> ItemByName(const std::string& name) const {
    return catalog_.schema().IdOf(name);
  }

  /// Submits a transaction at `home`. `inherit_ts` restarts an aborted
  /// transaction under its original timestamp (see Site::Submit).
  /// In sharded mode, call only from the driving thread between runs or
  /// from a callback already running on `home`'s shard.
  Status Submit(SiteId home, TxnProgram program, TxnCallback cb,
                std::optional<TxnTimestamp> inherit_ts = std::nullopt);

  /// Runs the simulation for `duration` of virtual time.
  void RunFor(SimTime duration);

  /// Runs until no events remain (capped). Returns events executed.
  size_t RunToQuiescence(size_t max_events = 50'000'000);

  // --- fault shortcuts (the injector uses these too) ---
  void CrashSite(SiteId s);
  void RecoverSite(SiteId s);

  // --- whole-database inspection (test/verification helpers) ---

  /// The latest committed value of `item`: the copy with the highest
  /// version across all sites.
  Result<ItemCopy> LatestCommitted(ItemId item) const;

  /// Checks replica consistency appropriate to the configured RCP:
  /// copies never disagree at the same version, and (for ROWA with no
  /// permanent failures) all copies converged to the same version.
  Status CheckReplicaConsistency(bool require_full_convergence) const;

  /// Runs the offline protocol-invariant checker (verify/checker.h)
  /// over this instance's structured trace: serializability, 2PC
  /// atomicity, replication invariants, 2PL lock discipline. Requires
  /// tracing (config.trace_enabled) to have been on during the run.
  CheckReport VerifyHistory() const;

 private:
  /// Per-shard measurement instruments. Each shard's sites write only to
  /// their own set, so shard workers never share mutable state here.
  struct ShardInstruments {
    TraceCollector collector;
    ProgressMonitor monitor;
    HistoryRecorder history;
  };

  explicit RainbowSystem(SystemConfig config);
  Status Init();
  void RefreshMerged() const;

  SystemConfig config_;
  Simulator sim_;
  TraceCollector collector_;
  Rng client_rng_;
  ProgressMonitor monitor_;
  HistoryRecorder history_;
  Catalog catalog_;
  std::unique_ptr<ShardedSimulator> sharded_;
  std::vector<std::unique_ptr<ShardInstruments>> shard_inst_;
  bool keep_outcomes_ = false;
  /// Merged snapshots for the sharded accessors, rebuilt lazily.
  mutable ShardInstruments merged_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<NameServer> name_server_;
  std::vector<std::unique_ptr<Site>> sites_;
};

}  // namespace rainbow

#endif  // RAINBOW_CORE_SYSTEM_H_
