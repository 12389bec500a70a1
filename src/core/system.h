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
#include "sim/simulator.h"
#include "site/site.h"
#include "stats/progress_monitor.h"
#include "verify/checker.h"

namespace rainbow {

/// One fully assembled Rainbow instance: the simulated network, the name
/// server, the sites with their item copies, and the measurement
/// apparatus. This is the programmatic equivalent of completing every
/// GUI configuration panel and pressing "start".
///
/// Everything runs on one single-threaded discrete-event kernel
/// (sim/simulator.h), so the same seed gives a byte-identical run.
class RainbowSystem {
 public:
  /// Validates the configuration and builds the instance on the schema
  /// Validate() built.
  static Result<std::unique_ptr<RainbowSystem>> Create(SystemConfig config);

  RainbowSystem(const RainbowSystem&) = delete;
  RainbowSystem& operator=(const RainbowSystem&) = delete;

  // --- components ---

  /// The simulation kernel every site, client and fault runs on.
  Simulator& sim() { return sim_; }
  Network& net() { return *net_; }
  NameServer& name_server() { return *name_server_; }
  Site* site(SiteId id) { return sites_.at(id).get(); }
  size_t num_sites() const { return sites_.size(); }
  const Catalog& catalog() const { return catalog_; }
  const SystemConfig& config() const { return config_; }
  Rng& client_rng() { return client_rng_; }

  /// True when no event is pending.
  bool Idle() const { return sim_.idle(); }

  // --- measurement ---

  ProgressMonitor& monitor() { return monitor_; }
  TraceCollector& collector() { return collector_; }
  const TraceCollector& collector() const { return collector_; }

  /// Keeps per-transaction outcomes for the session log.
  void set_keep_outcomes(bool keep) { monitor_.set_keep_outcomes(keep); }

  // --- convenience ---
  Result<ItemId> ItemByName(const std::string& name) const {
    return catalog_.schema().IdOf(name);
  }

  /// Submits a transaction at `home`. `inherit_ts` restarts an aborted
  /// transaction under its original timestamp (see Site::Submit).
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
  /// Assembles the instance on `schema`, which `config` validated with.
  RainbowSystem(SystemConfig config, ReplicationSchema schema);

  SystemConfig config_;
  Simulator sim_;
  TraceCollector collector_;
  Rng client_rng_;
  ProgressMonitor monitor_;
  /// The one schema. name_server_ reads it by reference, so it is
  /// declared before the name server and outlives it.
  Catalog catalog_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<NameServer> name_server_;
  std::vector<std::unique_ptr<Site>> sites_;
};

}  // namespace rainbow

#endif  // RAINBOW_CORE_SYSTEM_H_
