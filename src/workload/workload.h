#ifndef RAINBOW_WORKLOAD_WORKLOAD_H_
#define RAINBOW_WORKLOAD_WORKLOAD_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "net/rpc.h"
#include "txn/transaction.h"

namespace rainbow {

class RainbowSystem;

/// How transactions pick the items they touch.
enum class AccessPattern {
  kUniform,  ///< uniform over all items
  kZipf,     ///< Zipf-distributed ranks (skew = zipf_theta)
  kHotspot,  ///< hot_prob of accesses hit the first hot_fraction items
};

const char* AccessPatternName(AccessPattern p);

/// Parameters of the simulated workload — the WLG's automatic mode
/// (Figure A-2's manual panel corresponds to composing TxnPrograms by
/// hand and calling RainbowSystem::Submit directly).
struct WorkloadConfig {
  uint64_t seed = 42;
  uint32_t num_txns = 200;  ///< total transactions to generate

  /// Closed system: `mpl` transactions in flight, each completion (plus
  /// think time) triggers the next submission. Open system: Poisson
  /// arrivals at `arrival_rate_tps`.
  enum class Arrival { kClosed, kOpen };
  Arrival arrival = Arrival::kClosed;
  uint32_t mpl = 8;
  SimTime think_time = 0;
  double arrival_rate_tps = 200;

  uint32_t ops_min = 2;
  uint32_t ops_max = 6;
  double read_fraction = 0.75;  ///< probability an op is a read
  bool use_increments = true;   ///< writes are read-modify-write increments

  /// Probability an op is a range scan (drawn before the read/write
  /// choice; 0 draws nothing from the RNG, so enabling scans never
  /// perturbs the op stream of a scan-free config).
  double scan_fraction = 0.0;
  /// Items per scan (clamped to the database size).
  uint32_t scan_length = 8;

  AccessPattern pattern = AccessPattern::kUniform;
  double zipf_theta = 0.8;
  double hot_fraction = 0.1;
  double hot_prob = 0.8;

  /// Home-site selection.
  enum class HomePolicy { kRoundRobin, kRandom };
  HomePolicy home = HomePolicy::kRoundRobin;

  /// One independent client per site instead of one sequential driver:
  /// transaction quota, MPL and (open mode) arrival rate are split
  /// across the sites, and every client draws from its own RNG stream
  /// keyed by its home site, so a site's workload does not depend on
  /// the completion order at other sites. (With very small mpl or
  /// num_txns the per-site split rounds each busy client up to at least
  /// one in-flight transaction.)
  bool per_site_clients = false;

  /// Automatic restarts: an aborted transaction is resubmitted up to
  /// this many times. 0 disables restarts.
  uint32_t max_retries = 0;
  /// Client-level restart pacing: capped exponential backoff with
  /// jitter, indexed by the attempt number. Shares the RPC layer's
  /// policy/backoff machinery (timeout and max_attempts are unused at
  /// this level — max_retries above bounds the restarts).
  RpcPolicy retry_backoff{/*timeout=*/Millis(0), /*max_attempts=*/0,
                          /*backoff_base=*/Millis(5),
                          /*backoff_cap=*/Millis(80), /*jitter=*/0.5};
  /// Restarts keep the original timestamp (wait-die / wound-wait
  /// fairness: a restarted transaction keeps ageing instead of forever
  /// being the youngest victim).
  bool retry_inherit_timestamp = false;
};

/// Generates and drives a workload against a RainbowSystem — the
/// paper's workload generator (WLG) component.
class WorkloadGenerator {
 public:
  WorkloadGenerator(RainbowSystem* system, WorkloadConfig config);

  /// Begins generation. `done` (optional) fires when every generated
  /// transaction (including retries) has completed. Drive the simulator
  /// (RunFor / RunToQuiescence) to make progress.
  void Run(std::function<void()> done = nullptr);

  /// Generates one transaction program (exposed for tests and the
  /// manual panel's "random transaction" button).
  TxnProgram GenerateProgram() { return GenerateProgram(rng_); }
  TxnProgram GenerateProgram(Rng& rng);

  // Aggregated counters: the sequential driver's plus every client's.
  uint64_t submitted() const {
    uint64_t n = submitted_;
    for (const auto& c : clients_) n += c->submitted;
    return n;
  }
  uint64_t completed() const {
    uint64_t n = completed_;
    for (const auto& c : clients_) n += c->completed;
    return n;
  }
  uint64_t retries() const {
    uint64_t n = retries_;
    for (const auto& c : clients_) n += c->retries;
    return n;
  }
  /// Starvation tail: most attempts any single transaction needed before
  /// it finished (committed or gave up).
  uint32_t worst_attempts() const {
    uint32_t n = worst_attempts_;
    for (const auto& c : clients_) n = n > c->worst_attempts ? n : c->worst_attempts;
    return n;
  }
  /// Transactions that exhausted max_retries without committing.
  uint64_t gave_up() const {
    uint64_t n = gave_up_;
    for (const auto& c : clients_) n += c->gave_up;
    return n;
  }
  bool finished() const {
    if (!clients_.empty()) {
      return clients_done_ == clients_.size();
    }
    return done_fired_;
  }

 private:
  /// One independent per-site client (per_site_clients mode).
  struct Client {
    SiteId home = 0;
    Rng rng{0};
    uint32_t target = 0;  ///< first-attempt submission quota
    uint32_t mpl = 0;     ///< closed-mode in-flight cap
    uint64_t launched = 0;
    uint64_t submitted = 0;
    uint64_t completed = 0;
    uint64_t retries = 0;
    uint32_t worst_attempts = 0;
    uint64_t gave_up = 0;
  };

  SiteId PickHome();
  ItemId PickItem(Rng& rng);
  void SubmitOne();
  void SubmitProgram(TxnProgram program, uint32_t attempt,
                     std::optional<TxnTimestamp> inherit_ts = std::nullopt);
  void OnOutcome(const TxnOutcome& outcome, TxnProgram program,
                 uint32_t attempt);
  void MaybeDone();

  void RunPerSite();
  void ClientSubmitOne(Client* c);
  void ClientSubmitProgram(Client* c, TxnProgram program, uint32_t attempt,
                           std::optional<TxnTimestamp> inherit_ts);
  void OnClientOutcome(Client* c, const TxnOutcome& outcome,
                       TxnProgram program, uint32_t attempt);
  void ClientFinished();

  RainbowSystem* system_;
  WorkloadConfig config_;
  Rng rng_;
  std::unique_ptr<ZipfSampler> zipf_;
  uint32_t num_items_;
  uint64_t launched_ = 0;   ///< first-attempt submissions
  uint64_t submitted_ = 0;  ///< all submissions including retries
  uint64_t completed_ = 0;  ///< transactions that finished for good
  uint64_t retries_ = 0;
  uint32_t worst_attempts_ = 0;
  uint64_t gave_up_ = 0;
  uint64_t next_home_ = 0;
  std::vector<std::unique_ptr<Client>> clients_;
  uint32_t clients_done_ = 0;
  std::function<void()> done_;
  bool done_fired_ = false;
};

}  // namespace rainbow

#endif  // RAINBOW_WORKLOAD_WORKLOAD_H_
