#ifndef RAINBOW_CORE_CONFIG_H_
#define RAINBOW_CORE_CONFIG_H_

#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/result.h"
#include "common/trace.h"
#include "common/types.h"
#include "net/latency_model.h"
#include "site/protocol_config.h"

namespace rainbow {

/// Placement and quorum configuration of one database item (one line of
/// the GUI's "Database Replication Configuration" panel, Figure A-1).
struct ItemConfig {
  std::string name;
  Value initial = 0;
  std::vector<SiteId> copies;
  std::vector<int> votes;  ///< empty = one vote per copy
  int read_quorum = 0;     ///< 0 = majority of votes
  int write_quorum = 0;    ///< 0 = majority of votes

  /// Sum of `votes`, or one vote per copy when `votes` is empty.
  int TotalVotes() const;
  /// The quorums in force: a configured 0 resolves to a majority of
  /// TotalVotes(). The schema and the checker's quorum pass share this
  /// rule.
  int EffectiveReadQuorum() const;
  int EffectiveWriteQuorum() const;
};

/// Resource limits SystemConfig::Validate() enforces, so that a config
/// that validates is one RainbowSystem::Create() can afford. Create()
/// costs about 24 KB per site before any item is placed (4096 sites:
/// about 94 MB), and each buffer-pool frame holds one page.
inline constexpr uint32_t kMaxSites = 4096;
inline constexpr uint32_t kMaxPageSize = 65536;

/// Everything needed to instantiate a Rainbow instance: the union of the
/// GUI's configuration panels (network simulation, sites, protocols,
/// database items and replication scheme). "The configuration data can
/// be saved for reuse in another session" — see ToText() / FromText().
struct SystemConfig {
  uint64_t seed = 1;
  uint32_t num_sites = 3;

  LatencyConfig latency;
  double message_loss = 0.0;
  /// Round-trip every message through the binary wire codec (net/codec)
  /// and count failures in NetworkStats::codec_failures. A check only:
  /// message sizes come from the codec either way, so a seed simulates
  /// the same execution with the flag on or off.
  bool verify_codec = false;

  ProtocolConfig protocols;

  std::vector<ItemConfig> items;

  SimTime stats_bucket = Millis(100);

  /// Structured per-transaction tracing (TraceCollector). Off by default:
  /// the collector adds zero allocations to the message hot path when
  /// disabled. `trace_detail` selects protocol-level events only or the
  /// full feed including per-message send/receive/drop records.
  bool trace_enabled = false;
  TraceDetail trace_detail = TraceDetail::kProtocol;

  /// Opt-in correctness gate: after a session's workload drains, run the
  /// offline protocol-invariant checker (verify/checker.h) over the
  /// structured trace and fail the session on any violation. Forces
  /// trace_enabled (at >= protocol detail) for the run.
  bool verify_history = false;

  /// Nemesis fuzzing knobs (fault/nemesis.h): base seed, intensity
  /// profile name ("calm", "flaky", "havoc") and number of rounds, so a
  /// saved config fully describes a push-button fuzz run.
  uint64_t nemesis_seed = 1;
  std::string nemesis_profile = "flaky";
  uint32_t nemesis_rounds = 10;

  /// Adds `count` items named "x0".."x<count-1>", each with
  /// `replication_degree` copies placed round-robin across the sites,
  /// one vote per copy and majority quorums.
  void AddUniformItems(int count, Value initial, int replication_degree);

  /// Full-replication convenience: every item on every site.
  void AddFullyReplicatedItems(int count, Value initial) {
    AddUniformItems(count, initial, static_cast<int>(num_sites));
  }

  /// Checks every knob and builds the replication schema from `items`
  /// (ReplicationSchema::AddItem checks each item). A config that
  /// validates is one RainbowSystem::Create() builds, on this schema.
  Result<ReplicationSchema> Validate() const;

  /// Serializes to the textual session-config format.
  std::string ToText() const;

  /// Parses a config previously produced by ToText() (or hand-written).
  static Result<SystemConfig> FromText(const std::string& text);
};

}  // namespace rainbow

#endif  // RAINBOW_CORE_CONFIG_H_
