#ifndef RAINBOW_FAULT_NEMESIS_H_
#define RAINBOW_FAULT_NEMESIS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "core/config.h"
#include "fault/fault_injector.h"

namespace rainbow {

/// Intensity profile for the nemesis schedule generator: how many fault
/// windows a schedule contains, how violent each one may be, and how the
/// fault mass is split across categories. Three named profiles ship:
///
///   calm   a handful of mild link faults — regression smoke
///   flaky  realistic bad-day network: crashes, asymmetric links,
///          moderate loss/delay/dup — the CI default
///   havoc  crash bursts, majority/minority partitions, near-total
///          loss, large delay spikes — the bug-hunting setting
struct NemesisProfile {
  std::string name;
  /// Fault windows per schedule, drawn uniformly in [min, max].
  int min_windows = 2;
  int max_windows = 4;
  /// Virtual-time span faults are placed in; every window closes by
  /// `horizon` and the schedule appends a heal + clearlinks tail there.
  SimTime horizon = Seconds(2);
  /// Window duration bounds (partitions, link downs, overrides).
  SimTime window_min = Millis(50);
  SimTime window_max = Millis(300);
  /// Crash windows draw from their own (much shorter) range: a crash
  /// followed by a quick restart — faster than the RPC layer's retry
  /// horizon — is the schedule most likely to resurrect transaction
  /// state, which long outages merely abort.
  SimTime crash_min = Millis(20);
  SimTime crash_max = Millis(200);
  /// Relative weights of the fault categories (need not sum to 1).
  double crash_weight = 0.1;
  double partition_weight = 0.1;
  double link_weight = 0.4;      ///< bidirectional + one-way link downs
  double override_weight = 0.4;  ///< loss / delay / dup / reorder
  /// Storage-fault windows (torn/short/lost writes, read bit flips on
  /// one site's disk). 0 in every built-in profile so existing seeds
  /// reproduce byte-identically; NemesisOptions.storage_faults raises
  /// it at construction.
  double storage_weight = 0.0;
  /// Intensity caps for override windows.
  double max_loss = 0.2;
  double max_dup = 0.2;
  double max_delay_multiplier = 3.0;
  SimTime max_reorder_jitter = Millis(2);
  /// Per-write/per-read probability cap for storage-fault windows.
  double max_storage_fault = 0.3;

  /// The built-in profile with this name, or InvalidArgument.
  static Result<NemesisProfile> ByName(const std::string& name);
  static NemesisProfile Calm();
  static NemesisProfile Flaky();
  static NemesisProfile Havoc();
};

/// One fault window: a start event and (usually) the event that undoes
/// it — crash/recover, linkdown/linkup, partition/heal, or an override
/// and its identity reset. The generator emits windows so schedules are
/// self-healing; the shrinker drops whole windows so they stay that way.
struct FaultWindow {
  FaultEvent start;
  std::optional<FaultEvent> end;
};

struct NemesisOptions {
  uint64_t seed = 1;
  std::string profile = "flaky";
  uint32_t rounds = 10;
  /// Workload driven through each schedule.
  uint32_t txns = 120;
  uint32_t mpl = 4;
  /// Mix storage-fault windows (torn/short/lost writes, read bit
  /// flips) into the schedules and shrink the disk-geometry config so
  /// multi-page trees actually exercise the fault paths.
  bool storage_faults = false;
  /// Shrink the first failing schedule before reporting it.
  bool shrink = true;
  /// Hard cap on simulator re-runs the shrinker may spend.
  uint32_t shrink_budget = 200;
  /// System under test. When it has no items a 5-site fully replicated
  /// default is built. Tracing is forced on for the trace checker.
  SystemConfig base_config;
};

struct NemesisResult {
  uint32_t rounds_run = 0;
  uint32_t total_runs = 0;  ///< simulator executions incl. shrinking
  bool found_violation = false;
  uint32_t failing_round = 0;
  uint64_t failing_seed = 0;  ///< per-round schedule seed
  std::vector<FaultEvent> failing_schedule;
  std::vector<FaultEvent> minimized;  ///< == failing_schedule if !shrink
  /// Canonical fault script of `minimized` (fault/fault_script.h) —
  /// replay it with Nemesis::Replay or `examples/nemesis --replay`.
  std::string repro_script;
  /// Oracle report of the minimized schedule's run.
  std::string report;
};

/// The adversarial fault-schedule fuzzer: generates randomized fault
/// programs from a seed + profile, runs each against the deterministic
/// simulator with the protocol-invariant checker as oracle, and shrinks
/// the first failing schedule to a minimal replayable repro via delta
/// debugging (drop windows, halve intensities, narrow windows).
class Nemesis {
 public:
  Nemesis(const NemesisOptions& options, const NemesisProfile& profile);

  /// Convenience: resolves options.profile by name.
  static Result<Nemesis> Make(const NemesisOptions& options);

  /// The full generate → check → shrink loop. Stops at the first
  /// violation (or after `rounds` clean rounds).
  NemesisResult Run();

  /// The deterministic schedule for one round seed.
  std::vector<FaultWindow> GenerateWindows(uint64_t schedule_seed) const;

  /// Windows flattened to time-ordered fault events.
  static std::vector<FaultEvent> Flatten(const std::vector<FaultWindow>& ws);

  /// Runs one schedule through the simulator and the oracle. Returns
  /// true if the oracle found a violation; `report` (optional) receives
  /// the rendered violation report. `workload_seed` fixes the workload
  /// so shrink re-runs replay the identical load.
  bool ScheduleFails(const std::vector<FaultEvent>& events,
                     uint64_t workload_seed, std::string* report);

  /// Delta-debugs `windows` (which must fail) down to a smaller failing
  /// schedule: drops windows ddmin-style, halves override intensities
  /// toward the identity, halves window durations, then drops windows
  /// again — re-running the simulator each step, within
  /// options.shrink_budget runs.
  std::vector<FaultWindow> Shrink(std::vector<FaultWindow> windows,
                                  uint64_t workload_seed);

  /// Replays a saved repro script against the configured system; wraps
  /// ParseFaultScript + ScheduleFails.
  Result<bool> Replay(const std::string& script, uint64_t workload_seed,
                      std::string* report);

  uint32_t total_runs() const { return runs_; }

  /// The schedule seed of round `round` under this nemesis seed.
  uint64_t RoundSeed(uint32_t round) const;

 private:
  SystemConfig MakeConfig() const;

  NemesisOptions opts_;
  NemesisProfile profile_;
  uint32_t runs_ = 0;
};

}  // namespace rainbow

#endif  // RAINBOW_FAULT_NEMESIS_H_
