// Nemesis: adversarial fault-schedule fuzzing for Rainbow. Generates
// seed-driven fault programs (crash/recover bursts, partitions,
// asymmetric link failures, per-link loss / delay spikes / duplication /
// reordering) over an intensity profile, runs each against the
// deterministic simulator with the protocol-invariant checker as the
// oracle, and delta-debugs the first failing schedule down to a minimal
// repro emitted as a declarative fault script (fault/fault_script.h).
//
// Build & run:
//   ./build/examples/nemesis --rounds 50 --profile havoc --shrink
//   ./build/examples/nemesis --rounds 20 --profile flaky --seed 7
//       --emit-repro out.faults
//   ./build/examples/nemesis --replay out.faults --seed 7
//
// Flags:
//   --rounds N        schedules to try (default from config: 10)
//   --profile NAME    calm | flaky | havoc (default flaky)
//   --seed N          nemesis base seed (default 1)
//   --txns N          workload size per round (default 120)
//   --mpl N           workload multiprogramming level (default 4)
//   --shrink / --no-shrink    minimize the first failing schedule
//   --shrink-budget N max simulator re-runs while shrinking
//   --emit-repro F    write the minimized fault script to F
//   --replay F        replay a fault script instead of fuzzing
//   --replay-seed N   workload seed for --replay (default: --seed)
//   --config F        base system config (.rainbow text format); its
//                     nemesis_* keys seed the defaults
//   --no-epoch-fencing    disable the incarnation-epoch fix (plants the
//                     resurrection bug for bug-hunt demos and labs)
//   --storage-faults  mix storage-fault windows (torn/short/lost writes,
//                     read bit flips) into the schedules, on a small-page
//                     config that actually exercises the disk
//   --no-page-crc     disable page checksums + doublewrite (plants the
//                     torn-page bug for storage bug-hunt demos); replays
//                     of a repro found this way need the same flag
//
// Exit status: 0 = all rounds clean, or replay reproduced the
// violation; 1 = violation found (repro printed / emitted), or replay
// did NOT reproduce; 2 = usage or harness error.

#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "core/config.h"
#include "fault/fault_script.h"
#include "fault/nemesis.h"

using namespace rainbow;

namespace {

Result<SystemConfig> LoadConfig(const std::string& path) {
  std::ifstream file(path);
  if (!file) return Status::NotFound("cannot open " + path);
  std::ostringstream text;
  text << file.rdbuf();
  return SystemConfig::FromText(text.str());
}

int Usage() {
  std::cerr << "usage: nemesis [--rounds N] [--profile calm|flaky|havoc]\n"
               "               [--seed N] [--txns N] [--mpl N]\n"
               "               [--shrink | --no-shrink] [--shrink-budget N]\n"
               "               [--emit-repro FILE] [--config FILE]\n"
               "               [--no-epoch-fencing]\n"
               "               [--storage-faults] [--no-page-crc]\n"
               "       nemesis --replay FILE [--replay-seed N] ...\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  NemesisOptions opts;
  opts.rounds = 0;  // 0 = take the config default
  std::string emit_path;
  std::string replay_path;
  uint64_t replay_seed = 0;
  bool have_replay_seed = false;
  bool seed_given = false;
  bool profile_given = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--rounds") {
      const char* v = next();
      if (!v) return Usage();
      opts.rounds = static_cast<uint32_t>(std::stoul(v));
    } else if (arg == "--profile") {
      const char* v = next();
      if (!v) return Usage();
      opts.profile = v;
      profile_given = true;
    } else if (arg == "--seed") {
      const char* v = next();
      if (!v) return Usage();
      opts.seed = std::stoull(v);
      seed_given = true;
    } else if (arg == "--txns") {
      const char* v = next();
      if (!v) return Usage();
      opts.txns = static_cast<uint32_t>(std::stoul(v));
    } else if (arg == "--mpl") {
      const char* v = next();
      if (!v) return Usage();
      opts.mpl = static_cast<uint32_t>(std::stoul(v));
    } else if (arg == "--shrink") {
      opts.shrink = true;
    } else if (arg == "--no-shrink") {
      opts.shrink = false;
    } else if (arg == "--shrink-budget") {
      const char* v = next();
      if (!v) return Usage();
      opts.shrink_budget = static_cast<uint32_t>(std::stoul(v));
    } else if (arg == "--emit-repro") {
      const char* v = next();
      if (!v) return Usage();
      emit_path = v;
    } else if (arg == "--replay") {
      const char* v = next();
      if (!v) return Usage();
      replay_path = v;
    } else if (arg == "--replay-seed") {
      const char* v = next();
      if (!v) return Usage();
      replay_seed = std::stoull(v);
      have_replay_seed = true;
    } else if (arg == "--config") {
      const char* v = next();
      if (!v) return Usage();
      Result<SystemConfig> cfg = LoadConfig(v);
      if (!cfg.ok()) {
        std::cerr << "config: " << cfg.status() << "\n";
        return 2;
      }
      opts.base_config = *cfg;
    } else if (arg == "--no-epoch-fencing") {
      opts.base_config.protocols.epoch_fencing = false;
    } else if (arg == "--storage-faults") {
      opts.storage_faults = true;
    } else if (arg == "--no-page-crc") {
      opts.base_config.protocols.page_checksums = false;
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      return Usage();
    }
  }

  // Config-file nemesis knobs are the defaults; flags win.
  if (!seed_given) opts.seed = opts.base_config.nemesis_seed;
  if (!profile_given) opts.profile = opts.base_config.nemesis_profile;
  if (opts.rounds == 0) opts.rounds = opts.base_config.nemesis_rounds;

  Result<Nemesis> made = Nemesis::Make(opts);
  if (!made.ok()) {
    std::cerr << made.status() << "\n";
    return 2;
  }
  Nemesis& nemesis = *made;

  if (!replay_path.empty()) {
    std::ifstream file(replay_path);
    if (!file) {
      std::cerr << "cannot open " << replay_path << "\n";
      return 2;
    }
    std::ostringstream text;
    text << file.rdbuf();
    const uint64_t wl_seed = have_replay_seed ? replay_seed : opts.seed;
    std::string report;
    Result<bool> reproduced = nemesis.Replay(text.str(), wl_seed, &report);
    if (!reproduced.ok()) {
      std::cerr << "replay: " << reproduced.status() << "\n";
      return 2;
    }
    if (*reproduced) {
      std::cout << "violation reproduced:\n" << report << "\n";
      return 0;
    }
    std::cout << "no violation on replay (oracle: " << report << ")\n";
    return 1;
  }

  std::cout << "nemesis: profile=" << opts.profile << " seed=" << opts.seed
            << " rounds=" << opts.rounds << " txns=" << opts.txns
            << " shrink=" << (opts.shrink ? "on" : "off") << "\n";

  NemesisResult result = nemesis.Run();
  std::cout << "rounds run: " << result.rounds_run
            << ", simulator executions: " << result.total_runs << "\n";

  if (!result.found_violation) {
    std::cout << "all rounds clean — no invariant violation found\n";
    return 0;
  }

  std::cout << "VIOLATION in round " << result.failing_round
            << " (schedule seed " << result.failing_seed << "), schedule of "
            << result.failing_schedule.size() << " fault events";
  if (opts.shrink) {
    std::cout << ", minimized to " << result.minimized.size();
  }
  std::cout << "\n\n--- oracle report ---\n"
            << result.report << "\n--- minimal fault script ---\n"
            << result.repro_script;

  if (!emit_path.empty()) {
    std::ofstream out(emit_path);
    out << "# nemesis repro: profile=" << opts.profile
        << " nemesis-seed=" << opts.seed
        << " schedule-seed=" << result.failing_seed
        << " txns=" << opts.txns << " mpl=" << opts.mpl << "\n"
        << "# replay: nemesis --replay " << emit_path << " --replay-seed "
        << result.failing_seed << "\n"
        << result.repro_script;
    std::cout << "repro written to " << emit_path << "\n";
  }
  return 1;
}
