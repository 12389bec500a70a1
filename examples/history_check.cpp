// History check: runs a workload against a configured Rainbow instance
// with structured tracing on, then feeds the trace to the offline
// protocol-invariant checker (verify/checker.h) — conflict
// serializability, 2PC atomicity, replication invariants and 2PL lock
// discipline — and prints the report. Exit status 1 on any violation,
// so the binary doubles as a CI gate.
//
// Build & run:  ./build/examples/history_check [config.rainbow]
//                   [--txns N] [--seed N] [--faults]
//               ./build/examples/history_check --sweep [--seeds N]
//                   [--txns N] [--faults] [--verbose]
//
// --sweep ignores the config file's protocol selection and runs every
// seed under each {2PL, TSO, MVTO, OCC} x {ROWA, QC} combination, so
// every CCP a participant serves is checked: MVTO's version-chain reads
// (and its restart floor under --faults) and OCC's validation and
// commit locks. CI runs the sweep with and without --faults.

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/table.h"
#include "core/session.h"
#include "core/system.h"

using namespace rainbow;

namespace {

Result<SystemConfig> LoadConfig(const std::string& path) {
  std::ifstream file(path);
  if (!file) return Status::NotFound("cannot open " + path);
  std::ostringstream text;
  text << file.rdbuf();
  return SystemConfig::FromText(text.str());
}

SessionOptions FaultOptions(bool faults) {
  SessionOptions options;
  if (faults) {
    options.random_mttf = Millis(600);
    options.random_mttr = Millis(150);
  }
  return options;
}

struct SweepPoint {
  CcKind cc;
  RcpKind rcp;
};

int RunSweep(SystemConfig base, uint32_t seeds, uint32_t txns, bool faults,
             bool verbose) {
  // ROWA-available is deliberately absent: it trades consistency for
  // availability and can serve stale reads under faults, so the
  // serializability invariant does not hold for it by design.
  const std::vector<SweepPoint> points = {
      {CcKind::kTwoPhaseLocking, RcpKind::kRowa},
      {CcKind::kTwoPhaseLocking, RcpKind::kQuorumConsensus},
      {CcKind::kTimestampOrdering, RcpKind::kRowa},
      {CcKind::kTimestampOrdering, RcpKind::kQuorumConsensus},
      {CcKind::kMultiversionTso, RcpKind::kRowa},
      {CcKind::kMultiversionTso, RcpKind::kQuorumConsensus},
      {CcKind::kOptimistic, RcpKind::kRowa},
      {CcKind::kOptimistic, RcpKind::kQuorumConsensus},
  };

  TablePrinter table({"cc", "rcp", "seed", "committed", "aborted", "events",
                      "violations"});
  int failures = 0;
  for (const SweepPoint& point : points) {
    for (uint32_t s = 0; s < seeds; ++s) {
      SystemConfig cfg = base;
      cfg.seed = base.seed + s;
      cfg.protocols.cc = point.cc;
      cfg.protocols.rcp = point.rcp;
      cfg.trace_enabled = true;
      cfg.trace_detail = TraceDetail::kProtocol;
      if (faults) cfg.message_loss = std::max(cfg.message_loss, 0.01);

      WorkloadConfig wl;
      wl.seed = cfg.seed * 7919 + 13;
      wl.num_txns = txns;
      wl.mpl = 6;
      wl.max_retries = 3;

      auto created = RainbowSystem::Create(cfg);
      if (!created.ok()) {
        std::cerr << "create failed: " << created.status() << "\n";
        return 2;
      }
      RainbowSystem& sys = **created;
      FaultInjector injector(&sys);
      SessionOptions options = FaultOptions(faults);
      if (faults) {
        injector.EnableRandomFaults(options.random_mttf, options.random_mttr,
                                    Seconds(3), cfg.seed ^ 0xfa17u);
      }
      WorkloadGenerator wlg(&sys, wl);
      wlg.Run();
      sys.RunToQuiescence();

      CheckReport report = sys.VerifyHistory();
      table.AddRow({CcKindName(point.cc), RcpKindName(point.rcp),
                    std::to_string(cfg.seed),
                    std::to_string(report.committed),
                    std::to_string(report.aborted),
                    std::to_string(report.events),
                    std::to_string(report.violations.size())});
      if (!report.ok()) {
        ++failures;
        std::cerr << "VIOLATION at cc=" << CcKindName(point.cc)
                  << " rcp=" << RcpKindName(point.rcp)
                  << " seed=" << cfg.seed << "\n"
                  << report.Render() << "\n";
      } else if (verbose) {
        std::cout << report.Render() << "\n";
      }
    }
  }
  std::cout << table.ToString();
  if (failures) {
    std::cout << failures << " run(s) violated protocol invariants\n";
    return 1;
  }
  std::cout << "all " << points.size() * seeds
            << " runs satisfied every invariant\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string config_path =
      std::string(RAINBOW_SOURCE_DIR) + "/configs/classroom_default.rainbow";
  uint32_t num_txns = 120;
  uint32_t seeds = 5;
  uint64_t seed_override = 0;
  bool sweep = false;
  bool faults = false;
  bool verbose = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--sweep") {
      sweep = true;
    } else if (arg == "--faults") {
      faults = true;
    } else if (arg == "--verbose") {
      verbose = true;
    } else if (arg == "--txns" && i + 1 < argc) {
      num_txns = static_cast<uint32_t>(std::stoul(argv[++i]));
    } else if (arg == "--seeds" && i + 1 < argc) {
      seeds = static_cast<uint32_t>(std::stoul(argv[++i]));
    } else if (arg == "--seed" && i + 1 < argc) {
      seed_override = std::stoull(argv[++i]);
    } else if (!arg.empty() && arg[0] != '-') {
      config_path = arg;
    } else {
      std::cerr << "usage: history_check [config.rainbow] [--txns N] "
                   "[--seed N] [--faults] [--sweep] [--seeds N] "
                   "[--verbose]\n";
      return 2;
    }
  }

  auto loaded = LoadConfig(config_path);
  if (!loaded.ok()) {
    std::cerr << "config: " << loaded.status() << "\n";
    return 1;
  }
  SystemConfig cfg = *loaded;
  if (seed_override) cfg.seed = seed_override;

  if (sweep) return RunSweep(cfg, seeds, num_txns, faults, verbose);

  cfg.verify_history = true;
  WorkloadConfig wl;
  wl.seed = cfg.seed;
  wl.num_txns = num_txns;
  wl.mpl = 6;
  wl.max_retries = 3;

  SessionOptions options = FaultOptions(faults);
  auto r = RunSession(cfg, wl, options);
  if (!r.ok()) {
    // A violation fails the session; the rendered report rides along in
    // the status message.
    std::cerr << r.status().message() << "\n";
    return 1;
  }
  std::cout << "config: " << config_path << "\n";
  std::cout << r->verify_report << "\n";
  return 0;
}
