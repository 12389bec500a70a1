// Quickstart: bring up a three-site Rainbow instance with quorum
// consensus + 2PL + 2PC, run a small mixed workload, and print the
// paper's statistics table and the trace checker's report.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>
#include <iostream>

#include "core/session.h"

int main() {
  using namespace rainbow;

  // 1. Configure the instance: 3 sites, 20 items, each replicated on
  //    all sites with majority quorums (the classroom default).
  SystemConfig system;
  system.seed = 2026;
  system.num_sites = 3;
  system.AddFullyReplicatedItems(/*count=*/20, /*initial=*/100);
  system.protocols.rcp = RcpKind::kQuorumConsensus;  // paper default
  system.protocols.cc = CcKind::kTwoPhaseLocking;
  system.protocols.acp = AcpKind::kTwoPhaseCommit;
  // Check the finished run with the trace checker (verify/checker.h);
  // a violation fails the session.
  system.verify_history = true;

  // 2. Describe the workload: 200 transactions, 8 at a time, 75% reads.
  WorkloadConfig workload;
  workload.num_txns = 200;
  workload.mpl = 8;
  workload.read_fraction = 0.75;

  // 3. Run the session and render the §3 statistics.
  auto result = RunSession(system, workload);
  if (!result.ok()) {
    std::cerr << "session failed: " << result.status() << "\n";
    return 1;
  }
  std::cout << "Rainbow quickstart — QC + 2PL + 2PC, 3 sites\n\n";
  std::cout << result->stats_table << "\n";
  std::cout << result->verify_report;
  return 0;
}
