// M9: large-topology macro bench — the hot path at classroom scale.
//
// PR 10's calendar event queue, same-tick delivery batching, and arena
// codec were tuned on small systems (M6 runs 3 sites); this bench pins
// their behavior on a topology shaped like the paper's scale
// experiments: 128 sites, 3-way partial replication, one client per
// site. The run is fully deterministic, so committed transactions and
// total network messages are exact CI gates (any protocol or kernel
// change that alters the execution must regenerate the baseline in the
// same PR), while wall time, msgs/sec, and allocations per transaction
// are gated with loose ratio bounds the way M6 gates its macro section.
// Wall time is the median of kReps repetitions after one untimed
// warm-up run; every repetition must read the same committed
// transactions, messages, allocations and WAL bytes. wal_bytes_max, the
// bytes the 128 sites' retained records occupy at the end of the drive,
// wal_held_max, the bytes their logs hold allocated (capacity), and
// wal_digest_held_max, the bytes their protocol digests hold, are gated
// exactly: they move only when the log's or the digest's in-memory
// form, its growth and truncation policy, or the checkpoint cadence
// does. So is rpc_window_held_max, the bytes the sites' and the name
// server's RPC duplicate windows hold allocated at the end: it moves
// when the windows' form or what acknowledges their entries does.
//
// Flags:
//   --out FILE    write the JSON report here (nothing is written without it)
//   --check FILE  compare against a baseline JSON; exit 1 on regression
//   --txns N      transactions to drive (default 2000)

#include <cstdio>
#include <string>

#include "bench_common.h"
#include "core/session.h"
#include "core/system.h"
#include "workload/workload.h"

namespace rainbow {
namespace {

using bench::CheckExact;
using bench::CheckMetric;

constexpr int kReps = 5;
constexpr uint32_t kSites = 128;
constexpr int kItems = 384;  // 3 item classes per site on average
constexpr int kReplication = 3;

int Main(int argc, char** argv) {
  bench::Args args;
  uint32_t txns = 2000;
  if (!bench::ParseArgs(argc, argv, args, {{"--txns", &txns}})) return 2;

  bench::PrintHeader("M9", "large-topology hot path (" +
                               std::to_string(kSites) + " sites, " +
                               std::to_string(kReplication) +
                               "-way replication)");

  SystemConfig system;
  system.seed = 2026;
  system.num_sites = kSites;
  system.AddUniformItems(kItems, 100, kReplication);

  WorkloadConfig workload;
  workload.seed = 9;
  workload.num_txns = txns;
  workload.mpl = kSites;  // one in-flight transaction per site
  workload.read_fraction = 0.6;
  workload.per_site_clients = true;

  bench::SessionReps s = bench::TimeSession(kReps, system, workload);
  bench::Report report;
  report.Add("sites", kSites);
  report.Add("replication", kReplication);
  report.Add("txns", txns);
  report.Add("wall_ms", s.secs.Scaled(1e3));
  report.Add("msgs_per_sec",
             s.secs.Rate(static_cast<double>(s.messages.value)));
  report.Add("allocs_per_txn", s.AllocsPerTxn());
  report.Add("committed", static_cast<double>(s.committed.value));
  report.Add("aborted", static_cast<double>(s.aborted.value));
  report.Add("net_messages", static_cast<double>(s.messages.value));
  report.Add("wal_bytes_max", static_cast<double>(s.wal_bytes.value));
  report.Add("wal_held_max", static_cast<double>(s.wal_held.value));
  report.Add("wal_digest_held_max", static_cast<double>(s.wal_digest.value));
  report.Add("rpc_window_held_max", static_cast<double>(s.rpc_window.value));

  return bench::RunChecks(
      args, report, s.Check(),
      [](const bench::Fields& baseline, const bench::Fields& current) {
        bool pass = true;
        // Deterministic counters: exact. A legitimate behavior change
        // must regenerate the baseline in the same PR (bench/README.md).
        pass &= CheckExact(baseline, current, "committed");
        pass &= CheckExact(baseline, current, "net_messages");
        pass &= CheckExact(baseline, current, "wal_bytes_max");
        pass &= CheckExact(baseline, current, "wal_held_max");
        pass &= CheckExact(baseline, current, "wal_digest_held_max");
        pass &= CheckExact(baseline, current, "rpc_window_held_max");
        // Wall-time-shaped metrics (medians): 2x bounds — this run is an
        // order of magnitude longer than M6's macro section and its wall
        // time swings ~40% between cold and warm runs on small CI boxes.
        pass &= CheckMetric(baseline, current, "wall_ms", 2.0, false);
        pass &= CheckMetric(baseline, current, "msgs_per_sec", 2.0, true);
        // Allocation behavior: exact measurement, 2x bound with slack.
        pass &= CheckMetric(baseline, current, "allocs_per_txn", 2.0, false,
                            /*slack=*/16.0);
        return pass;
      });
}

}  // namespace
}  // namespace rainbow

int main(int argc, char** argv) { return rainbow::Main(argc, argv); }
