// M8: the page storage engine under memory pressure, with a
// machine-readable baseline. Four sections:
//
//   * load — bulk-build the B+ tree with 1M items through a buffer pool
//     that holds a small fraction of the data (load rate, pages
//     allocated, tree height).
//   * point — zipfian point ops (80% Get / 20% committed Apply) against
//     the warmed pool; reports ops/sec, buffer hit rate and pages
//     evicted — the classic "working set vs pool size" curve every
//     storage lecture draws.
//   * scan — leaf-chain range scans of 64 items from zipfian start
//     keys; reports scanned items/sec.
//   * restart — a crash (pool dropped) after a batch of logged commits,
//     then the ARIES analysis->redo->undo pass; reports replay time and
//     redo counts.
//   * checkpoint — a second store running fuzzy checkpoints on a fixed
//     LSN cadence; crash-and-restart after 20k and again after 100k
//     commits. With checkpoints the analysis scan starts at the last
//     complete checkpoint, so the 100k restart must scan at most ~2x
//     the records of the 20k restart even though the log is 5x longer
//     (hard in-binary gate on the ratio).
//   * checkpoint history — a third store whose transactions also log
//     the commit protocol (kPrepared -> kCommitDecision -> kApplied),
//     so the WAL's per-transaction digest grows to ~100k entries. A
//     timed Checkpoint() every few transactions; the median over the
//     last 10% must stay within 2x the median over the first 10%
//     (hard in-binary gate): a checkpoint's cost must not grow with
//     the number of transactions the log has seen.
//
// The numbers are written as flat JSON (bench::EmitJson). The repo
// checks in BENCH_M8.json as the baseline; the CI perf-smoke step runs
// this binary with --check BENCH_M8.json, which fails on throughput
// regressions beyond 1.5x (wall-clock, loose for CI noise) or a buffer
// hit rate drop beyond 10% (deterministic, the real gate: the replacer
// or pool accounting regressing shows up here immediately).
//
// Flags:
//   --out FILE    write the JSON report here (nothing is written without it)
//   --check FILE  compare against a baseline JSON; exit 1 on regression
//   --items N     override the item count (default 1,000,000)

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "storage/storage_engine.h"

namespace rainbow {
namespace {

using bench::Clock;
using bench::CheckMetric;
using bench::ElapsedSec;

constexpr uint32_t kPageSize = 4096;
constexpr size_t kPoolPages = 256;  // 1 MiB of pool vs ~20 MiB of data
constexpr size_t kLruK = 2;
constexpr int kPointOps = 400000;
constexpr int kScanOps = 20000;
constexpr uint32_t kScanLength = 64;
constexpr int kRestartTxns = 20000;
constexpr double kZipfTheta = 0.99;
constexpr uint32_t kCheckpointItems = 100000;
constexpr uint64_t kCheckpointInterval = 5000;  // LSNs between checkpoints
// Crash points sit off the natural checkpoint cadence (~1250 commits at
// 4 log records per commit) so the analysis tail is a representative
// partial window rather than the degenerate crash-right-after-checkpoint.
constexpr int kCheckpointTxnsSmall = 20700;
constexpr int kCheckpointTxnsLarge = 100700;
constexpr double kCheckpointScanRatioGate = 2.0;
constexpr int kHistoryTxns = 100000;
constexpr int kHistoryCheckpointEvery = 50;  // transactions per Checkpoint()
constexpr uint32_t kHistoryItems = 1000;
// The shipped [protocols] checkpoint_interval: its flush-behind keeps
// the dirty-page table from pinning the log head, so truncation keeps
// pace and only the protocol floor is left to grow with history.
constexpr uint64_t kShippedCheckpointInterval = 256;
constexpr double kHistoryRatioGate = 2.0;

int Main(int argc, char** argv) {
  bench::Args args;
  uint32_t num_items = 1000000;
  if (!bench::ParseArgs(argc, argv, args, {{"--items", &num_items}})) {
    return 2;
  }

  bench::PrintHeader("M8", "page storage engine (B+ tree / buffer pool / ARIES)");
  bench::Report report;

  Wal wal;
  PageStore store(&wal, PageStoreOptions{kPageSize, kPoolPages, kLruK});

  // --- load ---------------------------------------------------------------
  std::printf("-- load: %u items, %u B pages, %zu-frame pool --\n", num_items,
              kPageSize, kPoolPages);
  Clock::time_point t0 = Clock::now();
  for (uint32_t i = 0; i < num_items; ++i) {
    store.Load(i, static_cast<Value>(i));
  }
  store.FlushAll();
  Clock::time_point t1 = Clock::now();
  report.Add("load_items_per_sec",
             static_cast<double>(num_items) / ElapsedSec(t0, t1));
  report.Add("pages_allocated", static_cast<double>(store.disk().allocated_pages()));
  report.Add("tree_height", static_cast<double>(store.tree().height()));

  // --- point ops ----------------------------------------------------------
  std::printf("-- point: %d zipfian ops (80%% get / 20%% apply) --\n",
              kPointOps);
  Rng rng(20260808);
  ZipfSampler zipf(num_items, kZipfTheta);
  BufferPool::Stats before = store.pool().stats();
  Version version = 1;
  uint64_t sum = 0;
  t0 = Clock::now();
  for (int i = 0; i < kPointOps; ++i) {
    ItemId item = static_cast<ItemId>(zipf.Sample(rng));
    if (i % 5 == 0) {
      store.Apply(item, static_cast<Value>(i), version++);
    } else {
      auto copy = store.Get(item);
      if (copy.ok()) sum += static_cast<uint64_t>(copy->version);
    }
  }
  t1 = Clock::now();
  BufferPool::Stats after = store.pool().stats();
  uint64_t accesses = (after.hits - before.hits) + (after.misses - before.misses);
  report.Add("point_ops_per_sec",
             static_cast<double>(kPointOps) / ElapsedSec(t0, t1));
  report.Add("point_hit_rate",
             accesses == 0 ? 0.0
                           : static_cast<double>(after.hits - before.hits) /
                                 static_cast<double>(accesses));
  report.Add("point_pages_evicted",
             static_cast<double>(after.evictions - before.evictions));
  if (sum == 0) std::printf("  (checksum unused)\n");

  // --- scans --------------------------------------------------------------
  std::printf("-- scan: %d scans x %u items --\n", kScanOps, kScanLength);
  before = store.pool().stats();
  std::vector<std::pair<ItemId, ItemCopy>> out;
  uint64_t scanned = 0;
  t0 = Clock::now();
  for (int i = 0; i < kScanOps; ++i) {
    ItemId from = static_cast<ItemId>(zipf.Sample(rng));
    out.clear();
    store.Range(from, kScanLength, out);
    scanned += out.size();
  }
  t1 = Clock::now();
  after = store.pool().stats();
  accesses = (after.hits - before.hits) + (after.misses - before.misses);
  report.Add("scan_items_per_sec",
             static_cast<double>(scanned) / ElapsedSec(t0, t1));
  report.Add("scan_hit_rate",
             accesses == 0 ? 0.0
                           : static_cast<double>(after.hits - before.hits) /
                                 static_cast<double>(accesses));
  report.Add("scan_pages_evicted",
             static_cast<double>(after.evictions - before.evictions));

  // --- restart ------------------------------------------------------------
  std::printf("-- restart: crash after %d logged commits, ARIES replay --\n",
              kRestartTxns);
  uint64_t seq = 1;
  for (int i = 0; i < kRestartTxns; ++i) {
    ItemId item = static_cast<ItemId>(zipf.Sample(rng));
    TxnId txn{0, seq++};
    Value value = static_cast<Value>(i);
    store.LogPrewrite(txn, item, value);
    if (store.Apply(item, value, version++, txn)) {
      store.CommitStorageTxn(txn);
    } else {
      store.AbortStorageTxn(txn);
    }
  }
  store.OnCrash();
  t0 = Clock::now();
  RestartSummary rs = store.Restart();
  t1 = Clock::now();
  report.Add("restart_ms", ElapsedSec(t0, t1) * 1e3);
  report.Add("restart_redo_applied", static_cast<double>(rs.redo_applied));
  report.Add("restart_tentative_leaks", static_cast<double>(rs.tentative_leaks));
  if (rs.tentative_leaks != 0) {
    std::printf("GATE FAILED: restart left %zu tentative versions\n",
                rs.tentative_leaks);
    return 1;
  }

  // --- checkpoint ---------------------------------------------------------
  std::printf(
      "-- checkpoint: fuzzy checkpoints every %llu LSNs, restart after "
      "%d and %d commits --\n",
      static_cast<unsigned long long>(kCheckpointInterval),
      kCheckpointTxnsSmall, kCheckpointTxnsLarge);
  Wal ckpt_wal;
  PageStoreOptions ckpt_opts;
  ckpt_opts.page_size = kPageSize;
  ckpt_opts.pool_pages = kPoolPages;
  ckpt_opts.lru_k = kLruK;
  ckpt_opts.checkpoint_interval = kCheckpointInterval;
  PageStore ckpt_store(&ckpt_wal, ckpt_opts);
  for (uint32_t i = 0; i < kCheckpointItems; ++i) {
    ckpt_store.Load(i, static_cast<Value>(i));
  }
  ckpt_store.FlushAll();
  ZipfSampler ckpt_zipf(kCheckpointItems, kZipfTheta);
  Version ckpt_version = 1;
  uint64_t ckpt_seq = 1;
  auto run_commits = [&](int count) {
    for (int i = 0; i < count; ++i) {
      ItemId item = static_cast<ItemId>(ckpt_zipf.Sample(rng));
      TxnId txn{0, ckpt_seq++};
      Value value = static_cast<Value>(i);
      ckpt_store.LogPrewrite(txn, item, value);
      if (ckpt_store.Apply(item, value, ckpt_version++, txn)) {
        ckpt_store.CommitStorageTxn(txn);
      } else {
        ckpt_store.AbortStorageTxn(txn);
      }
    }
  };
  run_commits(kCheckpointTxnsSmall);
  ckpt_store.OnCrash();
  t0 = Clock::now();
  RestartSummary rs_small = ckpt_store.Restart();
  t1 = Clock::now();
  report.Add("ckpt_restart20_ms", ElapsedSec(t0, t1) * 1e3);
  report.Add("ckpt_scanned_20k", static_cast<double>(rs_small.log_scanned));
  run_commits(kCheckpointTxnsLarge - kCheckpointTxnsSmall);
  ckpt_store.OnCrash();
  t0 = Clock::now();
  RestartSummary rs_large = ckpt_store.Restart();
  t1 = Clock::now();
  report.Add("ckpt_restart100_ms", ElapsedSec(t0, t1) * 1e3);
  report.Add("ckpt_scanned_100k", static_cast<double>(rs_large.log_scanned));
  double scan_ratio = rs_small.log_scanned == 0
                          ? 0.0
                          : static_cast<double>(rs_large.log_scanned) /
                                static_cast<double>(rs_small.log_scanned);
  report.Add("ckpt_scan_ratio", scan_ratio);
  if (rs_small.tentative_leaks != 0 || rs_large.tentative_leaks != 0) {
    std::printf("GATE FAILED: checkpointed restart leaked tentative versions\n");
    return 1;
  }
  if (scan_ratio > kCheckpointScanRatioGate) {
    std::printf(
        "GATE FAILED: 100k-commit restart scanned %.2fx the records of the "
        "20k restart (gate %.1fx) — checkpoints are not bounding analysis\n",
        scan_ratio, kCheckpointScanRatioGate);
    return 1;
  }

  // --- checkpoint history -------------------------------------------------
  std::printf(
      "-- checkpoint history: %d protocol-logged txns, Checkpoint() every "
      "%d --\n",
      kHistoryTxns, kHistoryCheckpointEvery);
  Wal hist_wal;
  PageStoreOptions hist_opts = ckpt_opts;
  hist_opts.checkpoint_interval = kShippedCheckpointInterval;
  PageStore hist_store(&hist_wal, hist_opts);
  for (uint32_t i = 0; i < kHistoryItems; ++i) {
    hist_store.Load(i, static_cast<Value>(i));
  }
  hist_store.FlushAll();
  Version hist_version = 1;
  std::vector<double> ckpt_us;
  for (int i = 0; i < kHistoryTxns; ++i) {
    // A participant's commit: prepare, learn the decision, apply, and
    // close — the digest keeps an entry for the transaction forever.
    TxnId txn{1, static_cast<uint64_t>(i) + 1};
    ItemId item = static_cast<ItemId>(rng.NextUint(kHistoryItems));
    Value value = static_cast<Value>(i);
    Version v = hist_version++;
    hist_store.LogPrewrite(txn, item, value);
    hist_wal.Append(WalRecord::Protocol(WalRecordKind::kPrepared, txn, 0,
                                        {{item, value, v}}, {0, 1}, false));
    hist_wal.Append(WalRecord::Protocol(WalRecordKind::kCommitDecision, txn,
                                        0, {}, {}, false));
    hist_store.Apply(item, value, v, txn);
    hist_store.CommitStorageTxn(txn);
    hist_wal.Append(
        WalRecord::Protocol(WalRecordKind::kApplied, txn, 0, {}, {}, false));
    if ((i + 1) % kHistoryCheckpointEvery == 0) {
      t0 = Clock::now();
      hist_store.Checkpoint();
      t1 = Clock::now();
      ckpt_us.push_back(ElapsedSec(t0, t1) * 1e6);
    }
  }
  const size_t tenth = ckpt_us.size() / 10;
  double early_us = bench::Quartiles(std::vector<double>(
      ckpt_us.begin(), ckpt_us.begin() + static_cast<ptrdiff_t>(tenth))).median;
  double late_us = bench::Quartiles(std::vector<double>(
      ckpt_us.end() - static_cast<ptrdiff_t>(tenth), ckpt_us.end())).median;
  double history_ratio = early_us > 0.0 ? late_us / early_us : 0.0;
  std::printf("  checkpoint median first 10%% %.3f us, last 10%% %.3f us, "
              "wal base %llu of %llu\n",
              early_us, late_us,
              static_cast<unsigned long long>(hist_wal.base()),
              static_cast<unsigned long long>(hist_wal.LastLsn()));
  report.Add("ckpt_late_early_ratio", history_ratio);
  if (history_ratio > kHistoryRatioGate) {
    std::printf(
        "GATE FAILED: late checkpoints cost %.2fx the early ones (gate "
        "%.1fx) — checkpoint work grows with transaction history\n",
        history_ratio, kHistoryRatioGate);
    return 1;
  }

  return bench::RunChecks(
      args, report, /*gates_ok=*/true,
      [](const bench::Fields& baseline, const bench::Fields& current) {
        bool pass = true;
        // Wall-time-shaped metrics: loose 1.5x bound (CI machines are
        // noisy).
        pass &= CheckMetric(baseline, current, "load_items_per_sec", 1.5, true);
        pass &= CheckMetric(baseline, current, "point_ops_per_sec", 1.5, true);
        pass &= CheckMetric(baseline, current, "scan_items_per_sec", 1.5, true);
        pass &= CheckMetric(baseline, current, "restart_ms", 1.5, false);
        // Deterministic pool behavior: these move only when the
        // replacer, pool accounting, or tree layout changes — tight
        // bounds.
        pass &= CheckMetric(baseline, current, "point_hit_rate", 1.1, true);
        pass &=
            CheckMetric(baseline, current, "point_pages_evicted", 1.2, false);
        pass &= CheckMetric(baseline, current, "pages_allocated", 1.1, false);
        pass &= CheckMetric(baseline, current, "restart_tentative_leaks", 1.0,
                            false, /*slack=*/0.0);
        // Checkpointed restart: wall-time loose, scan counts
        // deterministic.
        pass &= CheckMetric(baseline, current, "ckpt_restart20_ms", 1.5, false);
        pass &=
            CheckMetric(baseline, current, "ckpt_restart100_ms", 1.5, false);
        pass &= CheckMetric(baseline, current, "ckpt_scan_ratio", 1.2, false);
        return pass;
      });
}

}  // namespace
}  // namespace rainbow

int main(int argc, char** argv) { return rainbow::Main(argc, argv); }
