// End-to-end tests for the sharded simulation kernel: a whole-system
// smoke at sim_shards=4, the headline same-seed trace gate — canonical
// traces, session logs, histories and network totals must be
// byte-identical at sim_shards 1, 2 and 4 — and a calm-profile nemesis
// sweep with the protocol-invariant checker as oracle.

#include <gtest/gtest.h>

#include <string>

#include "core/system.h"
#include "fault/fault_injector.h"
#include "fault/fault_script.h"
#include "fault/nemesis.h"
#include "stats/progress_monitor.h"
#include "stats/trace_export.h"
#include "verify/history.h"
#include "workload/workload.h"

namespace rainbow {
namespace {

SystemConfig ShardTopology(uint32_t shards, uint64_t seed) {
  SystemConfig cfg;
  cfg.seed = seed;
  cfg.num_sites = 8;
  cfg.sim_shards = shards;
  cfg.trace_enabled = true;
  cfg.trace_detail = TraceDetail::kFull;
  cfg.record_history = true;
  cfg.AddUniformItems(24, 100, 3);
  return cfg;
}

TEST(ShardedSystemTest, SingleTransactionCommitsAtFourShards) {
  auto sys = RainbowSystem::Create(ShardTopology(4, 77));
  ASSERT_TRUE(sys.ok()) << sys.status();
  RainbowSystem& s = **sys;
  ASSERT_NE(s.sharded(), nullptr);

  TxnProgram p;
  p.ops = {Op::Read(0), Op::Write(1, 55)};
  TxnOutcome outcome;
  bool done = false;
  ASSERT_TRUE(s.Submit(5, p, [&](const TxnOutcome& o) {
                 outcome = o;
                 done = true;
               }).ok());
  s.RunToQuiescence(1'000'000);
  ASSERT_TRUE(done);
  EXPECT_TRUE(outcome.committed) << outcome.ToString();
  auto latest = s.LatestCommitted(1);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->value, 55);
  EXPECT_GT(s.sharded()->windows_run(), 0u);
  EXPECT_GT(s.sharded()->cross_shard_posts(), 0u);
}

/// Everything observable from one run, in canonical form.
struct RunArtifacts {
  std::string records;
  std::string session_log;
  std::string history;
  uint64_t submitted = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t net_sent = 0;
  uint64_t delivered = 0;
  uint64_t bytes = 0;
  SimTime end_time = 0;
  size_t site_crashes = 0;
  size_t site_recoveries = 0;
  size_t faults = 0;
};

RunArtifacts RunOnce(uint32_t shards, uint64_t seed) {
  auto sys = RainbowSystem::Create(ShardTopology(shards, seed));
  EXPECT_TRUE(sys.ok()) << sys.status();
  RainbowSystem& s = **sys;
  s.set_keep_outcomes(true);

  // Faults run on the control lane while site records land in shard
  // buffers: a site crash/recover, a partition window and a name-server
  // outage put kSiteCrash / kSiteRecover / kFault records under the gate.
  auto faults = ParseFaultScript(
      "20003 crash 5\n"
      "25007 crashns\n"
      "30011 partition 0 1 2 3 | 4 5 6 7\n"
      "45001 recoverns\n"
      "55013 heal\n"
      "70009 recover 5\n");
  EXPECT_TRUE(faults.ok()) << faults.status();
  FaultInjector inject(&s);
  inject.ScheduleAll(*faults);

  WorkloadConfig wl;
  wl.seed = seed ^ 0x5eed;
  wl.num_txns = 96;
  wl.mpl = 8;
  wl.max_retries = 2;
  // Exercise the scan verb (page-engine leaf-chain reads) under the
  // byte-identical gate too.
  wl.scan_fraction = 0.15;
  wl.scan_length = 4;
  // Identical client model at every shard count (forced anyway for
  // shards > 1; set explicitly so the 1-shard baseline matches).
  wl.per_site_clients = true;
  WorkloadGenerator wlg(&s, wl);
  wlg.Run();
  while (!wlg.finished() && s.sim().Now() < Seconds(30)) {
    s.RunFor(Millis(50));
    if (s.Idle() && !wlg.finished()) break;
  }
  s.RunFor(Millis(500));
  EXPECT_TRUE(wlg.finished());

  // Canonicalize copies on both sides: the single kernel keeps raw
  // execution order, the sharded accessors already merge — sorting both
  // by (time, site) makes the comparison mode-independent.
  RunArtifacts a;
  TraceCollector c = s.collector();
  c.CanonicalSort();
  a.records = ProgressMonitor::RenderExecutionWindow(c, 0);
  a.site_crashes = c.CountKind(TraceEventKind::kSiteCrash);
  a.site_recoveries = c.CountKind(TraceEventKind::kSiteRecover);
  a.faults = c.CountKind(TraceEventKind::kFault);
  ProgressMonitor m = s.monitor();
  m.CanonicalizeOutcomes();
  a.session_log = m.RenderSessionLog();
  a.submitted = m.submitted();
  a.committed = m.committed();
  a.aborted = m.aborted_total();
  HistoryRecorder h = s.history();
  h.CanonicalSort();
  a.history = RenderHistory(h.transactions());
  a.net_sent = s.net().stats().network_sent();
  a.delivered = s.net().stats().delivered;
  a.bytes = s.net().stats().bytes;
  a.end_time = s.sim().Now();
  EXPECT_GT(a.committed, 0u);
  return a;
}

/// The headline gate: same seed => byte-identical canonical artifacts
/// at any shard count (the programmatic `diff` of the 1-shard and
/// 4-shard trace dumps).
TEST(ShardedDeterminismTest, SameSeedTraceDiffAcrossShardCounts) {
  const uint64_t kSeed = 20260808;
  RunArtifacts base = RunOnce(1, kSeed);
  // The whole fault schedule fired inside the run: site 5 and the name
  // server each crashed and recovered once; partition + heal.
  EXPECT_EQ(base.site_crashes, 2u);
  EXPECT_EQ(base.site_recoveries, 2u);
  EXPECT_EQ(base.faults, 2u);
  for (uint32_t shards : {2u, 4u}) {
    SCOPED_TRACE("sim_shards=" + std::to_string(shards));
    RunArtifacts r = RunOnce(shards, kSeed);
    EXPECT_EQ(base.submitted, r.submitted);
    EXPECT_EQ(base.committed, r.committed);
    EXPECT_EQ(base.aborted, r.aborted);
    EXPECT_EQ(base.net_sent, r.net_sent);
    EXPECT_EQ(base.delivered, r.delivered);
    EXPECT_EQ(base.bytes, r.bytes);
    EXPECT_EQ(base.end_time, r.end_time);
    EXPECT_EQ(base.session_log, r.session_log);
    EXPECT_EQ(base.history, r.history);
    EXPECT_EQ(base.records, r.records);
  }
}

/// Re-running the same configuration must also be self-deterministic
/// (thread scheduling can not leak into the execution).
TEST(ShardedDeterminismTest, RepeatRunsAreIdenticalAtFourShards) {
  const uint64_t kSeed = 4242;
  RunArtifacts a = RunOnce(4, kSeed);
  RunArtifacts b = RunOnce(4, kSeed);
  EXPECT_EQ(a.records, b.records);
  EXPECT_EQ(a.session_log, b.session_log);
  EXPECT_EQ(a.net_sent, b.net_sent);
}

/// The library-level gate (usable from examples/CI without gtest):
/// Chrome-trace exports are byte-identical at 1 vs 4 shards.
TEST(ShardedDeterminismTest, ChromeTraceExportInvariantUnderShardCount) {
  SystemConfig cfg = ShardTopology(1, 99);
  WorkloadConfig wl;
  wl.seed = 7;
  wl.num_txns = 40;
  wl.mpl = 4;
  auto diff = ShardCountTraceDiff(cfg, wl, 1, 4);
  ASSERT_TRUE(diff.ok()) << diff.status();
  EXPECT_TRUE(diff->identical) << diff->Describe();
}

/// Nemesis smoke under sharding: five calm-profile schedules at
/// sim_shards=4 with the invariant checker as oracle. Faults flow
/// through the control lane; this keeps the barrier/mailbox machinery
/// honest under crashes, partitions and link overrides.
TEST(ShardedNemesisTest, CalmProfileFiveSeedsCleanAtFourShards) {
  NemesisOptions opts;
  opts.seed = 0xca1f;
  opts.profile = "calm";
  opts.rounds = 5;
  opts.txns = 60;
  opts.mpl = 4;
  opts.shrink = false;
  opts.base_config.sim_shards = 4;
  auto nem = Nemesis::Make(opts);
  ASSERT_TRUE(nem.ok()) << nem.status();
  NemesisResult r = nem->Run();
  EXPECT_FALSE(r.found_violation) << r.report;
  EXPECT_EQ(r.rounds_run, 5u);
}

}  // namespace
}  // namespace rainbow
