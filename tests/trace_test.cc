// Tests for the structured per-transaction tracing subsystem: the
// TraceCollector itself, the ASCII / Chrome trace_event exporters, and
// the determinism gate — two same-seed runs of the shipped classroom
// configuration must produce byte-identical exports.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/trace.h"
#include "core/system.h"
#include "fault/fault_injector.h"
#include "fault/fault_script.h"
#include "stats/progress_monitor.h"
#include "stats/trace_export.h"
#include "verify/checker.h"
#include "workload/workload.h"

namespace rainbow {
namespace {

TraceRecord Rec(SimTime t, TraceEventKind k, TxnId txn,
                SiteId site = kInvalidSite) {
  TraceRecord r;
  r.time = t;
  r.kind = k;
  r.txn = txn;
  r.site = site;
  return r;
}

TEST(TraceCollectorTest, OffByDefaultAndEmitIsNoOp) {
  TraceCollector c;
  EXPECT_FALSE(c.enabled());
  c.Emit(Rec(1, TraceEventKind::kTxnSubmit, TxnId{0, 1}));
  EXPECT_TRUE(c.records().empty());
}

TEST(TraceCollectorTest, DetailLevels) {
  TraceCollector c;
  c.set_detail(TraceDetail::kProtocol);
  EXPECT_TRUE(c.enabled());
  EXPECT_FALSE(c.full());
  c.set_detail(TraceDetail::kFull);
  EXPECT_TRUE(c.full());
}

TEST(TraceCollectorTest, FiltersAndTransactionOrder) {
  TraceCollector c;
  c.set_detail(TraceDetail::kProtocol);
  TxnId a{0, 1}, b{1, 1};
  c.Emit(Rec(10, TraceEventKind::kTxnSubmit, a, 0));
  c.Emit(Rec(11, TraceEventKind::kTxnSubmit, b, 1));
  c.Emit(Rec(12, TraceEventKind::kCcBlock, a, 2));
  c.Emit(Rec(13, TraceEventKind::kTxnCommit, a, 0));
  c.Emit(Rec(14, TraceEventKind::kTxnAbort, b, 1));

  EXPECT_EQ(c.records().size(), 5u);
  EXPECT_EQ(c.ForTxn(a).size(), 3u);
  EXPECT_EQ(c.ForTxn(b).size(), 2u);
  EXPECT_EQ(c.CountKind(TraceEventKind::kTxnSubmit), 2u);
  EXPECT_EQ(c.CountKind(TraceEventKind::kCcBlock), 1u);
  auto txns = c.Transactions();
  ASSERT_EQ(txns.size(), 2u);
  EXPECT_EQ(txns[0], a);  // ordered by first appearance
  EXPECT_EQ(txns[1], b);
}

TEST(TraceCollectorTest, CapacityEvictsOlderHalf) {
  TraceCollector c;
  c.set_detail(TraceDetail::kProtocol);
  c.set_capacity(100);
  for (int i = 0; i < 150; ++i) {
    c.Emit(Rec(i, TraceEventKind::kMsgSend, TxnId{0, 1}));
  }
  EXPECT_LE(c.records().size(), 100u);
  EXPECT_EQ(c.dropped(), 50u);
  // The survivors are the newest records.
  EXPECT_EQ(c.records().back().time, 149);
}

TEST(TraceDiffTest, IdenticalTexts) {
  TraceDiff d = DiffTraceText("a\nb\nc\n", "a\nb\nc\n");
  EXPECT_TRUE(d.identical);
  EXPECT_EQ(d.left_lines, 3u);
  EXPECT_NE(d.Describe().find("identical"), std::string::npos);
}

TEST(TraceDiffTest, ReportsFirstDivergingLine) {
  TraceDiff d = DiffTraceText("a\nb\nc\n", "a\nX\nc\n");
  EXPECT_FALSE(d.identical);
  EXPECT_EQ(d.line, 2u);
  EXPECT_EQ(d.left, "b");
  EXPECT_EQ(d.right, "X");
  EXPECT_EQ(d.left_lines, 3u);
  EXPECT_EQ(d.right_lines, 3u);
}

TEST(TraceDiffTest, LengthMismatch) {
  TraceDiff d = DiffTraceText("a\nb\n", "a\n");
  EXPECT_FALSE(d.identical);
  EXPECT_EQ(d.line, 2u);
  EXPECT_EQ(d.right, "<end of input>");
}

class TracedRunTest : public ::testing::Test {
 protected:
  static SystemConfig BaseConfig() {
    SystemConfig cfg;
    cfg.seed = 4242;
    cfg.num_sites = 3;
    cfg.AddFullyReplicatedItems(8, 100);
    return cfg;
  }

  static WorkloadConfig BaseWorkload() {
    WorkloadConfig wl;
    wl.seed = 4242;
    wl.num_txns = 25;
    wl.mpl = 4;
    return wl;
  }

  /// Runs a traced workload (with `faults` scheduled) and returns the
  /// finished system.
  static std::unique_ptr<RainbowSystem> RunTraced(
      TraceDetail detail, const std::vector<FaultEvent>& faults = {}) {
    SystemConfig cfg = BaseConfig();
    cfg.trace_enabled = true;
    cfg.trace_detail = detail;
    auto sys = RainbowSystem::Create(cfg);
    EXPECT_TRUE(sys.ok()) << sys.status();
    FaultInjector inject(sys->get());
    inject.ScheduleAll(faults);
    WorkloadGenerator gen(sys->get(), BaseWorkload());
    gen.Run();
    (*sys)->RunToQuiescence();
    return std::move(*sys);
  }
};

TEST_F(TracedRunTest, DisabledTracingRecordsNothing) {
  SystemConfig cfg = BaseConfig();
  cfg.trace_enabled = false;
  auto sys = RainbowSystem::Create(cfg);
  ASSERT_TRUE(sys.ok());
  WorkloadGenerator gen(sys->get(), BaseWorkload());
  gen.Run();
  (*sys)->RunToQuiescence();
  EXPECT_TRUE((*sys)->collector().records().empty());
}

TEST_F(TracedRunTest, ProtocolDetailCapturesLifecycle) {
  auto sys = RunTraced(TraceDetail::kProtocol);
  const TraceCollector& c = sys->collector();
  EXPECT_GT(c.CountKind(TraceEventKind::kTxnSubmit), 0u);
  EXPECT_GT(c.CountKind(TraceEventKind::kQuorumPlan), 0u);
  EXPECT_GT(c.CountKind(TraceEventKind::kCcGrant), 0u);
  EXPECT_GT(c.CountKind(TraceEventKind::kVote), 0u);
  EXPECT_GT(c.CountKind(TraceEventKind::kDecision), 0u);
  EXPECT_GT(c.CountKind(TraceEventKind::kTxnCommit), 0u);
  // Message-level events are reserved for full detail.
  EXPECT_EQ(c.CountKind(TraceEventKind::kMsgSend), 0u);
  EXPECT_EQ(c.CountKind(TraceEventKind::kMsgRecv), 0u);

  // Every committed transaction's timeline starts with its submit.
  for (TxnId txn : c.Transactions()) {
    auto events = c.ForTxn(txn);
    ASSERT_FALSE(events.empty());
    EXPECT_EQ(events.front().kind, TraceEventKind::kTxnSubmit)
        << txn.ToString();
    for (size_t i = 1; i < events.size(); ++i) {
      EXPECT_GE(events[i].time, events[i - 1].time) << txn.ToString();
    }
  }
}

TEST_F(TracedRunTest, FullDetailAddsMessageEvents) {
  auto sys = RunTraced(TraceDetail::kFull);
  const TraceCollector& c = sys->collector();
  EXPECT_GT(c.CountKind(TraceEventKind::kMsgSend), 0u);
  EXPECT_GT(c.CountKind(TraceEventKind::kMsgRecv), 0u);
  EXPECT_GT(c.CountKind(TraceEventKind::kRpcAttempt), 0u);
}

TEST_F(TracedRunTest, AsciiRendersContainEvents) {
  auto sys = RunTraced(TraceDetail::kProtocol);
  const TraceCollector& c = sys->collector();
  ASSERT_FALSE(c.Transactions().empty());
  TxnId first = c.Transactions().front();

  std::string timeline = RenderTxnTimeline(c, first);
  EXPECT_NE(timeline.find(first.ToString()), std::string::npos);
  EXPECT_NE(timeline.find("txn_submit"), std::string::npos);

  std::string summary = RenderTraceSummary(c);
  EXPECT_NE(summary.find(first.ToString()), std::string::npos);
  EXPECT_NE(summary.find("outcome"), std::string::npos);

  std::string window = ProgressMonitor::RenderExecutionWindow(c, 10);
  EXPECT_NE(window.find("execution window"), std::string::npos);
}

TEST_F(TracedRunTest, CrashRecoverAndFaultsAreTypedRecords) {
  auto faults = ParseFaultScript(
      "5000 crash 1\n"
      "8000 linkdown 0 2\n"
      "40000 recover 1\n"
      "45000 linkup 0 2\n");
  ASSERT_TRUE(faults.ok()) << faults.status();
  auto sys = RunTraced(TraceDetail::kProtocol, *faults);
  const TraceCollector& c = sys->collector();

  // The crash and the recovery are the site's own records, one each.
  ASSERT_EQ(c.CountKind(TraceEventKind::kSiteCrash), 1u);
  ASSERT_EQ(c.CountKind(TraceEventKind::kSiteRecover), 1u);
  for (const TraceRecord& r : c.records()) {
    if (r.kind == TraceEventKind::kSiteCrash) {
      EXPECT_EQ(r.site, 1u);
      EXPECT_EQ(r.time, 5000);
    }
    if (r.kind == TraceEventKind::kSiteRecover) {
      EXPECT_EQ(r.site, 1u);
      EXPECT_EQ(r.time, 40000);
      EXPECT_NE(r.detail.find("redo="), std::string::npos) << r.detail;
    }
  }

  // Link faults carry their script line, which parses back to the
  // scheduled event.
  std::vector<FaultEvent> traced;
  for (const TraceRecord& r : c.records()) {
    if (r.kind != TraceEventKind::kFault) continue;
    std::string command = r.detail.substr(r.detail.find(' ') + 1);
    auto e = ParseFaultCommand(command, r.time);
    ASSERT_TRUE(e.ok()) << r.detail << ": " << e.status();
    EXPECT_EQ(FormatFaultEvent(*e), r.detail);
    traced.push_back(*e);
  }
  EXPECT_EQ(traced, (std::vector<FaultEvent>{(*faults)[1], (*faults)[3]}));

  auto diff = SameSeedTraceDiff(BaseConfig(), BaseWorkload(), *faults);
  ASSERT_TRUE(diff.ok()) << diff.status();
  EXPECT_TRUE(diff->identical) << diff->Describe();
}

TEST_F(TracedRunTest, ChromeTraceJsonIsWellFormed) {
  auto sys = RunTraced(TraceDetail::kFull);
  std::string json = ChromeTraceJson(sys->collector());
  // Array format, one event per line, with the metadata the viewers
  // need to label processes (transactions) and threads (sites).
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find(R"("name":"process_name")"), std::string::npos);
  EXPECT_NE(json.find(R"("name":"thread_name")"), std::string::npos);
  EXPECT_NE(json.find(R"("name":"system")"), std::string::npos);
  EXPECT_NE(json.find(R"("ph":"i")"), std::string::npos);
  EXPECT_NE(json.find(R"("s":"t")"), std::string::npos);
  EXPECT_NE(json.find("txn_submit"), std::string::npos);

  // Balanced braces line by line (each line is one complete object).
  std::istringstream lines(json);
  std::string line;
  size_t events = 0;
  while (std::getline(lines, line)) {
    if (line == "[" || line == "]") continue;
    int depth = 0;
    bool in_string = false;
    for (size_t i = 0; i < line.size(); ++i) {
      char ch = line[i];
      if (ch == '"' && (i == 0 || line[i - 1] != '\\')) in_string = !in_string;
      if (in_string) continue;
      if (ch == '{') ++depth;
      if (ch == '}') --depth;
    }
    EXPECT_EQ(depth, 0) << "unbalanced event line: " << line;
    ++events;
  }
  EXPECT_GT(events, sys->collector().records().size());
}

TEST_F(TracedRunTest, SameSeedRunsExportByteIdentical) {
  auto diff = SameSeedTraceDiff(BaseConfig(), BaseWorkload());
  ASSERT_TRUE(diff.ok()) << diff.status();
  EXPECT_TRUE(diff->identical) << diff->Describe();
  EXPECT_GT(diff->left_lines, 0u);
}

TEST_F(TracedRunTest, DifferentSeedsActuallyDiverge) {
  // Sanity check that the diff is not vacuously identical.
  auto first = RunAndExportChromeTrace(BaseConfig(), BaseWorkload());
  SystemConfig other = BaseConfig();
  other.seed = 4243;
  auto second = RunAndExportChromeTrace(other, BaseWorkload());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(DiffTraceText(*first, *second).identical);
}

/// Everything observable from one run of the fault-heavy scenario below.
struct RunArtifacts {
  std::string records;
  std::string session_log;
  std::string verify_report;
  bool verify_ok = false;
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

/// 8 sites with per-site clients and scans, under a site crash/recover,
/// a name-server outage and a partition window.
RunArtifacts RunFaultScenario(uint64_t seed) {
  SystemConfig cfg;
  cfg.seed = seed;
  cfg.num_sites = 8;
  cfg.trace_enabled = true;
  cfg.trace_detail = TraceDetail::kFull;
  cfg.AddUniformItems(24, 100, 3);
  auto sys = RainbowSystem::Create(cfg);
  EXPECT_TRUE(sys.ok()) << sys.status();
  RainbowSystem& s = **sys;
  s.set_keep_outcomes(true);

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
  wl.scan_fraction = 0.15;
  wl.scan_length = 4;
  wl.per_site_clients = true;
  WorkloadGenerator wlg(&s, wl);
  wlg.Run();
  while (!wlg.finished() && s.sim().Now() < Seconds(30)) {
    s.RunFor(Millis(50));
    if (s.Idle() && !wlg.finished()) break;
  }
  s.RunFor(Millis(500));
  EXPECT_TRUE(wlg.finished());

  RunArtifacts a;
  const TraceCollector& c = s.collector();
  a.records = ProgressMonitor::RenderExecutionWindow(c, 0);
  a.site_crashes = c.CountKind(TraceEventKind::kSiteCrash);
  a.site_recoveries = c.CountKind(TraceEventKind::kSiteRecover);
  a.faults = c.CountKind(TraceEventKind::kFault);
  const ProgressMonitor& m = s.monitor();
  a.session_log = m.RenderSessionLog();
  a.submitted = m.submitted();
  a.committed = m.committed();
  a.aborted = m.aborted_total();
  CheckReport report = s.VerifyHistory();
  a.verify_report = report.Render();
  a.verify_ok = report.ok() && !report.truncated;
  a.net_sent = s.net().stats().network_sent();
  a.delivered = s.net().stats().delivered;
  a.bytes = s.net().stats().bytes;
  a.end_time = s.sim().Now();
  return a;
}

TEST(TraceDeterminismTest, SameSeedRepeatRunsMatchAllArtifacts) {
  const uint64_t kSeed = 20260808;
  RunArtifacts a = RunFaultScenario(kSeed);
  // The whole fault schedule fired inside the run: site 5 and the name
  // server each crashed and recovered once; partition + heal.
  EXPECT_EQ(a.site_crashes, 2u);
  EXPECT_EQ(a.site_recoveries, 2u);
  EXPECT_EQ(a.faults, 2u);
  EXPECT_GT(a.committed, 0u);
  EXPECT_TRUE(a.verify_ok) << a.verify_report;

  RunArtifacts b = RunFaultScenario(kSeed);
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.aborted, b.aborted);
  EXPECT_EQ(a.net_sent, b.net_sent);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.session_log, b.session_log);
  EXPECT_TRUE(b.verify_ok) << b.verify_report;
  EXPECT_EQ(a.verify_report, b.verify_report);
  EXPECT_EQ(a.records, b.records);
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(TraceDeterminismTest, ClassroomDefaultConfigIsByteIdentical) {
  // The acceptance gate: the shipped classroom configuration, run twice
  // from the same seed, exports byte-identical Chrome traces. CI runs
  // the same check through `trace_explorer --selfdiff`.
  std::string text = ReadFileOrEmpty(std::string(RAINBOW_SOURCE_DIR) +
                                     "/configs/classroom_default.rainbow");
  ASSERT_FALSE(text.empty());
  auto cfg = SystemConfig::FromText(text);
  ASSERT_TRUE(cfg.ok()) << cfg.status();

  WorkloadConfig wl;
  wl.seed = cfg->seed;
  wl.num_txns = 30;
  wl.mpl = 4;
  wl.max_retries = 3;

  auto diff = SameSeedTraceDiff(*cfg, wl);
  ASSERT_TRUE(diff.ok()) << diff.status();
  EXPECT_TRUE(diff->identical) << diff->Describe();
}

TEST(TraceDeterminismTest, VerifyCodecDoesNotChangeTheRun) {
  // Message sizes feed the latency model and always come from the wire
  // codec, so the codec round trip is a pure check: the same seed runs
  // the same execution with it on or off.
  std::string text = ReadFileOrEmpty(std::string(RAINBOW_SOURCE_DIR) +
                                     "/configs/classroom_default.rainbow");
  ASSERT_FALSE(text.empty());
  auto cfg = SystemConfig::FromText(text);
  ASSERT_TRUE(cfg.ok()) << cfg.status();
  cfg->trace_enabled = true;
  cfg->trace_detail = TraceDetail::kFull;

  WorkloadConfig wl;
  wl.seed = cfg->seed;
  wl.num_txns = 300;
  wl.mpl = 4;
  wl.max_retries = 3;

  struct Run {
    std::vector<TraceRecord> records;
    std::string chrome;
    NetworkStats net;
  };
  auto run = [&](bool verify_codec) {
    SystemConfig c = *cfg;
    c.verify_codec = verify_codec;
    auto sys = RainbowSystem::Create(c);
    EXPECT_TRUE(sys.ok()) << sys.status();
    WorkloadGenerator gen(sys->get(), wl);
    gen.Run();
    (*sys)->RunToQuiescence();
    EXPECT_TRUE(gen.finished());
    return Run{(*sys)->collector().records(),
               ChromeTraceJson((*sys)->collector()), (*sys)->net().stats()};
  };
  const Run off = run(false);
  const Run on = run(true);

  EXPECT_EQ(on.net.codec_failures, 0u);
  EXPECT_GT(off.net.bytes, 0u);
  EXPECT_EQ(off.net.bytes, on.net.bytes);
  EXPECT_EQ(off.net.sent, on.net.sent);
  EXPECT_EQ(off.net.delivered, on.net.delivered);
  EXPECT_EQ(off.net.local, on.net.local);
  EXPECT_EQ(off.net.by_kind, on.net.by_kind);
  EXPECT_EQ(off.net.per_bucket, on.net.per_bucket);
  auto fields = [](const TraceRecord& r) {
    return std::tie(r.time, r.kind, r.txn.home, r.txn.seq, r.site, r.peer,
                    r.item, r.arg, r.detail);
  };
  ASSERT_EQ(off.records.size(), on.records.size());
  for (size_t i = 0; i < off.records.size(); ++i) {
    ASSERT_TRUE(fields(off.records[i]) == fields(on.records[i]))
        << "first differing trace record: " << i;
  }
  TraceDiff diff = DiffTraceText(off.chrome, on.chrome);
  EXPECT_TRUE(diff.identical) << diff.Describe();
}

}  // namespace
}  // namespace rainbow
