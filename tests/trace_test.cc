// Tests for the structured per-transaction tracing subsystem: the
// TraceCollector itself, the ASCII / Chrome trace_event exporters, and
// the determinism gate — two same-seed runs of the shipped classroom
// configuration must produce byte-identical exports.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/trace.h"
#include "core/system.h"
#include "fault/fault_injector.h"
#include "fault/fault_script.h"
#include "stats/progress_monitor.h"
#include "stats/trace_export.h"
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

}  // namespace
}  // namespace rainbow
