// rainbow_bench: the end-to-end benchmark of Rainbow on its shipped
// configuration — page engine with CRC pages, a fuzzy checkpoint every
// 256 LSNs, QC + 2PL wait-die + 2PC, one simulation shard.
//
// One invocation runs one workload in this process. A repetition sets a
// system up, drives the workload to completion in 10 ms virtual-time
// windows, checks the outcome and probes the storage layer; repetitions
// run until --seconds is spent. The report lists every metric by name
// and unit, and its last line is one JSON result. run.py (next to this
// file) builds the binary and starts one process per workload.
//
//   rainbow_bench --workload classroom|contention|bigdata|topo512
//                 [--seed S] [--seconds T] [--trace 0|1] [--scale F]
//                 [--spans FILE]
//
// --trace 1 appends one traced repetition (the typed TraceCollector at
// protocol detail, drained every window so memory stays flat) and
// reports the per-layer metrics instead of the end-to-end ones.
// --scale multiplies the transaction count (the smoke test uses 0.01).
// --spans writes the benchmark's own host-time spans (set-up, windows,
// crash, recover, probes, checks) as Chrome trace JSON.
//
// The benchmark only calls public functions and reads public counters,
// so it measures each layer from outside.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/system.h"
#include "harness.h"
#include "storage/storage_engine.h"
#include "workload/workload.h"

namespace rainbow::bench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr SimTime kWindow = Millis(10);
constexpr SimTime kVirtualCap = Seconds(3600);
/// Lets acknowledgements, closers and refreshes drain after the last
/// transaction finishes, as RunSession does.
constexpr SimTime kSettle = Millis(500);
constexpr SimTime kFirstCrash = Seconds(1);
constexpr SimTime kRecoverAfter = Millis(200);
/// Every workload retries aborted transactions under their original
/// timestamp, so under wait-die each one eventually commits; aborts show
/// up as retries and in sim_commit_frac rather than as lost work.
constexpr uint32_t kMaxRetries = 100;
/// Set-up is timed in batches, one before the first repetition and one
/// after each: a batch runs set-up back to back until it has spent
/// kSetupBatchSeconds or taken kMaxSetupsPerBatch samples. Spreading
/// the batches over the run keeps a host slowdown of a second or two
/// from deciding the median. The run tops up to kMinSetups samples.
constexpr double kSetupBatchSeconds = 0.1;
constexpr size_t kMaxSetupsPerBatch = 10;
constexpr size_t kMinSetups = 5;
constexpr size_t kGetProbes = 4096;
constexpr size_t kRangeProbes = 1024;
constexpr size_t kRangeLength = 32;

volatile uint64_t g_sink = 0;

struct Spec {
  std::string name;
  SystemConfig system;
  WorkloadConfig workload;
  /// Crash one site at 1 s of virtual time and then once per period
  /// (0 = never); the early first crash lets short runs recover too.
  SimTime crash_period = 0;
};

std::optional<Spec> MakeSpec(const std::string& name, uint64_t seed,
                             double scale) {
  Spec s;
  s.name = name;
  s.system.seed = seed;
  WorkloadConfig& w = s.workload;
  w.seed = seed * 0x9e3779b97f4a7c15ull + 0x5eed;
  w.max_retries = kMaxRetries;
  w.retry_inherit_timestamp = true;
  double txns = 0;
  if (name == "classroom") {
    // The paper's classroom session. 8 sites keep each site's WAL
    // digest a large share of all transactions.
    s.system.num_sites = 8;
    s.system.AddUniformItems(2000, 100, 3);
    w.mpl = 16;
    w.read_fraction = 0.75;
    txns = 25000;
  } else if (name == "contention") {
    // A hot set small enough that concurrency control, aborts and
    // retries dominate; the data fits the buffer pool.
    s.system.num_sites = 16;
    s.system.AddUniformItems(256, 100, 3);
    w.pattern = AccessPattern::kZipf;
    w.zipf_theta = 0.99;
    w.read_fraction = 0.5;
    w.mpl = 16;
    txns = 12000;
  } else if (name == "bigdata") {
    // ~500 leaf pages per site against a 64-frame pool, range scans, and
    // a crash/recover cycle: storage read, write and restart paths.
    s.system.num_sites = 4;
    s.system.AddUniformItems(200000, 100, 2);
    w.read_fraction = 0.5;
    w.scan_fraction = 0.2;
    w.scan_length = kRangeLength;
    w.mpl = 8;
    txns = 4000;
    s.crash_period = Seconds(10);
  } else if (name == "topo512") {
    // 512 sites with one client each under an open Poisson loop, and the
    // wire codec on: kernel, delivery, RPC and codec do the most work.
    s.system.num_sites = 512;
    s.system.AddUniformItems(1536, 100, 3);
    s.system.verify_codec = true;
    w.per_site_clients = true;
    w.arrival = WorkloadConfig::Arrival::kOpen;
    w.arrival_rate_tps = 2000;
    w.read_fraction = 0.6;
    txns = 16000;
  } else {
    return std::nullopt;
  }
  w.num_txns = static_cast<uint32_t>(std::max(1.0, txns * scale));
  return s;
}

// --- host-side instruments ---------------------------------------------

double CurrentRssKb() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size = 0, resident = 0;
  if (!(statm >> size >> resident)) return 0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1024.0;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

/// Host-time spans around the benchmark's own calls into the system.
/// Kept in memory; written as Chrome trace JSON when the run ends.
/// Disabled (every call a no-op) unless --spans is given.
class Spans {
 public:
  explicit Spans(bool on) : on_(on) {}

  /// Opens a span and returns its id (0 when disabled); `parent` is the
  /// id of the enclosing span, 0 for none.
  size_t Begin(const char* name, size_t parent) {
    if (!on_) return 0;
    spans_.push_back(Span{name, parent, NowUs(), 0});
    return spans_.size();
  }
  void End(size_t id) {
    if (id != 0) spans_[id - 1].end_us = NowUs();
  }

  bool Write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"traceEvents\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"name\": " << JsonString(s.name)
          << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
          << JsonNumber(s.start_us)
          << ", \"dur\": " << JsonNumber(s.end_us - s.start_us)
          << ", \"args\": {\"id\": " << i + 1 << ", \"parent\": " << s.parent
          << "}}" << (i + 1 < spans_.size() ? "," : "") << "\n";
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    const char* name;
    size_t parent;
    double start_us;
    double end_us;
  };
  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  bool on_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// Closes a span when it goes out of scope, on early returns too.
struct SpanScope {
  Spans& spans;
  size_t id;
  ~SpanScope() { spans.End(id); }
};

/// Host time at which the completed-transaction count first reached 10,
/// 20, 80 and 90% of the workload, for the late/early cost ratio.
class Progress {
 public:
  explicit Progress(uint32_t num_txns) : n_(num_txns) {}

  void Note(uint64_t completed, double host_s) {
    while (next_ < 4 && static_cast<double>(completed) >= kFrac[next_] * n_) {
      at_[next_++] = {static_cast<double>(completed), host_s};
    }
  }

  /// Host seconds per transaction over the 80-90% slice divided by the
  /// same over the 10-20% slice; 0 when the run is too short to tell.
  double LateEarlyRatio() const {
    if (next_ < 4) return 0;
    double early_n = at_[1].first - at_[0].first;
    double late_n = at_[3].first - at_[2].first;
    double early_s = at_[1].second - at_[0].second;
    if (early_n <= 0 || late_n <= 0 || early_s <= 0) return 0;
    return ((at_[3].second - at_[2].second) / late_n) / (early_s / early_n);
  }

 private:
  static constexpr double kFrac[4] = {0.1, 0.2, 0.8, 0.9};
  double n_;
  int next_ = 0;
  std::pair<double, double> at_[4];
};

/// Buffer-pool, disk and log counters summed over every site.
struct StoreCounters {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t disk_reads = 0;
  uint64_t disk_writes = 0;
  uint64_t wal_records = 0;
};

StoreCounters ReadStoreCounters(RainbowSystem& sys) {
  StoreCounters c;
  for (size_t i = 0; i < sys.num_sites(); ++i) {
    const Site* site = sys.site(static_cast<SiteId>(i));
    c.wal_records += site->wal().LastLsn();
    if (const auto* page = dynamic_cast<const PageStore*>(&site->store())) {
      const BufferPool::Stats& ps = page->pool().stats();
      c.hits += ps.hits;
      c.misses += ps.misses;
      c.evictions += ps.evictions;
      c.disk_reads += page->disk().reads();
      c.disk_writes += page->disk().writes();
    }
  }
  return c;
}

/// Records `name`_p50 and `name`_p99 of `v` in `m`, with the sample
/// evidence behind each in `tails`.
void AddTails(const std::string& name, const std::vector<double>& v,
              std::map<std::string, double>& m,
              std::map<std::string, Tail>& tails) {
  for (auto [suffix, q] : {std::pair{"_p50", 0.5}, std::pair{"_p99", 0.99}}) {
    Tail t = Percentile(v, q);
    m[name + suffix] = t.value;
    tails[name + suffix] = t;
  }
}

/// Trims an abort detail to its reason: digits and parenthesised
/// specifics (site and item numbers) dropped, spaces collapsed.
std::string AbortReason(const std::string& detail) {
  std::string out;
  for (char c : detail.substr(0, detail.find('('))) {
    if (c >= '0' && c <= '9') continue;
    if (c == ' ' && (out.empty() || out.back() == ' ')) continue;
    out += c;
  }
  while (!out.empty() && out.back() == ' ') out.pop_back();
  return out;
}

/// Per-layer numbers from the typed trace feed, consumed one window at
/// a time so the collector can be cleared and memory stays flat.
class TraceDigest {
 public:
  void Consume(const std::vector<TraceRecord>& records) {
    for (const TraceRecord& r : records) Consume(r);
  }

  void AddMetrics(uint32_t num_txns, std::map<std::string, double>& m,
                  std::map<std::string, Tail>& tails) const {
    const double n = num_txns;
    m["rcp.replicas_per_op"] = Ratio(plan_targets_, plans_);
    AddTails("rcp.quorum_ms", quorum_ms_, m, tails);
    m["cc.blocks_per_txn"] = static_cast<double>(blocks_) / n;
    m["cc.denies_per_txn"] = static_cast<double>(denies_) / n;
    m["cc.victims_per_txn"] = static_cast<double>(victims_) / n;
    AddTails("cc.block_ms", block_ms_, m, tails);
    m["acp.participants_per_txn"] = Ratio(participants_, prepares_);
    AddTails("acp.commit_ms", commit_ms_, m, tails);
    m["acp.no_vote_frac"] = Ratio(no_votes_, votes_);
    m["trace.records_per_txn"] = static_cast<double>(records_) / n;
  }

  /// Aborted attempts by cause (the layer that aborted) and reason.
  std::string AbortTable(uint64_t attempts) const {
    std::vector<std::pair<uint64_t, std::pair<std::string, std::string>>> rows;
    for (const auto& [key, count] : aborts_) rows.push_back({count, key});
    std::sort(rows.begin(), rows.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    std::string out = "abort cause x layer (traced run):\n";
    out += Format("  %-13s %-44s %8s %9s\n", "layer", "reason", "aborts",
                  "of tries");
    for (const auto& [count, key] : rows) {
      out += Format("  %-13s %-44s %8llu %8.2f%%\n", key.first.c_str(),
                    key.second.c_str(), static_cast<unsigned long long>(count),
                    100.0 * Ratio(count, attempts));
    }
    if (rows.empty()) out += "  (no aborts)\n";
    return out;
  }

  /// Where a committed attempt's virtual time went, on average.
  std::string SplitTable() const {
    double c = static_cast<double>(std::max<uint64_t>(committed_, 1)) * 1000.0;
    double resp = resp_us_ / c, quorum = quorum_us_ / c;
    double commit = commit_us_ / c;
    std::string out =
        "per-transaction virtual time, mean over committed attempts (ms):\n";
    out += Format("  %-34s %9.3f\n", "response", resp);
    out += Format("  %-34s %9.3f\n", "quorum wait", quorum);
    out += Format("  %-34s %9.3f\n", "  of which CC block at a replica",
                  block_us_ / c);
    out += Format("  %-34s %9.3f\n", "commit (prepare -> decision)", commit);
    out += Format("  %-34s %9.3f\n", "other", resp - quorum - commit);
    return out;
  }

 private:
  struct Attempt {
    SimTime submit = -1;
    SimTime plan = -1;
    SimTime prepare = -1;
    int64_t quorum_us = 0;
    int64_t block_us = 0;
    int64_t commit_us = 0;
  };
  using BlockKey = std::tuple<uint64_t, SiteId, ItemId>;

  static uint64_t Key(const TxnId& t) {
    return (static_cast<uint64_t>(t.home) << 40) ^ t.seq;
  }
  static double Ratio(uint64_t a, uint64_t b) {
    return b == 0 ? 0 : static_cast<double>(a) / static_cast<double>(b);
  }
  template <typename... Args>
  static std::string Format(const char* fmt, Args... args) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), fmt, args...);
    return buf;
  }

  Attempt* Find(const TxnId& txn) {
    auto it = live_.find(Key(txn));
    return it == live_.end() ? nullptr : &it->second;
  }

  void EndBlocks(const TraceRecord& r, bool whole_site) {
    uint64_t k = Key(r.txn);
    auto it = blocked_.lower_bound({k, r.site, whole_site ? 0 : r.item});
    while (it != blocked_.end() && std::get<0>(it->first) == k &&
           std::get<1>(it->first) == r.site &&
           (whole_site || std::get<2>(it->first) == r.item)) {
      SimTime d = r.time - it->second;
      block_ms_.push_back(static_cast<double>(d) / 1000.0);
      if (Attempt* a = Find(r.txn)) a->block_us += d;
      it = blocked_.erase(it);
    }
  }

  void Consume(const TraceRecord& r) {
    ++records_;
    Attempt* a = nullptr;
    switch (r.kind) {
      case TraceEventKind::kTxnSubmit:
        live_[Key(r.txn)] = Attempt{r.time};
        break;
      case TraceEventKind::kQuorumPlan:
        ++plans_;
        plan_targets_ += static_cast<uint64_t>(std::max<int64_t>(r.arg, 0));
        if ((a = Find(r.txn))) a->plan = r.time;
        break;
      case TraceEventKind::kQuorumReached:
        if ((a = Find(r.txn)) && a->plan >= 0) {
          quorum_ms_.push_back(static_cast<double>(r.time - a->plan) / 1000.0);
          a->quorum_us += r.time - a->plan;
          a->plan = -1;
        }
        break;
      case TraceEventKind::kCcBlock:
        ++blocks_;
        blocked_[{Key(r.txn), r.site, r.item}] = r.time;
        break;
      case TraceEventKind::kCcGrant:
        EndBlocks(r, false);
        break;
      case TraceEventKind::kCcDeny:
        ++denies_;
        EndBlocks(r, false);
        break;
      case TraceEventKind::kCcVictim:
        ++victims_;
        EndBlocks(r, true);
        break;
      case TraceEventKind::kPrepare:
        ++prepares_;
        participants_ += static_cast<uint64_t>(std::max<int64_t>(r.arg, 0));
        if ((a = Find(r.txn))) a->prepare = r.time;
        break;
      case TraceEventKind::kVote:
        ++votes_;
        if (r.arg == 0) ++no_votes_;
        break;
      case TraceEventKind::kDecision:
        if ((a = Find(r.txn)) && a->prepare >= 0) {
          commit_ms_.push_back(static_cast<double>(r.time - a->prepare) /
                               1000.0);
          a->commit_us += r.time - a->prepare;
          a->prepare = -1;
        }
        break;
      case TraceEventKind::kTxnCommit:
        if ((a = Find(r.txn)) && a->submit >= 0) {
          ++committed_;
          resp_us_ += static_cast<double>(r.time - a->submit);
          quorum_us_ += static_cast<double>(a->quorum_us);
          block_us_ += static_cast<double>(a->block_us);
          commit_us_ += static_cast<double>(a->commit_us);
        }
        live_.erase(Key(r.txn));
        break;
      case TraceEventKind::kTxnAbort: {
        size_t colon = r.detail.find(": ");
        std::string cause = r.detail.substr(0, colon);
        std::string reason = colon == std::string::npos
                                 ? ""
                                 : AbortReason(r.detail.substr(colon + 2));
        ++aborts_[{cause, reason}];
        live_.erase(Key(r.txn));
        break;
      }
      default:
        break;
    }
  }

  std::unordered_map<uint64_t, Attempt> live_;
  std::map<BlockKey, SimTime> blocked_;
  uint64_t records_ = 0, plans_ = 0, plan_targets_ = 0;
  uint64_t blocks_ = 0, denies_ = 0, victims_ = 0;
  uint64_t prepares_ = 0, participants_ = 0, votes_ = 0, no_votes_ = 0;
  std::vector<double> quorum_ms_, block_ms_, commit_ms_;
  std::map<std::pair<std::string, std::string>, uint64_t> aborts_;
  uint64_t committed_ = 0;
  double resp_us_ = 0, quorum_us_ = 0, block_us_ = 0, commit_us_ = 0;
};

// --- one repetition ----------------------------------------------------

struct Rep {
  std::string error;  ///< empty when every check passed
  double drive_s = 0;
  uint64_t gave_up = 0;
  /// Exact counts that identify the execution: equal across repetitions
  /// of one seed, and between the traced and untraced runs.
  std::vector<uint64_t> execution;
  std::map<std::string, double> metrics;
  std::map<std::string, Tail> tails;
  std::string tables;  ///< traced run only
};

/// Commits per virtual second between the 10th and the 90th percentile
/// of commit times: the steady rate, which neither the ramp-up nor one
/// long chain of retries at the end moves.
double SteadyRate(std::vector<SimTime> commit_at) {
  if (commit_at.size() < 2) return 0;
  std::sort(commit_at.begin(), commit_at.end());
  size_t lo = commit_at.size() / 10;
  size_t hi = std::max(lo + 1, commit_at.size() - 1 - commit_at.size() / 10);
  SimTime span = std::max<SimTime>(commit_at[hi] - commit_at[lo], 1);
  return static_cast<double>(hi - lo) / (static_cast<double>(span) / 1e6);
}

/// Times set-up alone: Create plus workload construction.
std::optional<double> TimeSetup(const Spec& spec) {
  Clock::time_point t0 = Clock::now();
  auto created = RainbowSystem::Create(spec.system);
  if (!created.ok()) return std::nullopt;
  WorkloadGenerator wlg(created->get(), spec.workload);
  return SecondsSince(t0);
}

Rep RunRep(const Spec& spec, bool traced, Spans& spans) {
  Rep rep;
  const uint32_t n = spec.workload.num_txns;
  const double per_txn = 1.0 / n;
  const SpanScope rep_scope{spans,
                            spans.Begin(traced ? "rep.traced" : "rep", 0)};
  const size_t rep_span = rep_scope.id;

  size_t span = spans.Begin("setup", rep_span);
  SystemConfig config = spec.system;
  if (traced) {
    config.trace_enabled = true;
    config.trace_detail = TraceDetail::kProtocol;
  }
  auto created = RainbowSystem::Create(config);
  if (!created.ok()) {
    rep.error = "Create failed: " + created.status().ToString();
    return rep;
  }
  RainbowSystem& sys = **created;
  // The session log keeps every outcome, which gives exact response-time
  // percentiles.
  sys.set_keep_outcomes(true);
  WorkloadGenerator wlg(&sys, spec.workload);
  spans.End(span);

  const StoreCounters store0 = ReadStoreCounters(sys);
  const double rss0_kb = CurrentRssKb();
  const uint64_t allocs0 = AllocCount();
  std::vector<double> window_ms, restart_ms;
  size_t pending_max = 0, wal_resident_max = 0;
  Progress progress(n);
  TraceDigest digest;
  SiteId down = kInvalidSite;
  SimTime recover_at = 0, next_crash = kFirstCrash;
  uint32_t crashes = 0;
  auto recover = [&](size_t parent) {
    size_t s = spans.Begin("recover", parent);
    Clock::time_point r0 = Clock::now();
    sys.RecoverSite(down);
    restart_ms.push_back(SecondsSince(r0) * 1e3);
    spans.End(s);
    down = kInvalidSite;
  };

  span = spans.Begin("drive", rep_span);
  Clock::time_point d0 = Clock::now();
  wlg.Run();
  while (!wlg.finished() && sys.sim().Now() < kVirtualCap) {
    size_t w = spans.Begin("window", span);
    Clock::time_point w0 = Clock::now();
    sys.RunFor(kWindow);
    Clock::time_point w1 = Clock::now();
    spans.End(w);
    window_ms.push_back(
        std::chrono::duration<double, std::milli>(w1 - w0).count());
    pending_max = std::max(pending_max, sys.sim().pending_events());
    for (size_t i = 0; i < sys.num_sites(); ++i) {
      wal_resident_max = std::max(
          wal_resident_max, sys.site(static_cast<SiteId>(i))->wal().size());
    }
    progress.Note(wlg.completed(),
                  std::chrono::duration<double>(w1 - d0).count());
    if (traced) {
      digest.Consume(sys.collector().records());
      sys.collector().Clear();
    }
    if (spec.crash_period > 0) {
      const SimTime now = sys.sim().Now();
      if (down != kInvalidSite && now >= recover_at) recover(span);
      if (down == kInvalidSite && now >= next_crash) {
        down = static_cast<SiteId>(crashes++ % sys.num_sites());
        size_t s = spans.Begin("crash", span);
        sys.CrashSite(down);
        spans.End(s);
        recover_at = now + kRecoverAfter;
        next_crash += spec.crash_period;
      }
    }
    if (sys.Idle() && !wlg.finished()) break;
  }
  if (down != kInvalidSite) recover(span);
  rep.drive_s = SecondsSince(d0);
  const uint64_t drive_events = sys.sim().executed_events();
  const uint64_t allocs = AllocCount() - allocs0;
  const double rss1_kb = CurrentRssKb();
  spans.End(span);

  sys.RunFor(kSettle);
  if (traced) {
    digest.Consume(sys.collector().records());
    sys.collector().Clear();
  }

  ProgressMonitor& pm = sys.monitor();
  const NetworkStats& net = sys.net().stats();
  const StoreCounters store1 = ReadStoreCounters(sys);
  rep.gave_up = wlg.gave_up();
  rep.execution = {pm.committed(), pm.aborted_total(), pm.submitted(),
                   net.network_sent(), sys.sim().executed_events()};

  span = spans.Begin("checks", rep_span);
  if (!wlg.finished()) {
    rep.error = "the workload did not finish before the virtual-time cap";
  } else if (pm.committed() == 0) {
    rep.error = "no transaction committed";
  } else if (pm.committed() + wlg.gave_up() != n) {
    rep.error = "committed + gave up != transactions";
  } else if (pm.submitted() != n + wlg.retries()) {
    rep.error = "attempts != transactions + retries";
  } else if (pm.committed() + pm.aborted_total() != pm.submitted()) {
    rep.error = "committed + aborted != attempts";
  } else if (net.codec_failures != 0) {
    rep.error = "wire codec failures";
  } else if (traced && sys.collector().dropped() != 0) {
    rep.error = "trace records were dropped";
  } else if (Status s = sys.CheckReplicaConsistency(false); !s.ok()) {
    rep.error = "replica consistency: " + s.ToString();
  }
  spans.End(span);
  if (!rep.error.empty()) return rep;

  // End-of-run storage probes with the workload's key distribution.
  span = spans.Begin("probes", rep_span);
  Rng rng(spec.workload.seed ^ 0x9e0be5ull);
  const size_t num_items = sys.catalog().schema().num_items();
  std::unique_ptr<ZipfSampler> zipf;
  if (spec.workload.pattern == AccessPattern::kZipf) {
    zipf = std::make_unique<ZipfSampler>(num_items, spec.workload.zipf_theta);
  }
  std::vector<std::pair<ItemId, const StorageEngine*>> targets;
  for (size_t i = 0; i < kGetProbes; ++i) {
    auto item = static_cast<ItemId>(zipf ? zipf->Sample(rng)
                                         : rng.NextUint(num_items));
    auto schema = sys.catalog().schema().Find(item);
    if (!schema.ok()) {
      rep.error = "probe item missing from the catalog";
      return rep;
    }
    const auto& copies = (*schema)->copies;
    SiteId site = copies[rng.NextUint(copies.size())];
    targets.emplace_back(item, &sys.site(site)->store());
  }
  uint64_t sink = 0, missing = 0;
  Clock::time_point p0 = Clock::now();
  for (const auto& [item, store] : targets) {
    Result<ItemCopy> copy = store->Get(item);
    if (copy.ok()) {
      sink += static_cast<uint64_t>(copy->value);
    } else {
      ++missing;
    }
  }
  const double get_us = SecondsSince(p0) * 1e6 / kGetProbes;
  std::vector<std::pair<ItemId, ItemCopy>> range;
  p0 = Clock::now();
  for (size_t i = 0; i < kRangeProbes; ++i) {
    range.clear();
    targets[i].second->Range(targets[i].first, kRangeLength, range);
    if (range.empty()) ++missing;
    sink += range.size();
  }
  const double range_us = SecondsSince(p0) * 1e6 / kRangeProbes;
  std::vector<double> barrier_us;
  uint64_t digest_entries = 0;
  for (size_t i = 0; i < sys.num_sites(); ++i) {
    const Wal& wal = sys.site(static_cast<SiteId>(i))->wal();
    Clock::time_point b0 = Clock::now();
    sink += wal.ProtocolBarrier();
    barrier_us.push_back(SecondsSince(b0) * 1e6);
    digest_entries += wal.Scan().size();
  }
  g_sink = g_sink + sink;
  spans.End(span);
  if (missing != 0) {
    rep.error = "a probed copy could not be read";
    return rep;
  }

  // End-to-end, from this repetition.
  std::vector<double> resp_ms;
  std::vector<SimTime> commit_at;
  for (const TxnOutcome& o : pm.outcomes()) {
    if (!o.committed) continue;
    resp_ms.push_back(static_cast<double>(o.response_time()) / 1e3);
    commit_at.push_back(o.finished_at);
  }
  auto& m = rep.metrics;
  m["txn_per_s"] = n / rep.drive_s;
  m["sim_commit_frac"] =
      static_cast<double>(pm.committed()) / static_cast<double>(pm.submitted());
  m["sim_tps"] = SteadyRate(commit_at);
  AddTails("sim_resp_ms", resp_ms, m, rep.tails);

  // Per layer.
  const double events = static_cast<double>(drive_events);
  m["sim.events_per_txn"] = events * per_txn;
  m["sim.host_ns_per_event"] = rep.drive_s * 1e9 / std::max(events, 1.0);
  m["sim.pending_events_max"] = static_cast<double>(pending_max);
  AddTails("sim.window_ms", window_ms, m, rep.tails);
  m["sim.late_early_ratio"] = progress.LateEarlyRatio();

  const double attempts = static_cast<double>(pm.submitted());
  m["net.msgs_per_txn"] = static_cast<double>(net.network_sent()) * per_txn;
  m["net.bytes_per_txn"] = static_cast<double>(net.bytes) * per_txn;
  m["net.rpc_retries_per_txn"] = static_cast<double>(net.rpc_retries) * per_txn;
  m["net.rpc_failures"] = static_cast<double>(net.rpc_failures);
  m["net.dropped"] = static_cast<double>(net.total_dropped());
  m["net.rpc_latency_ms_p50"] =
      static_cast<double>(net.rpc_latency.Percentile(0.5)) / 1e3;
  m["net.rpc_latency_ms_p99"] =
      static_cast<double>(net.rpc_latency.Percentile(0.99)) / 1e3;

  auto abort_frac = [&](AbortCause cause) {
    return static_cast<double>(pm.aborted(cause)) / attempts;
  };
  m["rcp.abort_frac"] = abort_frac(AbortCause::kRcp);
  m["cc.abort_frac"] = abort_frac(AbortCause::kCcp);
  m["acp.abort_frac"] = abort_frac(AbortCause::kAcp);
  m["acp.blocked_ms_max"] = static_cast<double>(pm.blocked_times().max()) / 1e3;

  const double lookups = static_cast<double>(
      (store1.hits - store0.hits) + (store1.misses - store0.misses));
  m["storage.pool_hit_rate"] =
      lookups == 0 ? 1.0
                   : static_cast<double>(store1.hits - store0.hits) / lookups;
  m["storage.pool_misses_per_txn"] =
      static_cast<double>(store1.misses - store0.misses) * per_txn;
  m["storage.evictions_per_txn"] =
      static_cast<double>(store1.evictions - store0.evictions) * per_txn;
  m["storage.disk_reads_per_txn"] =
      static_cast<double>(store1.disk_reads - store0.disk_reads) * per_txn;
  m["storage.disk_writes_per_txn"] =
      static_cast<double>(store1.disk_writes - store0.disk_writes) * per_txn;
  m["storage.get_us"] = get_us;
  m["storage.range_us"] = range_us;
  m["storage.restart_ms_p50"] = Median(restart_ms);
  m["storage.restart_ms_max"] =
      restart_ms.empty()
          ? 0
          : *std::max_element(restart_ms.begin(), restart_ms.end());
  m["storage.wal_records_per_txn"] =
      static_cast<double>(store1.wal_records - store0.wal_records) * per_txn;
  m["storage.wal_resident_max"] = static_cast<double>(wal_resident_max);
  m["storage.wal_digest_entries"] = static_cast<double>(digest_entries);
  m["storage.barrier_us"] = Median(barrier_us);

  m["workload.retries_per_txn"] = static_cast<double>(wlg.retries()) * per_txn;
  m["workload.gave_up_frac"] = static_cast<double>(wlg.gave_up()) * per_txn;
  m["proc.allocs_per_txn"] = static_cast<double>(allocs) * per_txn;
  m["proc.retained_kb_per_txn"] = (rss1_kb - rss0_kb) * per_txn;

  if (traced) {
    digest.AddMetrics(n, m, rep.tails);
    rep.tables = digest.AbortTable(pm.submitted()) + digest.SplitTable();
  }
  return rep;
}

// --- reporting -----------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json; the smoke test fails on a name that
// BENCHMARK.json lists and this output lacks.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"txn_per_s", "txn/s"},
    {"peak_rss_mb", "MB"},     {"sim_commit_frac", "fraction"},
    {"sim_tps", "txn/s"},      {"sim_resp_ms_p50", "ms"},
    {"sim_resp_ms_p99", "ms"},
};

constexpr MetricDef kPerLayer[] = {
    {"sim.events_per_txn", "events/txn"},
    {"sim.host_ns_per_event", "ns"},
    {"sim.pending_events_max", "count"},
    {"sim.window_ms_p50", "ms"},
    {"sim.window_ms_p99", "ms"},
    {"sim.late_early_ratio", "ratio"},
    {"net.msgs_per_txn", "msgs/txn"},
    {"net.bytes_per_txn", "B/txn"},
    {"net.rpc_retries_per_txn", "retries/txn"},
    {"net.rpc_failures", "count"},
    {"net.dropped", "count"},
    {"net.rpc_latency_ms_p50", "ms"},
    {"net.rpc_latency_ms_p99", "ms"},
    {"rcp.replicas_per_op", "replicas/op"},
    {"rcp.quorum_ms_p50", "ms"},
    {"rcp.quorum_ms_p99", "ms"},
    {"rcp.abort_frac", "fraction"},
    {"cc.blocks_per_txn", "blocks/txn"},
    {"cc.denies_per_txn", "denies/txn"},
    {"cc.victims_per_txn", "victims/txn"},
    {"cc.block_ms_p50", "ms"},
    {"cc.block_ms_p99", "ms"},
    {"cc.abort_frac", "fraction"},
    {"acp.participants_per_txn", "sites/txn"},
    {"acp.commit_ms_p50", "ms"},
    {"acp.commit_ms_p99", "ms"},
    {"acp.no_vote_frac", "fraction"},
    {"acp.blocked_ms_max", "ms"},
    {"acp.abort_frac", "fraction"},
    {"storage.pool_hit_rate", "fraction"},
    {"storage.pool_misses_per_txn", "misses/txn"},
    {"storage.evictions_per_txn", "pages/txn"},
    {"storage.disk_reads_per_txn", "pages/txn"},
    {"storage.disk_writes_per_txn", "pages/txn"},
    {"storage.get_us", "us"},
    {"storage.range_us", "us"},
    {"storage.restart_ms_p50", "ms"},
    {"storage.restart_ms_max", "ms"},
    {"storage.wal_records_per_txn", "records/txn"},
    {"storage.wal_resident_max", "records"},
    {"storage.wal_digest_entries", "count"},
    {"storage.barrier_us", "us"},
    {"workload.retries_per_txn", "retries/txn"},
    {"workload.gave_up_frac", "fraction"},
    {"proc.allocs_per_txn", "allocs/txn"},
    {"proc.retained_kb_per_txn", "KB/txn"},
    {"trace.records_per_txn", "records/txn"},
    {"trace.overhead", "ratio"},
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 25;
  bool trace = false;
  double scale = 1.0;
  std::string spans_path;
};

int Usage(const std::string& problem) {
  std::fprintf(stderr,
               "rainbow_bench: %s\nusage: rainbow_bench --workload "
               "classroom|contention|bigdata|topo512 [--seed S] [--seconds T] "
               "[--trace 0|1] [--scale F] [--spans FILE]\n",
               problem.c_str());
  return 2;
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + arg);
    std::string val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = val;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(val.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), &end);
    } else if (arg == "--trace") {
      opt.trace = val == "1";
      if (val != "0" && val != "1") return Usage("--trace takes 0 or 1");
    } else if (arg == "--scale") {
      opt.scale = std::strtod(val.c_str(), &end);
    } else if (arg == "--spans") {
      opt.spans_path = val;
    } else {
      return Usage("unknown flag " + arg);
    }
    if (end != nullptr && (*end != '\0' || val.empty())) {
      return Usage("bad number for " + arg + ": " + val);
    }
  }
  if (!(opt.seconds > 0) || !(opt.scale > 0) || opt.scale > 1) {
    return Usage("--seconds must be > 0 and --scale in (0, 1]");
  }
  std::optional<Spec> spec = MakeSpec(opt.workload, opt.seed, opt.scale);
  if (!spec) return Usage("unknown workload '" + opt.workload + "'");
  const uint32_t n = spec->workload.num_txns;

  std::printf("rainbow_bench: workload %s, seed %llu, %u transactions, "
              "budget %.0f s, trace %d\n",
              spec->name.c_str(), static_cast<unsigned long long>(opt.seed), n,
              opt.seconds, opt.trace ? 1 : 0);
  std::fflush(stdout);

  Spans spans(!opt.spans_path.empty());
  Clock::time_point start = Clock::now();
  std::vector<Rep> reps;
  std::vector<double> setups;
  std::string error;
  auto time_setups = [&](size_t max_samples, double max_seconds) {
    double spent = 0;
    for (size_t k = 0; error.empty() && k < max_samples && spent < max_seconds;
         ++k) {
      size_t s = spans.Begin("setup", 0);
      std::optional<double> t = TimeSetup(*spec);
      spans.End(s);
      if (!t) error = "Create failed";
      setups.push_back(t.value_or(0));
      spent += t.value_or(0);
    }
  };
  time_setups(kMaxSetupsPerBatch, kSetupBatchSeconds);
  // Repeat while another repetition still fits the budget; a traced run
  // keeps room for its traced repetition, which costs about two.
  while (error.empty()) {
    reps.push_back(RunRep(*spec, false, spans));
    error = reps.back().error;
    if (error.empty() && reps.back().execution != reps.front().execution) {
      error = "repetitions of one seed executed differently";
    }
    time_setups(kMaxSetupsPerBatch, kSetupBatchSeconds);
    double elapsed = SecondsSince(start);
    double per_rep = elapsed / static_cast<double>(reps.size());
    if (elapsed + per_rep * (opt.trace ? 3.0 : 1.0) > opt.seconds) break;
  }
  std::optional<Rep> traced;
  if (error.empty() && opt.trace) {
    traced = RunRep(*spec, true, spans);
    error = traced->error;
    if (error.empty() && traced->execution != reps.front().execution) {
      error = "the traced run executed differently from the untraced one";
    }
  }
  if (setups.size() < kMinSetups) {
    time_setups(kMinSetups - setups.size(), 1e9);
  }

  const bool correct = error.empty();
  uint64_t attempted =
      static_cast<uint64_t>(n) * (reps.size() + (traced ? 1 : 0));
  uint64_t failed = 0;
  for (const Rep& r : reps) failed += r.gave_up;
  if (traced) failed += traced->gave_up;
  if (!correct) {
    std::printf("CHECK FAILED: %s\n", error.c_str());
    failed = attempted;
  }

  // Medians over repetitions; the exact counts agree in every one.
  std::map<std::string, std::vector<double>> samples;
  std::vector<double> drive_s;
  for (const Rep& r : reps) {
    for (const auto& [name, v] : r.metrics) samples[name].push_back(v);
    drive_s.push_back(r.drive_s);
  }
  std::map<std::string, double> value;
  for (const auto& [name, v] : samples) value[name] = Median(v);
  value["setup_s"] = Median(setups);
  value["peak_rss_mb"] = PeakRssMb();
  std::map<std::string, Tail> tails = reps.front().tails;
  if (traced) {
    // Only the traced repetition has the trace-derived (t) metrics.
    for (const auto& [name, v] : traced->metrics) value.try_emplace(name, v);
    tails.insert(traced->tails.begin(), traced->tails.end());
    value["trace.overhead"] = traced->drive_s / Median(drive_s);
  }

  for (size_t i = 0; i < reps.size(); ++i) {
    std::printf("repetition %zu: drive %.3f s, %.1f txn/s\n", i + 1,
                reps[i].drive_s, n / reps[i].drive_s);
  }
  if (traced) std::printf("traced repetition: drive %.3f s\n", traced->drive_s);
  if (!setups.empty()) {
    auto [lo, hi] = std::minmax_element(setups.begin(), setups.end());
    std::printf("set-up: %zu samples, min %.6f s, max %.6f s\n",
                setups.size(), *lo, *hi);
  }
  std::vector<Metric> out;
  for (const MetricDef& d : opt.trace ? std::span<const MetricDef>(kPerLayer)
                                      : std::span<const MetricDef>(kEndToEnd)) {
    auto it = value.find(d.name);
    if (it == value.end()) {
      if (correct) std::printf("  %-30s missing\n", d.name);
      continue;
    }
    out.push_back(Metric{d.name, it->second, d.unit});
    std::printf("  %-30s %14.6g %s", d.name, it->second, d.unit);
    if (auto t = tails.find(d.name); t != tails.end()) {
      std::printf("  (n=%zu, %zu beyond%s)", t->second.samples,
                  t->second.beyond,
                  t->second.supported ? "" : ", too few for this percentile");
    }
    std::printf("\n");
  }
  if (traced) std::printf("%s", traced->tables.c_str());
  std::printf("fingerprint %s\n", MachineFingerprint().ToJson().c_str());

  if (!opt.spans_path.empty() && !spans.Write(opt.spans_path)) {
    std::fprintf(stderr, "rainbow_bench: cannot write %s\n",
                 opt.spans_path.c_str());
    return 1;
  }
  std::printf("%s\n", ResultLine(correct, attempted, failed, out).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace rainbow::bench

int main(int argc, char** argv) { return rainbow::bench::Main(argc, argv); }
