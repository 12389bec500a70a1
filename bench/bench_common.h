#ifndef RAINBOW_BENCH_BENCH_COMMON_H_
#define RAINBOW_BENCH_BENCH_COMMON_H_

// The one bench harness. The experiment benches (E*, A1) use the
// header/table printers; the microbenches (M*) time each section as the
// median of a fixed number of repetitions and print it with its
// quartiles; the baseline-gated ones (M6, M8, M9) also parse
// --out/--check, write a flat JSON report and compare it against a
// checked-in BENCH_M*.json. Every gate decides the process exit code.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "core/experiment.h"
#include "core/session.h"

namespace rainbow::bench {

/// Number of global operator-new calls so far in this process. Defined
/// in counting_alloc.cc, which replaces operator new/delete; only the
/// benches that link it may call this.
uint64_t Allocs();

inline void PrintHeader(const std::string& id, const std::string& what) {
  std::cout << "==============================================================\n";
  std::cout << id << ": " << what << "\n";
  std::cout << "==============================================================\n";
}

/// Runs the experiment and prints the table; exits non-zero on failure.
inline int RunAndPrint(Experiment& exp,
                       const std::vector<Experiment::Metric>& columns) {
  Status s = exp.Run();
  if (!s.ok()) {
    std::cerr << "experiment failed: " << s << "\n";
    return 1;
  }
  std::cout << exp.RenderTable(columns) << "\n";
  return 0;
}

using Clock = std::chrono::steady_clock;

/// A flat set of named numeric results: a bench's report or a baseline.
using Fields = std::map<std::string, double>;

inline double ElapsedSec(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Keeps the compiler from deleting or hoisting the work a timed loop
/// exists to measure: `value` counts as read and memory as clobbered.
template <typename T>
inline void DoNotOptimize(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// Median and quartiles of the repetitions of one measurement.
struct Spread {
  double median = 0.0;
  double p25 = 0.0;
  double p75 = 0.0;

  /// The spread of `work / x`: turns seconds per repetition into a rate.
  /// The quartiles swap, since the slowest repetition is the lowest rate.
  Spread Rate(double work) const {
    return {work / median, work / p75, work / p25};
  }
  Spread Scaled(double factor) const {
    return {median * factor, p25 * factor, p75 * factor};
  }
};

/// Median and quartiles of `samples`, interpolating linearly between
/// the two nearest ranks.
inline Spread Quartiles(std::vector<double> samples) {
  if (samples.empty()) return {};
  std::sort(samples.begin(), samples.end());
  auto at = [&samples](double q) {
    double pos = q * static_cast<double>(samples.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, samples.size() - 1);
    return samples[lo] +
           (pos - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
  };
  return {at(0.5), at(0.25), at(0.75)};
}

/// Runs `rep` `reps` times and returns the spread of its wall time in
/// seconds. Each bench fixes `reps` per section; the median shrugs off
/// the odd repetition a noisy neighbour slows down.
template <typename Rep>
Spread TimeReps(int reps, Rep&& rep) {
  std::vector<double> secs;
  secs.reserve(static_cast<size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    Clock::time_point t0 = Clock::now();
    rep();
    secs.push_back(ElapsedSec(t0, Clock::now()));
  }
  return Quartiles(std::move(secs));
}

/// A count that a deterministic section must read identically in every
/// repetition: allocations, committed transactions, messages.
struct RepeatedCount {
  uint64_t value = 0;
  int reps = 0;
  bool stable = true;

  void Record(uint64_t n) {
    stable = stable && (reps++ == 0 || n == value);
    value = n;
  }
  /// Prints a gate failure naming `what` unless every repetition agreed.
  bool Check(const char* what) const {
    if (!stable) {
      std::printf("  GATE FAILED: %s differs between repetitions\n", what);
    }
    return stable;
  }
};

/// A deterministic session (RunSession) timed over repetitions. Every
/// repetition must read the same allocations, transactions and messages.
struct SessionReps {
  Spread secs;
  RepeatedCount allocs;
  RepeatedCount committed;
  RepeatedCount aborted;
  RepeatedCount messages;
  RepeatedCount wal_bytes;  ///< WAL bytes resident at the session's end
  RepeatedCount wal_held;   ///< WAL bytes allocated at the session's end
  RepeatedCount wal_digest;  ///< WAL digest bytes at the session's end
  RepeatedCount rpc_window;  ///< RPC window bytes at the session's end
  std::string failure;

  double AllocsPerTxn() const {
    uint64_t finished = committed.value + aborted.value;
    return static_cast<double>(allocs.value) /
           static_cast<double>(finished == 0 ? 1 : finished);
  }
  /// Prints every gate failure; true when each repetition ran and agreed.
  bool Check() const {
    if (!failure.empty()) {
      std::printf("  GATE FAILED: session failed: %s\n", failure.c_str());
      return false;
    }
    bool ok = allocs.Check("allocation count");
    ok = committed.Check("committed transactions") && ok;
    ok = aborted.Check("aborted transactions") && ok;
    ok = wal_bytes.Check("WAL bytes") && ok;
    ok = wal_held.Check("WAL held bytes") && ok;
    ok = wal_digest.Check("WAL digest bytes") && ok;
    ok = rpc_window.Check("RPC window bytes") && ok;
    return messages.Check("network messages") && ok;
  }
};

/// Runs the session `reps` times after one untimed warm-up run (first-
/// touch page faults, lazy statics). Needs counting_alloc.cc.
inline SessionReps TimeSession(int reps, const SystemConfig& system,
                               const WorkloadConfig& workload) {
  RunSession(system, workload);
  SessionReps s;
  s.secs = TimeReps(reps, [&] {
    uint64_t allocs_before = Allocs();
    auto result = RunSession(system, workload);
    uint64_t allocs = Allocs() - allocs_before;
    if (!result.ok()) {
      s.failure = result.status().ToString();
      return;
    }
    s.allocs.Record(allocs);
    s.committed.Record(result->committed);
    s.aborted.Record(result->aborted);
    s.messages.Record(result->net_messages);
    s.wal_bytes.Record(result->wal_resident_bytes);
    s.wal_held.Record(result->wal_held_bytes);
    s.wal_digest.Record(result->wal_digest_bytes);
    s.rpc_window.Record(result->rpc_window_bytes);
  });
  return s;
}

/// A bench's results in report order, printed as they are added.
struct Report {
  std::vector<std::pair<std::string, double>> fields;

  void Add(const std::string& key, double value) {
    fields.emplace_back(key, value);
    std::printf("  %-38s %.6g\n", key.c_str(), value);
  }
  /// Adds a repeated measurement: `key` is its median, `key_p25` and
  /// `key_p75` its quartiles.
  void Add(const std::string& key, const Spread& s) {
    fields.emplace_back(key, s.median);
    fields.emplace_back(key + "_p25", s.p25);
    fields.emplace_back(key + "_p75", s.p75);
    std::printf("  %-38s %.6g  (p25 %.6g, p75 %.6g)\n", key.c_str(),
                s.median, s.p25, s.p75);
  }
};

/// Writes a flat JSON object of numeric fields, in the given order, to
/// `path`. This is the machine-readable side of a bench: the BENCH_*.json
/// baselines checked into the repo and compared by CI perf-smoke steps.
inline bool EmitJson(
    const std::string& path,
    const std::vector<std::pair<std::string, double>>& fields) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\n";
  for (size_t i = 0; i < fields.size(); ++i) {
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", fields[i].second);
    out << "  \"" << fields[i].first << "\": " << num
        << (i + 1 < fields.size() ? "," : "") << "\n";
  }
  out << "}\n";
  return static_cast<bool>(out);
}

/// Reads back a flat JSON object in the shape EmitJson writes (one
/// `"key": number` pair per line; no nesting). Returns an empty map if
/// the file cannot be read.
inline Fields ParseFlatJson(const std::string& path) {
  Fields fields;
  std::ifstream in(path);
  if (!in) return fields;
  std::string line;
  while (std::getline(in, line)) {
    size_t k0 = line.find('"');
    if (k0 == std::string::npos) continue;
    size_t k1 = line.find('"', k0 + 1);
    if (k1 == std::string::npos) continue;
    size_t colon = line.find(':', k1);
    if (colon == std::string::npos) continue;
    try {
      fields[line.substr(k0 + 1, k1 - k0 - 1)] =
          std::stod(line.substr(colon + 1));
    } catch (...) {
      // Not a numeric field; skip.
    }
  }
  return fields;
}

/// Finds `key` on both sides of a check. A key missing from the baseline
/// is SKIPPED, so a new key can land before the rebaseline that adds it.
/// A key missing from the current run FAILS: a section that was renamed
/// or stopped emitting must not pass its gate silently. Returns false
/// and sets `*verdict` when the key cannot be compared.
inline bool LookUpBoth(const Fields& baseline, const Fields& current,
                       const std::string& key, bool* verdict) {
  if (current.count(key) == 0) {
    std::printf("  check %-32s FAILED (missing from current run)\n",
                key.c_str());
    *verdict = false;
    return false;
  }
  if (baseline.count(key) == 0) {
    std::printf("  check %-32s SKIPPED (missing from baseline)\n",
                key.c_str());
    *verdict = true;
    return false;
  }
  return true;
}

/// One baseline comparison: fails (returns false) when `current` is
/// worse than `allowed_ratio` times the baseline value. `higher_is_better`
/// flips the direction for throughput-style metrics. `slack` absorbs
/// quantization around zero-valued allocation baselines.
inline bool CheckMetric(const Fields& baseline, const Fields& current,
                        const std::string& key, double allowed_ratio,
                        bool higher_is_better, double slack = 0.0) {
  bool verdict = false;
  if (!LookUpBoth(baseline, current, key, &verdict)) return verdict;
  double b = baseline.at(key);
  double c = current.at(key);
  bool ok = higher_is_better ? c >= b / allowed_ratio
                             : c <= b * allowed_ratio + slack;
  std::printf(
      "  check %-32s %s (current %.6g vs baseline %.6g, allowed %gx)\n",
      key.c_str(), ok ? "ok" : "REGRESSED", c, b, allowed_ratio);
  return ok;
}

/// Exact comparison for deterministic counters (committed transactions,
/// network messages): any change in the execution fails it.
inline bool CheckExact(const Fields& baseline, const Fields& current,
                       const std::string& key) {
  bool verdict = false;
  if (!LookUpBoth(baseline, current, key, &verdict)) return verdict;
  double b = baseline.at(key);
  double c = current.at(key);
  bool ok = b == c;
  std::printf("  check %-32s %s (current %.0f vs baseline %.0f, exact)\n",
              key.c_str(), ok ? "ok" : "REGRESSED", c, b);
  return ok;
}

/// The flags of a baseline-gated bench.
struct Args {
  std::string out;    // --out FILE: write the JSON report (only then)
  std::string check;  // --check FILE: compare against this baseline
};

/// Parses --out and --check plus the bench's own numeric flags (`numeric`
/// maps a flag to where its value goes). Returns false on anything else.
inline bool ParseArgs(
    int argc, char** argv, Args& args,
    std::initializer_list<std::pair<std::string_view, uint32_t*>> numeric =
        {}) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : "";
    bool known = true;
    if (arg == "--out") {
      args.out = value;
    } else if (arg == "--check") {
      args.check = value;
    } else {
      known = false;
      for (const auto& [flag, dest] : numeric) {
        if (arg == flag) {
          *dest = static_cast<uint32_t>(std::stoul(value));
          known = true;
        }
      }
    }
    if (!known) {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return false;
    }
    ++i;
  }
  return true;
}

/// Ends a baseline-gated bench. Stamps the machine's hardware threads
/// into the report, writes it when --out was given (so a bare --check
/// never overwrites the baseline it reads), and with --check runs
/// `checks` (baseline, current) and prints the verdict. Returns the
/// process exit code: 1 when an in-binary gate failed (`gates_ok` is
/// false), the write failed, the baseline is unreadable or a check
/// regressed; 0 otherwise.
inline int RunChecks(
    const Args& args, Report& report, bool gates_ok,
    const std::function<bool(const Fields&, const Fields&)>& checks) {
  report.fields.emplace_back(
      "hardware_threads", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  if (!args.out.empty()) {
    if (!EmitJson(args.out, report.fields)) {
      std::fprintf(stderr, "failed to write %s\n", args.out.c_str());
      return 1;
    }
    std::printf("wrote %s\n", args.out.c_str());
  }
  if (!args.check.empty()) {
    std::printf("-- checking against baseline %s --\n", args.check.c_str());
    Fields baseline = ParseFlatJson(args.check);
    if (baseline.empty()) {
      std::fprintf(stderr, "baseline %s missing or unreadable\n",
                   args.check.c_str());
      return 1;
    }
    if (!checks(baseline, Fields(report.fields.begin(), report.fields.end()))) {
      std::printf("perf-smoke: REGRESSION against %s\n", args.check.c_str());
      return 1;
    }
    std::printf("perf-smoke: ok\n");
  }
  return gates_ok ? 0 : 1;
}

}  // namespace rainbow::bench

#endif  // RAINBOW_BENCH_BENCH_COMMON_H_
