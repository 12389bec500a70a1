#ifndef RAINBOW_BENCH_E2E_HARNESS_H_
#define RAINBOW_BENCH_E2E_HARNESS_H_

// Measurement helpers of the end-to-end benchmark (rainbow_bench.cc):
// the allocation counter, order statistics with the tail-sample rule,
// the machine fingerprint, and the JSON formatting of result lines.

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace rainbow::bench {

/// Calls to the global operator new since the process started.
/// harness.cc replaces operator new with a counting one, so linking it
/// into a binary makes every allocation (library code included) count.
uint64_t AllocCount();

/// A percentile is reported only when at least this many samples lie
/// beyond it; below that a single outlier decides the value.
inline constexpr size_t kMinBeyond = 10;

/// One percentile of a sample, with the evidence behind it.
struct Tail {
  double value = 0;
  size_t samples = 0;       ///< sample size
  size_t beyond = 0;        ///< samples ranked above the percentile
  bool supported = false;   ///< beyond >= kMinBeyond
};

/// Nearest-rank q-quantile (q in [0, 1]) of `samples`. An empty sample
/// gives value 0, unsupported.
Tail Percentile(std::vector<double> samples, double q);

/// Median of a sample (mean of the two middle values for even sizes);
/// 0 for an empty one.
double Median(std::vector<double> samples);

/// What a run was measured on. Host-time numbers are comparable only
/// between runs with equal fingerprints.
struct Fingerprint {
  unsigned hardware_threads = 0;
  std::string compiler;    ///< the compiler's __VERSION__
  std::string build_type;  ///< CMAKE_BUILD_TYPE of the benchmark build

  std::string ToJson() const;
};

Fingerprint MachineFingerprint();

/// A measured value with its unit, as printed in the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Formats a number for JSON with enough digits to round-trip a double.
/// Non-finite values (which JSON cannot carry) are written as 0.
std::string JsonNumber(double v);

/// Escapes `s` as a JSON string literal (quotes included).
std::string JsonString(const std::string& s);

/// The benchmark's one-line result: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}.
std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace rainbow::bench

#endif  // RAINBOW_BENCH_E2E_HARNESS_H_
