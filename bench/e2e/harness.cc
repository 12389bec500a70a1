#include "harness.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <thread>

#ifndef RAINBOW_BENCH_BUILD_TYPE
#define RAINBOW_BENCH_BUILD_TYPE "unknown"
#endif

namespace {
std::atomic<uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

// The replacement operator new above is malloc-based, so free() is the
// matching deallocator; GCC cannot see the pairing and misfires
// -Wmismatched-new-delete at call sites inlined into these definitions.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace rainbow::bench {

uint64_t AllocCount() { return g_allocs.load(std::memory_order_relaxed); }

Tail Percentile(std::vector<double> samples, double q) {
  Tail t;
  t.samples = samples.size();
  if (samples.empty()) return t;
  std::sort(samples.begin(), samples.end());
  q = std::clamp(q, 0.0, 1.0);
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  t.value = samples[rank - 1];
  t.beyond = samples.size() - rank;
  t.supported = t.beyond >= kMinBeyond;
  return t;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

std::string Fingerprint::ToJson() const {
  return "{\"hardware_threads\": " + std::to_string(hardware_threads) +
         ", \"compiler\": " + JsonString(compiler) +
         ", \"build_type\": " + JsonString(build_type) + "}";
}

Fingerprint MachineFingerprint() {
  Fingerprint f;
  f.hardware_threads = std::thread::hardware_concurrency();
#ifdef __VERSION__
  f.compiler = __VERSION__;
#else
  f.compiler = "unknown";
#endif
  f.build_type = RAINBOW_BENCH_BUILD_TYPE;
  return f;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}}";
}

}  // namespace rainbow::bench
