#ifndef RAINBOW_NET_LATENCY_MODEL_H_
#define RAINBOW_NET_LATENCY_MODEL_H_

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace rainbow {

/// Shape of the one-way message delay distribution.
enum class LatencyDistribution {
  kFixed,        ///< always `mean`
  kUniform,      ///< uniform in [mean/2, 3*mean/2]
  kExponential,  ///< exponential with the given mean, shifted by min
};

const char* LatencyDistributionName(LatencyDistribution d);

/// Parameters of the simulated network's delay behaviour. Part of the
/// "configure a network simulation" step of a Rainbow session.
///
/// Geo-replication: sites can be assigned to regions ("data centers");
/// messages between different regions use `inter_region_mean` as their
/// mean instead of `mean`. Sites without an entry are region 0.
struct LatencyConfig {
  LatencyDistribution distribution = LatencyDistribution::kUniform;
  SimTime mean = Millis(2);      ///< mean one-way delay between sites
  SimTime min = Micros(100);     ///< floor applied to every sample
  SimTime per_kb = Micros(50);   ///< additional delay per 1024 payload bytes
  SimTime local = Micros(10);    ///< delay for a site messaging itself

  std::vector<int> regions;          ///< region of site i (empty = all 0)
  SimTime inter_region_mean = 0;     ///< 0 = same as `mean`

  int RegionOf(SiteId s) const {
    return s < regions.size() ? regions[s] : 0;
  }
};

/// Draws per-message delays according to a LatencyConfig.
class LatencyModel {
 public:
  LatencyModel(LatencyConfig config, Rng rng);

  /// One-way delay for a `bytes`-sized message from `from` to `to`,
  /// drawing randomness from the model's own stream.
  SimTime SampleDelay(SiteId from, SiteId to, size_t bytes);

  /// Same, but drawing from a caller-provided stream. The network uses
  /// per-*site* streams so each site's delay sequence is a pure function
  /// of its own send history, independent of how other sites' sends
  /// interleave with it. Same-seed traces are byte-identical because of
  /// this fixed stream layout; changing it changes every trace.
  SimTime SampleDelay(SiteId from, SiteId to, size_t bytes, Rng& rng) const;

  const LatencyConfig& config() const { return config_; }

 private:
  LatencyConfig config_;
  Rng rng_;
};

}  // namespace rainbow

#endif  // RAINBOW_NET_LATENCY_MODEL_H_
