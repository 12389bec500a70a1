#include "workload/workload.h"

#include <algorithm>
#include <cassert>

#include "core/system.h"

namespace rainbow {

const char* AccessPatternName(AccessPattern p) {
  switch (p) {
    case AccessPattern::kUniform:
      return "uniform";
    case AccessPattern::kZipf:
      return "zipf";
    case AccessPattern::kHotspot:
      return "hotspot";
  }
  return "?";
}

WorkloadGenerator::WorkloadGenerator(RainbowSystem* system,
                                     WorkloadConfig config)
    : system_(system), config_(config), rng_(config.seed) {
  num_items_ = static_cast<uint32_t>(system_->catalog().schema().num_items());
  assert(num_items_ > 0);
  if (config_.pattern == AccessPattern::kZipf) {
    zipf_ = std::make_unique<ZipfSampler>(num_items_, config_.zipf_theta);
  }
}

SiteId WorkloadGenerator::PickHome() {
  size_t n = system_->num_sites();
  switch (config_.home) {
    case WorkloadConfig::HomePolicy::kRoundRobin:
      return static_cast<SiteId>(next_home_++ % n);
    case WorkloadConfig::HomePolicy::kRandom:
      return static_cast<SiteId>(rng_.NextUint(n));
  }
  return 0;
}

ItemId WorkloadGenerator::PickItem(Rng& rng) {
  switch (config_.pattern) {
    case AccessPattern::kUniform:
      return static_cast<ItemId>(rng.NextUint(num_items_));
    case AccessPattern::kZipf:
      return static_cast<ItemId>(zipf_->Sample(rng));
    case AccessPattern::kHotspot: {
      uint32_t hot = std::max<uint32_t>(
          1, static_cast<uint32_t>(num_items_ * config_.hot_fraction));
      if (rng.NextBool(config_.hot_prob)) {
        return static_cast<ItemId>(rng.NextUint(hot));
      }
      if (hot >= num_items_) return static_cast<ItemId>(rng.NextUint(num_items_));
      return static_cast<ItemId>(hot + rng.NextUint(num_items_ - hot));
    }
  }
  return 0;
}

TxnProgram WorkloadGenerator::GenerateProgram(Rng& rng) {
  TxnProgram program;
  uint32_t n = config_.ops_min;
  if (config_.ops_max > config_.ops_min) {
    n += static_cast<uint32_t>(
        rng.NextUint(config_.ops_max - config_.ops_min + 1));
  }
  // Items within one transaction are distinct (repeats collapse into the
  // coordinator's read-own-write path and weaken contention).
  std::vector<ItemId> chosen;
  for (uint32_t i = 0; i < n; ++i) {
    ItemId item = PickItem(rng);
    for (int attempts = 0;
         attempts < 8 &&
         std::find(chosen.begin(), chosen.end(), item) != chosen.end();
         ++attempts) {
      item = PickItem(rng);
    }
    chosen.push_back(item);
    // The scan draw is guarded so a scan-free config consumes exactly
    // the same RNG stream as before the verb existed.
    if (config_.scan_fraction > 0 && rng.NextBool(config_.scan_fraction)) {
      uint32_t len = std::max<uint32_t>(1, config_.scan_length);
      if (len > num_items_) len = num_items_;
      ItemId start = item;
      if (start + len > num_items_) start = num_items_ - len;
      program.ops.push_back(Op::Scan(start, static_cast<Value>(len)));
      continue;
    }
    if (rng.NextBool(config_.read_fraction)) {
      program.ops.push_back(Op::Read(item));
    } else if (config_.use_increments) {
      program.ops.push_back(Op::Increment(item, rng.NextInt(-10, 10)));
    } else {
      program.ops.push_back(Op::Write(item, rng.NextInt(0, 1000)));
    }
  }
  return program;
}

void WorkloadGenerator::Run(std::function<void()> done) {
  done_ = std::move(done);
  if (config_.num_txns == 0) {
    done_fired_ = true;
    if (done_) done_();
    return;
  }
  if (config_.per_site_clients) {
    RunPerSite();
    return;
  }
  if (config_.arrival == WorkloadConfig::Arrival::kClosed) {
    uint32_t initial = std::min(config_.mpl, config_.num_txns);
    for (uint32_t i = 0; i < initial; ++i) SubmitOne();
    return;
  }
  // Open arrivals: schedule the whole Poisson process up front.
  double mean_gap_us = 1e6 / config_.arrival_rate_tps;
  SimTime t = system_->sim().Now();
  for (uint32_t i = 0; i < config_.num_txns; ++i) {
    t += std::max<SimTime>(1,
                           static_cast<SimTime>(rng_.NextExponential(mean_gap_us)));
    system_->sim().At(t, [this] { SubmitOne(); });
  }
}

// --- per-site clients -----------------------------------------------------

void WorkloadGenerator::RunPerSite() {
  const uint32_t n = static_cast<uint32_t>(system_->num_sites());
  assert(n > 0);
  for (uint32_t i = 0; i < n; ++i) {
    auto c = std::make_unique<Client>();
    c->home = static_cast<SiteId>(i);
    // One independent stream per site, keyed by the site id alone so a
    // client's draws do not depend on the other clients.
    c->rng = Rng(config_.seed ^ (0x9e3779b97f4a7c15ULL * (i + 1)));
    c->target = config_.num_txns / n + (i < config_.num_txns % n ? 1 : 0);
    c->mpl = config_.mpl / n + (i < config_.mpl % n ? 1 : 0);
    if (c->target > 0 && c->mpl == 0) c->mpl = 1;
    clients_.push_back(std::move(c));
  }
  uint32_t idle_clients = 0;
  for (auto& cp : clients_) {
    Client* c = cp.get();
    if (c->target == 0) {
      ++idle_clients;
      continue;
    }
    if (config_.arrival == WorkloadConfig::Arrival::kClosed) {
      uint32_t initial = std::min(c->mpl, c->target);
      for (uint32_t k = 0; k < initial; ++k) ClientSubmitOne(c);
      continue;
    }
    // Open arrivals: each client runs its slice of the Poisson process
    // (rate split evenly).
    double mean_gap_us =
        1e6 / (config_.arrival_rate_tps / static_cast<double>(n));
    Simulator& sim = system_->sim();
    SimTime t = sim.Now();
    for (uint32_t k = 0; k < c->target; ++k) {
      t += std::max<SimTime>(
          1, static_cast<SimTime>(c->rng.NextExponential(mean_gap_us)));
      sim.At(t, [this, c] { ClientSubmitOne(c); });
    }
  }
  clients_done_ = idle_clients;
  if (idle_clients == clients_.size()) {
    done_fired_ = true;
    if (done_) done_();
  }
}

void WorkloadGenerator::ClientSubmitOne(Client* c) {
  if (c->launched >= c->target) return;
  ++c->launched;
  ClientSubmitProgram(c, GenerateProgram(c->rng), 0, std::nullopt);
}

void WorkloadGenerator::ClientSubmitProgram(
    Client* c, TxnProgram program, uint32_t attempt,
    std::optional<TxnTimestamp> inherit_ts) {
  ++c->submitted;
  TxnProgram copy = program;
  Status s = system_->Submit(
      c->home, std::move(copy),
      [this, c, program = std::move(program), attempt](const TxnOutcome& o) {
        OnClientOutcome(c, o, program, attempt);
      },
      inherit_ts);
  assert(s.ok());
  (void)s;
}

void WorkloadGenerator::OnClientOutcome(Client* c, const TxnOutcome& outcome,
                                        TxnProgram program, uint32_t attempt) {
  if (!outcome.committed && attempt < config_.max_retries) {
    ++c->retries;
    std::optional<TxnTimestamp> inherit;
    if (config_.retry_inherit_timestamp && outcome.ts.site != kInvalidSite) {
      inherit = outcome.ts;
    }
    SimTime backoff = RetryBackoffDelay(config_.retry_backoff,
                                        static_cast<int>(attempt) + 1, c->rng);
    system_->sim().After(
        backoff, [this, c, program = std::move(program), attempt, inherit] {
          ClientSubmitProgram(c, program, attempt + 1, inherit);
        });
    return;
  }
  ++c->completed;
  c->worst_attempts = std::max(c->worst_attempts, attempt + 1);
  if (!outcome.committed) ++c->gave_up;
  if (config_.arrival == WorkloadConfig::Arrival::kClosed &&
      c->launched < c->target) {
    if (config_.think_time > 0) {
      system_->sim().After(config_.think_time,
                           [this, c] { ClientSubmitOne(c); });
    } else {
      ClientSubmitOne(c);
    }
  }
  if (c->completed >= c->target) ClientFinished();
}

void WorkloadGenerator::ClientFinished() {
  if (++clients_done_ == clients_.size()) {
    // Only the last client reaches this branch, so done_ fires once.
    done_fired_ = true;
    if (done_) done_();
  }
}

// --- sequential driver ----------------------------------------------------

void WorkloadGenerator::SubmitOne() {
  if (launched_ >= config_.num_txns) return;
  ++launched_;
  SubmitProgram(GenerateProgram(), 0);
}

void WorkloadGenerator::SubmitProgram(TxnProgram program, uint32_t attempt,
                                      std::optional<TxnTimestamp> inherit_ts) {
  ++submitted_;
  SiteId home = PickHome();
  TxnProgram copy = program;
  Status s = system_->Submit(
      home, std::move(copy),
      [this, program = std::move(program), attempt](const TxnOutcome& o) {
        OnOutcome(o, program, attempt);
      },
      inherit_ts);
  assert(s.ok());
  (void)s;
}

void WorkloadGenerator::OnOutcome(const TxnOutcome& outcome,
                                  TxnProgram program, uint32_t attempt) {
  if (!outcome.committed && attempt < config_.max_retries) {
    ++retries_;
    // Wait-die fairness: restarts may keep the original timestamp so
    // the transaction keeps ageing. (Fast-failed submissions to crashed
    // homes carry no usable timestamp.)
    std::optional<TxnTimestamp> inherit;
    if (config_.retry_inherit_timestamp &&
        outcome.ts.site != kInvalidSite) {
      inherit = outcome.ts;
    }
    // Capped exponential backoff (with jitter) between restarts: rapid
    // retry storms under contention re-collide; spreading the restarts
    // lets the conflicting winners drain first.
    SimTime backoff = RetryBackoffDelay(config_.retry_backoff,
                                        static_cast<int>(attempt) + 1, rng_);
    system_->sim().After(backoff,
                         [this, program = std::move(program), attempt,
                          inherit] {
                           SubmitProgram(program, attempt + 1, inherit);
                         });
    return;
  }
  ++completed_;
  worst_attempts_ = std::max(worst_attempts_, attempt + 1);
  if (!outcome.committed) ++gave_up_;
  if (config_.arrival == WorkloadConfig::Arrival::kClosed &&
      launched_ < config_.num_txns) {
    if (config_.think_time > 0) {
      system_->sim().After(config_.think_time, [this] { SubmitOne(); });
    } else {
      SubmitOne();
    }
  }
  MaybeDone();
}

void WorkloadGenerator::MaybeDone() {
  if (done_fired_) return;
  if (completed_ >= config_.num_txns) {
    done_fired_ = true;
    if (done_) done_();
  }
}

}  // namespace rainbow
