#include "core/system.h"

#include <map>

#include "common/string_util.h"

namespace rainbow {

RainbowSystem::RainbowSystem(SystemConfig config, ReplicationSchema schema)
    : config_(std::move(config)),
      client_rng_(config_.seed ^ 0xc11e47),
      catalog_(std::move(schema)) {
  collector_.set_detail(config_.trace_enabled ? config_.trace_detail
                                              : TraceDetail::kOff);
  monitor_.set_bucket_width(config_.stats_bucket);

  Rng root(config_.seed);
  net_ = std::make_unique<Network>(&sim_, config_.latency, root.Fork());
  net_->set_loss_probability(config_.message_loss);
  net_->set_collector(&collector_);
  net_->set_verify_codec(config_.verify_codec);
  net_->set_stats_bucket_width(config_.stats_bucket);

  name_server_ = std::make_unique<NameServer>(catalog_, net_.get());
  name_server_->set_collector(&collector_);
  name_server_->Start();

  for (uint32_t i = 0; i < config_.num_sites; ++i) {
    Site::Env env;
    env.net = net_.get();
    env.config = &config_.protocols;
    env.schema = &catalog_.schema();
    env.seed = config_.seed;
    env.sim = &sim_;
    env.collector = &collector_;
    env.monitor = &monitor_;
    sites_.push_back(std::make_unique<Site>(static_cast<SiteId>(i), env));
  }
  for (const ItemSchema& item : catalog_.schema().items()) {
    for (SiteId s : item.copies) {
      sites_[s]->LoadItem(item.id, item.initial_value);
    }
  }
  for (auto& site : sites_) site->Start();
}

Result<std::unique_ptr<RainbowSystem>> RainbowSystem::Create(
    SystemConfig config) {
  RAINBOW_ASSIGN_OR_RETURN(ReplicationSchema schema, config.Validate());
  return std::unique_ptr<RainbowSystem>(
      new RainbowSystem(std::move(config), std::move(schema)));
}

Status RainbowSystem::Submit(SiteId home, TxnProgram program, TxnCallback cb,
                             std::optional<TxnTimestamp> inherit_ts) {
  if (home >= sites_.size()) {
    return Status::InvalidArgument("no such site " + std::to_string(home));
  }
  sites_[home]->Submit(std::move(program), std::move(cb), inherit_ts);
  return Status::OK();
}

void RainbowSystem::RunFor(SimTime duration) {
  sim_.RunUntil(sim_.Now() + duration);
}

size_t RainbowSystem::RunToQuiescence(size_t max_events) {
  return sim_.RunToQuiescence(max_events);
}

void RainbowSystem::CrashSite(SiteId s) {
  if (s == kNameServerId) {
    name_server_->Crash();
    return;
  }
  if (s < sites_.size()) sites_[s]->Crash();
}

void RainbowSystem::RecoverSite(SiteId s) {
  if (s == kNameServerId) {
    name_server_->Recover();
    return;
  }
  if (s < sites_.size()) sites_[s]->Recover();
}

Result<ItemCopy> RainbowSystem::LatestCommitted(ItemId item) const {
  auto schema = catalog_.schema().Find(item);
  RAINBOW_RETURN_IF_ERROR(schema.status());
  ItemCopy best;
  bool found = false;
  for (SiteId s : (*schema)->copies) {
    auto copy = sites_[s]->store().Get(item);
    if (!copy.ok()) continue;
    if (!found || copy->version > best.version) {
      best = *copy;
      found = true;
    }
  }
  if (!found) return Status::NotFound("no copies readable");
  return best;
}

Status RainbowSystem::CheckReplicaConsistency(
    bool require_full_convergence) const {
  for (const ItemSchema& item : catalog_.schema().items()) {
    std::map<Version, Value> by_version;
    Version max_version = 0;
    for (SiteId s : item.copies) {
      auto copy = sites_[s]->store().Get(item.id);
      if (!copy.ok()) {
        return Status::Internal("site " + std::to_string(s) +
                                " lost its copy of " + item.name);
      }
      auto [it, inserted] = by_version.emplace(copy->version, copy->value);
      if (!inserted && it->second != copy->value) {
        return Status::Internal(StringPrintf(
            "item %s: two copies at version %llu disagree (%lld vs %lld)",
            item.name.c_str(), static_cast<unsigned long long>(copy->version),
            static_cast<long long>(it->second),
            static_cast<long long>(copy->value)));
      }
      max_version = std::max(max_version, copy->version);
    }
    if (require_full_convergence && by_version.size() > 1) {
      return Status::Internal(StringPrintf(
          "item %s: copies did not converge (%zu distinct versions)",
          item.name.c_str(), by_version.size()));
    }
  }
  return Status::OK();
}

CheckReport RainbowSystem::VerifyHistory() const {
  HistoryChecker checker(config_);
  return checker.Check(collector());
}

}  // namespace rainbow
