#include "core/config.h"

#include <algorithm>
#include <climits>
#include <cstdint>
#include <sstream>

#include "common/string_util.h"

namespace rainbow {

int ItemConfig::TotalVotes() const {
  if (votes.empty()) return static_cast<int>(copies.size());
  // Summed wide and clamped: hostile vote weights must not overflow
  // before the schema's AddItem rejects them.
  int64_t total = 0;
  for (int v : votes) total += v;
  return static_cast<int>(std::clamp<int64_t>(total, INT_MIN, INT_MAX));
}

int ItemConfig::EffectiveReadQuorum() const {
  return read_quorum > 0 ? read_quorum : TotalVotes() / 2 + 1;
}

int ItemConfig::EffectiveWriteQuorum() const {
  return write_quorum > 0 ? write_quorum : TotalVotes() / 2 + 1;
}

void SystemConfig::AddUniformItems(int count, Value initial,
                                   int replication_degree) {
  int degree = std::min<int>(replication_degree, static_cast<int>(num_sites));
  for (int i = 0; i < count; ++i) {
    ItemConfig item;
    item.name = "x" + std::to_string(items.size());
    item.initial = initial;
    for (int r = 0; r < degree; ++r) {
      item.copies.push_back(static_cast<SiteId>((i + r) % num_sites));
    }
    items.push_back(std::move(item));
  }
}

Result<ReplicationSchema> SystemConfig::Validate() const {
  if (num_sites == 0) {
    return Status::InvalidArgument("num_sites must be >= 1");
  }
  if (num_sites > kMaxSites) {
    return Status::InvalidArgument("num_sites must be <= " +
                                   std::to_string(kMaxSites));
  }
  if (message_loss < 0 || message_loss >= 1) {
    return Status::InvalidArgument("message_loss must be in [0, 1)");
  }
  if (items.empty()) {
    return Status::InvalidArgument("no database items configured");
  }
  if (protocols.page_size < 64) {
    return Status::InvalidArgument("page_size must be >= 64");
  }
  if (protocols.page_size > kMaxPageSize) {
    return Status::InvalidArgument("page_size must be <= " +
                                   std::to_string(kMaxPageSize));
  }
  if (protocols.buffer_pool_pages < 8) {
    return Status::InvalidArgument("buffer_pool_pages must be >= 8");
  }
  if (protocols.lru_k < 1) {
    return Status::InvalidArgument("lru_k must be >= 1");
  }
  if (protocols.checkpoint_interval != 0 && protocols.checkpoint_interval < 8) {
    return Status::InvalidArgument("checkpoint_interval must be 0 or >= 8");
  }
  // The schema's AddItem is the only per-item check: the schema a
  // config validates with is the one RainbowSystem::Create() runs on.
  ReplicationSchema schema(num_sites);
  // Sized once: grown by doubling, the item array would allocate and
  // free a chain of blocks on every validation (the last one 27 MB for
  // 200,000 items), and that chain fragments the heap.
  schema.Reserve(items.size());
  for (const ItemConfig& item : items) {
    std::vector<int> votes = item.votes;
    if (votes.empty()) votes.assign(item.copies.size(), 1);
    auto added = schema.AddItem(item.name, item.initial, item.copies,
                                std::move(votes), item.EffectiveReadQuorum(),
                                item.EffectiveWriteQuorum());
    RAINBOW_RETURN_IF_ERROR(added.status());
  }
  return schema;
}

namespace {

std::string JoinInts(const std::vector<SiteId>& v) {
  std::string out;
  for (size_t i = 0; i < v.size(); ++i) {
    if (i) out += "|";
    out += std::to_string(v[i]);
  }
  return out;
}

std::string JoinInts(const std::vector<int>& v) {
  std::string out;
  for (size_t i = 0; i < v.size(); ++i) {
    if (i) out += "|";
    out += std::to_string(v[i]);
  }
  return out;
}

}  // namespace

std::string SystemConfig::ToText() const {
  std::ostringstream os;
  os << "[system]\n";
  os << "seed = " << seed << "\n";
  os << "num_sites = " << num_sites << "\n";
  os << "stats_bucket = " << stats_bucket << "\n";
  os << "trace_enabled = " << (trace_enabled ? "true" : "false") << "\n";
  os << "trace_detail = " << TraceDetailName(trace_detail) << "\n";
  os << "verify_history = " << (verify_history ? "true" : "false") << "\n";
  os << "nemesis_seed = " << nemesis_seed << "\n";
  os << "nemesis_profile = " << nemesis_profile << "\n";
  os << "nemesis_rounds = " << nemesis_rounds << "\n";
  os << "\n[network]\n";
  os << "distribution = " << LatencyDistributionName(latency.distribution)
     << "\n";
  os << "mean = " << latency.mean << "\n";
  os << "min = " << latency.min << "\n";
  os << "per_kb = " << latency.per_kb << "\n";
  os << "local = " << latency.local << "\n";
  if (!latency.regions.empty()) {
    os << "regions = " << JoinInts(latency.regions) << "\n";
    os << "inter_region_mean = " << latency.inter_region_mean << "\n";
  }
  os << "message_loss = " << FormatDouble(message_loss, 6) << "\n";
  os << "verify_codec = " << (verify_codec ? "true" : "false") << "\n";
  os << "\n[protocols]\n";
  os << "rcp = " << RcpKindName(protocols.rcp) << "\n";
  os << "cc = " << CcKindName(protocols.cc) << "\n";
  os << "deadlock = " << DeadlockPolicyName(protocols.deadlock) << "\n";
  os << "acp = " << AcpKindName(protocols.acp) << "\n";
  os << "rcp_broadcast = " << (protocols.rcp_broadcast ? "true" : "false")
     << "\n";
  os << "cache_schema = " << (protocols.cache_schema ? "true" : "false")
     << "\n";
  os << "cooperative_termination = "
     << (protocols.cooperative_termination ? "true" : "false") << "\n";
  os << "recovery_refresh = "
     << (protocols.recovery_refresh ? "true" : "false") << "\n";
  os << "readonly_optimization = "
     << (protocols.readonly_optimization ? "true" : "false") << "\n";
  os << "epoch_fencing = " << (protocols.epoch_fencing ? "true" : "false")
     << "\n";
  os << "ordered_access = "
     << (protocols.ordered_access ? "true" : "false") << "\n";
  os << "page_size = " << protocols.page_size << "\n";
  os << "buffer_pool_pages = " << protocols.buffer_pool_pages << "\n";
  os << "lru_k = " << protocols.lru_k << "\n";
  os << "checkpoint_interval = " << protocols.checkpoint_interval << "\n";
  os << "page_checksums = " << (protocols.page_checksums ? "true" : "false")
     << "\n";
  os << "op_timeout = " << protocols.op_timeout << "\n";
  os << "lock_wait_timeout = " << protocols.lock_wait_timeout << "\n";
  os << "vote_timeout = " << protocols.vote_timeout << "\n";
  os << "decision_timeout = " << protocols.decision_timeout << "\n";
  os << "decision_retry = " << protocols.decision_retry << "\n";
  os << "active_timeout = " << protocols.active_timeout << "\n";
  os << "ack_retry = " << protocols.ack_retry << "\n";
  os << "max_ack_resends = " << protocols.max_ack_resends << "\n";
  os << "suspicion_ttl = " << protocols.suspicion_ttl << "\n";
  os << "termination_window = " << protocols.termination_window << "\n";
  os << "probe_delay = " << protocols.probe_delay << "\n";
  os << "rpc_max_attempts = " << protocols.rpc_max_attempts << "\n";
  os << "rpc_backoff_base = " << protocols.rpc_backoff_base << "\n";
  os << "rpc_backoff_cap = " << protocols.rpc_backoff_cap << "\n";
  os << "\n[items]\n";
  for (const ItemConfig& item : items) {
    os << "item = " << item.name << ", " << item.initial << ", "
       << JoinInts(item.copies);
    os << ", " << (item.votes.empty() ? "-" : JoinInts(item.votes));
    os << ", " << item.read_quorum << ", " << item.write_quorum << "\n";
  }
  return os.str();
}

namespace {

Result<std::vector<SiteId>> ParseSiteList(std::string_view s) {
  std::vector<SiteId> out;
  for (const std::string& piece : SplitAndTrim(s, '|')) {
    RAINBOW_ASSIGN_OR_RETURN(int64_t v, ParseInt(piece));
    out.push_back(static_cast<SiteId>(v));
  }
  return out;
}

Result<std::vector<int>> ParseIntList(std::string_view s) {
  std::vector<int> out;
  for (const std::string& piece : SplitAndTrim(s, '|')) {
    RAINBOW_ASSIGN_OR_RETURN(int64_t v, ParseInt(piece));
    out.push_back(static_cast<int>(v));
  }
  return out;
}

Status ParseKeyValue(SystemConfig& cfg, const std::string& section,
                     const std::string& key, const std::string& value) {
  auto as_int = [&]() -> Result<int64_t> { return ParseInt(value); };
  auto as_bool = [&]() -> Result<bool> { return ParseBool(value); };
  // Unsigned knobs reject what they cannot hold instead of wrapping it:
  // `num_sites = -3` must not become 4294967293 sites.
  auto as_uint = [&](uint64_t max) -> Result<uint64_t> {
    RAINBOW_ASSIGN_OR_RETURN(int64_t v, ParseInt(value));
    if (v < 0 || static_cast<uint64_t>(v) > max) {
      return Status::InvalidArgument(key + " out of range: " + value);
    }
    return static_cast<uint64_t>(v);
  };
  auto as_uint32 = [&]() -> Result<uint32_t> {
    RAINBOW_ASSIGN_OR_RETURN(uint64_t v, as_uint(UINT32_MAX));
    return static_cast<uint32_t>(v);
  };

  if (section == "system") {
    if (key == "seed") {
      // Full uint64 range: RNG seeds above INT64_MAX must reload.
      RAINBOW_ASSIGN_OR_RETURN(cfg.seed, ParseUint64(value));
    } else if (key == "num_sites") {
      RAINBOW_ASSIGN_OR_RETURN(cfg.num_sites, as_uint32());
    } else if (key == "stats_bucket") {
      RAINBOW_ASSIGN_OR_RETURN(cfg.stats_bucket, as_int());
    } else if (key == "trace_enabled") {
      RAINBOW_ASSIGN_OR_RETURN(cfg.trace_enabled, as_bool());
    } else if (key == "verify_history") {
      RAINBOW_ASSIGN_OR_RETURN(cfg.verify_history, as_bool());
    } else if (key == "nemesis_seed") {
      RAINBOW_ASSIGN_OR_RETURN(cfg.nemesis_seed, ParseUint64(value));
    } else if (key == "nemesis_profile") {
      cfg.nemesis_profile = value;
    } else if (key == "nemesis_rounds") {
      RAINBOW_ASSIGN_OR_RETURN(cfg.nemesis_rounds, as_uint32());
    } else if (key == "trace_detail") {
      if (value == "off") {
        cfg.trace_detail = TraceDetail::kOff;
      } else if (value == "protocol") {
        cfg.trace_detail = TraceDetail::kProtocol;
      } else if (value == "full") {
        cfg.trace_detail = TraceDetail::kFull;
      } else {
        return Status::InvalidArgument("unknown trace_detail: " + value);
      }
    } else {
      return Status::InvalidArgument("unknown [system] key: " + key);
    }
    return Status::OK();
  }
  if (section == "network") {
    if (key == "distribution") {
      if (value == "fixed") {
        cfg.latency.distribution = LatencyDistribution::kFixed;
      } else if (value == "uniform") {
        cfg.latency.distribution = LatencyDistribution::kUniform;
      } else if (value == "exponential") {
        cfg.latency.distribution = LatencyDistribution::kExponential;
      } else {
        return Status::InvalidArgument("unknown distribution: " + value);
      }
    } else if (key == "mean") {
      RAINBOW_ASSIGN_OR_RETURN(cfg.latency.mean, as_int());
    } else if (key == "min") {
      RAINBOW_ASSIGN_OR_RETURN(cfg.latency.min, as_int());
    } else if (key == "per_kb") {
      RAINBOW_ASSIGN_OR_RETURN(cfg.latency.per_kb, as_int());
    } else if (key == "local") {
      RAINBOW_ASSIGN_OR_RETURN(cfg.latency.local, as_int());
    } else if (key == "regions") {
      RAINBOW_ASSIGN_OR_RETURN(cfg.latency.regions, ParseIntList(value));
    } else if (key == "inter_region_mean") {
      RAINBOW_ASSIGN_OR_RETURN(cfg.latency.inter_region_mean, as_int());
    } else if (key == "message_loss") {
      RAINBOW_ASSIGN_OR_RETURN(cfg.message_loss, ParseDouble(value));
    } else if (key == "verify_codec") {
      RAINBOW_ASSIGN_OR_RETURN(cfg.verify_codec, ParseBool(value));
    } else {
      return Status::InvalidArgument("unknown [network] key: " + key);
    }
    return Status::OK();
  }
  if (section == "protocols") {
    ProtocolConfig& p = cfg.protocols;
    if (key == "rcp") {
      if (value == "ROWA") {
        p.rcp = RcpKind::kRowa;
      } else if (value == "ROWA-A") {
        p.rcp = RcpKind::kRowaAvailable;
      } else if (value == "QC") {
        p.rcp = RcpKind::kQuorumConsensus;
      } else if (value == "PRIMARY") {
        p.rcp = RcpKind::kPrimaryCopy;
      } else {
        return Status::InvalidArgument("unknown rcp: " + value);
      }
    } else if (key == "cc") {
      if (value == "2PL") {
        p.cc = CcKind::kTwoPhaseLocking;
      } else if (value == "TSO") {
        p.cc = CcKind::kTimestampOrdering;
      } else if (value == "MVTO") {
        p.cc = CcKind::kMultiversionTso;
      } else if (value == "OCC") {
        p.cc = CcKind::kOptimistic;
      } else {
        return Status::InvalidArgument("unknown cc: " + value);
      }
    } else if (key == "deadlock") {
      if (value == "wait-die") {
        p.deadlock = DeadlockPolicy::kWaitDie;
      } else if (value == "wound-wait") {
        p.deadlock = DeadlockPolicy::kWoundWait;
      } else if (value == "local-wfg") {
        p.deadlock = DeadlockPolicy::kLocalWfg;
      } else if (value == "timeout-only") {
        p.deadlock = DeadlockPolicy::kTimeoutOnly;
      } else if (value == "edge-chasing") {
        p.deadlock = DeadlockPolicy::kEdgeChasing;
      } else {
        return Status::InvalidArgument("unknown deadlock policy: " + value);
      }
    } else if (key == "acp") {
      if (value == "2PC") {
        p.acp = AcpKind::kTwoPhaseCommit;
      } else if (value == "3PC") {
        p.acp = AcpKind::kThreePhaseCommit;
      } else {
        return Status::InvalidArgument("unknown acp: " + value);
      }
    } else if (key == "rcp_broadcast") {
      RAINBOW_ASSIGN_OR_RETURN(p.rcp_broadcast, as_bool());
    } else if (key == "cache_schema") {
      RAINBOW_ASSIGN_OR_RETURN(p.cache_schema, as_bool());
    } else if (key == "cooperative_termination") {
      RAINBOW_ASSIGN_OR_RETURN(p.cooperative_termination, as_bool());
    } else if (key == "recovery_refresh") {
      RAINBOW_ASSIGN_OR_RETURN(p.recovery_refresh, as_bool());
    } else if (key == "readonly_optimization") {
      RAINBOW_ASSIGN_OR_RETURN(p.readonly_optimization, as_bool());
    } else if (key == "epoch_fencing") {
      RAINBOW_ASSIGN_OR_RETURN(p.epoch_fencing, as_bool());
    } else if (key == "ordered_access") {
      RAINBOW_ASSIGN_OR_RETURN(p.ordered_access, as_bool());
    } else if (key == "page_size") {
      RAINBOW_ASSIGN_OR_RETURN(p.page_size, as_uint32());
    } else if (key == "buffer_pool_pages") {
      RAINBOW_ASSIGN_OR_RETURN(p.buffer_pool_pages, as_uint32());
    } else if (key == "lru_k") {
      RAINBOW_ASSIGN_OR_RETURN(p.lru_k, as_uint32());
    } else if (key == "checkpoint_interval") {
      RAINBOW_ASSIGN_OR_RETURN(p.checkpoint_interval, as_uint(UINT64_MAX));
    } else if (key == "page_checksums") {
      RAINBOW_ASSIGN_OR_RETURN(p.page_checksums, as_bool());
    } else if (key == "op_timeout") {
      RAINBOW_ASSIGN_OR_RETURN(p.op_timeout, as_int());
    } else if (key == "lock_wait_timeout") {
      RAINBOW_ASSIGN_OR_RETURN(p.lock_wait_timeout, as_int());
    } else if (key == "vote_timeout") {
      RAINBOW_ASSIGN_OR_RETURN(p.vote_timeout, as_int());
    } else if (key == "decision_timeout") {
      RAINBOW_ASSIGN_OR_RETURN(p.decision_timeout, as_int());
    } else if (key == "decision_retry") {
      RAINBOW_ASSIGN_OR_RETURN(p.decision_retry, as_int());
    } else if (key == "active_timeout") {
      RAINBOW_ASSIGN_OR_RETURN(p.active_timeout, as_int());
    } else if (key == "ack_retry") {
      RAINBOW_ASSIGN_OR_RETURN(p.ack_retry, as_int());
    } else if (key == "max_ack_resends") {
      RAINBOW_ASSIGN_OR_RETURN(int64_t v, as_int());
      p.max_ack_resends = static_cast<int>(v);
    } else if (key == "suspicion_ttl") {
      RAINBOW_ASSIGN_OR_RETURN(p.suspicion_ttl, as_int());
    } else if (key == "termination_window") {
      RAINBOW_ASSIGN_OR_RETURN(p.termination_window, as_int());
    } else if (key == "probe_delay") {
      RAINBOW_ASSIGN_OR_RETURN(p.probe_delay, as_int());
    } else if (key == "rpc_max_attempts") {
      RAINBOW_ASSIGN_OR_RETURN(int64_t v, as_int());
      p.rpc_max_attempts = static_cast<int>(v);
    } else if (key == "rpc_backoff_base") {
      RAINBOW_ASSIGN_OR_RETURN(p.rpc_backoff_base, as_int());
    } else if (key == "rpc_backoff_cap") {
      RAINBOW_ASSIGN_OR_RETURN(p.rpc_backoff_cap, as_int());
    } else {
      return Status::InvalidArgument("unknown [protocols] key: " + key);
    }
    return Status::OK();
  }
  if (section == "items") {
    if (key != "item") {
      return Status::InvalidArgument("unknown [items] key: " + key);
    }
    std::vector<std::string> parts = SplitAndTrim(value, ',');
    if (parts.size() != 6) {
      return Status::InvalidArgument("item line needs 6 fields: " + value);
    }
    ItemConfig item;
    item.name = parts[0];
    RAINBOW_ASSIGN_OR_RETURN(item.initial, ParseInt(parts[1]));
    RAINBOW_ASSIGN_OR_RETURN(item.copies, ParseSiteList(parts[2]));
    if (parts[3] != "-") {
      RAINBOW_ASSIGN_OR_RETURN(item.votes, ParseIntList(parts[3]));
    }
    RAINBOW_ASSIGN_OR_RETURN(int64_t rq, ParseInt(parts[4]));
    RAINBOW_ASSIGN_OR_RETURN(int64_t wq, ParseInt(parts[5]));
    item.read_quorum = static_cast<int>(rq);
    item.write_quorum = static_cast<int>(wq);
    cfg.items.push_back(std::move(item));
    return Status::OK();
  }
  return Status::InvalidArgument("unknown section: [" + section + "]");
}

}  // namespace

Result<SystemConfig> SystemConfig::FromText(const std::string& text) {
  SystemConfig cfg;
  cfg.items.clear();
  std::string section;
  std::istringstream is(text);
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    std::string_view sv = TrimWhitespace(line);
    if (sv.empty() || sv[0] == '#') continue;
    if (sv.front() == '[' && sv.back() == ']') {
      section = std::string(sv.substr(1, sv.size() - 2));
      continue;
    }
    size_t eq = sv.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument(
          StringPrintf("line %d: expected key = value", lineno));
    }
    std::string key(TrimWhitespace(sv.substr(0, eq)));
    std::string value(TrimWhitespace(sv.substr(eq + 1)));
    Status s = ParseKeyValue(cfg, section, key, value);
    if (!s.ok()) {
      return Status::InvalidArgument(
          StringPrintf("line %d: %s", lineno, s.message().c_str()));
    }
  }
  return cfg;
}

}  // namespace rainbow
