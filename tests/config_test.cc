#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "common/rng.h"
#include "core/config.h"
#include "core/session.h"
#include "core/system.h"
#include "text_fuzz.h"

namespace rainbow {
namespace {

TEST(ConfigTest, UniformItemsPlacement) {
  SystemConfig cfg;
  cfg.num_sites = 4;
  cfg.AddUniformItems(8, 100, 3);
  ASSERT_EQ(cfg.items.size(), 8u);
  for (const ItemConfig& item : cfg.items) {
    EXPECT_EQ(item.copies.size(), 3u);
    EXPECT_EQ(item.initial, 100);
  }
  // Round-robin placement spreads first copies.
  EXPECT_EQ(cfg.items[0].copies[0], 0u);
  EXPECT_EQ(cfg.items[1].copies[0], 1u);
  EXPECT_TRUE(cfg.Validate().ok());
}

TEST(ConfigTest, ReplicationDegreeClampedToSites) {
  SystemConfig cfg;
  cfg.num_sites = 2;
  cfg.AddUniformItems(1, 0, 5);
  EXPECT_EQ(cfg.items[0].copies.size(), 2u);
}

TEST(ConfigTest, ValidateCatchesErrors) {
  SystemConfig cfg;
  cfg.num_sites = 0;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg.num_sites = 2;
  EXPECT_FALSE(cfg.Validate().ok());  // no items
  cfg.AddUniformItems(1, 0, 2);
  EXPECT_TRUE(cfg.Validate().ok());
  cfg.message_loss = 1.5;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg.message_loss = 0;
  cfg.items[0].copies.push_back(9);  // unknown site
  cfg.items[0].votes.clear();
  EXPECT_FALSE(cfg.Validate().ok());
}

TEST(ConfigTest, TextRoundTrip) {
  SystemConfig cfg;
  cfg.seed = 777;
  cfg.num_sites = 5;
  cfg.trace_enabled = true;
  cfg.latency.distribution = LatencyDistribution::kExponential;
  cfg.latency.mean = Millis(7);
  cfg.latency.regions = {0, 0, 1, 1, 1};
  cfg.latency.inter_region_mean = Millis(30);
  cfg.message_loss = 0.01;
  cfg.protocols.rcp = RcpKind::kRowaAvailable;
  cfg.protocols.cc = CcKind::kMultiversionTso;
  cfg.protocols.deadlock = DeadlockPolicy::kWoundWait;
  cfg.protocols.acp = AcpKind::kThreePhaseCommit;
  cfg.protocols.rcp_broadcast = true;
  cfg.protocols.cache_schema = false;
  cfg.protocols.op_timeout = Millis(123);
  cfg.protocols.readonly_optimization = true;
  cfg.protocols.probe_delay = Millis(9);
  cfg.verify_codec = true;
  ItemConfig item;
  item.name = "accounts";
  item.initial = 1000;
  item.copies = {0, 2, 4};
  item.votes = {2, 1, 1};
  item.read_quorum = 2;
  item.write_quorum = 3;
  cfg.items.push_back(item);
  cfg.AddUniformItems(2, 5, 3);

  std::string text = cfg.ToText();
  auto parsed = SystemConfig::FromText(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();

  EXPECT_EQ(parsed->seed, 777u);
  EXPECT_EQ(parsed->num_sites, 5u);
  EXPECT_TRUE(parsed->trace_enabled);
  EXPECT_EQ(parsed->latency.distribution, LatencyDistribution::kExponential);
  EXPECT_EQ(parsed->latency.mean, Millis(7));
  EXPECT_EQ(parsed->latency.regions, (std::vector<int>{0, 0, 1, 1, 1}));
  EXPECT_EQ(parsed->latency.inter_region_mean, Millis(30));
  EXPECT_DOUBLE_EQ(parsed->message_loss, 0.01);
  EXPECT_EQ(parsed->protocols.rcp, RcpKind::kRowaAvailable);
  EXPECT_EQ(parsed->protocols.cc, CcKind::kMultiversionTso);
  EXPECT_EQ(parsed->protocols.deadlock, DeadlockPolicy::kWoundWait);
  EXPECT_EQ(parsed->protocols.acp, AcpKind::kThreePhaseCommit);
  EXPECT_TRUE(parsed->protocols.rcp_broadcast);
  EXPECT_FALSE(parsed->protocols.cache_schema);
  EXPECT_EQ(parsed->protocols.op_timeout, Millis(123));
  EXPECT_TRUE(parsed->protocols.readonly_optimization);
  EXPECT_EQ(parsed->protocols.probe_delay, Millis(9));
  EXPECT_TRUE(parsed->verify_codec);
  ASSERT_EQ(parsed->items.size(), 3u);
  EXPECT_EQ(parsed->items[0].name, "accounts");
  EXPECT_EQ(parsed->items[0].initial, 1000);
  EXPECT_EQ(parsed->items[0].copies, (std::vector<SiteId>{0, 2, 4}));
  EXPECT_EQ(parsed->items[0].votes, (std::vector<int>{2, 1, 1}));
  EXPECT_EQ(parsed->items[0].read_quorum, 2);
  EXPECT_EQ(parsed->items[0].write_quorum, 3);
  EXPECT_TRUE(parsed->items[1].votes.empty());

  // Round-trip is a fixed point.
  EXPECT_EQ(parsed->ToText(), text);
}

SystemConfig RandomConfig(Rng& rng) {
  SystemConfig cfg;
  cfg.seed = rng.Next();
  cfg.num_sites = static_cast<uint32_t>(rng.NextInt(1, 8));
  cfg.stats_bucket = Millis(rng.NextInt(1, 1000));
  cfg.trace_enabled = rng.NextBool(0.5);
  cfg.trace_detail = static_cast<TraceDetail>(rng.NextInt(0, 2));

  cfg.latency.distribution = static_cast<LatencyDistribution>(
      rng.NextInt(0, 2));
  cfg.latency.mean = rng.NextInt(1, 100000);
  cfg.latency.min = rng.NextInt(0, 1000);
  cfg.latency.per_kb = rng.NextInt(0, 500);
  cfg.latency.local = rng.NextInt(0, 100);
  if (rng.NextBool(0.3)) {
    for (uint32_t i = 0; i < cfg.num_sites; ++i) {
      cfg.latency.regions.push_back(static_cast<int>(rng.NextUint(3)));
    }
    cfg.latency.inter_region_mean = rng.NextInt(1, 200000);
  }
  // message_loss must survive the 6-decimal text format exactly.
  cfg.message_loss = static_cast<double>(rng.NextInt(0, 500000)) / 1e6;
  cfg.verify_codec = rng.NextBool(0.5);

  cfg.protocols.rcp = static_cast<RcpKind>(rng.NextInt(0, 3));
  cfg.protocols.cc = static_cast<CcKind>(rng.NextInt(0, 3));
  cfg.protocols.deadlock = static_cast<DeadlockPolicy>(rng.NextInt(0, 4));
  cfg.protocols.acp = static_cast<AcpKind>(rng.NextInt(0, 1));
  cfg.protocols.rcp_broadcast = rng.NextBool(0.5);
  cfg.protocols.cache_schema = rng.NextBool(0.5);
  cfg.protocols.cooperative_termination = rng.NextBool(0.5);
  cfg.protocols.recovery_refresh = rng.NextBool(0.5);
  cfg.protocols.readonly_optimization = rng.NextBool(0.5);
  cfg.protocols.ordered_access = rng.NextBool(0.5);
  cfg.protocols.op_timeout = rng.NextInt(1, 1000000);
  cfg.protocols.lock_wait_timeout = rng.NextInt(1, 1000000);
  cfg.protocols.vote_timeout = rng.NextInt(1, 1000000);
  cfg.protocols.decision_timeout = rng.NextInt(1, 1000000);
  cfg.protocols.decision_retry = rng.NextInt(1, 1000000);
  cfg.protocols.active_timeout = rng.NextInt(1, 1000000);
  cfg.protocols.ack_retry = rng.NextInt(1, 1000000);
  cfg.protocols.max_ack_resends = static_cast<int>(rng.NextInt(0, 20));
  cfg.protocols.suspicion_ttl = rng.NextInt(1, 10000000);
  cfg.protocols.termination_window = rng.NextInt(1, 1000000);
  cfg.protocols.probe_delay = rng.NextInt(1, 1000000);
  cfg.protocols.rpc_max_attempts = static_cast<int>(rng.NextInt(0, 10));
  cfg.protocols.rpc_backoff_base = rng.NextInt(1, 100000);
  cfg.protocols.rpc_backoff_cap = rng.NextInt(1, 1000000);

  int num_items = static_cast<int>(rng.NextInt(1, 12));
  for (int i = 0; i < num_items; ++i) {
    ItemConfig item;
    item.name = "it" + std::to_string(i);
    item.initial = rng.NextInt(-1000, 1000);
    int copies = static_cast<int>(rng.NextInt(1, cfg.num_sites));
    for (int c = 0; c < copies; ++c) {
      item.copies.push_back(
          static_cast<SiteId>((i + c) % cfg.num_sites));
    }
    if (rng.NextBool(0.4)) {
      for (int c = 0; c < copies; ++c) {
        item.votes.push_back(static_cast<int>(rng.NextInt(1, 3)));
      }
    }
    item.read_quorum = static_cast<int>(rng.NextUint(3));
    item.write_quorum = static_cast<int>(rng.NextUint(3));
    cfg.items.push_back(item);
  }
  return cfg;
}

TEST(ConfigPropertyTest, SaveParseSaveIsByteIdentical) {
  // Save() normalizes; parsing that normal form and saving again must
  // reproduce it byte for byte for arbitrary configurations. This is
  // the "saved session" contract: a config file written by one session
  // reloads into an equivalent instance in the next.
  Rng rng(20260806);
  for (int trial = 0; trial < 200; ++trial) {
    SystemConfig cfg = RandomConfig(rng);
    std::string saved = cfg.ToText();
    auto parsed = SystemConfig::FromText(saved);
    ASSERT_TRUE(parsed.ok()) << "trial " << trial << ": " << parsed.status()
                             << "\n" << saved;
    EXPECT_EQ(parsed->ToText(), saved) << "trial " << trial;
  }
}

TEST(ConfigPropertyTest, TraceKnobsRoundTrip) {
  for (TraceDetail d :
       {TraceDetail::kOff, TraceDetail::kProtocol, TraceDetail::kFull}) {
    SystemConfig cfg;
    cfg.trace_enabled = true;
    cfg.trace_detail = d;
    auto parsed = SystemConfig::FromText(cfg.ToText());
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_TRUE(parsed->trace_enabled);
    EXPECT_EQ(parsed->trace_detail, d);
  }
  EXPECT_FALSE(
      SystemConfig::FromText("[system]\ntrace_detail = loud\n").ok());
}

TEST(ConfigTest, ParserRejectsGarbage) {
  EXPECT_FALSE(SystemConfig::FromText("[system]\nbogus_key = 1\n").ok());
  EXPECT_FALSE(SystemConfig::FromText("[nowhere]\nx = 1\n").ok());
  EXPECT_FALSE(SystemConfig::FromText("[system]\nnot a kv line\n").ok());
  EXPECT_FALSE(
      SystemConfig::FromText("[items]\nitem = too,few,fields\n").ok());
  EXPECT_FALSE(
      SystemConfig::FromText("[protocols]\nrcp = PAXOS\n").ok());
}

TEST(ConfigTest, RemovedKeysAreRejected) {
  // Knobs whose mechanism is gone (the free-text trace log, the choice
  // of storage engine, the sharded kernel, the second history oracle):
  // a config saved before then fails loudly instead of being
  // half-applied. Each key is spelled in two pieces so the removed name
  // appears nowhere whole.
  struct Removed {
    std::string section;
    std::string key;
    std::string value;
  };
  const Removed removed[] = {
      {"system", std::string("enable_") + "trace", "false"},
      {"protocols", std::string("storage_") + "engine", "map"},
      {"system", std::string("sim_") + "shards", "4"},
      {"system", std::string("record_") + "history", "true"},
  };
  for (const Removed& r : removed) {
    auto parsed = SystemConfig::FromText("[" + r.section + "]\n" + r.key +
                                         " = " + r.value + "\n");
    ASSERT_FALSE(parsed.ok()) << r.key;
    EXPECT_NE(parsed.status().message().find("unknown [" + r.section +
                                             "] key: " + r.key),
              std::string::npos)
        << parsed.status();
  }
}

TEST(ConfigTest, UnsignedKnobsRejectValuesTheyCannotHold) {
  // A negative count used to wrap: `num_sites = -3` parsed as 4294967293
  // sites, validated, and made Create() throw std::bad_alloc.
  const std::pair<std::string, std::string> bad[] = {
      {"system", "num_sites = -3"},
      {"system", "num_sites = 4294967296"},
      {"system", "nemesis_rounds = -1"},
      {"protocols", "page_size = -4096"},
      {"protocols", "buffer_pool_pages = -64"},
      {"protocols", "lru_k = -2"},
      {"protocols", "checkpoint_interval = -256"},
  };
  for (const auto& [section, line] : bad) {
    auto parsed = SystemConfig::FromText("[" + section + "]\n" + line + "\n");
    ASSERT_FALSE(parsed.ok()) << line;
    EXPECT_NE(parsed.status().message().find("out of range"),
              std::string::npos)
        << parsed.status();
  }
  auto max = SystemConfig::FromText("[system]\nnum_sites = 4294967295\n");
  ASSERT_TRUE(max.ok()) << max.status();
  EXPECT_EQ(max->num_sites, 4294967295u);
}

TEST(ConfigTest, ValidateEnforcesResourceLimits) {
  // In-range values the parser accepts but no machine should try to
  // build: Validate() rejects them and names the key and the limit.
  const std::pair<std::string, std::string> bad[] = {
      {"[system]\nnum_sites = 4097\n", "num_sites must be <= 4096"},
      // kNameServerId: the last site would alias the name server.
      {"[system]\nnum_sites = 4294967294\n", "num_sites must be <= 4096"},
      {"[protocols]\npage_size = 2147483648\n",
       "page_size must be <= 65536"},
  };
  for (const auto& [text, why] : bad) {
    auto parsed = SystemConfig::FromText(text);
    ASSERT_TRUE(parsed.ok()) << text << parsed.status();
    parsed->AddUniformItems(4, 0, 3);
    Status s = parsed->Validate().status();
    ASSERT_FALSE(s.ok()) << text;
    EXPECT_NE(s.message().find(why), std::string::npos) << s;
  }
  for (uint32_t sites : {512u, kMaxSites}) {
    SystemConfig cfg;
    cfg.num_sites = sites;
    cfg.AddUniformItems(4, 0, 3);
    EXPECT_TRUE(cfg.Validate().ok()) << sites << " sites";
  }
  SystemConfig cfg;
  cfg.AddUniformItems(4, 0, 3);
  cfg.protocols.page_size = kMaxPageSize;
  EXPECT_TRUE(cfg.Validate().ok());
}

TEST(ConfigTest, ParsesAllProtocolNames) {
  for (const char* rcp : {"QC", "ROWA", "ROWA-A", "PRIMARY"}) {
    auto parsed = SystemConfig::FromText(std::string("[protocols]\nrcp = ") +
                                         rcp + "\n");
    EXPECT_TRUE(parsed.ok()) << rcp;
  }
  for (const char* dl :
       {"wait-die", "wound-wait", "local-wfg", "timeout-only",
        "edge-chasing"}) {
    auto parsed = SystemConfig::FromText(
        std::string("[protocols]\ndeadlock = ") + dl + "\n");
    EXPECT_TRUE(parsed.ok()) << dl;
  }
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(ConfigTest, ShippedSampleConfigsLoadAndRun) {
  // The files under configs/ must stay loadable — they are the "saved
  // session" artifacts the paper's §4.2 describes.
  for (const char* name :
       {"classroom_default.rainbow", "georeplicated.rainbow"}) {
    std::string text = ReadFileOrEmpty(std::string(RAINBOW_SOURCE_DIR) +
                                       "/configs/" + name);
    ASSERT_FALSE(text.empty()) << name;
    auto cfg = SystemConfig::FromText(text);
    ASSERT_TRUE(cfg.ok()) << name << ": " << cfg.status();
    ASSERT_TRUE(cfg->Validate().ok()) << name;
    // And a short session actually runs on it.
    WorkloadConfig wl;
    wl.num_txns = 20;
    wl.mpl = 2;
    wl.read_fraction = 0.9;  // the geo sample has only 4 hot items
    auto result = RunSession(*cfg, wl);
    ASSERT_TRUE(result.ok()) << name << ": " << result.status();
    EXPECT_GT(result->committed, 10u) << name;
  }
}

TEST(ConfigTest, FuzzedTextNeverCrashes) {
  // Hostile input: mutants of the shipped configs (bit flips, deletions,
  // insertions) must either be rejected with a Status that says why, or
  // parse into a config that, when it validates, RainbowSystem::Create
  // builds. Validate() builds the replication schema, so a config that
  // validates always creates. The georeplicated sample's weighted votes
  // and explicit quorums take mutants into the quorum checks. Nothing
  // may crash (the sanitizer build gives that clause its teeth).
  for (const char* name :
       {"classroom_default.rainbow", "georeplicated.rainbow"}) {
    const std::string text = ReadFileOrEmpty(std::string(RAINBOW_SOURCE_DIR) +
                                             "/configs/" + name);
    ASSERT_FALSE(text.empty()) << name;
    Rng rng(20261017);
    int rejected = 0;
    int built = 0;
    for (int round = 0; round < 2000; ++round) {
      const std::string mutant = MutateText(text, rng);
      Result<SystemConfig> cfg = SystemConfig::FromText(mutant);
      if (!cfg.ok()) {
        EXPECT_FALSE(cfg.status().message().empty()) << "round " << round;
        ++rejected;
        continue;
      }
      Status valid = cfg->Validate().status();
      if (!valid.ok()) {
        EXPECT_FALSE(valid.message().empty()) << "round " << round;
        ++rejected;
        continue;
      }
      auto sys = RainbowSystem::Create(*cfg);
      ASSERT_TRUE(sys.ok()) << name << " round " << round << ": "
                            << sys.status() << "\n" << mutant;
      ++built;
    }
    // Both outcomes occur, so neither clause above is vacuous.
    EXPECT_GT(rejected, 0) << name;
    EXPECT_GT(built, 0) << name;
  }
}

TEST(ConfigTest, ValidateRejectsMalformedItems) {
  // Every per-item rule fails in Validate(), naming the item, and
  // Create() fails with the same Status. Each row starts from one valid
  // item "ok" on three sites and adds the malformed one.
  auto item = [](const char* name, std::vector<SiteId> copies,
                 std::vector<int> votes, int r, int w) {
    ItemConfig it;
    it.name = name;
    it.copies = std::move(copies);
    it.votes = std::move(votes);
    it.read_quorum = r;
    it.write_quorum = w;
    return it;
  };
  struct Row {
    ItemConfig item;
    const char* why;
  };
  const Row rows[] = {
      {item("ok", {1}, {}, 0, 0), "item 'ok' already defined"},
      {item("twice", {0, 1, 1}, {}, 0, 0),
       "item 'twice': duplicate copy site"},
      {item("zero", {0, 1}, {1, 0}, 0, 0),
       "item 'zero': vote weights must be >= 1"},
      {item("negative", {0}, {-2}, 1, 1),
       "item 'negative': vote weights must be >= 1"},
      {item("above", {0, 1}, {}, 3, 2),
       "item 'above': quorum exceeds total votes"},
      {item("missed", {0, 1, 2}, {}, 1, 2),
       "item 'missed': R + W must exceed total votes"},
      {item("split", {0, 1, 2}, {}, 3, 1),
       "item 'split': 2W must exceed total votes"},
      {item("weighted", {0, 1, 2}, {2, 1, 1}, 3, 2),
       "item 'weighted': 2W must exceed total votes"},
      {item("far", {0, 3}, {}, 0, 0), "item 'far' placed on unknown site 3"},
      {item("nowhere", {}, {}, 0, 0), "item 'nowhere' has no copies"},
      {item("short", {0, 1}, {1}, 0, 0),
       "item 'short': votes/copies size mismatch"},
      {item("heavy", {0, 1}, {2147483647, 2}, 0, 0),
       "item 'heavy': total votes exceed 2147483647"},
  };
  for (const Row& row : rows) {
    SystemConfig cfg;
    cfg.num_sites = 3;
    cfg.items.push_back(item("ok", {0, 1, 2}, {}, 0, 0));
    cfg.items.push_back(row.item);
    Status s = cfg.Validate().status();
    ASSERT_FALSE(s.ok()) << row.why;
    EXPECT_NE(s.message().find(row.why), std::string::npos) << s;
    auto sys = RainbowSystem::Create(cfg);
    ASSERT_FALSE(sys.ok()) << row.why;
    EXPECT_EQ(sys.status().message(), s.message());
  }
  // Weighted votes 2,1,1 with R = 2, W = 3 intersect (R + W = 5 > 4,
  // 2W = 6 > 4); zero quorums resolve to a majority of the votes.
  SystemConfig cfg;
  cfg.num_sites = 5;
  cfg.items.push_back(item("w", {0, 1, 2}, {2, 1, 1}, 2, 3));
  cfg.items.push_back(item("m", {0, 1, 2, 3, 4}, {}, 0, 0));
  auto schema = cfg.Validate();
  ASSERT_TRUE(schema.ok()) << schema.status();
  ASSERT_EQ(schema->num_items(), 2u);
  const ItemSchema& m = schema->items()[1];
  EXPECT_EQ(m.votes, (std::vector<int>{1, 1, 1, 1, 1}));
  EXPECT_EQ(m.read_quorum, 3);
  EXPECT_EQ(m.write_quorum, 3);
}

TEST(ConfigTest, ParserIgnoresCommentsAndBlanks) {
  auto parsed = SystemConfig::FromText(
      "# a comment\n\n[system]\nseed = 9\n# another\nnum_sites = 2\n"
      "[items]\nitem = x, 0, 0|1, -, 0, 0\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->seed, 9u);
  EXPECT_EQ(parsed->num_sites, 2u);
  ASSERT_EQ(parsed->items.size(), 1u);
}

}  // namespace
}  // namespace rainbow
