// Soak checks: structures that must stop growing once a long run reaches
// its steady state. Each test drives the same seeded session at two
// lengths and bounds what the longer run holds by what the shorter one
// held.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/system.h"
#include "workload/workload.h"

namespace rainbow {
namespace {

/// What the sites' logs and RPC windows hold at the end of one drive.
struct Footprint {
  uint64_t held_bytes = 0;      ///< Σ Wal::held_bytes()
  uint64_t resident_bytes = 0;  ///< Σ Wal::resident_bytes()
  uint64_t records = 0;         ///< Σ Wal::size()
  uint64_t digest_entries = 0;  ///< Σ Wal::Scan().size()
  uint64_t digest_bytes = 0;    ///< Σ Wal::digest_bytes()
  /// Σ RpcEndpoint::held_bytes() over the sites and the name server.
  uint64_t rpc_window_bytes = 0;
};

/// Runs `txns` transactions on `cfg` until the workload drains.
Result<Footprint> Drive(const SystemConfig& cfg, uint32_t txns) {
  auto created = RainbowSystem::Create(cfg);
  RAINBOW_RETURN_IF_ERROR(created.status());
  RainbowSystem& sys = **created;
  WorkloadConfig wl;
  wl.seed = cfg.seed;
  wl.num_txns = txns;
  wl.mpl = 16;
  wl.read_fraction = 0.75;
  WorkloadGenerator wlg(&sys, wl);
  wlg.Run();
  while (!wlg.finished()) {
    if (sys.Idle()) return Status::Internal("workload stalled");
    sys.RunFor(Millis(50));
  }
  Footprint f;
  for (SiteId s = 0; s < sys.num_sites(); ++s) {
    const Wal& wal = sys.site(s)->wal();
    f.held_bytes += wal.held_bytes();
    f.resident_bytes += wal.resident_bytes();
    f.records += wal.size();
    f.digest_entries += wal.Scan().size();
    f.digest_bytes += wal.digest_bytes();
    f.rpc_window_bytes += sys.site(s)->rpc().held_bytes();
  }
  f.rpc_window_bytes += sys.name_server().rpc().held_bytes();
  return f;
}

TEST(WalSoakTest, HeldBytesPlateauOnClassroomShape) {
  // The shipped config's protocols, on the classroom session's shape:
  // 8 sites, 2000 items with 3 copies each, checkpoints every 256 LSNs.
  // Each checkpoint truncates the log to its protocol barrier, so what a
  // site's log holds allocated must not grow with the run's length:
  // four times the transactions may add at most one checkpoint interval
  // of records per site.
  std::ifstream in(std::string(RAINBOW_SOURCE_DIR) +
                   "/configs/classroom_default.rainbow");
  std::ostringstream text;
  text << in.rdbuf();
  auto cfg = SystemConfig::FromText(text.str());
  ASSERT_TRUE(cfg.ok()) << cfg.status();
  cfg->num_sites = 8;
  cfg->items.clear();
  cfg->AddUniformItems(2000, 100, 3);
  ASSERT_EQ(cfg->protocols.checkpoint_interval, 256u);

  constexpr uint32_t kTxns = 2000;
  auto shorter = Drive(*cfg, kTxns);
  ASSERT_TRUE(shorter.ok()) << shorter.status();
  auto longer = Drive(*cfg, 4 * kTxns);
  ASSERT_TRUE(longer.ok()) << longer.status();

  for (const auto& [txns, f] :
       {std::pair{kTxns, *shorter}, std::pair{4 * kTxns, *longer}}) {
    std::printf("  %5u txns: held %llu B, resident %llu B, %llu records, "
                "%llu digest entries in %llu B, RPC windows %llu B\n",
                txns, static_cast<unsigned long long>(f.held_bytes),
                static_cast<unsigned long long>(f.resident_bytes),
                static_cast<unsigned long long>(f.records),
                static_cast<unsigned long long>(f.digest_entries),
                static_cast<unsigned long long>(f.digest_bytes),
                static_cast<unsigned long long>(f.rpc_window_bytes));
  }
  // Each request acknowledges its sender's finished calls to the same
  // replica, so an RPC window holds the calls in flight and each sender's
  // latest one. Its arrays grow only to the peak of in-flight calls: a
  // longer run may meet a higher peak, which costs at most one more
  // doubling. And the sites and the name server, each a sender to every
  // other, hold at most 1 KiB a (sender, replica) pair; a pair whose
  // calls were never acknowledged would hold up to 256 entries.
  ASSERT_GT(shorter->rpc_window_bytes, 0u);
  EXPECT_LE(longer->rpc_window_bytes, 2 * shorter->rpc_window_bytes);
  const uint64_t endpoints = cfg->num_sites + 1;
  EXPECT_LE(longer->rpc_window_bytes, 1024 * endpoints * endpoints);
  // The digest keeps one entry per transaction until decisions are
  // forgotten, but a closed one costs its 24-byte file form: what the
  // digest holds, slack and the few unfolded map entries included,
  // stays within 32 bytes an entry.
  ASSERT_GT(longer->digest_entries, 0u);
  EXPECT_LE(longer->digest_bytes, 32 * longer->digest_entries);
  // A record's bytes: the shorter run's mean retained record, offset
  // included.
  ASSERT_GT(shorter->records, 0u);
  const uint64_t record_bytes = shorter->resident_bytes / shorter->records;
  const uint64_t slack =
      cfg->num_sites * cfg->protocols.checkpoint_interval * record_bytes;
  EXPECT_LE(longer->held_bytes, shorter->held_bytes + slack)
      << "slack " << slack << " B";
}

}  // namespace
}  // namespace rainbow
