// Nemesis fuzzer (fault/nemesis.h): deterministic generation, schedule
// well-formedness, clean runs under the fixed protocol stack, and the
// flagship bug hunt — with the incarnation-epoch fence disabled the
// fuzzer must find the resurrection violation, shrink it to a handful of
// fault events, and emit a script that reproduces on replay.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "fault/fault_script.h"
#include "fault/nemesis.h"

namespace rainbow {
namespace {

TEST(NemesisProfileTest, ByNameResolvesBuiltins) {
  for (const char* name : {"calm", "flaky", "havoc"}) {
    Result<NemesisProfile> p = NemesisProfile::ByName(name);
    ASSERT_TRUE(p.ok()) << name;
    EXPECT_EQ(p->name, name);
  }
  EXPECT_FALSE(NemesisProfile::ByName("tempest").ok());
}

TEST(NemesisTest, GenerationIsDeterministic) {
  NemesisOptions opts;
  opts.seed = 77;
  opts.profile = "havoc";
  Result<Nemesis> a = Nemesis::Make(opts);
  Result<Nemesis> b = Nemesis::Make(opts);
  ASSERT_TRUE(a.ok() && b.ok());
  for (uint32_t round = 0; round < 5; ++round) {
    const uint64_t seed = a->RoundSeed(round);
    EXPECT_EQ(seed, b->RoundSeed(round));
    std::vector<FaultEvent> ea = Nemesis::Flatten(a->GenerateWindows(seed));
    std::vector<FaultEvent> eb = Nemesis::Flatten(b->GenerateWindows(seed));
    EXPECT_EQ(ea, eb) << "round " << round;
  }
  // Different rounds draw different schedules.
  EXPECT_NE(Nemesis::Flatten(a->GenerateWindows(a->RoundSeed(0))),
            Nemesis::Flatten(a->GenerateWindows(a->RoundSeed(1))));
}

TEST(NemesisTest, SchedulesAreWellFormedAndSelfHealing) {
  NemesisOptions opts;
  opts.seed = 5;
  opts.profile = "havoc";
  Result<Nemesis> n = Nemesis::Make(opts);
  ASSERT_TRUE(n.ok());
  const NemesisProfile havoc = NemesisProfile::Havoc();
  for (uint32_t round = 0; round < 10; ++round) {
    std::vector<FaultWindow> windows =
        n->GenerateWindows(n->RoundSeed(round));
    EXPECT_GE(static_cast<int>(windows.size()), havoc.min_windows);
    EXPECT_LE(static_cast<int>(windows.size()), havoc.max_windows);
    for (const FaultWindow& w : windows) {
      // Every window is paired: whatever the start breaks, the end
      // repairs — this is what makes the ddmin shrinker sound.
      ASSERT_TRUE(w.end.has_value());
      EXPECT_LT(w.start.at, w.end->at);
      EXPECT_LE(w.end->at, havoc.horizon);
      switch (w.start.kind) {
        case FaultEvent::Kind::kCrashSite:
          EXPECT_EQ(w.end->kind, FaultEvent::Kind::kRecoverSite);
          EXPECT_EQ(w.end->site, w.start.site);
          EXPECT_LE(w.end->at - w.start.at, havoc.crash_max);
          break;
        case FaultEvent::Kind::kPartition:
          EXPECT_EQ(w.end->kind, FaultEvent::Kind::kHeal);
          EXPECT_GE(w.start.groups.size(), 2u);
          break;
        case FaultEvent::Kind::kLinkDown:
          EXPECT_EQ(w.end->kind, FaultEvent::Kind::kLinkUp);
          break;
        case FaultEvent::Kind::kLinkDownOneWay:
          EXPECT_EQ(w.end->kind, FaultEvent::Kind::kLinkUpOneWay);
          break;
        case FaultEvent::Kind::kLinkLoss:
          EXPECT_LE(w.start.amount, havoc.max_loss);
          EXPECT_EQ(w.end->amount, 0.0);
          break;
        case FaultEvent::Kind::kLinkDup:
          EXPECT_LE(w.start.amount, havoc.max_dup);
          EXPECT_EQ(w.end->amount, 0.0);
          break;
        case FaultEvent::Kind::kLinkDelay:
          EXPECT_LE(w.start.amount, havoc.max_delay_multiplier);
          EXPECT_EQ(w.end->amount, 1.0);
          break;
        case FaultEvent::Kind::kLinkReorder:
          EXPECT_LE(w.start.amount,
                    static_cast<double>(havoc.max_reorder_jitter));
          EXPECT_EQ(w.end->amount, 0.0);
          break;
        default:
          FAIL() << "unexpected window start kind";
      }
    }
    // Flatten is time-ordered.
    std::vector<FaultEvent> events = Nemesis::Flatten(windows);
    for (size_t i = 1; i < events.size(); ++i) {
      EXPECT_LE(events[i - 1].at, events[i].at);
    }
  }
}

TEST(NemesisTest, CleanUnderFlakyProfileWithFencing) {
  // The CI smoke configuration: default (correct) protocol stack,
  // moderate fault intensity, fixed seed. Must find nothing.
  NemesisOptions opts;
  opts.seed = 1;
  opts.profile = "flaky";
  opts.rounds = 5;
  Result<Nemesis> n = Nemesis::Make(opts);
  ASSERT_TRUE(n.ok());
  NemesisResult r = n->Run();
  EXPECT_FALSE(r.found_violation) << r.report;
  EXPECT_EQ(r.rounds_run, 5u);
  EXPECT_EQ(r.total_runs, 5u);
}

/// True if `e` ends the fault window that `start` opens: the matching
/// recover, heal or link-up, or the reset of the same override.
bool Undoes(const FaultEvent& start, const FaultEvent& e) {
  using Kind = FaultEvent::Kind;
  const bool same_link = e.site == start.site && e.peer == start.peer;
  switch (start.kind) {
    case Kind::kCrashSite:
      return e.kind == Kind::kRecoverSite && e.site == start.site;
    case Kind::kCrashNameServer:
      return e.kind == Kind::kRecoverNameServer;
    case Kind::kPartition:
      return e.kind == Kind::kHeal;
    case Kind::kLinkDown:
      return e.kind == Kind::kLinkUp && same_link;
    case Kind::kLinkDownOneWay:
      return e.kind == Kind::kLinkUpOneWay && same_link;
    default:
      return e.kind == start.kind && same_link;
  }
}

TEST(NemesisTest, FindsAndShrinksResurrectionBugWithoutFencing) {
  // The acceptance hunt: disable the incarnation-epoch fence (the PR-3
  // fix for the replica-resurrection bug) and let havoc-profile fuzzing
  // rediscover it. Seed 4 fails in its first round, which keeps this
  // test fast; determinism makes it stable.
  NemesisOptions opts;
  opts.seed = 4;
  opts.profile = "havoc";
  opts.rounds = 5;
  opts.shrink = true;
  opts.base_config.protocols.epoch_fencing = false;
  Result<Nemesis> n = Nemesis::Make(opts);
  ASSERT_TRUE(n.ok());
  NemesisResult r = n->Run();
  ASSERT_TRUE(r.found_violation);
  EXPECT_FALSE(r.report.empty());
  EXPECT_NE(r.report, "ok");
  EXPECT_LE(r.minimized.size(), r.failing_schedule.size());
  EXPECT_FALSE(r.repro_script.empty());

  // Shrunk to a minimal repro: the bug needs a replica crash and its
  // recovery, and every window left is needed — dropping any one of them
  // (its start event and the end that undoes it) loses the violation.
  using Kind = FaultEvent::Kind;
  auto has = [&](Kind k) {
    return std::any_of(r.minimized.begin(), r.minimized.end(),
                       [k](const FaultEvent& e) { return e.kind == k; });
  };
  EXPECT_TRUE(has(Kind::kCrashSite));
  EXPECT_TRUE(has(Kind::kRecoverSite));
  std::vector<bool> paired(r.minimized.size(), false);
  for (size_t i = 0; i < r.minimized.size(); ++i) {
    if (paired[i]) continue;
    const FaultEvent& start = r.minimized[i];
    size_t end = i + 1;
    while (end < r.minimized.size() &&
           (paired[end] || !Undoes(start, r.minimized[end]))) {
      ++end;
    }
    ASSERT_LT(end, r.minimized.size())
        << "no end event for window starting at " << start.at;
    paired[i] = paired[end] = true;
    std::vector<FaultEvent> without;
    for (size_t j = 0; j < r.minimized.size(); ++j) {
      if (j != i && j != end) without.push_back(r.minimized[j]);
    }
    EXPECT_FALSE(n->ScheduleFails(without, r.failing_seed, nullptr))
        << "the window starting at " << start.at << " is not needed:\n"
        << r.repro_script;
  }

  // The emitted script reproduces the violation on replay...
  Result<Nemesis> replayer = Nemesis::Make(opts);
  ASSERT_TRUE(replayer.ok());
  std::string report;
  Result<bool> reproduced =
      replayer->Replay(r.repro_script, r.failing_seed, &report);
  ASSERT_TRUE(reproduced.ok()) << reproduced.status();
  EXPECT_TRUE(*reproduced);
  EXPECT_NE(report, "ok");

  // ...and the fence, when enabled, stops the same schedule cold.
  NemesisOptions fenced = opts;
  fenced.base_config.protocols.epoch_fencing = true;
  Result<Nemesis> guard = Nemesis::Make(fenced);
  ASSERT_TRUE(guard.ok());
  Result<bool> still_fails =
      guard->Replay(r.repro_script, r.failing_seed, &report);
  ASSERT_TRUE(still_fails.ok());
  EXPECT_FALSE(*still_fails) << report;
}

TEST(NemesisTest, HuntIsDeterministic) {
  NemesisOptions opts;
  opts.seed = 4;
  opts.profile = "havoc";
  opts.rounds = 3;
  opts.shrink = true;
  opts.base_config.protocols.epoch_fencing = false;
  Result<Nemesis> a = Nemesis::Make(opts);
  Result<Nemesis> b = Nemesis::Make(opts);
  ASSERT_TRUE(a.ok() && b.ok());
  NemesisResult ra = a->Run();
  NemesisResult rb = b->Run();
  ASSERT_TRUE(ra.found_violation);
  EXPECT_EQ(ra.failing_round, rb.failing_round);
  EXPECT_EQ(ra.failing_seed, rb.failing_seed);
  EXPECT_EQ(ra.repro_script, rb.repro_script);
  EXPECT_EQ(ra.total_runs, rb.total_runs);
}

TEST(NemesisTest, StorageWindowsAreWellFormedAndOptIn) {
  // With storage faults off (the default), schedules never contain
  // storage events and are byte-identical to the pre-option generator.
  NemesisOptions off;
  off.seed = 12;
  off.profile = "calm";
  Result<Nemesis> base = Nemesis::Make(off);
  ASSERT_TRUE(base.ok());

  NemesisOptions on = off;
  on.storage_faults = true;
  Result<Nemesis> storage = Nemesis::Make(on);
  ASSERT_TRUE(storage.ok());

  const double cap = NemesisProfile::Calm().max_storage_fault;
  auto is_storage = [](FaultEvent::Kind k) {
    return k == FaultEvent::Kind::kStorageTorn ||
           k == FaultEvent::Kind::kStorageShort ||
           k == FaultEvent::Kind::kStorageLost ||
           k == FaultEvent::Kind::kStorageReadFlip;
  };
  size_t storage_windows = 0;
  for (uint32_t round = 0; round < 20; ++round) {
    const uint64_t seed = base->RoundSeed(round);
    for (const FaultWindow& w : base->GenerateWindows(seed)) {
      EXPECT_FALSE(is_storage(w.start.kind));
    }
    for (const FaultWindow& w : storage->GenerateWindows(seed)) {
      if (!is_storage(w.start.kind)) continue;
      ++storage_windows;
      // Self-healing: the end event disarms the same kind on the site.
      ASSERT_TRUE(w.end.has_value());
      EXPECT_EQ(w.end->kind, w.start.kind);
      EXPECT_EQ(w.end->site, w.start.site);
      EXPECT_EQ(w.end->amount, 0.0);
      EXPECT_GT(w.start.amount, 0.0);
      EXPECT_LE(w.start.amount, cap);
    }
  }
  EXPECT_GT(storage_windows, 0u);
}

TEST(NemesisTest, CleanStorageHuntWithChecksums) {
  // The storage-robustness smoke: torn/short/lost writes and read bit
  // flips against the checksummed doublewrite disk must never produce
  // an observable invariant violation.
  NemesisOptions opts;
  opts.seed = 21;
  opts.profile = "calm";
  opts.rounds = 3;
  opts.storage_faults = true;
  Result<Nemesis> n = Nemesis::Make(opts);
  ASSERT_TRUE(n.ok());
  NemesisResult r = n->Run();
  EXPECT_FALSE(r.found_violation) << r.report;
  EXPECT_EQ(r.rounds_run, 3u);
}

TEST(NemesisTest, FindsTornPageBugWithoutChecksums) {
  // The storage acceptance hunt: disable per-page CRC (the defense that
  // makes torn and short writes detectable) and let calm-profile fuzzing
  // with storage faults surface silent page corruption as an observable
  // oracle violation. Seed 1 fails quickly; the shrinker keeps the
  // torn-write window in the minimal schedule.
  NemesisOptions opts;
  opts.seed = 1;
  opts.profile = "calm";
  opts.rounds = 5;
  opts.shrink = true;
  opts.storage_faults = true;
  opts.base_config.protocols.page_checksums = false;
  Result<Nemesis> n = Nemesis::Make(opts);
  ASSERT_TRUE(n.ok());
  NemesisResult r = n->Run();
  ASSERT_TRUE(r.found_violation);
  EXPECT_FALSE(r.repro_script.empty());
  EXPECT_LE(r.minimized.size(), r.failing_schedule.size());
  bool has_storage_fault = false;
  for (const FaultEvent& e : r.minimized) {
    if (e.kind == FaultEvent::Kind::kStorageTorn ||
        e.kind == FaultEvent::Kind::kStorageShort ||
        e.kind == FaultEvent::Kind::kStorageLost ||
        e.kind == FaultEvent::Kind::kStorageReadFlip) {
      has_storage_fault = true;
    }
  }
  EXPECT_TRUE(has_storage_fault) << "minimal repro lost the storage fault";

  // The emitted script reproduces the violation on replay...
  Result<Nemesis> replayer = Nemesis::Make(opts);
  ASSERT_TRUE(replayer.ok());
  std::string report;
  Result<bool> reproduced =
      replayer->Replay(r.repro_script, r.failing_seed, &report);
  ASSERT_TRUE(reproduced.ok()) << reproduced.status();
  EXPECT_TRUE(*reproduced);
  EXPECT_NE(report, "ok");

  // ...and the checksum + doublewrite defense stops the same schedule.
  NemesisOptions guarded = opts;
  guarded.base_config.protocols.page_checksums = true;
  Result<Nemesis> guard = Nemesis::Make(guarded);
  ASSERT_TRUE(guard.ok());
  Result<bool> still_fails =
      guard->Replay(r.repro_script, r.failing_seed, &report);
  ASSERT_TRUE(still_fails.ok());
  EXPECT_FALSE(*still_fails) << report;
}

TEST(NemesisTest, ReplayRejectsMalformedScripts) {
  NemesisOptions opts;
  Result<Nemesis> n = Nemesis::Make(opts);
  ASSERT_TRUE(n.ok());
  EXPECT_FALSE(n->Replay("0 explode 3\n", 1, nullptr).ok());
}

}  // namespace
}  // namespace rainbow
