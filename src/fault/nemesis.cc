#include "fault/nemesis.h"

#include <algorithm>
#include <cassert>

#include "core/system.h"
#include "fault/fault_script.h"
#include "verify/checker.h"
#include "workload/workload.h"

namespace rainbow {

namespace {

/// SplitMix64 finalizer: decorrelates per-round seeds drawn from a
/// small base seed.
uint64_t Mix(uint64_t z) {
  z ^= z >> 30;
  z *= 0xbf58476d1ce4e5b9ULL;
  z ^= z >> 27;
  z *= 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return z;
}

}  // namespace

NemesisProfile NemesisProfile::Calm() {
  NemesisProfile p;
  p.name = "calm";
  p.min_windows = 2;
  p.max_windows = 4;
  p.horizon = Seconds(2);
  p.window_min = Millis(50);
  p.window_max = Millis(300);
  p.crash_min = Millis(50);
  p.crash_max = Millis(200);
  p.crash_weight = 0.05;
  p.partition_weight = 0.05;
  p.link_weight = 0.3;
  p.override_weight = 0.6;
  p.max_loss = 0.1;
  p.max_dup = 0.1;
  p.max_delay_multiplier = 2.0;
  p.max_reorder_jitter = Millis(1);
  return p;
}

NemesisProfile NemesisProfile::Flaky() {
  NemesisProfile p;
  p.name = "flaky";
  p.min_windows = 4;
  p.max_windows = 8;
  p.horizon = Seconds(3);
  p.window_min = Millis(50);
  p.window_max = Millis(400);
  p.crash_min = Millis(5);
  p.crash_max = Millis(80);
  p.crash_weight = 0.25;
  p.partition_weight = 0.15;
  p.link_weight = 0.25;
  p.override_weight = 0.35;
  p.max_loss = 0.4;
  p.max_dup = 0.4;
  p.max_delay_multiplier = 6.0;
  p.max_reorder_jitter = Millis(10);
  return p;
}

NemesisProfile NemesisProfile::Havoc() {
  NemesisProfile p;
  p.name = "havoc";
  p.min_windows = 8;
  p.max_windows = 16;
  p.horizon = Seconds(4);
  p.window_min = Millis(20);
  p.window_max = Millis(600);
  p.crash_min = Millis(4);
  p.crash_max = Millis(60);
  p.crash_weight = 0.35;
  p.partition_weight = 0.2;
  p.link_weight = 0.2;
  p.override_weight = 0.25;
  p.max_loss = 0.9;
  p.max_dup = 0.8;
  p.max_delay_multiplier = 16.0;
  p.max_reorder_jitter = Millis(30);
  return p;
}

Result<NemesisProfile> NemesisProfile::ByName(const std::string& name) {
  if (name == "calm") return Calm();
  if (name == "flaky") return Flaky();
  if (name == "havoc") return Havoc();
  return Status::InvalidArgument("unknown nemesis profile '" + name +
                                 "' (expected calm, flaky, or havoc)");
}

Nemesis::Nemesis(const NemesisOptions& options, const NemesisProfile& profile)
    : opts_(options), profile_(profile) {
  // Storage faults opt in per run, not per profile: raising the weight
  // here (instead of in the built-in profiles) keeps every historical
  // seed's schedule byte-identical when the option is off.
  if (opts_.storage_faults && profile_.storage_weight == 0.0) {
    profile_.storage_weight = 0.25;
  }
}

Result<Nemesis> Nemesis::Make(const NemesisOptions& options) {
  Result<NemesisProfile> profile = NemesisProfile::ByName(options.profile);
  if (!profile.ok()) return profile.status();
  return Nemesis(options, *profile);
}

uint64_t Nemesis::RoundSeed(uint32_t round) const {
  return Mix(opts_.seed + 0x9e3779b97f4a7c15ULL * (round + 1)) | 1;
}

SystemConfig Nemesis::MakeConfig() const {
  SystemConfig cfg = opts_.base_config;
  if (cfg.items.empty()) {
    // Partial replication on purpose: with a copy on every site, reads
    // are always served locally and a remote replica's locks can never
    // matter — fully replicated schemas hide a whole class of
    // crash-recovery bugs from the fuzzer.
    cfg.num_sites = 5;
    cfg.AddUniformItems(opts_.storage_faults ? 24 : 12, 100, 3);
  }
  if (opts_.storage_faults) {
    // Shrink the disk geometry so each site's tree spans several pages
    // and the pool actually evicts: under the default 4 KiB pages the
    // whole database fits in one leaf that is never written back, so a
    // per-write fault would have nothing to tear. A tight checkpoint
    // cadence keeps flush (and thus fault) traffic up.
    cfg.protocols.page_size = 64;
    cfg.protocols.buffer_pool_pages = 8;
    if (cfg.protocols.checkpoint_interval == 0 ||
        cfg.protocols.checkpoint_interval > 32) {
      cfg.protocols.checkpoint_interval = 32;
    }
  }
  if (!cfg.trace_enabled) {
    cfg.trace_enabled = true;
    cfg.trace_detail = TraceDetail::kProtocol;
  }
  return cfg;
}

std::vector<FaultWindow> Nemesis::GenerateWindows(
    uint64_t schedule_seed) const {
  Rng rng(schedule_seed);
  const SiteId num_sites = MakeConfig().num_sites;
  const int n_windows =
      profile_.min_windows +
      static_cast<int>(rng.NextUint(static_cast<uint64_t>(
          profile_.max_windows - profile_.min_windows + 1)));

  const double total_weight =
      profile_.crash_weight + profile_.partition_weight +
      profile_.link_weight + profile_.override_weight + profile_.storage_weight;

  std::vector<FaultWindow> windows;
  windows.reserve(static_cast<size_t>(n_windows));
  for (int i = 0; i < n_windows; ++i) {
    double pick = rng.NextDouble() * total_weight;
    const bool is_crash = (pick -= profile_.crash_weight) < 0;
    const SimTime dur_min = is_crash ? profile_.crash_min : profile_.window_min;
    const SimTime dur_max = is_crash ? profile_.crash_max : profile_.window_max;
    const SimTime dur = dur_min + static_cast<SimTime>(rng.NextUint(
                                      static_cast<uint64_t>(dur_max - dur_min + 1)));
    const SimTime start = static_cast<SimTime>(
        rng.NextUint(static_cast<uint64_t>(profile_.horizon - dur + 1)));
    const SimTime end = start + dur;

    FaultWindow w;
    if (is_crash) {
      const SiteId s = static_cast<SiteId>(rng.NextUint(num_sites));
      w.start = FaultEvent::Crash(start, s);
      w.end = FaultEvent::Recover(end, s);
    } else if ((pick -= profile_.partition_weight) < 0) {
      // Random two-group split: sometimes majority/minority, sometimes
      // even — both interesting for quorum protocols.
      std::vector<SiteId> sites(num_sites);
      for (SiteId s = 0; s < num_sites; ++s) sites[s] = s;
      rng.Shuffle(sites);
      const size_t cut = 1 + static_cast<size_t>(rng.NextUint(num_sites - 1));
      std::vector<std::vector<SiteId>> groups(2);
      groups[0].assign(sites.begin(),
                       sites.begin() + static_cast<ptrdiff_t>(cut));
      groups[1].assign(sites.begin() + static_cast<ptrdiff_t>(cut),
                       sites.end());
      w.start = FaultEvent::Partition(start, std::move(groups));
      w.end = FaultEvent::Heal(end);
    } else if (pick - profile_.link_weight - profile_.override_weight >= 0) {
      // Storage-fault window: arm one fault kind on one site's disk for
      // the window, then disarm (probability 0). Only reachable when
      // storage_weight > 0, so schedules generated without the option
      // draw the identical event stream they always did.
      const SiteId s = static_cast<SiteId>(rng.NextUint(num_sites));
      const uint64_t kind = rng.NextUint(4);
      const double p = rng.NextDouble() * profile_.max_storage_fault;
      switch (kind) {
        case 0:
          w.start = FaultEvent::StorageTorn(start, s, p);
          w.end = FaultEvent::StorageTorn(end, s, 0.0);
          break;
        case 1:
          w.start = FaultEvent::StorageShort(start, s, p);
          w.end = FaultEvent::StorageShort(end, s, 0.0);
          break;
        case 2:
          w.start = FaultEvent::StorageLost(start, s, p);
          w.end = FaultEvent::StorageLost(end, s, 0.0);
          break;
        default:
          w.start = FaultEvent::StorageReadFlip(start, s, p);
          w.end = FaultEvent::StorageReadFlip(end, s, 0.0);
          break;
      }
    } else {
      const SiteId a = static_cast<SiteId>(rng.NextUint(num_sites));
      SiteId b = static_cast<SiteId>(rng.NextUint(num_sites - 1));
      if (b >= a) ++b;
      if ((pick -= profile_.link_weight) < 0) {
        if (rng.NextBool(0.5)) {
          // Asymmetric ("grey") failure: only a -> b is severed.
          w.start = FaultEvent::LinkDownOneWay(start, a, b);
          w.end = FaultEvent::LinkUpOneWay(end, a, b);
        } else {
          w.start = FaultEvent::LinkDown(start, a, b);
          w.end = FaultEvent::LinkUp(end, a, b);
        }
      } else {
        switch (rng.NextUint(4)) {
          case 0:
            w.start = FaultEvent::LinkLoss(
                start, a, b, rng.NextDouble() * profile_.max_loss);
            w.end = FaultEvent::LinkLoss(end, a, b, 0.0);
            break;
          case 1:
            w.start = FaultEvent::LinkDelay(
                start, a, b,
                1.0 + rng.NextDouble() * (profile_.max_delay_multiplier - 1.0));
            w.end = FaultEvent::LinkDelay(end, a, b, 1.0);
            break;
          case 2:
            w.start = FaultEvent::LinkDup(start, a, b,
                                          rng.NextDouble() * profile_.max_dup);
            w.end = FaultEvent::LinkDup(end, a, b, 0.0);
            break;
          default:
            w.start = FaultEvent::LinkReorder(
                start, a, b,
                static_cast<double>(rng.NextUint(static_cast<uint64_t>(
                    profile_.max_reorder_jitter + 1))));
            w.end = FaultEvent::LinkReorder(end, a, b, 0.0);
            break;
        }
      }
    }
    windows.push_back(std::move(w));
  }
  return windows;
}

std::vector<FaultEvent> Nemesis::Flatten(const std::vector<FaultWindow>& ws) {
  std::vector<FaultEvent> events;
  events.reserve(ws.size() * 2);
  for (const FaultWindow& w : ws) {
    events.push_back(w.start);
    if (w.end) events.push_back(*w.end);
  }
  std::stable_sort(
      events.begin(), events.end(),
      [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });
  return events;
}

bool Nemesis::ScheduleFails(const std::vector<FaultEvent>& events,
                            uint64_t workload_seed, std::string* report) {
  ++runs_;
  SystemConfig cfg = MakeConfig();
  // Per-round system stream (latency draws etc.); fixed across shrink
  // re-runs because workload_seed is fixed per round.
  cfg.seed = Mix(cfg.seed ^ workload_seed) | 1;

  auto created = RainbowSystem::Create(cfg);
  if (!created.ok()) {
    if (report) *report = "harness error: " + created.status().ToString();
    return false;
  }
  RainbowSystem& sys = **created;

  FaultInjector injector(&sys);
  injector.ScheduleAll(events);

  WorkloadConfig wl;
  wl.seed = workload_seed;
  wl.num_txns = opts_.txns;
  wl.mpl = opts_.mpl;
  wl.read_fraction = 0.5;
  WorkloadGenerator wlg(&sys, wl);
  wlg.Run();

  // Drive until the workload drains (crashed homes may strand it) with
  // a hard cap well past the fault horizon.
  const SimTime cap = profile_.horizon * 4 + Seconds(5);
  const SimTime step = Millis(50);
  while (!wlg.finished() && sys.sim().Now() < cap) {
    sys.RunFor(step);
    if (sys.Idle() && !wlg.finished()) break;
  }
  sys.RunFor(Millis(500));

  // The oracle: the offline invariant checker over the trace, plus
  // replica convergence.
  CheckReport check = sys.VerifyHistory();
  Status replicas = sys.CheckReplicaConsistency(false);
  const bool fails = !check.ok() || !replicas.ok();
  if (report) {
    std::string out;
    if (!check.ok()) out += check.Render();
    if (!replicas.ok()) {
      out += "replica consistency: " + replicas.ToString() + "\n";
    }
    if (!fails) out = "ok";
    *report = std::move(out);
  }
  return fails;
}

std::vector<FaultWindow> Nemesis::Shrink(std::vector<FaultWindow> windows,
                                         uint64_t workload_seed) {
  const uint32_t budget_start = runs_;
  auto budget_left = [&] {
    return runs_ - budget_start < opts_.shrink_budget;
  };
  auto fails = [&](const std::vector<FaultWindow>& ws) {
    return ScheduleFails(Flatten(ws), workload_seed, nullptr);
  };

  // Phase 1 — ddmin over whole windows: drop chunks, halving the chunk
  // size down to single windows, restarting after progress. It ends
  // when dropping any single window loses the failure.
  auto drop_windows = [&] {
    for (size_t chunk = std::max<size_t>(windows.size() / 2, 1); chunk >= 1;) {
      bool removed = false;
      for (size_t i = 0; i + chunk <= windows.size() && budget_left();) {
        if (windows.size() <= 1) break;
        std::vector<FaultWindow> cand;
        cand.reserve(windows.size() - chunk);
        for (size_t j = 0; j < windows.size(); ++j) {
          if (j < i || j >= i + chunk) cand.push_back(windows[j]);
        }
        if (!cand.empty() && fails(cand)) {
          windows = std::move(cand);
          removed = true;
        } else {
          i += chunk;
        }
      }
      if (!budget_left()) break;
      if (chunk == 1 && !removed) break;
      chunk = removed ? std::max<size_t>(windows.size() / 2, 1) : chunk / 2;
    }
  };
  drop_windows();

  // Phase 2 — halve override intensities toward the identity.
  for (size_t i = 0; i < windows.size() && budget_left(); ++i) {
    for (int attempt = 0; attempt < 3 && budget_left(); ++attempt) {
      const FaultEvent& e = windows[i].start;
      double next = e.amount;
      switch (e.kind) {
        case FaultEvent::Kind::kLinkLoss:
        case FaultEvent::Kind::kLinkDup:
        case FaultEvent::Kind::kLinkReorder:
        case FaultEvent::Kind::kStorageTorn:
        case FaultEvent::Kind::kStorageShort:
        case FaultEvent::Kind::kStorageLost:
        case FaultEvent::Kind::kStorageReadFlip:
          next = e.amount / 2.0;
          if (next < 0.01) next = 0.0;
          break;
        case FaultEvent::Kind::kLinkDelay:
          next = 1.0 + (e.amount - 1.0) / 2.0;
          if (next < 1.01) next = 1.0;
          break;
        default:
          break;
      }
      if (next == e.amount) break;
      std::vector<FaultWindow> cand = windows;
      cand[i].start.amount = next;
      if (fails(cand)) {
        windows = std::move(cand);
      } else {
        break;
      }
    }
  }

  // Phase 3 — narrow windows: halve each window's duration.
  for (size_t i = 0; i < windows.size() && budget_left(); ++i) {
    for (int attempt = 0; attempt < 3 && budget_left(); ++attempt) {
      if (!windows[i].end) break;
      const SimTime dur = windows[i].end->at - windows[i].start.at;
      if (dur <= Millis(10)) break;
      std::vector<FaultWindow> cand = windows;
      cand[i].end->at = cand[i].start.at + dur / 2;
      if (fails(cand)) {
        windows = std::move(cand);
      } else {
        break;
      }
    }
  }

  // Narrower windows can make a whole window unnecessary: drop windows
  // again so the result stays minimal in the phase-1 sense.
  drop_windows();
  return windows;
}

Result<bool> Nemesis::Replay(const std::string& script, uint64_t workload_seed,
                             std::string* report) {
  Result<std::vector<FaultEvent>> events = ParseFaultScript(script);
  if (!events.ok()) return events.status();
  return ScheduleFails(*events, workload_seed, report);
}

NemesisResult Nemesis::Run() {
  NemesisResult r;
  for (uint32_t round = 0; round < opts_.rounds; ++round) {
    const uint64_t schedule_seed = RoundSeed(round);
    std::vector<FaultWindow> windows = GenerateWindows(schedule_seed);
    std::vector<FaultEvent> events = Flatten(windows);
    ++r.rounds_run;
    std::string report;
    if (!ScheduleFails(events, schedule_seed, &report)) continue;

    r.found_violation = true;
    r.failing_round = round;
    r.failing_seed = schedule_seed;
    r.failing_schedule = std::move(events);
    std::vector<FaultWindow> minimized =
        opts_.shrink ? Shrink(std::move(windows), schedule_seed)
                     : std::move(windows);
    r.minimized = Flatten(minimized);
    // One authoritative re-run of the minimized schedule for the report
    // (the shrinker itself discards reports).
    ScheduleFails(r.minimized, schedule_seed, &r.report);
    r.repro_script = SaveFaultScript(r.minimized);
    break;
  }
  r.total_runs = runs_;
  return r;
}

}  // namespace rainbow
