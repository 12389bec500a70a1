#include "fault/fault_injector.h"

#include <algorithm>

#include "core/system.h"
#include "fault/fault_script.h"
#include "storage/buffer_pool.h"

namespace rainbow {

const char* FaultKindName(FaultEvent::Kind k) {
  switch (k) {
    case FaultEvent::Kind::kCrashSite: return "crash";
    case FaultEvent::Kind::kRecoverSite: return "recover";
    case FaultEvent::Kind::kLinkDown: return "linkdown";
    case FaultEvent::Kind::kLinkUp: return "linkup";
    case FaultEvent::Kind::kLinkDownOneWay: return "linkdown1";
    case FaultEvent::Kind::kLinkUpOneWay: return "linkup1";
    case FaultEvent::Kind::kPartition: return "partition";
    case FaultEvent::Kind::kHeal: return "heal";
    case FaultEvent::Kind::kCrashNameServer: return "crashns";
    case FaultEvent::Kind::kRecoverNameServer: return "recoverns";
    case FaultEvent::Kind::kLinkLoss: return "loss";
    case FaultEvent::Kind::kLinkDelay: return "delay";
    case FaultEvent::Kind::kLinkDup: return "dup";
    case FaultEvent::Kind::kLinkReorder: return "reorder";
    case FaultEvent::Kind::kClearLinkFaults: return "clearlinks";
    case FaultEvent::Kind::kStorageTorn: return "tornwrite";
    case FaultEvent::Kind::kStorageShort: return "shortwrite";
    case FaultEvent::Kind::kStorageLost: return "lostwrite";
    case FaultEvent::Kind::kStorageReadFlip: return "readflip";
    case FaultEvent::Kind::kCount: break;
  }
  return "?";
}

namespace {

bool IsCrashOrRecover(FaultEvent::Kind k) {
  return k == FaultEvent::Kind::kCrashSite ||
         k == FaultEvent::Kind::kRecoverSite ||
         k == FaultEvent::Kind::kCrashNameServer ||
         k == FaultEvent::Kind::kRecoverNameServer;
}

}  // namespace

FaultInjector::FaultInjector(RainbowSystem* system) : system_(system) {}

void FaultInjector::Schedule(const FaultEvent& event) {
  FaultEvent copy = event;
  system_->sim().At(event.at, [this, copy] { Apply(copy); });
}

void FaultInjector::ScheduleAll(const std::vector<FaultEvent>& events) {
  for (const FaultEvent& e : events) Schedule(e);
}

bool FaultInjector::SiteUp(SiteId s) const {
  return system_->net().IsSiteUp(s);
}

void FaultInjector::Apply(const FaultEvent& e) {
  Network& net = system_->net();
  switch (e.kind) {
    case FaultEvent::Kind::kCrashSite:
      // Idempotent: a site that is already down (scripted event racing
      // the random process, or a shrunk schedule replay) stays down and
      // the no-op is not counted.
      if (!SiteUp(e.site)) return;
      ++crashes_;
      system_->CrashSite(e.site);
      break;
    case FaultEvent::Kind::kRecoverSite:
      if (SiteUp(e.site)) return;
      ++recoveries_;
      system_->RecoverSite(e.site);
      break;
    case FaultEvent::Kind::kLinkDown:
      net.SetLinkUp(e.site, e.peer, false);
      break;
    case FaultEvent::Kind::kLinkUp:
      net.SetLinkUp(e.site, e.peer, true);
      break;
    case FaultEvent::Kind::kLinkDownOneWay:
      net.SetLinkUpOneWay(e.site, e.peer, false);
      break;
    case FaultEvent::Kind::kLinkUpOneWay:
      net.SetLinkUpOneWay(e.site, e.peer, true);
      break;
    case FaultEvent::Kind::kPartition:
      net.SetPartitions(e.groups);
      break;
    case FaultEvent::Kind::kHeal:
      net.HealPartitions();
      break;
    case FaultEvent::Kind::kCrashNameServer:
      if (system_->name_server().crashed()) return;
      system_->name_server().Crash();
      break;
    case FaultEvent::Kind::kRecoverNameServer:
      if (!system_->name_server().crashed()) return;
      system_->name_server().Recover();
      break;
    case FaultEvent::Kind::kLinkLoss: {
      LinkOverride o;
      if (const LinkOverride* cur = net.FindLinkOverride(e.site, e.peer)) {
        o = *cur;
      }
      o.loss = e.amount;
      net.SetLinkOverride(e.site, e.peer, o);
      break;
    }
    case FaultEvent::Kind::kLinkDelay: {
      LinkOverride o;
      if (const LinkOverride* cur = net.FindLinkOverride(e.site, e.peer)) {
        o = *cur;
      }
      o.delay_multiplier = e.amount;
      net.SetLinkOverride(e.site, e.peer, o);
      break;
    }
    case FaultEvent::Kind::kLinkDup: {
      LinkOverride o;
      if (const LinkOverride* cur = net.FindLinkOverride(e.site, e.peer)) {
        o = *cur;
      }
      o.dup_probability = e.amount;
      net.SetLinkOverride(e.site, e.peer, o);
      break;
    }
    case FaultEvent::Kind::kLinkReorder: {
      LinkOverride o;
      if (const LinkOverride* cur = net.FindLinkOverride(e.site, e.peer)) {
        o = *cur;
      }
      o.reorder_jitter = static_cast<SimTime>(e.amount);
      net.SetLinkOverride(e.site, e.peer, o);
      break;
    }
    case FaultEvent::Kind::kClearLinkFaults:
      net.ClearLinkOverrides();
      break;
    case FaultEvent::Kind::kStorageTorn:
    case FaultEvent::Kind::kStorageShort:
    case FaultEvent::Kind::kStorageLost:
    case FaultEvent::Kind::kStorageReadFlip: {
      StorageFaultKind kind = StorageFaultKind::kTornWrite;
      if (e.kind == FaultEvent::Kind::kStorageShort) {
        kind = StorageFaultKind::kShortWrite;
      } else if (e.kind == FaultEvent::Kind::kStorageLost) {
        kind = StorageFaultKind::kLostWrite;
      } else if (e.kind == FaultEvent::Kind::kStorageReadFlip) {
        kind = StorageFaultKind::kReadBitFlip;
      }
      // Arms the DISK, which (like the WAL) survives Site::Crash(), so
      // a crashed site's storage faults persist into its restart.
      PageStore& store = system_->site(e.site)->mutable_store();
      store.mutable_disk().Arm(kind, e.amount);
      break;
    }
    case FaultEvent::Kind::kCount:
      return;
  }
  // Crash and recover injections are traced by the site (or name server)
  // itself, as kSiteCrash / kSiteRecover.
  TraceCollector& collector = system_->collector();
  if (collector.enabled() && !IsCrashOrRecover(e.kind)) {
    TraceRecord rec;
    rec.time = system_->sim().Now();
    rec.kind = TraceEventKind::kFault;
    rec.site = e.site;
    rec.peer = e.peer;
    rec.detail = FormatFaultEvent(e);
    collector.Emit(std::move(rec));
  }
  system_->monitor().OnFaultInjected(e.kind);
}

void FaultInjector::EnableRandomFaults(SimTime mttf, SimTime mttr,
                                       SimTime until, uint64_t seed) {
  rng_ = Rng(seed);
  mttf_ = mttf;
  mttr_ = mttr;
  random_until_ = until;
  for (SiteId s = 0; s < static_cast<SiteId>(system_->num_sites()); ++s) {
    ScheduleNextForSite(s, /*currently_up=*/true);
  }
  // Whatever the interleaving of random and scripted faults, every site
  // is brought back at the end of the window so the run can drain.
  system_->sim().At(until, [this] {
    for (SiteId s = 0; s < static_cast<SiteId>(system_->num_sites()); ++s) {
      if (!SiteUp(s)) Apply(FaultEvent::Recover(random_until_, s));
    }
  });
}

void FaultInjector::ScheduleNextForSite(SiteId s, bool currently_up) {
  SimTime delay = static_cast<SimTime>(rng_.NextExponential(
      static_cast<double>(currently_up ? mttf_ : mttr_)));
  SimTime when = system_->sim().Now() + std::max<SimTime>(delay, Micros(1));
  if (when >= random_until_) return;  // final recovery sweep handles cleanup
  system_->sim().At(when, [this, s, currently_up] {
    // Re-check the actual state at fire time: a scripted event may have
    // crashed or recovered the site since this transition was drawn.
    // Apply is idempotent, so the stale transition is simply a no-op,
    // and the next draw is based on the observed state.
    if (currently_up) {
      Apply(FaultEvent::Crash(system_->sim().Now(), s));
    } else {
      Apply(FaultEvent::Recover(system_->sim().Now(), s));
    }
    ScheduleNextForSite(s, SiteUp(s));
  });
}

}  // namespace rainbow
