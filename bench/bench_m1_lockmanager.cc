// M1: microbenchmark of the 2PL lock manager — grant/release throughput
// under no contention, shared-lock fan-in, and conflict handling per
// deadlock policy. Not gated: each case prints the median of kReps
// repetitions with its quartiles.

#include <string>

#include "bench_common.h"
#include "cc/lock_manager.h"

namespace rainbow {
namespace {

constexpr int kReps = 9;
constexpr int kRequestsPerRep = 100000;

void NoGrant(const CcGrant&) {}

// Times kRequestsPerRep lock requests per repetition, issued
// `per_round` at a time by `round`.
template <typename Round>
void RequestCase(bench::Report& report, const std::string& name,
                 int per_round, Round&& round) {
  const int rounds = kRequestsPerRep / per_round;
  bench::Spread secs = bench::TimeReps(kReps, [&] {
    for (int n = 0; n < rounds; ++n) round();
  });
  report.Add(name + "_requests_per_sec",
             secs.Rate(static_cast<double>(rounds) * per_round));
}

}  // namespace
}  // namespace rainbow

int main() {
  using namespace rainbow;
  bench::PrintHeader("M1", "2PL lock manager (median of repetitions)");
  bench::Report report;
  LockManager wait_die(DeadlockPolicy::kWaitDie);
  uint64_t seq = 1;

  RequestCase(report, "uncontended_write", 8, [&] {
    TxnId txn{0, seq++};
    TxnTimestamp ts{static_cast<SimTime>(seq), 0};
    for (ItemId item = 0; item < 8; ++item) {
      wait_die.RequestWrite(txn, ts, item, NoGrant);
    }
    wait_die.Finish(txn, true);
  });

  for (int readers : {4, 16, 64}) {
    RequestCase(report, "shared_fan_in_" + std::to_string(readers), readers,
                [&] {
                  LockManager lm(DeadlockPolicy::kWaitDie);
                  uint64_t first = seq;
                  for (int r = 0; r < readers; ++r) {
                    lm.RequestRead(TxnId{0, seq++}, TxnTimestamp{r, 0}, 1,
                                   NoGrant);
                  }
                  while (first < seq) lm.Finish(TxnId{0, first++}, true);
                });
  }

  // A chain of writers on one item: each release promotes the next.
  for (int chain : {8, 64}) {
    RequestCase(report, "conflict_chain_" + std::to_string(chain), chain, [&] {
      LockManager lm(DeadlockPolicy::kTimeoutOnly);
      for (int i = 0; i < chain; ++i) {
        lm.RequestWrite(TxnId{0, static_cast<uint64_t>(i + 1)},
                        TxnTimestamp{i, 0}, 1, NoGrant);
      }
      for (int i = 0; i < chain; ++i) {
        lm.Finish(TxnId{0, static_cast<uint64_t>(i + 1)}, true);
      }
    });
  }

  // An old holder makes every younger requester die instantly: the
  // denial fast path.
  wait_die.RequestWrite(TxnId{1, 1}, TxnTimestamp{0, 0}, 1, NoGrant);
  RequestCase(report, "wait_die_denial", 1, [&] {
    TxnId txn{0, seq++};
    wait_die.RequestWrite(txn, TxnTimestamp{static_cast<SimTime>(seq), 0}, 1,
                          NoGrant);
    wait_die.Finish(txn, false);
  });
  return 0;
}
