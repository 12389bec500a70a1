// Classroom banking scenario: ten replicated accounts, concurrent
// transfers submitted from every site. Demonstrates what the paper's
// protocol stack guarantees — the total balance is conserved and the
// committed history is conflict-serializable — even though transfers
// race on the same accounts and some of them abort and restart.
//
// Build & run:  ./build/examples/classroom_banking

#include <iostream>

#include "core/system.h"
#include "verify/checker.h"

int main() {
  using namespace rainbow;

  constexpr int kAccounts = 10;
  constexpr Value kInitialBalance = 1000;
  constexpr int kTransfers = 200;

  SystemConfig cfg;
  cfg.seed = 20260705;
  cfg.num_sites = 3;
  cfg.trace_enabled = true;  // the trace checker reads the trace
  for (int i = 0; i < kAccounts; ++i) {
    ItemConfig account;
    account.name = "acct" + std::to_string(i);
    account.initial = kInitialBalance;
    account.copies = {0, 1, 2};  // fully replicated, majority quorums
    cfg.items.push_back(account);
  }

  auto created = RainbowSystem::Create(cfg);
  if (!created.ok()) {
    std::cerr << "create failed: " << created.status() << "\n";
    return 1;
  }
  RainbowSystem& sys = **created;

  // Launch transfers at random times from random home sites. Each is
  // the classic read-modify-write pair: debit one account, credit
  // another.
  Rng rng(42);
  int committed = 0, aborted = 0;
  for (int i = 0; i < kTransfers; ++i) {
    ItemId from = static_cast<ItemId>(rng.NextUint(kAccounts));
    ItemId to = static_cast<ItemId>(rng.NextUint(kAccounts - 1));
    if (to >= from) ++to;
    Value amount = rng.NextInt(1, 100);
    TxnProgram transfer;
    transfer.label = "transfer " + std::to_string(amount);
    transfer.ops = {Op::Increment(from, -amount), Op::Increment(to, amount)};
    SiteId home = static_cast<SiteId>(rng.NextUint(3));
    SimTime at = Micros(static_cast<SimTime>(rng.NextUint(100000)));
    sys.sim().At(at, [&, transfer, home] {
      (void)sys.Submit(home, transfer, [&](const TxnOutcome& o) {
        (o.committed ? committed : aborted)++;
      });
    });
  }
  sys.RunFor(Seconds(30));

  std::cout << "Rainbow classroom banking — " << kTransfers
            << " concurrent transfers on " << kAccounts
            << " replicated accounts\n\n";
  std::cout << "committed: " << committed << "   aborted: " << aborted
            << " (aborted transfers simply never happened — atomicity)\n\n";

  Value total = 0;
  std::cout << "final balances (highest committed version per account):\n";
  for (ItemId i = 0; i < kAccounts; ++i) {
    auto latest = sys.LatestCommitted(i);
    if (!latest.ok()) {
      std::cerr << "read failed: " << latest.status() << "\n";
      return 1;
    }
    std::cout << "  acct" << i << " = " << latest->value << " (v"
              << latest->version << ")\n";
    total += latest->value;
  }
  std::cout << "\ntotal = " << total << " (expected "
            << kAccounts * kInitialBalance << ") — money conserved: "
            << (total == kAccounts * kInitialBalance ? "YES" : "NO") << "\n";

  CheckReport check = sys.VerifyHistory();
  std::cout << "\n" << check.Render();
  return total == kAccounts * kInitialBalance && check.ok() ? 0 : 1;
}
