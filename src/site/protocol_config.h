#ifndef RAINBOW_SITE_PROTOCOL_CONFIG_H_
#define RAINBOW_SITE_PROTOCOL_CONFIG_H_

#include "acp/acp_common.h"
#include "cc/cc_engine.h"
#include "common/types.h"
#include "rcp/rcp_policy.h"

namespace rainbow {

/// The "Protocols Configuration" panel of the Rainbow GUI: which RCP /
/// CCP / ACP variant every site runs, plus the protocol timeouts. One
/// ProtocolConfig applies uniformly to a Rainbow instance.
struct ProtocolConfig {
  // --- protocol selection ---
  RcpKind rcp = RcpKind::kQuorumConsensus;  ///< paper default: QC
  CcKind cc = CcKind::kTwoPhaseLocking;
  DeadlockPolicy deadlock = DeadlockPolicy::kWaitDie;
  AcpKind acp = AcpKind::kTwoPhaseCommit;  ///< paper default: 2PC

  // --- protocol options ---
  /// QC reads/writes contact every copy and take the first quorum of
  /// replies (more messages, fewer timeout aborts) instead of a minimal
  /// preferred subset.
  bool rcp_broadcast = false;
  /// A site looks each item up at the name server once, until it
  /// crashes. Off = one lookup message pair per item per transaction.
  bool cache_schema = true;
  /// Blocked 2PC participants also query peer participants, not only
  /// the coordinator (cooperative termination).
  bool cooperative_termination = true;
  /// Recovering sites refresh their item copies from a live peer.
  bool recovery_refresh = true;
  /// 2PC read-only optimization: a participant with no buffered writes
  /// votes YES, releases its locks immediately, and skips phase 2.
  bool readonly_optimization = false;
  /// Incarnation-epoch fencing: replica grants carry the site's epoch
  /// and the coordinator aborts a transaction whose replica restarted
  /// mid-flight (the "resurrected grant" fix). Leave on; turning it off
  /// re-exposes the resurrection bug as a known target for the nemesis
  /// fuzzer's bug-hunt validation.
  bool epoch_fencing = true;
  /// Conservative ordered access: coordinators execute operations in
  /// ascending item order (same-item order preserved), so lock
  /// acquisition follows one global order and 2PL deadlocks become
  /// impossible — the classic static/conservative locking discipline.
  /// Observable results (read values, installed versions) are unchanged.
  bool ordered_access = false;

  // --- storage engine (each site's PageStore) ---
  /// Page size in bytes for the page engine (>= 64).
  uint32_t page_size = 4096;
  /// Frames in each site's buffer pool (>= 8).
  uint32_t buffer_pool_pages = 64;
  /// K of the LRU-K replacer (>= 1).
  uint32_t lru_k = 2;
  /// The page engine takes a fuzzy checkpoint whenever this many LSNs
  /// accumulated since the last one (0 disables the cadence; >= 8
  /// otherwise). Checkpoints bound restart's log scan.
  uint64_t checkpoint_interval = 256;
  /// Per-page CRC32 verification plus the doublewrite journal. Leave
  /// on; turning it off re-exposes torn/corrupt pages to recovery as a
  /// known target for the nemesis fuzzer's storage bug hunts.
  bool page_checksums = true;

  // --- timeouts (simulated time) ---
  /// Coordinator's per-operation deadline for assembling a quorum.
  SimTime op_timeout = Millis(80);
  /// Replica-side bound on CC waits; exceeded waits deny with
  /// kWaitTimeout (counted as a CCP abort).
  SimTime lock_wait_timeout = Millis(30);
  /// Coordinator's phase-1 (vote collection) deadline.
  SimTime vote_timeout = Millis(80);
  /// How long a prepared participant waits before starting the
  /// termination protocol.
  SimTime decision_timeout = Millis(100);
  /// Period between repeated decision queries while blocked.
  SimTime decision_retry = Millis(100);
  /// Idle time after which an unprepared participant suspects its
  /// transaction is an orphan and asks the home site.
  SimTime active_timeout = Millis(500);
  /// Coordinator resend period for unacknowledged decisions.
  SimTime ack_retry = Millis(100);
  /// Max decision resends before the coordinator leaves completion to
  /// the participants' own recovery queries.
  int max_ack_resends = 10;
  /// How long a timeout keeps a site on the coordinator's suspected
  /// list (a crude failure detector).
  SimTime suspicion_ttl = Millis(2000);
  /// Window the 3PC termination leader waits for StateReplys.
  SimTime termination_window = Millis(60);
  /// Edge-chasing deadlock detection: how long a CC wait must last
  /// before probes are emitted (and the re-probe period).
  SimTime probe_delay = Millis(8);

  // --- RPC sub-layer (net/rpc.h) ---
  /// Attempts (first transmission + retries) an RPC makes before
  /// reporting terminal failure to its caller.
  int rpc_max_attempts = 3;
  /// First retry backoff; doubles per retry (with jitter) up to
  /// rpc_backoff_cap.
  SimTime rpc_backoff_base = Millis(2);
  /// Upper bound on the exponential retry backoff.
  SimTime rpc_backoff_cap = Millis(200);
};

}  // namespace rainbow

#endif  // RAINBOW_SITE_PROTOCOL_CONFIG_H_
