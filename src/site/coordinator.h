#ifndef RAINBOW_SITE_COORDINATOR_H_
#define RAINBOW_SITE_COORDINATOR_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "acp/acp_common.h"
#include "common/result.h"
#include "net/message.h"
#include "rcp/rcp_policy.h"
#include "sim/simulator.h"
#include "txn/transaction.h"

namespace rainbow {

class Site;

/// Drives one transaction homed at a site — the paper's "one thread per
/// transaction". Implements §2.1 exactly: for each operation in program
/// order the RCP builds a read or write quorum (replica sites apply the
/// CCP and return values / version numbers); when every operation is
/// done, the coordinator runs the ACP (2PC or 3PC) across all
/// participant sites; the decision is then handed to the Site's closer,
/// which collects acks and logs the end record.
///
/// Every request/reply exchange (name-server lookup, copy access, vote
/// collection, pre-commit round) is an RPC call on the site's endpoint:
/// the RPC layer owns per-attempt timeouts and retransmission, and the
/// coordinator reacts to replies or terminal failures per target.
class Coordinator {
 public:
  Coordinator(Site* site, TxnId id, TxnTimestamp ts, TxnProgram program,
              TxnCallback cb);
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  void Start();

  /// A participant lost our CC state (victim); dispatched by Site.
  void OnRemoteAbort(const RemoteAbortNotify& n);

  /// A late granted copy-access reply (its RPC call was already
  /// cancelled — e.g. the surplus reply of a broadcast quorum): the
  /// replica holds CC state for us. Fold it into the commit protocol if
  /// that is still possible; otherwise release it immediately.
  void OnStrayGrant(SiteId from);

  /// Home site crashed: deliver a site-failure outcome to the client.
  /// The caller destroys the coordinator afterwards.
  void OnSiteCrash();

  TxnId id() const { return id_; }
  TxnTimestamp ts() const { return ts_; }

  /// True once the coordinator reached the voting phase (used by the
  /// Site to answer DecisionQuery with "still deciding").
  bool voting() const { return phase_ == Phase::kVoting || phase_ == Phase::kPreCommit; }

  /// True while the coordinator is waiting for copy-access replies
  /// (read/write quorum in progress) — the "blocked" state traversed by
  /// deadlock probes.
  bool in_data_op() const {
    return phase_ == Phase::kReadOp || phase_ == Phase::kWriteOp;
  }

  /// Calls `f` with each site the current operation is still waiting
  /// on, in ascending order.
  template <typename F>
  void ForEachOutstanding(F&& f) const {
    for (const Peer& p : peers_) {
      if (p.outstanding) f(p.site);
    }
  }

  /// Aborts the whole transaction as a distributed-deadlock victim.
  void AbortAsDeadlockVictim();

  /// Probe dedup: true at most once per `min_gap` per initiator while
  /// this operation blocks. Without it, dense waits-for graphs amplify
  /// probes exponentially (every path, not every edge, gets traversed).
  bool ShouldForwardProbe(TxnId initiator, SimTime now, SimTime min_gap);

 private:
  enum class Phase {
    kIdle,
    kLookup,     ///< waiting for a name-server reply
    kReadOp,     ///< building a read quorum
    kWriteOp,    ///< building a write quorum
    kVoting,     ///< 2PC/3PC phase 1
    kPreCommit,  ///< 3PC phase 2
  };

  /// What this transaction knows about one peer site. A transaction
  /// never has two calls in flight to one site: the next op or the vote
  /// round starts only after OpQuorumReached cancelled every access
  /// call, and pre-commit only after every vote call returned.
  struct Peer {
    SiteId site = kInvalidSite;
    uint64_t call = 0;  ///< the RPC call in flight to `site`, or 0
    /// The replica epoch its first grant carried.
    std::optional<uint64_t> epoch = std::nullopt;
    bool contacted = false;    ///< was sent an access request
    bool outstanding = false;  ///< the current op still waits on it
    bool granted = false;      ///< holds CC state for us: a participant
    bool voted = false;
    bool read_only = false;  ///< voted YES read-only: out of phase 2
    bool precommit_acked = false;
  };
  /// One replica site that granted this transaction a prewrite of an
  /// item or served it a read.
  struct Copy {
    SiteId site = kInvalidSite;
    bool prewrote = false;
    /// The version its read served; under OCC it is shipped with the
    /// prepare for backward validation.
    std::optional<Version> read_version = std::nullopt;
  };
  /// What this transaction knows about one item it read or wrote.
  struct Item {
    ItemId item = kInvalidItem;
    std::optional<Value> write = std::nullopt;  ///< the buffered write
    Version base = 0;  ///< max version over its write quorums
    std::vector<Copy> copies;  ///< sorted by site
  };

  void NextOp();
  /// Looks `item` up at the name server unless the site (or, with
  /// schema caching off, this transaction) already did, then starts the
  /// read or write of it.
  void WithView(ItemId item, bool write);
  /// `item`'s catalog entry once it was looked up, else null.
  const ItemSchema* FindView(ItemId item) const;
  /// The value this transaction buffered for `item`, if it wrote it.
  std::optional<Value> Buffered(ItemId item) const;

  /// Plans the access to cur_item_ (a write when cur_is_write_) and
  /// sends it.
  void StartAccess();
  void SendAccessRequests();
  void OnLookupResult(Result<Payload> r);
  void OnLookupReply(const NsLookupReply& r);
  void OnAccessResult(SiteId from, Result<Payload> r);
  /// Terminal RPC failure of one access target: suspect it and abort if
  /// the quorum can no longer be assembled from the remaining targets.
  void OnAccessFailure(SiteId from);
  void OnReadReply(SiteId from, const ReadReply& r);
  void OnPrewriteReply(SiteId from, const PrewriteReply& r);
  /// Checks the replica-incarnation epoch a grant carried against the
  /// epoch of this transaction's earlier grants from the same site. A
  /// mismatch means the site restarted mid-transaction — the locks and
  /// buffered prewrites it held for us died with it — so the transaction
  /// aborts. Returns false when the transaction was aborted.
  bool GrantEpochOk(SiteId from, uint64_t epoch);
  void AccessGranted(SiteId from, Version version, Value value,
                     bool has_value);
  void AccessDenied(SiteId from, DenyReason reason);
  void OpQuorumReached();

  void BeginCommit();
  /// Participants that did not vote read-only.
  std::vector<SiteId> DecisionParticipants() const;
  void OnVoteResult(SiteId from, Result<Payload> r);
  void OnVote(SiteId from, const VoteReply& v);
  void OnPreCommitResult(SiteId from);
  void Decide(bool commit, AbortCause cause, std::string detail);

  /// Cancels the RPC call in flight to every peer.
  void CancelCalls();
  /// `site`'s row, inserted in order if missing.
  Peer& PeerRow(SiteId site);
  /// `site`'s row, or null.
  Peer* FindPeer(SiteId site);
  /// `item`'s row, inserted in order if missing.
  Item& ItemRow(ItemId item);
  /// `site`'s copy of the current item, both rows inserted if missing.
  Copy& CurCopy(SiteId site);

  /// Aborts before any prepare was sent: AbortRequests to every
  /// contacted site, then reports the outcome.
  void AbortNow(AbortCause cause, std::string detail);

  /// Delivers the outcome to the client (async) and retires this
  /// coordinator. Must be the caller's final action.
  void Finish(bool committed, AbortCause cause, std::string detail);
  /// Builds the outcome and hands it to the monitor and (async) to the
  /// client.
  TxnOutcome Report(bool committed, AbortCause cause, std::string detail);

  Site* site_;
  TxnId id_;
  TxnTimestamp ts_;
  TxnProgram program_;
  TxnCallback cb_;
  SimTime submitted_at_;

  Phase phase_ = Phase::kIdle;
  size_t op_index_ = 0;

  // Current-operation state.
  ItemId cur_item_ = kInvalidItem;
  bool cur_is_write_ = false;
  Value cur_write_value_ = 0;
  bool cur_require_all_ = false;
  int cur_votes_needed_ = 0;
  int cur_votes_got_ = 0;
  Version cur_max_version_ = 0;
  Value cur_best_value_ = 0;
  bool cur_increment_pending_ = false;  ///< write phase of an INCREMENT follows
  Value cur_increment_delta_ = 0;
  SiteId cur_cc_site_ = kInvalidSite;  ///< primary copy: sole CC arbiter
  std::map<TxnId, SimTime> probe_forwarded_;  ///< per-op probe dedup

  // Outstanding RPC calls are cancelled by the destructor, so no
  // callback can outlive the coordinator.
  uint64_t lookup_call_ = 0;

  // Transaction-wide state. Both tables stay sorted (peers by site,
  // items by id), so walking them sends in ascending site order and
  // lists a prepare's versions in ascending item order.
  std::vector<Peer> peers_;
  std::vector<Item> items_;
  std::vector<ItemId> looked_up_;  ///< when schema caching is off
  /// Observed read value per program op (reads/increments only), keyed
  /// by the op's original index so ordered_access does not reorder the
  /// values the client sees.
  std::vector<std::optional<Value>> read_slots_;
  /// Execution order over program op indices (identity, or sorted by
  /// item under ProtocolConfig::ordered_access).
  std::vector<size_t> exec_order_;
  size_t cur_op_original_ = 0;
  uint32_t round_trips_ = 0;
};

}  // namespace rainbow

#endif  // RAINBOW_SITE_COORDINATOR_H_
