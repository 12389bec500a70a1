#ifndef RAINBOW_SITE_PARTICIPANT_H_
#define RAINBOW_SITE_PARTICIPANT_H_

#include <map>
#include <set>
#include <vector>

#include "net/message.h"
#include "net/rpc.h"
#include "sim/simulator.h"
#include "storage/wal.h"
#include "txn/transaction.h"

namespace rainbow {

class Site;
struct CcGrant;

/// The replica/participant half of a Rainbow site: serves copy accesses
/// under the local CC engine, buffers prewrites, and runs the
/// participant side of 2PC/3PC including the termination protocol and
/// orphan cleanup. All of its state is volatile — Site::Crash() destroys
/// the manager; prepared transactions are reinstated from the WAL at
/// recovery.
///
/// Request handlers receive the RpcContext of the incoming request and
/// answer through Site::Respond, so replies correlate with their
/// request (and retransmitted requests are answered idempotently by the
/// RPC layer). Its own recovery queries (decision queries, cooperative
/// peer queries, 3PC state queries) are RPC calls; the remaining timers
/// are patience/pacing timers, not resend loops.
class ParticipantManager {
 public:
  explicit ParticipantManager(Site* site);
  ~ParticipantManager();

  ParticipantManager(const ParticipantManager&) = delete;
  ParticipantManager& operator=(const ParticipantManager&) = delete;

  // --- message handlers (dispatched by Site) ---
  /// A copy access: `Request` is ReadRequest or PrewriteRequest, and the
  /// answer is the matching ReadReply or PrewriteReply.
  template <typename Request>
  void OnAccess(SiteId from, const Request& req, const RpcContext& ctx);
  void OnAbortRequest(const AbortRequest& req);
  void OnPrepare(SiteId from, const PrepareRequest& req,
                 const RpcContext& ctx);
  void OnPreCommit(SiteId from, const PreCommitRequest& req,
                   const RpcContext& ctx);
  void OnDecision(SiteId from, const Decision& d, const RpcContext& ctx);
  /// Acts on decision news: a raw (non-RPC) DecisionInfo, or the answer
  /// to one of this manager's own decision queries or orphan probes.
  void OnDecisionInfo(const DecisionInfo& info);

  /// Local commit-protocol state of `txn`, for answering StateQuery.
  AcpState StateOf(TxnId txn) const;

  /// CC engine victim channel: a granted transaction was aborted locally
  /// (wounded / deadlock victim). Cleans up and notifies the home site.
  void OnCcVictim(TxnId txn, DenyReason reason);

  /// Recovery: reinstates a prepared-but-undecided transaction from its
  /// WAL record, re-acquiring write access in the fresh CC engine, and
  /// immediately starts the decision/termination machinery.
  void ReinstateInDoubt(const WalRecord& prepared, bool precommitted);

  /// Cancels every timer and pending RPC call (site crash). The manager
  /// is unusable after.
  void Shutdown();

  size_t size() const { return txns_.size(); }

 private:
  struct PTxn {
    TxnId id;
    TxnTimestamp ts;
    SiteId coordinator = kInvalidSite;
    AcpState state = AcpState::kActive;
    bool three_phase = false;
    /// True once any CC request was granted here. A unilateral abort only
    /// needs to doom the transaction (see `doomed_`) when it released
    /// something; aborting a purely-waiting transaction leaves nothing a
    /// retransmitted request could unsafely resurrect.
    bool granted_any = false;
    /// One row per prewritten item, ascending by item, in the kPrepared
    /// record's form. Version 0 means no PrepareRequest assigned one: a
    /// stray prewrite the coordinator never credited, which a commit
    /// skips.
    std::vector<WalRecord::Write> writes;
    std::vector<SiteId> participants;
    SimTime prepared_at = 0;
    TimerHandle decision_timer;  ///< patience before querying for a decision
    TimerHandle activity_timer;  ///< idle bound before the orphan probe
    TimerHandle window_timer;    ///< 3PC termination round window
    TimerHandle wait_timer;  ///< bounds the current CC wait (one op at a time)
    TimerHandle probe_timer;  ///< edge-chasing: fires a deadlock probe
    /// Outstanding recovery RPCs (decision/state queries); cancelled
    /// whenever the transaction resolves.
    std::vector<uint64_t> query_calls;
    /// The one retry-forever DecisionQuery to the coordinator (2PC);
    /// nonzero while outstanding so rounds do not stack duplicates.
    uint64_t coord_query_call = 0;
    /// Inconclusive orphan-probe rounds ("still deciding" answers); a
    /// third one means the home cannot vouch for the transaction and it
    /// is cleaned up as an orphan.
    int orphan_rounds = 0;
    /// 3PC termination round: the states heard, this site's first, and
    /// the lowest site heard from (this one included), which leads.
    bool termination_running = false;
    SiteId lowest_heard = kInvalidSite;
    std::vector<AcpState> heard;
  };

  PTxn& Ensure(TxnId txn, TxnTimestamp ts, SiteId coordinator);

  /// The reply to `req` for the CC's answer `g`. A granted prewrite is
  /// buffered in `t`'s rows and logged; a granted read carries the
  /// engine's value or the store copy.
  ReadReply Answer(PTxn& t, const ReadRequest& req, const CcGrant& g);
  PrewriteReply Answer(PTxn& t, const PrewriteRequest& req,
                       const CcGrant& g);

  /// Applies a learned decision: installs/discards buffered writes,
  /// releases CC state, logs, acks through `ack_ctx` (RPC) or to
  /// `ack_to` (raw), erases the txn.
  void ApplyDecision(TxnId txn, bool commit, const RpcContext& ack_ctx = {},
                     SiteId ack_to = kInvalidSite);

  /// Aborts local state without a coordinator decision (victim, orphan
  /// cleanup). Does not ack anyone.
  void LocalAbort(TxnId txn);

  /// Cancels every timer and outstanding query call of `t`.
  void CancelAll(PTxn& t);

  /// Structured tracing of the local CC's answer (grant / deny / victim)
  /// and of a request parked behind a conflict.
  void EmitCcOutcome(TxnId txn, ItemId item, const CcGrant& g);
  void EmitCcBlocked(TxnId txn, ItemId item);
  void EmitVote(TxnId txn, SiteId coordinator, bool yes, const char* note);

  void ArmActivityTimer(PTxn& t);
  void ArmDecisionTimer(PTxn& t);
  /// Edge-chasing: after probe_delay, if `txn` is still blocked in the
  /// local CC, emit a probe towards each transaction it waits for.
  void ArmProbeTimer(TxnId txn);
  void OnActivityTimeout(TxnId txn);
  void OnDecisionTimeout(TxnId txn);
  /// Completion of the orphan probe RPC fired by the activity timeout.
  void OnOrphanQueryResult(TxnId txn, const Result<Payload>& r);
  /// Completion of a 2PC decision query (coordinator or peer).
  void OnDecisionQueryResult(TxnId txn, const Result<Payload>& r);
  /// 3PC: runs (or defers) a termination round.
  void StartTerminationRound(TxnId txn);
  void OnTerminationStateReply(TxnId txn, SiteId from, AcpState state);
  void FinishTerminationRound(TxnId txn);
  /// 3PC termination leader: logs the decision with the peers, hands
  /// them to a closer and applies it here. A commit runs one window
  /// after every live peer was moved to pre-commit.
  void DecideAsLeader(TxnId txn, bool commit);

  Site* site_;
  std::map<TxnId, PTxn> txns_;
  /// Numbers access requests, so a CC callback knows its own request.
  uint64_t last_access_ = 0;
  /// The access whose Request* call is on the stack, until the engine
  /// answers it there; 0 otherwise. Per request, not per transaction: a
  /// transaction's earlier request can still be parked in the engine and
  /// be granted inside a later request's call.
  uint64_t in_cc_call_ = 0;
  /// Transactions this site aborted unilaterally (CC victim, wait
  /// timeout, orphan cleanup, abort decision). A later request for one
  /// of them — a retransmission whose deny reply was lost, or a next
  /// operation racing the abort notify — must NOT recreate fresh state:
  /// the locks it once held are gone and conflicting work may have
  /// slipped through, so resurrecting it silently breaks two-phase
  /// locking. Requests for doomed transactions are denied instead.
  std::set<TxnId> doomed_;
};

}  // namespace rainbow

#endif  // RAINBOW_SITE_PARTICIPANT_H_
