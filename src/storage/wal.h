#ifndef RAINBOW_STORAGE_WAL_H_
#define RAINBOW_STORAGE_WAL_H_

#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/types.h"

namespace rainbow {

/// Log sequence number: 1-based position in the site's WAL. LSNs are
/// stable across head truncation: the i-th retained record (0-based)
/// has LSN base() + i + 1, and At(lsn) resolves an LSN regardless of how
/// much head has been reclaimed. kNoLsn marks "no record" in backward
/// chains and in freshly loaded page headers.
using Lsn = uint64_t;
inline constexpr Lsn kNoLsn = 0;

/// Record types in a site's write-ahead log. The first six are the
/// commit-protocol records; the kStore* kinds are the storage engine's
/// ARIES-style physiological records (begin / update / commit / abort /
/// compensation / end) that the page engine's restart pass replays.
enum class WalRecordKind {
  kPrepared,        ///< participant force-logged YES vote + buffered writes
  kPreCommitted,    ///< 3PC participant entered the pre-commit state
  kCommitDecision,  ///< coordinator (or participant) learned: commit
  kAbortDecision,   ///< coordinator (or participant) learned: abort
  kApplied,         ///< participant applied the decision locally
  kEnd,             ///< coordinator received all acks; txn closed
  kStoreBegin,      ///< storage txn opened (first logged page update)
  kStoreUpdate,     ///< physiological page update (before/after images)
  kStoreCommit,     ///< storage txn committed; its updates are winners
  kStoreAbort,      ///< storage txn rollback started
  kStoreClr,        ///< compensation record written while undoing
  kStoreEnd,        ///< storage txn rollback complete
  kCheckpointBegin, ///< fuzzy checkpoint opened
  kCheckpointEnd,   ///< checkpoint closed; carries the ATT + dirty-page
                    ///< table (prev_lsn points back at the begin record)
};

const char* WalRecordKindName(WalRecordKind k);

/// One WAL record. Prepared records carry the buffered writes (with the
/// final versions from the coordinator) and the participant list needed
/// for cooperative termination after a crash. Store records carry one
/// physiological page update (kStoreUpdate/kStoreClr) and the backward
/// LSN chain of their storage transaction.
struct WalRecord {
  WalRecordKind kind = WalRecordKind::kEnd;
  TxnId txn;
  SiteId coordinator = kInvalidSite;
  struct Write {
    ItemId item = kInvalidItem;
    Value value = 0;
    Version version = 0;
  };
  std::vector<Write> writes;          ///< kPrepared only
  std::vector<SiteId> participants;   ///< kPrepared only
  bool three_phase = false;           ///< kPrepared only

  /// Payload of kStoreUpdate / kStoreClr. For an update, (value,
  /// version) is the after-image and (before_value, before_version) the
  /// committed image it replaced. For a CLR, (value, version) is the
  /// image being restored and (before_value, before_version) the image
  /// being compensated away — restart undo only writes the page when it
  /// still holds exactly that compensated image, so a CLR can never
  /// clobber an interleaved committed write.
  struct StoreOp {
    ItemId item = kInvalidItem;
    uint32_t page_id = 0;     ///< leaf page holding the item at log time
    Value before_value = 0;
    Version before_version = 0;
    Value value = 0;
    Version version = 0;
    /// Prewrite-time image logged before the commit decision: its
    /// version is a unique tentative tag, superseded by the final
    /// kStoreUpdate written when the decision applies.
    bool tentative = false;
  };
  StoreOp store;                ///< kStoreUpdate / kStoreClr only
  Lsn prev_lsn = kNoLsn;        ///< backward chain within the storage txn
  Lsn undo_next_lsn = kNoLsn;   ///< kStoreClr: next record left to undo

  /// Payload of kCheckpointEnd: the active (storage) transaction table
  /// — txn -> LSN of its latest log record — and the dirty-page table —
  /// page -> recLSN, the LSN whose update first dirtied the resident
  /// page — as captured while the checkpoint was open. Both are sorted
  /// by key so the record is byte-stable across runs.
  struct CheckpointData {
    std::vector<std::pair<TxnId, Lsn>> att;
    std::vector<std::pair<uint32_t, Lsn>> dpt;
  };
  CheckpointData checkpoint;    ///< kCheckpointEnd only

  /// Convenience constructor for commit-protocol records (the storage
  /// fields keep their defaults).
  static WalRecord Protocol(WalRecordKind kind, TxnId txn, SiteId coordinator,
                            std::vector<Write> writes,
                            std::vector<SiteId> participants,
                            bool three_phase) {
    WalRecord r;
    r.kind = kind;
    r.txn = txn;
    r.coordinator = coordinator;
    r.writes = std::move(writes);
    r.participants = std::move(participants);
    r.three_phase = three_phase;
    return r;
  }
};

/// Per-site write-ahead log. In this simulation "durable" means the Wal
/// object intentionally survives Site::Crash() (which wipes all volatile
/// protocol state). Its per-transaction protocol digest answers every
/// decision query and gives recovery the transactions that were
/// prepared but undecided, and decisions that were made but not fully
/// acknowledged. The page storage engine shares this log: its kStore*
/// records interleave with the protocol records in one LSN space.
///
/// In memory the retained records are kept in their wire form: one byte
/// log holding each record's v4 file payload back to back (83 bytes
/// plus 20 per write, 4 per participant, and for kCheckpointEnd 8 more
/// plus 20 per ATT and 12 per dirty-page entry), and one 8-byte offset
/// per record. Append() encodes a record once; At() decodes a copy.
/// Serialize() only frames the stored payloads.
class Wal {
 public:
  /// Appends and returns the record's LSN (1-based, truncation-stable).
  Lsn Append(const WalRecord& record);

  /// Number of retained (not truncated) records.
  size_t size() const { return offsets_.size(); }

  /// Bytes the retained records occupy in memory: their payloads plus
  /// one offset each (vector capacity not counted).
  size_t resident_bytes() const {
    return log_.size() + offsets_.size() * sizeof(uint64_t);
  }

  /// Bytes the log's two arrays hold allocated: their capacity. Equal
  /// to resident_bytes() right after a TruncateBefore() that dropped
  /// records, which rebuilds the retained tail to fit. Between
  /// truncations the arrays grow in steps of a quarter of what the
  /// previous checkpoint interval appended, not by doubling.
  size_t held_bytes() const {
    return log_.capacity() + offsets_.capacity() * sizeof(uint64_t);
  }

  /// Number of records reclaimed from the head by TruncateBefore();
  /// the oldest retained record has LSN base() + 1.
  Lsn base() const { return base_; }

  /// LSN of the newest record (== base() when the log is empty).
  Lsn LastLsn() const { return base_ + static_cast<Lsn>(offsets_.size()); }

  /// LSN the next appended record will get.
  Lsn NextLsn() const { return LastLsn() + 1; }

  /// True iff `lsn` names a retained record.
  bool Contains(Lsn lsn) const { return lsn > base_ && lsn <= LastLsn(); }

  /// A decoded copy of the retained record with the given LSN; asserts
  /// Contains(lsn). `const WalRecord& r = wal.At(lsn);` binds the copy,
  /// which lives as long as `r`.
  WalRecord At(Lsn lsn) const;

  /// Reclaims every record with LSN < `lsn` (clamped to the retained
  /// range) and returns how many were dropped. When it drops any, the
  /// retained tail moves into arrays sized to fit it, so the memory the
  /// head held goes back to the allocator. LSNs of the surviving
  /// records do not change. Every call first folds the digest's closed
  /// entries into its compact array. The digest keeps every dropped
  /// transaction's entry, so Scan(), Decision() and the recovery lists
  /// answer exactly as they did before the truncation — only the raw
  /// record bodies are gone. The caller owns the safety argument that
  /// nothing will dereference the dropped LSNs (see
  /// PageStore::EndCheckpoint's barrier).
  size_t TruncateBefore(Lsn lsn);

  /// Earliest LSN still needed by commit-protocol recovery: the first
  /// record of any transaction that is not yet closed (undecided, or
  /// decided but not yet applied/acknowledged). NextLsn() when every
  /// logged transaction is closed. Head truncation must never pass
  /// this point: the recovery lists read open transactions' records
  /// back by LSN. O(1): it reads the first entry of the ordered
  /// open-transaction index, so a checkpoint's cost does not grow with
  /// the number of transactions the digest remembers.
  Lsn ProtocolBarrier() const;

  /// LSN of the kCheckpointBegin record of the last COMPLETE checkpoint
  /// (the ARIES "master record"); kNoLsn before the first one. Restart
  /// analysis starts scanning here instead of at the log's start.
  Lsn master() const { return master_; }
  void SetMaster(Lsn lsn) { master_ = lsn; }

  /// True iff `txn` has a kPrepared record and no decision record yet.
  /// Maintained incrementally on Append (and rebuilt on load), so the
  /// storage engine's restart analysis does not rescan the protocol
  /// records to classify in-doubt transactions.
  bool IsPreparedUndecided(const TxnId& txn) const;

  /// One transaction's entry in the protocol digest: the cumulative
  /// bits of its protocol records, which outlive head truncation, and
  /// the LSNs of the records recovery reads back. Only an open
  /// transaction's LSNs are dereferenced, and truncation never passes
  /// an open transaction's first record.
  struct TxnLogState {
    Lsn first_lsn = kNoLsn;     ///< anchors ProtocolBarrier()
    Lsn prepared_lsn = kNoLsn;  ///< latest kPrepared
    Lsn decision_lsn = kNoLsn;  ///< latest decision with a participant list
    bool prepared = false;
    bool precommitted = false;
    bool decided = false;
    bool commit = false;  ///< valid if decided
    bool applied = false;
    bool ended = false;
    /// This site logged the decision with a participant list (as
    /// coordinator), so kEnd, not kApplied, closes the transaction here.
    bool coordinator = false;

    /// A closed transaction's records are safe to truncate: the digest
    /// alone answers every later query about it.
    bool Closed() const {
      return decided && (!prepared || applied) && (!coordinator || ended);
    }
    /// An open transaction pins the protocol barrier at first_lsn.
    bool Open() const { return first_lsn != kNoLsn && !Closed(); }
  };

  /// Bytes the protocol digest holds: the closed-transaction array's
  /// capacity plus kOpenEntryBytes for each entry not yet folded into it.
  size_t digest_bytes() const;

  /// A read-only view of the digest: one entry per transaction that
  /// ever logged a protocol record here, head-truncated or not, in
  /// TxnId order. Storage-engine records (kStore*) are invisible here —
  /// the page engine's restart pass scans them itself. An entry comes
  /// back by value; a folded (closed) one keeps only what a v4 file
  /// keeps, so its prepared_lsn and decision_lsn read kNoLsn.
  class DigestView {
   public:
    /// Open plus closed entries.
    size_t size() const;
    bool contains(const TxnId& txn) const { return find(txn).has_value(); }
    std::optional<TxnLogState> find(const TxnId& txn) const;
    /// The entry for `txn`; asserts that it exists.
    TxnLogState at(const TxnId& txn) const;
    /// Calls `f(txn, state)` for every entry, in TxnId order.
    template <typename F>
    void ForEach(F&& f) const {
      wal_->ForEachEntry(f);
    }

   private:
    friend class Wal;
    explicit DigestView(const Wal* wal) : wal_(wal) {}
    const Wal* wal_;
  };
  DigestView Scan() const { return DigestView(this); }

  /// True iff `txn` logged a kPreCommitted record here.
  bool Precommitted(const TxnId& txn) const;

  /// The decision this site logged for `txn`, as coordinator or as
  /// participant (true = commit); nullopt if it logged none. This is
  /// the site's one answer to "what happened to T?": it survives crashes
  /// and head truncation.
  std::optional<bool> Decision(const TxnId& txn) const;

  // Recovery lists, each sorted by TxnId so recovery acts in one
  // canonical order on every run. All three read open transactions
  // only.

  /// Prepared records of transactions that committed but were never
  /// applied here: the crash hit between learning the decision and
  /// applying it, so recovery re-applies their writes.
  std::vector<WalRecord> CommittedUnapplied() const;

  /// Prepared records of transactions that this site voted YES on but
  /// whose outcome it never learned — the "in doubt" set the recovery
  /// protocol must resolve.
  std::vector<WalRecord> InDoubt() const;

  /// Decisions this site (as coordinator) logged but never closed with
  /// an End record; after recovery the decision must be re-propagated to
  /// the recorded participants.
  struct UnendedDecision {
    TxnId txn;
    bool commit = false;
    std::vector<SiteId> participants;
  };
  std::vector<UnendedDecision> DecidedUnended() const;

  // --- on-disk persistence ---
  // The simulation treats the in-memory Wal as durable; these let a
  // session's logs be written out and reloaded across process runs
  // (e.g. to archive an experiment or hand a crash scenario to
  // students). The format is the length-prefixed binary record encoding
  // of common/binary_io.h with a magic header.

  /// Serializes all records.
  std::vector<uint8_t> Serialize() const;

  /// Parses a buffer produced by Serialize() (format v4; older versions
  /// are rejected), replacing the current records. Fails (leaving the
  /// log unchanged) on any corruption, including a truncated tail or a
  /// base LSN at which NextLsn() would wrap — the strict mode for
  /// archives that are supposed to be complete.
  Status Deserialize(const std::vector<uint8_t>& buffer);

  /// Like Deserialize(), but treats a torn tail the way a real database
  /// must: a final record cut short by a crash mid-append (frame
  /// overrunning the buffer, or a CRC mismatch on the last declared
  /// record) is dropped and `*dropped` (optional) reports how many
  /// records were discarded. Corruption anywhere BEFORE the tail —
  /// a CRC mismatch with intact records after it — is still an IoError:
  /// that is media damage, not an interrupted append.
  Status DeserializeTolerant(const std::vector<uint8_t>& buffer,
                             size_t* dropped = nullptr);

  Status SaveToFile(const std::string& path) const;

  /// Loads via DeserializeTolerant (real files can have torn tails).
  Status LoadFromFile(const std::string& path, size_t* dropped = nullptr);

 private:
  Status DeserializeImpl(const std::vector<uint8_t>& buffer, bool tolerant,
                         size_t* dropped);
  /// Appends an `n`-byte record slot to the log and returns it; the
  /// caller fills it with the record's payload and indexes the record.
  uint8_t* Extend(size_t n);
  /// The stored payload of the i-th retained record.
  std::span<const uint8_t> Payload(size_t i) const;
  void IndexRecord(const WalRecord& record, Lsn lsn);

  /// What digest_bytes() charges for one entry of the open map: its
  /// red-black tree node (three links and a colour word) around the
  /// key and state, before the allocator's own header.
  static constexpr size_t kOpenEntryBytes =
      4 * sizeof(void*) + sizeof(std::pair<const TxnId, TxnLogState>);

  /// A closed transaction's digest entry in the v4 file's form: its
  /// TxnId, first LSN and kDigest* flag bits, 24 bytes.
  struct ClosedTxn {
    uint64_t seq = 0;
    Lsn first_lsn = kNoLsn;
    SiteId home = kInvalidSite;
    uint8_t flags = 0;
    TxnId txn() const { return TxnId{home, seq}; }
  };
  static_assert(sizeof(ClosedTxn) == 24);
  static ClosedTxn Pack(const TxnId& txn, const TxnLogState& st);
  static TxnLogState Unpack(const ClosedTxn& c);
  /// The index of `txn`'s entry in closed_, or closed_.size().
  size_t FindClosed(const TxnId& txn) const;
  /// Moves every closed entry of proto_index_ into closed_.
  void FoldClosed();
  /// Calls `f(txn, state)` for every digest entry, both stores merged
  /// in TxnId order.
  template <typename F>
  void ForEachEntry(F&& f) const {
    auto c = closed_.begin();
    for (const auto& [txn, st] : proto_index_) {
      for (; c != closed_.end() && c->txn() < txn; ++c) {
        f(c->txn(), Unpack(*c));
      }
      f(txn, st);
    }
    for (; c != closed_.end(); ++c) f(c->txn(), Unpack(*c));
  }

  /// The retained records' v4 payloads, back to back.
  std::vector<uint8_t> log_;
  /// offsets_[i] is where the i-th retained record starts in log_; it
  /// ends where the next one starts, the last one at log_.size().
  std::vector<uint64_t> offsets_;
  /// Records reclaimed from the head; the i-th retained record has LSN
  /// base_ + i + 1.
  Lsn base_ = 0;
  Lsn master_ = kNoLsn;
  /// LastLsn() right after the previous TruncateBefore() that dropped
  /// records; kNoLsn before the first one. The records after it are
  /// what the log appended in the current checkpoint interval.
  Lsn refit_lsn_ = kNoLsn;
  /// What Extend grows log_ and offsets_ by: a quarter of what the
  /// interval before the last refit appended (0: doubling).
  size_t log_step_ = 0;
  size_t offsets_step_ = 0;
  /// The incremental per-transaction protocol digest (see TxnLogState)
  /// lives in two disjoint stores. Both survive truncation; the entries
  /// of transactions whose records were truncated are serialized, so a
  /// saved log reloads with identical Scan() state.
  ///
  /// Entries not yet folded: every open transaction, and those closed
  /// since the last fold.
  std::map<TxnId, TxnLogState> proto_index_;
  /// Folded closed entries, sorted by TxnId. A later record that keeps
  /// a transaction closed updates its flags in place; one that reopens
  /// it moves it back to proto_index_.
  std::vector<ClosedTxn> closed_;
  /// The Open() entries of proto_index_, ordered by (first_lsn, txn):
  /// ProtocolBarrier() is the first element. IndexRecord moves an entry
  /// only when its transaction opens, closes or lowers its first_lsn. A
  /// closed transaction can reopen (a participant-learned decision
  /// followed by a coordinator decision with a participant list, or a
  /// late kPrepared), so this is an ordered set, not a FIFO.
  std::set<std::pair<Lsn, TxnId>> open_txns_;
};

}  // namespace rainbow

#endif  // RAINBOW_STORAGE_WAL_H_
