#include "storage/wal.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdio>
#include <cstring>
#include <limits>

#include "common/binary_io.h"
#include "common/crc32.h"

namespace rainbow {

const char* WalRecordKindName(WalRecordKind k) {
  switch (k) {
    case WalRecordKind::kPrepared:
      return "prepared";
    case WalRecordKind::kPreCommitted:
      return "precommitted";
    case WalRecordKind::kCommitDecision:
      return "commit_decision";
    case WalRecordKind::kAbortDecision:
      return "abort_decision";
    case WalRecordKind::kApplied:
      return "applied";
    case WalRecordKind::kEnd:
      return "end";
    case WalRecordKind::kStoreBegin:
      return "store_begin";
    case WalRecordKind::kStoreUpdate:
      return "store_update";
    case WalRecordKind::kStoreCommit:
      return "store_commit";
    case WalRecordKind::kStoreAbort:
      return "store_abort";
    case WalRecordKind::kStoreClr:
      return "store_clr";
    case WalRecordKind::kStoreEnd:
      return "store_end";
    case WalRecordKind::kCheckpointBegin:
      return "checkpoint_begin";
    case WalRecordKind::kCheckpointEnd:
      return "checkpoint_end";
  }
  return "?";
}

namespace {

// TxnLogState flag bits in a digest entry, in a v4 file and in the
// closed-transaction array alike.
constexpr uint8_t kDigestPrepared = 1u << 0;
constexpr uint8_t kDigestPrecommitted = 1u << 1;
constexpr uint8_t kDigestDecided = 1u << 2;
constexpr uint8_t kDigestCommit = 1u << 3;
constexpr uint8_t kDigestApplied = 1u << 4;
constexpr uint8_t kDigestEnded = 1u << 5;
constexpr uint8_t kDigestCoordinator = 1u << 6;

bool IsProtocolRecord(WalRecordKind kind) {
  switch (kind) {
    case WalRecordKind::kPrepared:
    case WalRecordKind::kPreCommitted:
    case WalRecordKind::kCommitDecision:
    case WalRecordKind::kAbortDecision:
    case WalRecordKind::kApplied:
    case WalRecordKind::kEnd:
      return true;
    default:
      return false;  // storage records carry no protocol state
  }
}

// Folds one protocol record into its transaction's digest entry.
void ApplyRecord(Wal::TxnLogState& st, const WalRecord& record, Lsn lsn) {
  if (st.first_lsn == kNoLsn || lsn < st.first_lsn) st.first_lsn = lsn;
  switch (record.kind) {
    case WalRecordKind::kPrepared:
      st.prepared = true;
      st.prepared_lsn = lsn;
      break;
    case WalRecordKind::kPreCommitted:
      st.precommitted = true;
      break;
    case WalRecordKind::kCommitDecision:
    case WalRecordKind::kAbortDecision:
      st.decided = true;
      st.commit = record.kind == WalRecordKind::kCommitDecision;
      if (!record.participants.empty()) {
        st.coordinator = true;
        st.decision_lsn = lsn;
      }
      break;
    case WalRecordKind::kApplied:
      st.applied = true;
      break;
    case WalRecordKind::kEnd:
      st.ended = true;
      break;
    default:
      break;
  }
}

}  // namespace

Wal::ClosedTxn Wal::Pack(const TxnId& txn, const TxnLogState& st) {
  uint8_t flags = 0;
  if (st.prepared) flags |= kDigestPrepared;
  if (st.precommitted) flags |= kDigestPrecommitted;
  if (st.decided) flags |= kDigestDecided;
  if (st.commit) flags |= kDigestCommit;
  if (st.applied) flags |= kDigestApplied;
  if (st.ended) flags |= kDigestEnded;
  if (st.coordinator) flags |= kDigestCoordinator;
  return ClosedTxn{txn.seq, st.first_lsn, txn.home, flags};
}

Wal::TxnLogState Wal::Unpack(const ClosedTxn& c) {
  TxnLogState st;
  st.first_lsn = c.first_lsn;
  st.prepared = (c.flags & kDigestPrepared) != 0;
  st.precommitted = (c.flags & kDigestPrecommitted) != 0;
  st.decided = (c.flags & kDigestDecided) != 0;
  st.commit = (c.flags & kDigestCommit) != 0;
  st.applied = (c.flags & kDigestApplied) != 0;
  st.ended = (c.flags & kDigestEnded) != 0;
  st.coordinator = (c.flags & kDigestCoordinator) != 0;
  return st;
}

size_t Wal::FindClosed(const TxnId& txn) const {
  auto it = std::lower_bound(
      closed_.begin(), closed_.end(), txn,
      [](const ClosedTxn& c, const TxnId& t) { return c.txn() < t; });
  if (it == closed_.end() || !(it->txn() == txn)) return closed_.size();
  return static_cast<size_t>(it - closed_.begin());
}

void Wal::IndexRecord(const WalRecord& record, Lsn lsn) {
  if (!IsProtocolRecord(record.kind)) return;
  auto it = proto_index_.lower_bound(record.txn);
  if (it == proto_index_.end() || it->first != record.txn) {
    const size_t closed = FindClosed(record.txn);
    if (closed < closed_.size()) {
      // A folded transaction: a decision logged after it closed keeps it
      // closed, a late kPrepared or coordinator decision reopens it.
      TxnLogState st = Unpack(closed_[closed]);
      ApplyRecord(st, record, lsn);
      if (st.Closed()) {
        closed_[closed] = Pack(record.txn, st);
        return;
      }
      closed_.erase(closed_.begin() + static_cast<ptrdiff_t>(closed));
      proto_index_.emplace_hint(it, record.txn, st);
      open_txns_.emplace(st.first_lsn, record.txn);
      return;
    }
    it = proto_index_.emplace_hint(it, record.txn, TxnLogState{});
  }
  TxnLogState& st = it->second;
  const bool was_open = st.Open();
  const Lsn old_first = st.first_lsn;
  ApplyRecord(st, record, lsn);
  const bool open = st.Open();
  if (was_open == open && old_first == st.first_lsn) return;
  if (was_open) open_txns_.erase({old_first, record.txn});
  if (open) open_txns_.emplace(st.first_lsn, record.txn);
}

void Wal::FoldClosed() {
  const size_t folded = closed_.size();
  const size_t closing = static_cast<size_t>(std::count_if(
      proto_index_.begin(), proto_index_.end(),
      [](const auto& entry) { return entry.second.Closed(); }));
  if (closing == 0) return;
  // Grow by a quarter, not by doubling: the array holds one entry per
  // transaction ever closed here, so its slack is most of what the
  // digest could save.
  if (closed_.capacity() < folded + closing) {
    closed_.reserve(std::max(folded + closing, folded + folded / 4));
  }
  for (auto it = proto_index_.begin(); it != proto_index_.end();) {
    if (!it->second.Closed()) {
      ++it;
      continue;
    }
    closed_.push_back(Pack(it->first, it->second));
    it = proto_index_.erase(it);
  }
  // The new tail is sorted. TxnId orders by seq first, so it mostly
  // sorts after the folded entries: the merge starts where it must.
  auto before = [](const ClosedTxn& a, const ClosedTxn& b) {
    return a.txn() < b.txn();
  };
  const auto mid = closed_.begin() + static_cast<ptrdiff_t>(folded);
  std::inplace_merge(std::upper_bound(closed_.begin(), mid, *mid, before), mid,
                     closed_.end(), before);
}

size_t Wal::digest_bytes() const {
  return closed_.capacity() * sizeof(ClosedTxn) +
         proto_index_.size() * kOpenEntryBytes;
}

size_t Wal::TruncateBefore(Lsn lsn) {
  FoldClosed();
  if (lsn <= base_ + 1) return 0;
  Lsn limit = std::min(lsn, NextLsn());
  size_t drop = static_cast<size_t>(limit - base_ - 1);
  if (drop == 0) return 0;
  auto start = [this](size_t i) -> uint64_t {
    return i < offsets_.size() ? offsets_[i] : log_.size();
  };
  const uint64_t cut = start(drop);
  // Copy the retained tail into storage sized to fit it, so the log's
  // memory follows its live records rather than its high-water mark.
  // erase() would move the same bytes but keep the old capacity.
  std::vector<uint8_t> log(log_.begin() + static_cast<ptrdiff_t>(cut),
                           log_.end());
  std::vector<uint64_t> offsets(offsets_.size() - drop);
  for (size_t i = 0; i < offsets.size(); ++i) {
    offsets[i] = offsets_[drop + i] - cut;
  }
  // The next interval will append about what this one did, so Extend
  // grows the arrays in steps of a quarter of that: they hold at most
  // about a quarter interval beyond their records, where doubling held
  // up to twice them. Reserving the whole interval here instead would
  // hold it from the interval's start. The first truncation has no
  // interval to go by (the records so far may be a load).
  if (refit_lsn_ != kNoLsn) {
    const size_t records = static_cast<size_t>(LastLsn() - refit_lsn_);
    const uint64_t bytes = log_.size() - start(offsets_.size() - records);
    log_step_ = static_cast<size_t>(bytes / 4);
    offsets_step_ = records / 4;
  }
  log_ = std::move(log);
  offsets_ = std::move(offsets);
  base_ = limit - 1;
  refit_lsn_ = LastLsn();
  // A master inside the reclaimed prefix no longer names a record;
  // analysis would fall back to a full (retained-log) scan anyway, so
  // clear it rather than leave a dangling pointer. The storage engine's
  // barrier keeps the master record retained, so this only fires for
  // direct (test / tool) truncation calls.
  if (master_ != kNoLsn && master_ <= base_) master_ = kNoLsn;
  return drop;
}

Lsn Wal::ProtocolBarrier() const {
  if (open_txns_.empty()) return NextLsn();
  return std::min(NextLsn(), open_txns_.begin()->first);
}

bool Wal::IsPreparedUndecided(const TxnId& txn) const {
  // A closed entry is decided, so only the open map can hold one.
  auto it = proto_index_.find(txn);
  return it != proto_index_.end() && it->second.prepared &&
         !it->second.decided;
}

std::optional<bool> Wal::Decision(const TxnId& txn) const {
  std::optional<TxnLogState> st = Scan().find(txn);
  if (!st || !st->decided) return std::nullopt;
  return st->commit;
}

bool Wal::Precommitted(const TxnId& txn) const {
  std::optional<TxnLogState> st = Scan().find(txn);
  return st && st->precommitted;
}

size_t Wal::DigestView::size() const {
  return wal_->proto_index_.size() + wal_->closed_.size();
}

std::optional<Wal::TxnLogState> Wal::DigestView::find(const TxnId& txn) const {
  auto it = wal_->proto_index_.find(txn);
  if (it != wal_->proto_index_.end()) return it->second;
  const size_t closed = wal_->FindClosed(txn);
  if (closed == wal_->closed_.size()) return std::nullopt;
  return Unpack(wal_->closed_[closed]);
}

Wal::TxnLogState Wal::DigestView::at(const TxnId& txn) const {
  std::optional<TxnLogState> st = find(txn);
  assert(st.has_value());
  return st.value_or(TxnLogState{});
}

std::vector<WalRecord> Wal::CommittedUnapplied() const {
  std::vector<WalRecord> out;
  for (const auto& [txn, st] : proto_index_) {
    if (st.prepared && st.decided && st.commit && !st.applied) {
      out.push_back(At(st.prepared_lsn));
    }
  }
  return out;
}

std::vector<WalRecord> Wal::InDoubt() const {
  std::vector<WalRecord> out;
  for (const auto& [txn, st] : proto_index_) {
    if (st.prepared && !st.decided) out.push_back(At(st.prepared_lsn));
  }
  return out;
}

std::vector<Wal::UnendedDecision> Wal::DecidedUnended() const {
  std::vector<UnendedDecision> out;
  for (const auto& [txn, st] : proto_index_) {
    if (st.decided && st.coordinator && !st.ended) {
      out.push_back(
          UnendedDecision{txn, st.commit, At(st.decision_lsn).participants});
    }
  }
  return out;
}

namespace {
// "RWAL", version 4: a fixed part (magic, version, master, base LSN),
// then the protocol digest (one compact entry per transaction whose
// records were head-truncated, so Scan() answers identically after a
// save/load round trip of a truncated log), then the record count and
// each record framed as [len u32][crc32 u32][payload] so a torn tail is
// detectable and truncatable. Earlier versions are not read.
constexpr uint32_t kWalMagic = 0x4c415752;
constexpr uint32_t kWalVersion = 4;
// Frame header: [len u32][crc32 u32].
constexpr size_t kFrameHeaderBytes = 8;
// Digest entry: [txn: home u32, seq u64][flags u8][first_lsn u64].
constexpr size_t kDigestEntryBytes = 4 + 8 + 1 + 8;

/// A Result<T> stand-in that is always ok: what LogReader's getters
/// return, so RAINBOW_ASSIGN_OR_RETURN's error branch folds away.
template <typename T>
struct AlwaysOk {
  T v;
  static constexpr bool ok() { return true; }
  Status status() const { return Status::OK(); }
  T value() && { return v; }
};

/// Decoder's Get* surface over the payloads a Wal holds. Append wrote
/// them, or a loader validated them with the checked Decoder first, so
/// no read can fail or run past its record.
class LogReader {
 public:
  explicit LogReader(const uint8_t* p) : p_(p) {}

  AlwaysOk<uint8_t> GetU8() { return {*p_++}; }
  AlwaysOk<uint32_t> GetU32() { return {Load<uint32_t>()}; }
  AlwaysOk<uint64_t> GetU64() { return {Load<uint64_t>()}; }
  AlwaysOk<int64_t> GetI64() {
    return {static_cast<int64_t>(Load<uint64_t>())};
  }
  AlwaysOk<bool> GetBool() { return {*p_++ != 0}; }
  AlwaysOk<TxnId> GetTxnId() {
    TxnId id;
    id.home = Load<uint32_t>();
    id.seq = Load<uint64_t>();
    return {id};
  }

 private:
  // The payloads are little-endian; on a little-endian host one memcpy
  // reads a field.
  template <typename T>
  T Load() {
    T v = 0;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&v, p_, sizeof(T));
    } else {
      for (size_t i = 0; i < sizeof(T); ++i) {
        v |= static_cast<T>(p_[i]) << (8 * i);
      }
    }
    p_ += sizeof(T);
    return v;
  }

  const uint8_t* p_;
};

/// Encoder's Put* surface over a slot already sized with SizeCounter.
class SlotWriter {
 public:
  explicit SlotWriter(uint8_t* p) : p_(p) {}

  void PutU8(uint8_t v) { *p_++ = v; }
  void PutU32(uint32_t v) { Store(v); }
  void PutU64(uint64_t v) { Store(v); }
  void PutI64(int64_t v) { Store(static_cast<uint64_t>(v)); }
  void PutBool(bool v) { PutU8(v ? 1 : 0); }
  void PutTxnId(const TxnId& id) {
    PutU32(id.home);
    PutU64(id.seq);
  }
  template <typename T, typename F>
  void PutVector(const std::vector<T>& v, F put_one) {
    PutU32(static_cast<uint32_t>(v.size()));
    for (const T& x : v) put_one(x);
  }

  const uint8_t* end() const { return p_; }

 private:
  template <typename T>
  void Store(T v) {
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(p_, &v, sizeof(T));
    } else {
      for (size_t i = 0; i < sizeof(T); ++i) {
        p_[i] = static_cast<uint8_t>(v >> (8 * i));
      }
    }
    p_ += sizeof(T);
  }

  uint8_t* p_;
};

/// The only per-field description of a record. `Sink` is SizeCounter
/// (sizes the slot) or SlotWriter (fills it).
template <typename Sink>
void EncodeRecordPayload(Sink& e, const WalRecord& r) {
  e.PutU8(static_cast<uint8_t>(r.kind));
  e.PutTxnId(r.txn);
  e.PutU32(r.coordinator);
  e.PutVector(r.writes, [&](const WalRecord::Write& w) {
    e.PutU32(w.item);
    e.PutI64(w.value);
    e.PutU64(w.version);
  });
  e.PutVector(r.participants, [&](SiteId s) { e.PutU32(s); });
  e.PutBool(r.three_phase);
  e.PutU32(r.store.item);
  e.PutU32(r.store.page_id);
  e.PutI64(r.store.before_value);
  e.PutU64(r.store.before_version);
  e.PutI64(r.store.value);
  e.PutU64(r.store.version);
  e.PutBool(r.store.tentative);
  e.PutU64(r.prev_lsn);
  e.PutU64(r.undo_next_lsn);
  if (r.kind == WalRecordKind::kCheckpointEnd) {
    e.PutVector(r.checkpoint.att, [&](const std::pair<TxnId, Lsn>& a) {
      e.PutTxnId(a.first);
      e.PutU64(a.second);
    });
    e.PutVector(r.checkpoint.dpt, [&](const std::pair<uint32_t, Lsn>& p) {
      e.PutU32(p.first);
      e.PutU64(p.second);
    });
  }
}

/// Reserves room for `n` vector elements of `bytes_each` encoded bytes.
/// A count read from a file is trusted only as far as the bytes left
/// can hold it, so a forged count cannot exhaust memory.
template <typename T>
void Reserve(const Decoder& d, std::vector<T>& v, uint32_t n,
             size_t bytes_each) {
  if (n <= d.remaining() / bytes_each) v.reserve(n);
}
template <typename T>
void Reserve(const LogReader&, std::vector<T>& v, uint32_t n, size_t) {
  v.reserve(n);
}

/// Decodes one v4 record payload into `r`. `Source` is Decoder (files
/// and hostile input: every read checked) or LogReader (the log's own
/// bytes).
template <typename Source>
Status DecodeRecordPayload(Source& d, WalRecord& r) {
  RAINBOW_ASSIGN_OR_RETURN(uint8_t kind, d.GetU8());
  if (kind > static_cast<uint8_t>(WalRecordKind::kCheckpointEnd)) {
    return Status::InvalidArgument("bad record kind");
  }
  r.kind = static_cast<WalRecordKind>(kind);
  RAINBOW_ASSIGN_OR_RETURN(r.txn, d.GetTxnId());
  RAINBOW_ASSIGN_OR_RETURN(r.coordinator, d.GetU32());
  RAINBOW_ASSIGN_OR_RETURN(uint32_t writes, d.GetU32());
  Reserve(d, r.writes, writes, 4 + 8 + 8);
  for (uint32_t w = 0; w < writes; ++w) {
    WalRecord::Write write;
    RAINBOW_ASSIGN_OR_RETURN(write.item, d.GetU32());
    RAINBOW_ASSIGN_OR_RETURN(write.value, d.GetI64());
    RAINBOW_ASSIGN_OR_RETURN(write.version, d.GetU64());
    r.writes.push_back(write);
  }
  RAINBOW_ASSIGN_OR_RETURN(uint32_t participants, d.GetU32());
  Reserve(d, r.participants, participants, 4);
  for (uint32_t p = 0; p < participants; ++p) {
    RAINBOW_ASSIGN_OR_RETURN(SiteId s, d.GetU32());
    r.participants.push_back(s);
  }
  RAINBOW_ASSIGN_OR_RETURN(r.three_phase, d.GetBool());
  RAINBOW_ASSIGN_OR_RETURN(r.store.item, d.GetU32());
  RAINBOW_ASSIGN_OR_RETURN(r.store.page_id, d.GetU32());
  RAINBOW_ASSIGN_OR_RETURN(r.store.before_value, d.GetI64());
  RAINBOW_ASSIGN_OR_RETURN(r.store.before_version, d.GetU64());
  RAINBOW_ASSIGN_OR_RETURN(r.store.value, d.GetI64());
  RAINBOW_ASSIGN_OR_RETURN(r.store.version, d.GetU64());
  RAINBOW_ASSIGN_OR_RETURN(r.store.tentative, d.GetBool());
  RAINBOW_ASSIGN_OR_RETURN(r.prev_lsn, d.GetU64());
  RAINBOW_ASSIGN_OR_RETURN(r.undo_next_lsn, d.GetU64());
  if (r.kind == WalRecordKind::kCheckpointEnd) {
    RAINBOW_ASSIGN_OR_RETURN(uint32_t att, d.GetU32());
    Reserve(d, r.checkpoint.att, att, 4 + 8 + 8);
    for (uint32_t a = 0; a < att; ++a) {
      std::pair<TxnId, Lsn> entry;
      RAINBOW_ASSIGN_OR_RETURN(entry.first, d.GetTxnId());
      RAINBOW_ASSIGN_OR_RETURN(entry.second, d.GetU64());
      r.checkpoint.att.push_back(entry);
    }
    RAINBOW_ASSIGN_OR_RETURN(uint32_t dpt, d.GetU32());
    Reserve(d, r.checkpoint.dpt, dpt, 4 + 8);
    for (uint32_t p = 0; p < dpt; ++p) {
      std::pair<uint32_t, Lsn> entry;
      RAINBOW_ASSIGN_OR_RETURN(entry.first, d.GetU32());
      RAINBOW_ASSIGN_OR_RETURN(entry.second, d.GetU64());
      r.checkpoint.dpt.push_back(entry);
    }
  }
  return Status::OK();
}

/// Makes room in `v` for `need` elements. With no `step` it doubles
/// the capacity, as std::vector would; otherwise it adds `step` or a
/// quarter of the capacity, whichever is more, so the growth stays
/// geometric if truncation stalls.
template <typename T>
void Grow(std::vector<T>& v, size_t need, size_t step) {
  if (need <= v.capacity()) return;
  const size_t grow =
      step == 0 ? v.capacity() : std::max(step, v.capacity() / 4);
  v.reserve(std::max(need, v.capacity() + grow));
}

void AppendU32(std::vector<uint8_t>& out, uint32_t v) {
  uint8_t b[4];
  std::memcpy(b, &v, sizeof(v));
  out.insert(out.end(), b, b + sizeof(v));
}

}  // namespace

Lsn Wal::Append(const WalRecord& record) {
  SizeCounter size;
  EncodeRecordPayload(size, record);
  SlotWriter slot(Extend(size.size()));
  EncodeRecordPayload(slot, record);
  assert(slot.end() == log_.data() + log_.size());
  IndexRecord(record, LastLsn());
  return LastLsn();
}

uint8_t* Wal::Extend(size_t n) {
  const size_t start = log_.size();
  Grow(log_, start + n, log_step_);
  Grow(offsets_, offsets_.size() + 1, offsets_step_);
  log_.resize(start + n);
  offsets_.push_back(start);
  return log_.data() + start;
}

std::span<const uint8_t> Wal::Payload(size_t i) const {
  const uint64_t end = i + 1 < offsets_.size() ? offsets_[i + 1] : log_.size();
  return {log_.data() + offsets_[i], static_cast<size_t>(end - offsets_[i])};
}

WalRecord Wal::At(Lsn lsn) const {
  assert(Contains(lsn));
  const size_t i = static_cast<size_t>(lsn - base_ - 1);
  LogReader reader(log_.data() + offsets_[i]);
  WalRecord r;
  [[maybe_unused]] Status decoded = DecodeRecordPayload(reader, r);
  assert(decoded.ok());
  return r;
}

std::vector<uint8_t> Wal::Serialize() const {
  Encoder header;
  header.PutU32(kWalMagic);
  header.PutU32(kWalVersion);
  header.PutU64(master_);
  header.PutU64(base_);
  // Digest: only transactions with truncated records need their bits
  // carried in the header — everything else is rebuilt from the
  // retained records on load. Each such transaction was closed when its
  // head was truncated. If a retained kPrepared or coordinator decision
  // has reopened it since, the bit that record sets is written cleared:
  // every entry in the file is closed, and the reload sets the bit
  // again from the record. Both digest stores are written, merged in
  // TxnId order; a folded entry is closed, so it never clears a bit.
  uint32_t digest_count = 0;
  ForEachEntry([&](const TxnId&, const TxnLogState& st) {
    if (st.first_lsn != kNoLsn && st.first_lsn <= base_) ++digest_count;
  });
  header.PutU32(digest_count);
  ForEachEntry([&](const TxnId& txn, const TxnLogState& st) {
    if (st.first_lsn == kNoLsn || st.first_lsn > base_) return;
    header.PutTxnId(txn);
    const bool reprepared =
        st.prepared && !st.applied && st.prepared_lsn > base_;
    const bool recoordinated =
        st.coordinator && !st.ended && st.decision_lsn > base_;
    uint8_t flags = Pack(txn, st).flags;
    if (reprepared) flags &= static_cast<uint8_t>(~kDigestPrepared);
    if (recoordinated) flags &= static_cast<uint8_t>(~kDigestCoordinator);
    header.PutU8(flags);
    header.PutU64(st.first_lsn);
  });
  header.PutU32(static_cast<uint32_t>(size()));
  std::vector<uint8_t> out = header.Take();
  out.reserve(out.size() + log_.size() + size() * kFrameHeaderBytes);
  for (size_t i = 0; i < size(); ++i) {
    std::span<const uint8_t> payload = Payload(i);
    AppendU32(out, static_cast<uint32_t>(payload.size()));
    AppendU32(out, Crc32(payload.data(), payload.size()));
    out.insert(out.end(), payload.begin(), payload.end());
  }
  return out;
}

Status Wal::Deserialize(const std::vector<uint8_t>& buffer) {
  return DeserializeImpl(buffer, /*tolerant=*/false, nullptr);
}

Status Wal::DeserializeTolerant(const std::vector<uint8_t>& buffer,
                                size_t* dropped) {
  return DeserializeImpl(buffer, /*tolerant=*/true, dropped);
}

Status Wal::DeserializeImpl(const std::vector<uint8_t>& buffer, bool tolerant,
                            size_t* dropped) {
  if (dropped != nullptr) *dropped = 0;
  Decoder d(buffer);
  RAINBOW_ASSIGN_OR_RETURN(uint32_t magic, d.GetU32());
  if (magic != kWalMagic) return Status::InvalidArgument("not a WAL file");
  RAINBOW_ASSIGN_OR_RETURN(uint32_t version, d.GetU32());
  if (version != kWalVersion) {
    return Status::InvalidArgument("unsupported WAL version " +
                                   std::to_string(version));
  }
  // A header cut short never finished its very first save; even the
  // tolerant path has nothing to salvage.
  auto header_err = [tolerant]() {
    return tolerant ? Status::IoError("truncated WAL header")
                    : Status::InvalidArgument("truncated WAL header");
  };
  Result<uint64_t> master_r = d.GetU64();
  if (!master_r.ok()) return header_err();
  uint64_t master = master_r.value();
  Result<uint64_t> base_r = d.GetU64();
  if (!base_r.ok()) return header_err();
  const uint64_t base = base_r.value();
  // The digest entries go straight into the loaded log's closed array.
  Wal loaded;
  Result<uint32_t> digest_count = d.GetU32();
  if (!digest_count.ok()) return header_err();
  if (digest_count.value() <= d.remaining() / kDigestEntryBytes) {
    loaded.closed_.reserve(digest_count.value());
  }
  for (uint32_t i = 0; i < digest_count.value(); ++i) {
    Result<TxnId> txn = d.GetTxnId();
    if (!txn.ok()) return header_err();
    Result<uint8_t> flags = d.GetU8();
    if (!flags.ok()) return header_err();
    Result<uint64_t> first = d.GetU64();
    if (!first.ok()) return header_err();
    const ClosedTxn entry{txn.value().seq, first.value(), txn.value().home,
                          flags.value()};
    const TxnLogState st = Unpack(entry);
    // Truncation only reclaims closed transactions' records, and
    // recovery reads an open transaction's records back by LSN: an
    // open entry, or one anchored outside the truncated prefix, is a
    // forged header. Serialize writes one entry per transaction in
    // TxnId order, so a duplicate or a step back is one too.
    if (!st.Closed() || st.first_lsn == kNoLsn || st.first_lsn > base ||
        (!loaded.closed_.empty() &&
         !(loaded.closed_.back().txn() < entry.txn()))) {
      return tolerant ? Status::IoError("bad WAL digest entry")
                      : Status::InvalidArgument("bad WAL digest entry");
    }
    loaded.closed_.push_back(entry);
  }
  Result<uint32_t> count_r = d.GetU32();
  if (!count_r.ok()) return header_err();
  uint32_t count = count_r.value();
  // Every record needs at least its frame header; only a torn final
  // record may be missing bytes. A count the remaining bytes cannot hold
  // is a forged or corrupt header; reserving it would exhaust memory.
  if (count > d.remaining() / kFrameHeaderBytes + (tolerant ? 1 : 0)) {
    return tolerant
               ? Status::IoError("WAL record count exceeds file size")
               : Status::InvalidArgument("WAL record count exceeds file size");
  }
  // Every LSN the log hands out must stay above base(): a base at which
  // NextLsn() would wrap is a forged header.
  if (base > std::numeric_limits<uint64_t>::max() - 1 - count) {
    return tolerant ? Status::IoError("WAL base LSN out of range")
                    : Status::InvalidArgument("WAL base LSN out of range");
  }
  // The digest entries cover the truncated prefix; each retained record
  // is indexed on top of them as it loads, and leaves its entry's
  // first_lsn alone (every record lies past base). Every entry is
  // closed, so none opens a protocol barrier by itself.
  loaded.base_ = static_cast<Lsn>(base);
  loaded.offsets_.reserve(count);
  size_t off = buffer.size() - d.remaining();
  size_t drop = 0;
  for (uint32_t i = 0; i < count; ++i) {
    if (buffer.size() - off < kFrameHeaderBytes) {
      // Frame header overruns the file: a record that never finished
      // being appended. Tolerant mode truncates the log here.
      if (!tolerant) {
        return Status::InvalidArgument("truncated WAL record header");
      }
      drop = count - i;
      break;
    }
    uint32_t len, crc;
    std::memcpy(&len, buffer.data() + off, sizeof(len));
    std::memcpy(&crc, buffer.data() + off + 4, sizeof(crc));
    if (buffer.size() - off - kFrameHeaderBytes < len) {
      if (!tolerant) return Status::InvalidArgument("truncated WAL record");
      drop = count - i;
      break;
    }
    const uint8_t* payload = buffer.data() + off + kFrameHeaderBytes;
    if (Crc32(payload, len) != crc) {
      if (!tolerant) {
        return Status::InvalidArgument("WAL record CRC mismatch");
      }
      if (i + 1 == count) {
        // Torn final record: the crash landed mid-append.
        drop = 1;
        break;
      }
      // Intact records follow the damage, so this is NOT an interrupted
      // append — it is media corruption, and truncating here would
      // silently drop committed records.
      return Status::IoError("WAL corruption at record " +
                             std::to_string(i + 1) + " of " +
                             std::to_string(count));
    }
    Decoder pd(payload, len);
    WalRecord rec;
    Status decoded = DecodeRecordPayload(pd, rec);
    if (!decoded.ok()) {
      // The CRC matched, so the bytes are what was written — the record
      // itself is malformed. Never a torn tail.
      return tolerant ? Status::IoError("bad WAL record payload") : decoded;
    }
    if (!pd.exhausted()) {
      return tolerant ? Status::IoError("trailing bytes in WAL record")
                      : Status::InvalidArgument("trailing bytes in WAL record");
    }
    // A payload that decodes cleanly and exactly is the v4 encoding of
    // `rec`, so the log keeps the file's bytes.
    std::memcpy(loaded.Extend(len), payload, len);
    loaded.IndexRecord(rec, loaded.LastLsn());
    off += kFrameHeaderBytes + len;
  }
  if (!tolerant && off != buffer.size()) {
    return Status::InvalidArgument("trailing bytes in WAL file");
  }
  // The master is advisory (analysis falls back to a full scan when it
  // finds no checkpoint); clamp rather than fail if the tail truncation
  // dropped the records it pointed at, and clear it if it points into
  // the head-truncated prefix (a malformed header, not a real save).
  loaded.master_ = std::min<Lsn>(master, loaded.LastLsn());
  if (loaded.master_ <= loaded.base_) loaded.master_ = kNoLsn;
  loaded.FoldClosed();
  *this = std::move(loaded);
  if (dropped != nullptr) *dropped = drop;
  return Status::OK();
}

Status Wal::SaveToFile(const std::string& path) const {
  std::vector<uint8_t> bytes = Serialize();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot open " + path);
  size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  // fwrite can report success while the data sits in the stdio buffer;
  // fflush forces it down and surfaces ENOSPC-style failures, and
  // ferror catches an error either call absorbed. Without these a full
  // disk looked like a successful save.
  bool flushed = std::fflush(f) == 0;
  bool stream_error = std::ferror(f) != 0;
  int rc = std::fclose(f);
  if (written != bytes.size() || !flushed || stream_error || rc != 0) {
    return Status::IoError("short write to " + path);
  }
  return Status::OK();
}

Status Wal::LoadFromFile(const std::string& path, size_t* dropped) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IoError("cannot open " + path);
  std::vector<uint8_t> bytes;
  uint8_t buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  // fread returning 0 means EOF *or* error; without this check a
  // mid-file read error would surface as a confusing decode failure (or
  // silently truncate at a record boundary).
  bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) return Status::IoError("read error on " + path);
  return DeserializeTolerant(bytes, dropped);
}

}  // namespace rainbow
