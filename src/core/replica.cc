// Hot-standby applier, on the partition skeleton every recovery pass uses
// (recovery/pipeline_util.h): a dispatcher scans the mirror log in order —
// buffering in-flight transactions, doing the logical->physical mapping
// under the standby's own geometry, and owning every structure change —
// while recovery_threads partitions (hash of the standby leaf pid) run the
// leaf applies; a single partition runs inline on the pumping thread. The
// crew outlives chunks: each ship boundary drains it. The differences from
// recovery's pipeline:
//
//  * Replay is FORWARD operation, not redo: each applied transaction is
//    re-logged through TC::LogReplayOp into the standby's own WAL (its own
//    LSN space stamps the pages), so a standby crash recovers with the
//    ordinary RecoveryManager under any method.
//  * Splits cannot be replayed from the stream (primary SMOs describe the
//    wrong geometry), so the dispatcher PREDICTS them: it tracks each
//    leaf's projected row count for the current window and only a
//    would-overflow insert pays a drain barrier + a gated PrepareInsert.
//  * Deletes queue merge candidates; each transaction's candidates are
//    swept (MaybeMergeLeaf) behind a barrier BEFORE its commit record is
//    logged, so a commit-durable transaction implies merge-durable SMOs —
//    no empty leaves can outlive a standby crash.
//  * Resume state is data: the dispatcher folds a cursor-row update
//    (applied-through / replay-from mirror offsets) into every applied
//    transaction, making replay progress exactly as durable as the data.
#include "core/replica.h"

#include <cassert>
#include <utility>

#include "btree/btree.h"
#include "btree/node.h"
#include "common/coding.h"
#include "recovery/pipeline_util.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace deutero {

namespace {

/// Cursor row payload: [u64 applied_through][u64 replay_from], both mirror
/// offsets (== primary LSNs).
constexpr uint32_t kCursorValueSize = 16;
constexpr Key kCursorKey = 0;

void EncodeCursor(Lsn applied_through, Lsn replay_from, std::string* out) {
  out->resize(kCursorValueSize);
  EncodeFixed64(&(*out)[0], applied_through);
  EncodeFixed64(&(*out)[8], replay_from);
}

/// One routed leaf apply. The after-image aliases the MIRROR log buffer —
/// valid for the whole apply under the dispatcher's AliasGuard (the mirror
/// only grows between applies). `lsn` is the STANDBY WAL record's LSN (the
/// one that stamps the page). A default-constructed item (kInvalid) is the
/// release-pins control token.
struct ReplayItem {
  LogRecordType type = LogRecordType::kInvalid;
  Key key = 0;
  Lsn lsn = kInvalidLsn;
  PageId pid = kInvalidPageId;
  uint32_t value_size = 0;
  Slice after;
};

constexpr size_t kReplayRingCapacity = 1024;

/// Pages a partition keeps pinned between items. Unlike a recovery pass,
/// replay runs the lazy writer through the apply, and the lazy writer
/// drops a pinned page from its dirty FIFO rather than flushing it; with
/// several pins held per partition most replayed pages escape it, the
/// cache fills with dirty pages and eviction thrashes the few clean ones.
/// One pin still serves consecutive items on the same leaf.
constexpr uint32_t kReplayPinsPerPartition = 1;

/// One partition of the continuous-replay crew: a pin cache and the leaf
/// apply. Compared with redo's there are no DPT tests and no read-ahead
/// (replay applies everything); the pLSN test still guards the re-applied
/// prefix after a resume.
class ReplayApplier {
 public:
  using Item = ReplayItem;
  static bool IsControl(const Item& item) {
    return item.type == LogRecordType::kInvalid;
  }

  ReplayApplier(BufferPool* pool, Mutex* gate)
      : pins_(pool, gate, kReplayPinsPerPartition) {}

  void Release() { pins_.ReleaseAll(); }

  Status Apply(const Item& item, const SpscRing<Item>& /*upcoming*/) {
    PinCache::Pin* pin = nullptr;
    DEUTERO_RETURN_NOT_OK(pins_.FindOrPin(item.pid, &pin));
    PageView page = pin->handle.view();
    // Idempotence across resumes: a recovered standby re-applies the tail
    // from replay_from; ops whose effects recovery already installed are
    // provably stamped (their standby records redo under every method).
    if (item.lsn <= page.plsn()) return Status::OK();
    DEUTERO_RETURN_NOT_OK(
        ApplyLeafOp(page, item.type, item.value_size, item.key, item.after));
    pins_.MarkDirty(pin, item.lsn);
    return Status::OK();
  }

 private:
  PinCache pins_;
};

}  // namespace

/// The continuous-replay apply partitions (recovery_threads of them; one
/// partition applies inline on the pumping thread).
class LogicalReplica::ReplayCrew : public WorkerPool<ReplayApplier> {
 public:
  ReplayCrew(BufferPool* pool, Mutex* gate, uint32_t threads)
      : WorkerPool(threads, kReplayRingCapacity,
                   [&](uint32_t) { return ReplayApplier(pool, gate); }) {}
};

// ---- InFlightOps ----

void LogicalReplica::InFlightOps::BeginTxn(TxnId id, Lsn lsn) {
  for (const Slot& s : slots) {
    if (s.id == id) return;
  }
  slots.push_back(Slot{id, lsn, -1, -1});
}

void LogicalReplica::InFlightOps::AddOp(TxnId id, LogRecordType kind,
                                        TableId table, Key key, Lsn lsn) {
  Slot* slot = nullptr;
  for (Slot& s : slots) {
    if (s.id == id) {
      slot = &s;
      break;
    }
  }
  if (slot == nullptr) {
    // Resume re-scan can start past the kTxnBegin record; the first op
    // stands in for it.
    slots.push_back(Slot{id, lsn, -1, -1});
    slot = &slots.back();
  }
  int32_t idx;
  if (free_head >= 0) {
    idx = free_head;
    free_head = ops[idx].next;
  } else {
    ops.emplace_back();
    idx = static_cast<int32_t>(ops.size()) - 1;
  }
  ops[idx] = Op{table, key, lsn, kind, -1};
  if (slot->tail >= 0) {
    ops[slot->tail].next = idx;
  } else {
    slot->head = idx;
  }
  slot->tail = idx;
}

int32_t LogicalReplica::InFlightOps::Take(TxnId id) {
  for (size_t i = 0; i < slots.size(); i++) {
    if (slots[i].id == id) {
      const int32_t head = slots[i].head;
      slots[i] = slots.back();
      slots.pop_back();
      return head;
    }
  }
  return -1;
}

void LogicalReplica::InFlightOps::FreeChain(int32_t head) {
  while (head >= 0) {
    const int32_t next = ops[head].next;
    ops[head].next = free_head;
    free_head = head;
    head = next;
  }
}

Lsn LogicalReplica::InFlightOps::MinFirstLsn() const {
  Lsn min = kInvalidLsn;
  for (const Slot& s : slots) {
    if (min == kInvalidLsn || s.first_lsn < min) min = s.first_lsn;
  }
  return min;
}

void LogicalReplica::InFlightOps::Clear() {
  slots.clear();
  ops.clear();
  free_head = -1;
}

// ---- lifecycle ----

Status LogicalReplica::Open(const EngineOptions& options,
                            std::unique_ptr<LogicalReplica>* out) {
  std::unique_ptr<LogicalReplica> r(new LogicalReplica());
  DEUTERO_RETURN_NOT_OK(Engine::Open(options, &r->engine_));
  r->mirror_ = std::make_unique<LogManager>(
      &r->engine_->clock(), r->engine_->options().log_page_size,
      /*log_page_read_ms=*/0.0);
  // The node-private cursor row, written inside every applied transaction
  // from then on. Bootstrapped through the plain TC path (the standby's own
  // forward operation) before the read-only gate drops.
  TransactionComponent& tc = r->engine_->tc();
  DEUTERO_RETURN_NOT_OK(
      r->engine_->dc().CreateTable(kStandbyCursorTableId, kCursorValueSize));
  TxnId boot = kInvalidTxnId;
  DEUTERO_RETURN_NOT_OK(tc.Begin(&boot));
  {
    // Nobody else can hold the lock on a not-yet-published object; taken
    // anyway because the analysis cannot see that.
    MutexLock lock(&r->apply_mu_);
    EncodeCursor(kInvalidLsn, kFirstLsn, &r->cursor_after_);
    DEUTERO_RETURN_NOT_OK(
        tc.Insert(boot, kStandbyCursorTableId, kCursorKey, r->cursor_after_));
  }
  DEUTERO_RETURN_NOT_OK(tc.Commit(boot));
  {
    MutexLock lock(&r->apply_mu_);
    r->applied_boundary_ = kFirstLsn;
    r->StartCrew();
  }
  r->engine_->SetReadOnly(true);
  *out = std::move(r);
  return Status::OK();
}

// The crew is declared after the engine and the gate, so member
// destruction finishes it before either goes away.
LogicalReplica::~LogicalReplica() { (void)StopContinuousReplay(); }

void LogicalReplica::StartCrew() {
  crew_ = std::make_unique<ReplayCrew>(&engine_->dc().pool(), &gate_,
                                       engine_->options().recovery_threads);
}

// ---- the applier core ----

Status LogicalReplica::ProjectedLeafRows(PageId pid, int64_t** count) {
  for (auto& entry : window_) {
    if (entry.first == pid) {
      *count = &entry.second;
      return Status::OK();
    }
  }
  // First slot-mutating op on this leaf in the window: its base count is
  // read once, under the gate. No worker can be mutating the slot count
  // concurrently — every insert/delete routed to this pid goes through
  // here first, so a racing mutation would imply the pid is already in the
  // window.
  int64_t base = 0;
  {
    MutexLock lock(&gate_);
    PageHandle h;
    DEUTERO_RETURN_NOT_OK(engine_->dc().pool().Get(pid, PageClass::kData, &h));
    base = h.view().num_slots();
    h.Release();
  }
  window_.emplace_back(pid, base);
  *count = &window_.back().second;
  return Status::OK();
}

Status LogicalReplica::ApplyCommittedTxn(TxnId primary_txn, Lsn commit_lsn,
                                         bool* stop_injected) {
  DataComponent& dc = engine_->dc();
  TransactionComponent& tc = engine_->tc();
  const int32_t head = in_flight_.Take(primary_txn);

  TxnId local = kInvalidTxnId;
  {
    MutexLock lock(&gate_);
    DEUTERO_RETURN_NOT_OK(tc.Begin(&local));
  }

  for (int32_t i = head; i >= 0; i = in_flight_.ops[i].next) {
    const InFlightOps::Op op = in_flight_.ops[i];
    // Re-decode the shipped record by source offset: both images come from
    // the primary (valid under strict 2PL + commit order), zero copies.
    DEUTERO_RETURN_NOT_OK(mirror_->ViewRecordAt(op.lsn, &view_scratch_));
    uint32_t value_size = 0;
    if (!tables_.Lookup(op.table, &value_size)) {
      return Status::NotFound("replay of op on unknown table");
    }
    // Logical->physical mapping under the standby's own geometry, fence-
    // memoized exactly like the redo dispatcher.
    PageId pid = kInvalidPageId;
    if (memo_.Hit(op.table, op.key)) {
      pid = memo_.pid;
    } else {
      MutexLock lock(&gate_);
      DEUTERO_RETURN_NOT_OK(dc.FindLeafRanged(op.table, op.key, &pid,
                                              &memo_.lo, &memo_.hi,
                                              &memo_.bounded));
      memo_.table = op.table;
      memo_.pid = pid;
      memo_.valid = true;
    }

    if (op.kind == LogRecordType::kInsert) {
      // Split prediction: only a would-overflow insert pays a barrier +
      // the gated, logged split. Everything else routes straight through.
      int64_t* count = nullptr;
      DEUTERO_RETURN_NOT_OK(ProjectedLeafRows(pid, &count));
      const auto capacity = static_cast<int64_t>(LeafNodeView::Capacity(
          engine_->options().page_size, value_size));
      if (*count + 1 > capacity) {
        crew_->DrainBarrier();
        agg_.barriers++;
        {
          MutexLock lock(&gate_);
          DEUTERO_RETURN_NOT_OK(dc.PrepareInsert(op.table, op.key, &pid));
        }
        window_.clear();  // the split moved rows; every count is stale
        memo_.valid = false;
        DEUTERO_RETURN_NOT_OK(ProjectedLeafRows(pid, &count));
      }
      (*count)++;
    } else if (op.kind == LogRecordType::kDelete) {
      // Deletes change slot counts too: route them through the window so a
      // later base-count read can never race a queued delete.
      int64_t* count = nullptr;
      DEUTERO_RETURN_NOT_OK(ProjectedLeafRows(pid, &count));
      (*count)--;
    }

    Lsn lsn = kInvalidLsn;
    {
      MutexLock lock(&gate_);
      DEUTERO_RETURN_NOT_OK(tc.LogReplayOp(local, op.kind, op.table, op.key,
                                           view_scratch_.before,
                                           view_scratch_.after, pid, &lsn));
      // Δ-capture at ROUTE time, not apply time. Algorithm 4 gives a page
      // first captured by Δ-record N the proxy rLSN of record N-1's
      // TC-LSN — sound only if the pid enters the DirtySet before the
      // next Δ-record after its update. A routed worker's own MarkDirty
      // can land later than that, inflating the proxy past this record
      // and losing the update under a Log1/Log2 standby recovery.
      // Duplicate capture (the worker still marks on apply) is explicitly
      // allowed (App. D.2).
      dc.monitor().OnPageDirtied(pid, lsn);
      // Keep the lazy writer running through the chunk: without it a large
      // chunk fills the cache with dirty pages, and eviction then cycles the
      // few clean frames. It skips pinned frames, and no partition can pin
      // or unpin while the gate is held, so every page a partition may be
      // writing is left alone.
      DEUTERO_RETURN_NOT_OK(dc.Tick());
    }
    ReplayItem item;
    item.type = op.kind;
    item.key = op.key;
    item.lsn = lsn;
    item.pid = pid;
    item.value_size = value_size;
    item.after = view_scratch_.after;
    crew_->Route(pid, item);
    // Scan-complete row accounting on the dispatcher (the partitions never
    // touch the counters during replay).
    if (op.kind == LogRecordType::kInsert) {
      dc.AdjustTableRowCount(op.table, 1);
    } else if (op.kind == LogRecordType::kDelete) {
      dc.AdjustTableRowCount(op.table, -1);
      merge_keys_.emplace_back(op.table, op.key);
    }
    ops_applied_++;
    ops_since_checkpoint_++;
    if (apply_stop_after_ops_ > 0 && --apply_stop_after_ops_ == 0) {
      *stop_injected = true;
      break;
    }
  }
  in_flight_.FreeChain(head);

  if (*stop_injected) {
    // Die mid-transaction: make every appended record stable (so local
    // recovery sees the open transaction and undoes it), leave the txn
    // open, and refuse further work until crash + recover.
    crew_->DrainBarrier();
    MutexLock lock(&gate_);
    tc.ForceLog();
    apply_stopped_ = true;
    return Status::OK();
  }

  // Merge sweep BEFORE the commit record: a commit-durable transaction
  // implies its delete-side SMOs are durable too, so no standby crash can
  // strand empty leaves behind the applied-through mark.
  if (!merge_keys_.empty()) {
    crew_->DrainBarrier();
    agg_.barriers++;
    {
      MutexLock lock(&gate_);
      for (const auto& [table, key] : merge_keys_) {
        bool merged = false;
        DEUTERO_RETURN_NOT_OK(dc.MaybeMergeLeaf(table, key, &merged));
        if (merged) agg_.standby_merges++;
      }
    }
    merge_keys_.clear();
    window_.clear();  // merges moved rows across leaves
    memo_.valid = false;
  }

  // Fold the replay cursor into the transaction: applied-through is this
  // commit; replay-from backs up to the earliest still-in-flight op.
  const Lsn min_in_flight = in_flight_.MinFirstLsn();
  const Lsn replay_from =
      (min_in_flight == kInvalidLsn || min_in_flight > commit_lsn)
          ? commit_lsn
          : min_in_flight;
  EncodeCursor(commit_lsn, replay_from, &cursor_after_);
  {
    MutexLock lock(&gate_);
    PageId cursor_pid = kInvalidPageId;
    DEUTERO_RETURN_NOT_OK(dc.LocateForUpdate(kStandbyCursorTableId,
                                             kCursorKey, &cursor_pid,
                                             &cursor_before_));
    Lsn cursor_lsn = kInvalidLsn;
    DEUTERO_RETURN_NOT_OK(tc.LogReplayOp(
        local, LogRecordType::kUpdate, kStandbyCursorTableId, kCursorKey,
        cursor_before_, cursor_after_, cursor_pid, &cursor_lsn));
    DEUTERO_RETURN_NOT_OK(dc.ApplyUpdate(kStandbyCursorTableId, cursor_pid,
                                         kCursorKey, cursor_after_,
                                         cursor_lsn));
    DEUTERO_RETURN_NOT_OK(tc.Commit(local));
  }
  txns_applied_++;
  return Status::OK();
}

Status LogicalReplica::ApplyMirror(Lsn* next) {
  DataComponent& dc = engine_->dc();
  tables_.Refresh(&dc);

  // Routed items carry Slices aliasing the mirror: nothing may append to
  // it until the crew is drained below (the standby's own WAL is a
  // different manager and grows freely).
  LogManager::AliasGuard alias(mirror_.get());

  window_.clear();
  merge_keys_.clear();
  memo_.valid = false;
  // Row counts are accounted scan-complete by the dispatcher, exactly like
  // the redo passes; the apply-side adjustments would double-count.
  dc.SetRowCountTracking(false);

  Status st;
  bool stop_injected = false;
  auto it = mirror_->NewIterator(mirror_next_, /*charge_io=*/false);
  for (; it.Valid(); it.Next()) {
    const LogRecordView& rec = it.record();
    switch (rec.type) {
      case LogRecordType::kTxnBegin:
        in_flight_.BeginTxn(rec.txn_id, rec.lsn);
        break;
      case LogRecordType::kUpdate:
      case LogRecordType::kInsert:
      case LogRecordType::kDelete:
        // Node-private system tables (a predecessor's replication cursor)
        // never replicate.
        if (rec.table_id >= kStandbySystemTableBase) break;
        in_flight_.AddOp(rec.txn_id, rec.type, rec.table_id, rec.key,
                         rec.lsn);
        break;
      case LogRecordType::kClr:
        // Belongs to a transaction that ends in kTxnAbort; dropped there.
        break;
      case LogRecordType::kTxnAbort:
        in_flight_.Drop(rec.txn_id);
        break;
      case LogRecordType::kCreateTable:
        // DDL replicates logically: same table id and schema, this node's
        // geometry. No barrier needed — a fresh table has no routed pages.
        if (rec.table_id >= kStandbySystemTableBase) break;
        if (dc.FindTable(rec.table_id) == nullptr) {
          {
            MutexLock lock(&gate_);
            st = dc.CreateTable(rec.table_id, rec.ddl_value_size);
          }
          if (st.ok()) tables_.Refresh(&dc);
        }
        break;
      case LogRecordType::kTxnCommit:
        // Commits at or below the recovered applied-through mark were
        // durably applied before the last standby crash.
        if (rec.lsn <= skip_commits_at_or_below_) {
          in_flight_.Drop(rec.txn_id);
          break;
        }
        st = ApplyCommittedTxn(rec.txn_id, rec.lsn, &stop_injected);
        break;
      default:
        // Primary-physical records (Δ, BW, SMOs, checkpoints, RSSP acks)
        // describe the wrong geometry; this node forms its own pages.
        break;
    }
    if (!st.ok() || stop_injected || crew_->AnyFailed()) break;
  }

  // Quiesce the crew at the ship boundary: every routed item applied and
  // every pin dropped before the mirror grows again or a checkpoint runs.
  crew_->DrainBarrier();
  assert(alias.Intact());
  dc.SetRowCountTracking(true);
  if (st.ok()) st = crew_->FirstError();
  if (!st.ok()) {
    failed_ = true;
    return st;
  }
  if (stop_injected) return Status::OK();  // apply_stopped_ is set

  // it.lsn() when the scan ends is the first offset NOT consumed — the
  // start of a torn frame or the stable end: the resume point.
  *next = it.lsn();
  DEUTERO_RETURN_NOT_OK(dc.Tick());

  // Standby checkpoints happen at ship boundaries only, while the crew is
  // quiescent — same cadence knob as the primary.
  if (ops_since_checkpoint_ >=
      engine_->options().checkpoint_interval_updates) {
    DEUTERO_RETURN_NOT_OK(engine_->tc().Checkpoint());
    ops_since_checkpoint_ = 0;
    agg_.checkpoints++;
  }
  return Status::OK();
}

// ---- continuous replay ----

Status LogicalReplica::PumpChunk(ReplicationChannel* channel,
                                 size_t max_chunk_bytes, bool* progressed) {
  MutexLock lock(&apply_mu_);
  if (progressed != nullptr) *progressed = false;
  if (promoted_) return Status::InvalidArgument("standby was promoted");
  if (failed_) {
    return Status::InvalidArgument("standby applier failed; crash+recover");
  }
  if (apply_stopped_) {
    return Status::InvalidArgument("apply stopped; crash+recover the standby");
  }
  if (!engine_->running() || crew_ == nullptr) {
    return Status::InvalidArgument("standby is crashed");
  }

  const size_t pulled =
      channel->Pull(mirror_->next_lsn(), max_chunk_bytes, &chunk_buf_);
  if (pulled > 0) {
    mirror_->AppendShipped(Slice(chunk_buf_.data(), chunk_buf_.size()));
    agg_.chunks_shipped++;
    agg_.bytes_shipped += pulled;
  }
  agg_.published_end = channel->published_end();
  agg_.published_txns = channel->published_txns();

  Lsn next = mirror_next_;
  DEUTERO_RETURN_NOT_OK(ApplyMirror(&next));
  if (apply_stopped_) {
    if (progressed != nullptr) *progressed = true;
    return Status::OK();  // partial: resume state is on the cursor row
  }
  const bool moved = pulled > 0 || next != mirror_next_;
  mirror_next_ = next;
  applied_boundary_ = next;
  if (progressed != nullptr) *progressed = moved;
  return Status::OK();
}

Status LogicalReplica::Pump(ReplicationChannel* channel,
                            size_t max_chunk_bytes) {
  bool progressed = true;
  while (progressed) {
    DEUTERO_RETURN_NOT_OK(PumpChunk(channel, max_chunk_bytes, &progressed));
    MutexLock lock(&apply_mu_);
    if (apply_stopped_) break;
  }
  return Status::OK();
}

Status LogicalReplica::StartContinuousReplay(ReplicationChannel* channel,
                                             size_t max_chunk_bytes) {
  if (replay_running_) {
    return Status::InvalidArgument("continuous replay already running");
  }
  {
    MutexLock lock(&apply_mu_);
    if (promoted_) return Status::InvalidArgument("standby was promoted");
  }
  replay_stop_.store(false, std::memory_order_release);
  replay_error_ = Status::OK();
  replay_thread_ = std::thread([this, channel, max_chunk_bytes] {
    uint32_t spins = 0;
    while (!replay_stop_.load(std::memory_order_acquire)) {
      bool progressed = false;
      const Status st = PumpChunk(channel, max_chunk_bytes, &progressed);
      if (!st.ok()) {
        replay_error_ = st;
        break;
      }
      if (progressed) {
        spins = 0;
        continue;
      }
      SpinWait(&spins);
    }
  });
  replay_running_ = true;
  return Status::OK();
}

Status LogicalReplica::StopContinuousReplay() {
  if (!replay_running_) return Status::OK();
  replay_stop_.store(true, std::memory_order_release);
  replay_thread_.join();
  replay_running_ = false;
  return replay_error_;
}

// ---- reads gated at the applied boundary ----

Status LogicalReplica::SnapshotRead(TableId table, Key key,
                                    std::string* value) {
  MutexLock lock(&apply_mu_);
  return engine_->Read(table, key, value);
}

Status LogicalReplica::SnapshotScan(
    TableId table, Key lo, Key hi,
    const std::function<void(Key, Slice)>& fn) {
  MutexLock lock(&apply_mu_);
  ScanCursor cursor;
  DEUTERO_RETURN_NOT_OK(engine_->Scan(table, lo, hi, &cursor));
  while (cursor.Valid()) {
    fn(cursor.key(), cursor.value());
    DEUTERO_RETURN_NOT_OK(cursor.Next());
  }
  return Status::OK();
}

Lsn LogicalReplica::read_boundary() const {
  MutexLock lock(&apply_mu_);
  return applied_boundary_;
}

ReplicationStats LogicalReplica::stats() const {
  MutexLock lock(&apply_mu_);
  ReplicationStats s = agg_;
  s.shipped_end = mirror_ != nullptr ? mirror_->stable_end() : kInvalidLsn;
  s.applied_boundary = applied_boundary_;
  s.txns_applied = txns_applied_;
  s.ops_applied = ops_applied_;
  s.lsn_lag = s.published_end > applied_boundary_
                  ? s.published_end - applied_boundary_
                  : 0;
  s.txn_lag =
      s.published_txns > txns_applied_ ? s.published_txns - txns_applied_ : 0;
  return s;
}

// ---- standby crash / failover ----

void LogicalReplica::CrashStandby() {
  (void)StopContinuousReplay();
  MutexLock lock(&apply_mu_);
  crew_.reset();
  if (engine_->running()) engine_->SimulateCrash();
  apply_stopped_ = false;
  apply_stop_after_ops_ = 0;
  failed_ = false;
}

Status LogicalReplica::RecoverStandbyLocked(RecoveryMethod method,
                                            RecoveryStats* stats) {
  if (engine_->running()) {
    return Status::InvalidArgument("standby is not crashed");
  }
  RecoveryStats local;
  DEUTERO_RETURN_NOT_OK(
      engine_->Recover(method, stats != nullptr ? stats : &local));
  engine_->SetReadOnly(true);
  // The durable cursor is the resume contract: drop everything applied at
  // or below applied_through, rebuild in-flight txns from replay_from.
  std::string cursor;
  DEUTERO_RETURN_NOT_OK(engine_->Read(kStandbyCursorTableId, kCursorKey,
                                      &cursor));
  if (cursor.size() != kCursorValueSize) {
    return Status::Corruption("replication cursor row has a bad size");
  }
  const Lsn applied_through = DecodeFixed64(cursor.data());
  const Lsn replay_from = DecodeFixed64(cursor.data() + 8);
  skip_commits_at_or_below_ = applied_through;
  mirror_next_ = replay_from;
  applied_boundary_ = applied_through;
  in_flight_.Clear();
  window_.clear();
  merge_keys_.clear();
  memo_.valid = false;
  apply_stopped_ = false;
  apply_stop_after_ops_ = 0;
  failed_ = false;
  return Status::OK();
}

Status LogicalReplica::RecoverStandby(RecoveryMethod method,
                                      RecoveryStats* stats) {
  (void)StopContinuousReplay();
  MutexLock lock(&apply_mu_);
  DEUTERO_RETURN_NOT_OK(RecoverStandbyLocked(method, stats));
  StartCrew();
  return Status::OK();
}

Status LogicalReplica::Promote(RecoveryMethod method, RecoveryStats* stats) {
  (void)StopContinuousReplay();
  MutexLock lock(&apply_mu_);
  if (promoted_) return Status::OK();
  crew_.reset();  // a promoted engine takes writes, not shipped chunks
  // A half-applied chunk (stopped applier, poisoned applier) only exists
  // in volatile state: crash it away and let local recovery reconstruct
  // the durable prefix — the same path a crashed standby takes.
  if (engine_->running() && (apply_stopped_ || failed_)) {
    engine_->SimulateCrash();
  }
  if (!engine_->running()) {
    DEUTERO_RETURN_NOT_OK(RecoverStandbyLocked(method, stats));
  }
  in_flight_.Clear();
  engine_->SetReadOnly(false);
  promoted_ = true;
  return Status::OK();
}

// ---- remote repair ----

Status StandbyRepairSource::FetchRows(TableId table, Key lo, Key hi,
                                      std::vector<std::pair<Key, std::string>>*
                                          rows,
                                      Lsn* as_of) {
  rows->clear();
  // Sample the boundary first: the scan below reflects AT LEAST this much
  // (replay only moves it forward), and an under-reported boundary makes
  // the caller replay a few extra transactions idempotently.
  *as_of = standby_->read_boundary();
  return standby_->SnapshotScan(table, lo, hi, [rows](Key key, Slice value) {
    rows->emplace_back(key, std::string(value.data(), value.size()));
  });
}

}  // namespace deutero
