#include "recovery/redo.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "recovery/pipeline_util.h"
#include "recovery/prefetch.h"
#include "storage/page.h"

namespace deutero {

namespace {

/// Re-execute one data operation through the DataComponent (the one-thread
/// path; the operation's effects are known to be missing: the pLSN test
/// already passed).
Status ApplyDataOp(DataComponent* dc, const LogRecordView& rec, PageId pid) {
  switch (rec.type) {
    case LogRecordType::kUpdate:
      return dc->ApplyUpdate(rec.table_id, pid, rec.key, rec.after, rec.lsn);
    case LogRecordType::kInsert:
      return dc->ApplyInsert(rec.table_id, pid, rec.key, rec.after, rec.lsn);
    case LogRecordType::kDelete:
      return dc->ApplyDelete(rec.table_id, pid, rec.key, rec.lsn);
    case LogRecordType::kClr:
      // A CLR with an empty restored image compensates an insert (delete);
      // otherwise it restores an image — as an upsert, because a CLR that
      // compensates a delete must re-insert, and the distinction is not on
      // the record (the page state decides).
      if (rec.after.empty()) {
        return dc->ApplyDelete(rec.table_id, pid, rec.key, rec.lsn);
      }
      return dc->ApplyUpsert(rec.table_id, pid, rec.key, rec.after, rec.lsn);
    default:
      return Status::InvalidArgument("not a data op");
  }
}

/// Count a classified record's DPT skip or tail-of-log fallback in `out`.
/// Returns true if its page must be fetched for the pLSN test.
bool AdmitForFetch(RedoDptOutcome outcome, RedoResult* out) {
  switch (outcome) {
    case RedoDptOutcome::kSkipDpt:
      out->skipped_dpt++;
      return false;
    case RedoDptOutcome::kSkipRlsn:
      out->skipped_rlsn++;
      return false;
    case RedoDptOutcome::kTailFetch:
      out->tail_ops++;  // tail of the log (§4.3): basic algorithm
      return true;
    case RedoDptOutcome::kFetch:
      break;
  }
  return true;
}

/// One routed redo operation. Slices alias the log buffer — valid for the
/// pass lifetime under the LogManager::AliasGuard the dispatcher holds.
/// A default-constructed item (type == kInvalid) is the RELEASE-PINS
/// control token: the worker drops its pin cache when it consumes one
/// (used before SMO barriers and at end of pass).
struct RedoWorkItem {
  LogRecordType type = LogRecordType::kInvalid;
  TableId table_id = kInvalidTableId;
  Key key = 0;
  Lsn lsn = kInvalidLsn;
  PageId pid = kInvalidPageId;
  Slice after;
};

/// State shared by the dispatcher and all workers of one pass.
struct PipelineShared {
  BufferPool* pool = nullptr;
  Mutex pool_gate;  ///< Serializes EVERY pool/disk/clock touch.
  TableRegistry tables;
  double cpu_per_redo_apply_us = 0;
  /// Workers test their DPT shard (false: Log0, every op fetches).
  bool dpt_tests = false;
  Lsn tail_from = kNoRedoTail;
  // Per-partition read-ahead (Log2 / SQL2). The one-thread prefetchers
  // pace a shared window by claims, which assumes pages are claimed in
  // issue order; partitions reorder claims, so each partition prefetches
  // for itself instead (RingReadAhead); 0 disables it.
  uint32_t read_ahead_budget = 0;
};

/// One redo partition: a DPT shard, a pin cache, a read-ahead window and a
/// private result shard (merged by the dispatcher after the join).
class RedoApplier {
 public:
  using Item = RedoWorkItem;
  static bool IsControl(const Item& item) {
    return item.type == LogRecordType::kInvalid;
  }

  RedoApplier(PipelineShared* shared, DirtyPageTable shard_dpt,
              uint32_t pin_cache_cap)
      : shared_(shared),
        dpt_(std::move(shard_dpt)),
        pins_(shared->pool, &shared->pool_gate, pin_cache_cap),
        read_ahead_(shared->pool, &shared->pool_gate,
                    shared->read_ahead_budget) {}

  void Release() { pins_.ReleaseAll(); }

  /// The worker half of the per-record logic: the DPT shard test, then the
  /// pLSN idempotence test and the leaf apply.
  Status Apply(const Item& item, const SpscRing<Item>& upcoming) {
    // Prefetch exactly the pages the apply path will fetch.
    read_ahead_.MaybeTopUp(upcoming, [this](const Item& next) {
      if (IsControl(next)) return kInvalidPageId;
      const RedoDptOutcome o = Classify(next);
      return o == RedoDptOutcome::kFetch || o == RedoDptOutcome::kTailFetch
                 ? next.pid
                 : kInvalidPageId;
    });
    if (!AdmitForFetch(Classify(item), &shard_)) return Status::OK();

    PinCache::Pin* pin = nullptr;
    DEUTERO_RETURN_NOT_OK(pins_.FindOrPin(item.pid, &pin));
    PageView page = pin->handle.view();
    if (item.lsn <= page.plsn()) {
      shard_.skipped_plsn++;
      return Status::OK();
    }
    uint32_t value_size = 0;
    if (!shared_->tables.Lookup(item.table_id, &value_size)) {
      return Status::NotFound("redo of op on unknown table");
    }
    DEUTERO_RETURN_NOT_OK(
        ApplyLeafOp(page, item.type, value_size, item.key, item.after));
    pins_.MarkDirty(pin, item.lsn);
    cpu_us_ += shared_->cpu_per_redo_apply_us;
    shard_.applied++;
    return Status::OK();
  }

  const RedoResult& shard() const { return shard_; }
  double cpu_us() const { return cpu_us_; }

 private:
  RedoDptOutcome Classify(const Item& item) const {
    return ClassifyRedo(shared_->dpt_tests ? &dpt_ : nullptr,
                        shared_->tail_from, item.lsn, item.pid);
  }

  PipelineShared* shared_;
  DirtyPageTable dpt_;
  PinCache pins_;
  RingReadAhead read_ahead_;
  RedoResult shard_;
  double cpu_us_ = 0;
};

constexpr size_t kRingCapacity = 4096;

using RedoWorkers = WorkerPool<RedoApplier>;

/// Batches the dispatcher's simulated charges — per-record scan CPU and
/// sequential log-page reads (its iterator runs charge_io=false; every
/// OTHER clock touch happens under the pool gate, which the dispatcher
/// cannot hold per record without serializing the pipeline) — onto the
/// global clock every `kFlushEvery` events. Keeping the clock moving
/// during the scan matters: prefetch completion times are absolute, so a
/// clock frozen for the whole dispatch would make every prefetched page
/// look "not yet landed" and re-introduce the stalls the read-ahead
/// exists to hide. 32-record granularity (~160 simulated µs) is far below
/// device latencies.
class DispatchClockMeter {
 public:
  DispatchClockMeter(SimClock* clock, Mutex* gate)
      : clock_(clock), gate_(gate) {}

  void AddUs(double us) {
    pending_us_ += us;
    if (++pending_events_ >= kFlushEvery) Flush();
  }
  void Flush() {
    if (pending_events_ == 0) return;
    MutexLock lock(gate_);
    clock_->AdvanceUs(pending_us_);
    pending_us_ = 0;
    pending_events_ = 0;
  }

 private:
  static constexpr uint32_t kFlushEvery = 32;
  SimClock* clock_;
  Mutex* gate_;
  double pending_us_ = 0;
  uint32_t pending_events_ = 0;
};

/// The dispatcher side of one redo pass, shared by both families: the
/// scan's cost charges, the scan-complete row accounting, the DPT test and
/// apply of a data op (on this thread, or routed to its page's partition),
/// the SQL structure-record rules, and the epilogue. With one thread
/// nothing is routed and none of the fan-out state exists.
class RedoDispatcher {
 public:
  RedoDispatcher(LogManager* log, DataComponent* dc, Lsn start,
                 const DirtyPageTable* dpt, Lsn tail_from, bool read_ahead,
                 const EngineOptions& options, uint32_t threads,
                 Lsn count_rows_from, RedoResult* out)
      : dc_(dc),
        dpt_(dpt),
        tail_from_(tail_from),
        options_(options),
        out_(out),
        count_from_(count_rows_from == kInvalidLsn ? start : count_rows_from),
        fan_out_(threads > 1),
        quiesce_(dc),
        // Fanned out, the iterator's clock charges would race the gated
        // worker clock touches; the meter batches them under the gate.
        it_(log->NewIterator(start, /*charge_io=*/!fan_out_)) {
    *out_ = RedoResult();
    if (!fan_out_) return;
    alias_.emplace(log);
    shared_.pool = &dc->pool();
    shared_.tables.Refresh(dc);
    shared_.cpu_per_redo_apply_us = options.io.cpu_per_redo_apply_us;
    shared_.dpt_tests = dpt != nullptr;
    shared_.tail_from = tail_from;
    // The partition's queue lists exactly the pages it will touch, in
    // order: it replaces the PF-list (Log2) and the log read-ahead (SQL2).
    // Same cache-pressure throttle as the one-thread window, split across
    // partitions.
    if (read_ahead) {
      shared_.read_ahead_budget = ReadAheadBudget(dc->pool(), options, threads);
    }
    std::vector<DirtyPageTable> shards;
    if (dpt != nullptr) {
      BuildDptShards(*dpt, threads, &shards);
    } else {
      shards.resize(threads);
    }
    const uint32_t pin_cap = PinCacheCapacity(dc->pool(), threads);
    workers_.emplace(threads, kRingCapacity, [&](uint32_t i) {
      return RedoApplier(&shared_, std::move(shards[i]), pin_cap);
    });
    stall_ms_at_start_ = dc->pool().stats().stall_ms;
    scan_clock_.emplace(&dc->clock(), &shared_.pool_gate);
  }

  bool fan_out() const { return fan_out_; }
  LogManager::Iterator& it() { return it_; }

  /// Per-record scan bookkeeping: the count and the scan CPU (plus, fanned
  /// out, the log pages the iterator did not charge).
  void Scanned() {
    out_->records_scanned++;
    const double cpu_us = options_.io.cpu_per_log_record_us;
    if (!fan_out_) {
      dc_->clock().AdvanceUs(cpu_us);
      return;
    }
    out_->dispatch_cpu_us += cpu_us;
    scan_clock_->AddUs(cpu_us + (it_.pages_read() - log_pages_metered_) *
                                    options_.io.log_page_read_ms * 1e3);
    log_pages_metered_ = it_.pages_read();
  }

  /// A data op enters redo: count it and do its scan-complete row
  /// accounting (see RecordRowDelta). The counter must reflect every
  /// windowed operation whether or not the redo tests skip its
  /// re-execution — and none the persisted catalog counters already cover
  /// (records below count_from). Dispatcher-side: it sees log order, and
  /// workers never touch the tree counters.
  void Examine(const LogRecordView& rec) {
    out_->examined++;
    if (rec.lsn >= count_from_) {
      dc_->AdjustTableRowCount(rec.table_id, RecordRowDelta(rec));
    }
  }

  /// The logical family's per-operation index traversal (Algorithm 2 line
  /// 8 / Algorithm 5 line 4), memoized: log locality makes consecutive
  /// records hit the same leaf far more often than not. The dispatcher
  /// maps every op, so the partition of the owning leaf is known; workers
  /// never traverse.
  Status FindLeaf(const LogRecordView& rec, RedoLeafMemo* memo,
                  PageId* pid) {
    if (options_.redo_leaf_memo && memo->Hit(rec.table_id, rec.key)) {
      *pid = memo->pid;
      out_->leaf_memo_hits++;
      return Status::OK();
    }
    MutexLock lock(&shared_.pool_gate);
    DEUTERO_RETURN_NOT_OK(dc_->FindLeafRanged(rec.table_id, rec.key, pid,
                                              &memo->lo, &memo->hi,
                                              &memo->bounded));
    memo->table = rec.table_id;
    memo->pid = *pid;
    memo->valid = true;
    return Status::OK();
  }

  /// Redo one data op on page `pid`: the DPT test, then the pLSN test and
  /// the apply. Fanned out, the page's partition runs them.
  Status Redo(const LogRecordView& rec, PageId pid) {
    if (fan_out_) {
      RedoWorkItem item;
      item.type = rec.type;
      item.table_id = rec.table_id;
      item.key = rec.key;
      item.lsn = rec.lsn;
      item.pid = pid;
      item.after = rec.after;
      workers_->Route(pid, item);
      return Status::OK();
    }
    if (!AdmitForFetch(ClassifyRedo(dpt_, tail_from_, rec.lsn, pid), out_)) {
      return Status::OK();
    }
    // The pLSN idempotence test (paper §2.2): fetch the page and compare.
    PageHandle h;
    DEUTERO_RETURN_NOT_OK(dc_->pool().Get(pid, PageClass::kData, &h));
    if (rec.lsn <= h.view().plsn()) {
      out_->skipped_plsn++;
      return Status::OK();
    }
    h.Release();
    DEUTERO_RETURN_NOT_OK(ApplyDataOp(dc_, rec, pid));
    dc_->clock().AdvanceUs(options_.io.cpu_per_redo_apply_us);
    out_->applied++;
    return Status::OK();
  }

  /// The SQL family's structure records, replayed physiologically in LSN
  /// order on the dispatcher. Fanned out, a replayed record spans
  /// partitions, so it takes a drain barrier first: it applies after every
  /// routed record that precedes it and before any that follows, on frames
  /// no worker holds pinned.
  Status RedoStructure(const LogRecordView& rec) {
    // A split installs its images only when the DPT admits one of its
    // pages (Algorithm 1 lines 4-8 applied per page); merges and DDL
    // replay unconditionally (see below).
    bool install = true;
    if (rec.type == LogRecordType::kSmo) {
      install = false;
      for (const SmoPageImageRef& p : rec.smo_pages) {
        if (ClassifyRedo(dpt_, kNoRedoTail, rec.lsn, p.pid) ==
            RedoDptOutcome::kFetch) {
          install = true;
          break;
        }
      }
    }
    auto replay = [&]() -> Status {
      switch (rec.type) {
        case LogRecordType::kSmo:
          if (!install) {
            // The image install is skippable; the allocator bookkeeping
            // is not. Without this, a fully-flushed (BW-pruned) split left
            // the high-water mark stale and a post-recovery Allocate()
            // could hand out a live page.
            dc_->NoteSmoAllocation(rec);
            return Status::OK();
          }
          DEUTERO_RETURN_NOT_OK(dc_->RedoSmo(rec));
          out_->smo_redone++;
          return Status::OK();
        case LogRecordType::kSmoMerge:
          // Delete-side SMO: replay unconditionally (the per-page pLSN
          // test inside keeps it idempotent) so every method converges on
          // the same images AND the same allocator free-list — the freed
          // page must be re-freed even when the surviving pages' images
          // are already durable.
          DEUTERO_RETURN_NOT_OK(dc_->RedoSmoMerge(rec));
          out_->smo_redone++;
          return Status::OK();
        default:
          // DDL must re-register the table even when its root image is
          // already durable (RedoCreateTable is idempotent on both fronts).
          return dc_->RedoCreateTable(rec);
      }
    };
    if (!fan_out_) return replay();
    if (install) {
      scan_clock_->Flush();
      workers_->DrainBarrier();
      out_->smo_barriers++;
    }
    {
      MutexLock lock(&shared_.pool_gate);
      DEUTERO_RETURN_NOT_OK(replay());
    }
    // The worker-visible table registry is rebuilt while every worker is
    // quiescent.
    if (rec.type == LogRecordType::kCreateTable) shared_.tables.Refresh(dc_);
    return Status::OK();
  }

  /// A worker failed: stop scanning early (Finish surfaces the error).
  bool Stopped() const { return fan_out_ && workers_->AnyFailed(); }

  /// Epilogue, filled on error exits too. Fanned out, it is the pipeline's
  /// cost model, shared by both families so it cannot drift between them:
  /// charge the scan's residual log pages, shut down and merge the
  /// workers, verify the aliasing contract held, then fold the slowest
  /// partition's apply CPU into the simulated clock. I/O waits were
  /// charged live under the gate, and the pipeline overlaps apply work
  /// with them (while one partition stalls on the device the others keep
  /// applying), so only the worker CPU exceeding the already-waited stall
  /// time extends the pass.
  Status Finish(const Status& scan_status) {
    out_->log_pages = it_.pages_read();
    if (!fan_out_) return scan_status;
    scan_clock_->AddUs((it_.pages_read() - log_pages_metered_) *
                       options_.io.log_page_read_ms * 1e3);
    // Drain, join, and merge every worker's shard; keep the first (lowest
    // partition) worker error.
    const Status worker_status = workers_->Finish();
    double cpu_max = 0;
    for (uint32_t i = 0; i < workers_->partitions(); i++) {
      const RedoApplier& w = workers_->applier(i);
      const RedoResult& s = w.shard();
      out_->applied += s.applied;
      out_->skipped_dpt += s.skipped_dpt;
      out_->skipped_rlsn += s.skipped_rlsn;
      out_->skipped_plsn += s.skipped_plsn;
      out_->tail_ops += s.tail_ops;
      out_->worker_cpu_us_total += w.cpu_us();
      if (w.cpu_us() > cpu_max) cpu_max = w.cpu_us();
    }
    out_->worker_cpu_us_max = cpu_max;
    out_->threads_used = workers_->partitions();
    assert(alias_->Intact());
    scan_clock_->Flush();
    const double stall_waited_us =
        (dc_->pool().stats().stall_ms - stall_ms_at_start_) * 1e3;
    dc_->clock().AdvanceUs(
        std::max(0.0, out_->worker_cpu_us_max - stall_waited_us));
    DEUTERO_RETURN_NOT_OK(scan_status);
    return worker_status;
  }

 private:
  DataComponent* const dc_;
  const DirtyPageTable* const dpt_;
  const Lsn tail_from_;
  const EngineOptions& options_;
  RedoResult* const out_;
  const Lsn count_from_;
  const bool fan_out_;
  RecoveryPassQuiescence quiesce_;
  LogManager::Iterator it_;
  // The optionals and the counters below them are fan-out state (threads
  // >= 2). shared_ outlives the workers that point at it; at one thread
  // only its gate is used.
  std::optional<LogManager::AliasGuard> alias_;
  PipelineShared shared_;
  std::optional<RedoWorkers> workers_;
  std::optional<DispatchClockMeter> scan_clock_;
  double stall_ms_at_start_ = 0;
  uint64_t log_pages_metered_ = 0;
};

}  // namespace

void BuildDptShards(const DirtyPageTable& dpt, uint32_t partitions,
                    std::vector<DirtyPageTable>* shards) {
  shards->clear();
  shards->resize(partitions);
  dpt.ForEach([&](PageId pid, const DirtyPageTable::Entry& e) {
    (*shards)[RedoPartitionOf(pid, partitions)].AddExact(pid, e.rlsn,
                                                         e.last_lsn);
  });
}

Status RunLogicalRedo(LogManager* log, DataComponent* dc, Lsn bckpt_lsn,
                      const DirtyPageTable* dpt, Lsn last_delta_tc_lsn,
                      const std::vector<PageId>* pf_list,
                      const EngineOptions& options, RedoResult* out,
                      Lsn count_rows_from, uint32_t threads) {
  const bool prefetch = pf_list != nullptr && dpt != nullptr;
  RedoDispatcher pass(log, dc, bckpt_lsn, dpt, last_delta_tc_lsn, prefetch,
                      options, std::max(1u, threads), count_rows_from, out);
  std::unique_ptr<PfListPrefetcher> prefetcher;
  if (prefetch && !pass.fan_out()) {
    prefetcher = std::make_unique<PfListPrefetcher>(
        &dc->pool(), dpt, pf_list, RedoPrefetchWindow(dc->pool(), options));
  }
  RedoLeafMemo memo;
  LogManager::Iterator& it = pass.it();
  const Status scan_status = [&]() -> Status {
    for (; it.Valid(); it.Next()) {
      const LogRecordView& rec = it.record();
      pass.Scanned();
      ObserveForAtt(rec, &out->att, &out->max_txn_id);
      if (!rec.IsRedoableDataOp()) continue;  // SMOs: done by the DC pass
      if (prefetcher != nullptr) prefetcher->Pump();
      pass.Examine(rec);
      // The TC re-submits the operation; the DC traverses the index with
      // the record's key to discover the page.
      PageId pid = kInvalidPageId;
      DEUTERO_RETURN_NOT_OK(pass.FindLeaf(rec, &memo, &pid));
      DEUTERO_RETURN_NOT_OK(pass.Redo(rec, pid));
      if (pass.Stopped()) break;
    }
    return Status::OK();
  }();
  return pass.Finish(scan_status);
}

Status RunSqlRedo(LogManager* log, DataComponent* dc, Lsn bckpt_lsn,
                  const DirtyPageTable* dpt, bool prefetch,
                  const EngineOptions& options, RedoResult* out,
                  Lsn count_rows_from, uint32_t threads) {
  RedoDispatcher pass(log, dc, bckpt_lsn, dpt, kNoRedoTail, prefetch,
                      options, std::max(1u, threads), count_rows_from, out);
  std::unique_ptr<LogDrivenPrefetcher> prefetcher;
  if (prefetch && !pass.fan_out()) {
    const uint32_t window = RedoPrefetchWindow(dc->pool(), options);
    prefetcher = std::make_unique<LogDrivenPrefetcher>(
        &dc->pool(), dpt, log, bckpt_lsn, window,
        /*lookahead_records=*/window * 8);
  }
  LogManager::Iterator& it = pass.it();
  const Status scan_status = [&]() -> Status {
    for (; it.Valid(); it.Next()) {
      const LogRecordView& rec = it.record();
      pass.Scanned();
      if (prefetcher != nullptr) prefetcher->Pump(out->records_scanned);
      if (rec.type == LogRecordType::kSmo ||
          rec.type == LogRecordType::kSmoMerge ||
          rec.type == LogRecordType::kCreateTable) {
        DEUTERO_RETURN_NOT_OK(pass.RedoStructure(rec));
        continue;
      }
      if (!rec.IsRedoableDataOp()) continue;
      pass.Examine(rec);
      // Algorithm 1: the log record names the page — no index traversal.
      DEUTERO_RETURN_NOT_OK(pass.Redo(rec, rec.pid));
      if (pass.Stopped()) break;
    }
    return Status::OK();
  }();
  return pass.Finish(scan_status);
}

}  // namespace deutero
