#include "recovery/parallel_redo.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "recovery/analysis.h"
#include "recovery/pipeline_util.h"
#include "storage/page.h"

namespace deutero {

namespace {

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

/// State shared by the dispatcher and all workers for one pass.
struct PipelineShared {
  BufferPool* pool = nullptr;
  Mutex pool_gate;  ///< Serializes EVERY pool/disk/clock touch.
  TableRegistry tables;
  double cpu_per_redo_apply_us = 0;
  // Logical-family filtering parameters (workers run Algorithm 5's
  // rLSN/membership tests against their DPT shard).
  bool use_dpt = false;
  Lsn last_delta_tc_lsn = kInvalidLsn;
  /// SQL family: run membership/rLSN tests worker-side against the shard
  /// even though use_dpt (the logical flag) is off.
  bool sql_dpt_tests = false;
  // Per-partition read-ahead (Log2 / SQL2). The serial prefetchers pace a
  // shared window by claims, which assumes pages are claimed in issue
  // order; partitions reorder claims, so the pipeline prefetches per
  // consumer instead (RingReadAhead); 0 disables it.
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

  /// The worker half of the serial pass's per-record logic: the DPT
  /// shard tests, then the pLSN idempotence test and the leaf apply.
  Status Apply(const Item& item, const SpscRing<Item>& upcoming) {
    // Prefetch exactly the pages the apply path will fetch.
    read_ahead_.MaybeTopUp(upcoming, [this](const Item& next) {
      if (IsControl(next)) return kInvalidPageId;
      const DptOutcome o = Classify(next);
      return o == DptOutcome::kFetch || o == DptOutcome::kTailFetch
                 ? next.pid
                 : kInvalidPageId;
    });
    switch (Classify(item)) {
      case DptOutcome::kSkipDpt:
        shard_.skipped_dpt++;
        return Status::OK();
      case DptOutcome::kSkipRlsn:
        shard_.skipped_rlsn++;
        return Status::OK();
      case DptOutcome::kTailFetch:
        shard_.tail_ops++;  // tail of the log (§4.3): basic algorithm
        break;
      case DptOutcome::kFetch:
        break;
    }

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
  /// What the DPT (shard) says about one routed record — the worker half
  /// of Algorithm 5 lines 5-8 / Algorithm 1 lines 4-8. Shared by the
  /// apply path (which counts the skips) and the read-ahead (which
  /// prefetches exactly the pages the apply path will fetch).
  enum class DptOutcome : uint8_t {
    kFetch,     ///< Page must be fetched for the pLSN test.
    kTailFetch, ///< Same, via the tail-of-log fallback (§4.3).
    kSkipDpt,   ///< Not in the DPT: cannot need redo, no fetch.
    kSkipRlsn,  ///< LSN < rLSN: effect provably durable, no fetch.
  };

  DptOutcome Classify(const Item& item) const {
    if (shared_->use_dpt) {
      if (item.lsn >= shared_->last_delta_tc_lsn) return DptOutcome::kTailFetch;
    } else if (!shared_->sql_dpt_tests) {
      return DptOutcome::kFetch;  // Log0: every op fetches its page
    }
    const DirtyPageTable::Entry* e = dpt_.Find(item.pid);
    if (e == nullptr) return DptOutcome::kSkipDpt;
    if (item.lsn < e->rlsn) return DptOutcome::kSkipRlsn;
    return DptOutcome::kFetch;
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

/// Start the partition fleet, each worker with its DPT shard (`dpt` null:
/// no DPT tests, as in Log0).
RedoWorkers StartWorkers(PipelineShared* shared, const DirtyPageTable* dpt,
                         uint32_t threads) {
  std::vector<DirtyPageTable> shards;
  if (dpt != nullptr) {
    BuildDptShards(*dpt, threads, &shards);
  } else {
    shards.resize(threads);
  }
  const uint32_t pin_cap = PinCacheCapacity(*shared->pool, threads);
  return RedoWorkers(threads, kRingCapacity, [&](uint32_t i) {
    return RedoApplier(shared, std::move(shards[i]), pin_cap);
  });
}

/// Shut down, join, and merge every worker's shard into `out`. Returns
/// the first (lowest-partition) worker error, if any.
Status FinishWorkers(RedoWorkers* workers, RedoResult* out) {
  const Status first_error = workers->Finish();
  double cpu_max = 0;
  for (uint32_t i = 0; i < workers->partitions(); i++) {
    const RedoApplier& w = workers->applier(i);
    const RedoResult& s = w.shard();
    out->applied += s.applied;
    out->skipped_dpt += s.skipped_dpt;
    out->skipped_rlsn += s.skipped_rlsn;
    out->skipped_plsn += s.skipped_plsn;
    out->tail_ops += s.tail_ops;
    out->worker_cpu_us_total += w.cpu_us();
    if (w.cpu_us() > cpu_max) cpu_max = w.cpu_us();
  }
  out->worker_cpu_us_max = cpu_max;
  out->threads_used = workers->partitions();
  return first_error;
}

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

/// Common pipeline epilogue, shared verbatim by both families so the cost
/// model cannot drift between them: charge the scan's residual log pages,
/// shut down and merge the workers, verify the aliasing contract held,
/// then fold the slowest partition's apply CPU into the simulated clock.
/// I/O waits were charged live under the gate, and the pipeline overlaps
/// apply work with them (while one partition stalls on the device the
/// others keep applying), so only the worker CPU exceeding the
/// already-waited stall time extends the pass.
Status FinishPipeline(DataComponent* dc, const EngineOptions& options,
                      const LogManager::Iterator& it,
                      uint64_t log_pages_metered, double stall_ms_at_start,
                      const LogManager::AliasGuard& alias,
                      DispatchClockMeter* scan_clock, RedoWorkers* workers,
                      const Status& scan_status, RedoResult* out) {
  out->log_pages = it.pages_read();  // filled on error exits too
  scan_clock->AddUs((it.pages_read() - log_pages_metered) *
                    options.io.log_page_read_ms * 1e3);
  const Status worker_status = FinishWorkers(workers, out);
  assert(alias.Intact());
  (void)alias;
  scan_clock->Flush();
  const double stall_waited_us =
      (dc->pool().stats().stall_ms - stall_ms_at_start) * 1e3;
  dc->clock().AdvanceUs(
      std::max(0.0, out->worker_cpu_us_max - stall_waited_us));
  DEUTERO_RETURN_NOT_OK(scan_status);
  return worker_status;
}

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

Status RunLogicalRedoParallel(LogManager* log, DataComponent* dc,
                              Lsn bckpt_lsn, bool use_dpt,
                              const DirtyPageTable* dpt,
                              Lsn last_delta_tc_lsn,
                              const std::vector<PageId>* pf_list,
                              const EngineOptions& options, uint32_t threads,
                              RedoResult* out, Lsn count_rows_from) {
  assert(threads >= 2);
  *out = RedoResult();
  const Lsn count_from =
      count_rows_from == kInvalidLsn ? bckpt_lsn : count_rows_from;

  RecoveryPassQuiescence quiesce(dc);
  LogManager::AliasGuard alias(log);

  PipelineShared shared;
  shared.pool = &dc->pool();
  shared.tables.Refresh(dc);
  shared.cpu_per_redo_apply_us = options.io.cpu_per_redo_apply_us;
  shared.use_dpt = use_dpt;
  shared.last_delta_tc_lsn = last_delta_tc_lsn;
  if (pf_list != nullptr && dpt != nullptr) {
    // Log2: data prefetch, per partition (see PipelineShared). The
    // serial PF-list is subsumed: a worker's queue lists the same pages
    // in exactly the order THIS partition will touch them. Same
    // cache-pressure throttle as the serial window, split across workers.
    shared.read_ahead_budget = ReadAheadBudget(dc->pool(), options, threads);
  }

  RedoWorkers workers =
      StartWorkers(&shared, use_dpt ? dpt : nullptr, threads);

  const double stall_ms_at_start = dc->pool().stats().stall_ms;
  DispatchClockMeter scan_clock(&dc->clock(), &shared.pool_gate);
  uint64_t log_pages_metered = 0;
  // charge_io=false: the iterator's clock charges would race the gated
  // worker clock touches; the meter batches them under the gate instead.
  auto it = log->NewIterator(bckpt_lsn, /*charge_io=*/false);
  RedoLeafMemo memo;
  const Status scan_status = [&]() -> Status {
    for (; it.Valid(); it.Next()) {
      const LogRecordView& rec = it.record();
      out->records_scanned++;
      out->dispatch_cpu_us += options.io.cpu_per_log_record_us;
      scan_clock.AddUs(options.io.cpu_per_log_record_us +
                       (it.pages_read() - log_pages_metered) *
                           options.io.log_page_read_ms * 1e3);
      log_pages_metered = it.pages_read();
      ObserveForAtt(rec, &out->att, &out->max_txn_id);
      if (!rec.IsRedoableDataOp()) continue;  // SMOs: done by the DC pass
      out->examined++;
      // Scan-complete row accounting, on the dispatcher: it observes
      // records in log order, and workers never touch the tree counters.
      // Records below count_from are covered by the persisted catalog.
      if (rec.lsn >= count_from) {
        dc->AdjustTableRowCount(rec.table_id, RecordRowDelta(rec));
      }

      // The dispatcher performs the logical->physical mapping (the paper's
      // per-operation index traversal) so the partition of the owning leaf
      // is known; workers never traverse.
      PageId pid = kInvalidPageId;
      if (options.redo_leaf_memo && memo.Hit(rec.table_id, rec.key)) {
        pid = memo.pid;
        out->leaf_memo_hits++;
      } else {
        MutexLock lock(&shared.pool_gate);
        DEUTERO_RETURN_NOT_OK(dc->FindLeafRanged(rec.table_id, rec.key, &pid,
                                                 &memo.lo, &memo.hi,
                                                 &memo.bounded));
        memo.table = rec.table_id;
        memo.pid = pid;
        memo.valid = true;
      }

      RedoWorkItem item;
      item.type = rec.type;
      item.table_id = rec.table_id;
      item.key = rec.key;
      item.lsn = rec.lsn;
      item.pid = pid;
      item.after = rec.after;
      workers.Route(pid, item);
      if (workers.AnyFailed()) break;  // stop scanning early
    }
    return Status::OK();
  }();
  return FinishPipeline(dc, options, it, log_pages_metered,
                        stall_ms_at_start, alias, &scan_clock, &workers,
                        scan_status, out);
}

Status RunSqlRedoParallel(LogManager* log, DataComponent* dc, Lsn bckpt_lsn,
                          const DirtyPageTable* dpt, bool prefetch,
                          const EngineOptions& options, uint32_t threads,
                          RedoResult* out, Lsn count_rows_from) {
  assert(threads >= 2);
  *out = RedoResult();
  const Lsn count_from =
      count_rows_from == kInvalidLsn ? bckpt_lsn : count_rows_from;

  RecoveryPassQuiescence quiesce(dc);
  LogManager::AliasGuard alias(log);

  PipelineShared shared;
  shared.pool = &dc->pool();
  shared.tables.Refresh(dc);
  shared.cpu_per_redo_apply_us = options.io.cpu_per_redo_apply_us;
  if (prefetch) {
    // SQL2: log-driven data prefetch, per partition (see PipelineShared).
    // The routed queue IS the log stream restricted to this partition, so
    // peeking it is the "scan the log ahead of the redo cursor" of the
    // serial prefetcher with the rLSN test applied at issue time.
    shared.read_ahead_budget = ReadAheadBudget(dc->pool(), options, threads);
  }

  shared.sql_dpt_tests = true;
  RedoWorkers workers = StartWorkers(&shared, dpt, threads);

  const double stall_ms_at_start = dc->pool().stats().stall_ms;
  DispatchClockMeter scan_clock(&dc->clock(), &shared.pool_gate);
  uint64_t log_pages_metered = 0;
  // charge_io=false: see the logical pipeline — clock touches outside the
  // gate would race the workers'; the meter batches them under it.
  auto it = log->NewIterator(bckpt_lsn, /*charge_io=*/false);
  const Status scan_status = [&]() -> Status {
    for (; it.Valid(); it.Next()) {
      const LogRecordView& rec = it.record();
      out->records_scanned++;
      out->dispatch_cpu_us += options.io.cpu_per_log_record_us;
      scan_clock.AddUs(options.io.cpu_per_log_record_us +
                       (it.pages_read() - log_pages_metered) *
                           options.io.log_page_read_ms * 1e3);
      log_pages_metered = it.pages_read();

      if (rec.type == LogRecordType::kSmo) {
        // Physiological replay in LSN order; skip without any fetch when
        // the DPT proves no touched page can need redo.
        bool any = false;
        for (const SmoPageImageRef& p : rec.smo_pages) {
          const DirtyPageTable::Entry* e = dpt->Find(p.pid);
          if (e != nullptr && rec.lsn >= e->rlsn) {
            any = true;
            break;
          }
        }
        if (any) {
          // BARRIER: the record's page images span partitions, so it must
          // apply at a deterministic position — after every routed record
          // that precedes it, before any that follows. Workers drop their
          // pins first so the images install on unentangled frames.
          scan_clock.Flush();
          workers.DrainBarrier();
          out->smo_barriers++;
          MutexLock lock(&shared.pool_gate);
          DEUTERO_RETURN_NOT_OK(dc->RedoSmo(rec));
          out->smo_redone++;
        } else {
          // Same allocator fix as the serial pass: a DPT-skipped split
          // still advances the high-water mark / free-list.
          MutexLock lock(&shared.pool_gate);
          dc->NoteSmoAllocation(rec);
        }
        continue;
      }
      if (rec.type == LogRecordType::kSmoMerge) {
        // Merge records span partitions exactly like splits (parent,
        // survivor and victim hash to different workers, and installed
        // images invalidate held pins), so they take the same drain
        // barrier; replay is unconditional, mirroring the serial pass.
        scan_clock.Flush();
        workers.DrainBarrier();
        out->smo_barriers++;
        MutexLock lock(&shared.pool_gate);
        DEUTERO_RETURN_NOT_OK(dc->RedoSmoMerge(rec));
        out->smo_redone++;
        continue;
      }
      if (rec.type == LogRecordType::kCreateTable) {
        // DDL: same barrier discipline, and the worker-visible table
        // registry must be rebuilt while everyone is quiescent.
        scan_clock.Flush();
        workers.DrainBarrier();
        out->smo_barriers++;
        {
          MutexLock lock(&shared.pool_gate);
          DEUTERO_RETURN_NOT_OK(dc->RedoCreateTable(rec));
        }
        shared.tables.Refresh(dc);
        continue;
      }
      if (!rec.IsRedoableDataOp()) continue;
      out->examined++;
      // Scan-complete row accounting (dispatcher-side, log order); the
      // catalog counter already covers records below count_from.
      if (rec.lsn >= count_from) {
        dc->AdjustTableRowCount(rec.table_id, RecordRowDelta(rec));
      }

      // Algorithm 1: the log record names the page — no index traversal.
      // Membership/rLSN tests run worker-side against the partition shard.
      RedoWorkItem item;
      item.type = rec.type;
      item.table_id = rec.table_id;
      item.key = rec.key;
      item.lsn = rec.lsn;
      item.pid = rec.pid;
      item.after = rec.after;
      workers.Route(rec.pid, item);
      if (workers.AnyFailed()) break;
    }
    return Status::OK();
  }();
  return FinishPipeline(dc, options, it, log_pages_metered,
                        stall_ms_at_start, alias, &scan_clock, &workers,
                        scan_status, out);
}

}  // namespace deutero
