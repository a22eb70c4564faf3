#include "recovery/undo.h"

#include <algorithm>
#include <queue>
#include <string>

#include "btree/btree.h"
#include "common/mutex.h"
#include "recovery/pipeline_util.h"
#include "recovery/redo.h"  // ReadAheadBudget

namespace deutero {

namespace {

struct UndoCursor {
  Lsn next = kInvalidLsn;  ///< Next record of this loser to examine.
  TxnId txn = kInvalidTxnId;
  Lsn last_lsn = kInvalidLsn;  ///< Tail of the txn's chain (CLRs included).
  bool operator<(const UndoCursor& other) const {
    return next < other.next;  // max-heap: highest LSN first
  }
};

constexpr size_t kUndoRingCapacity = 4096;  // power of two (SpscRing)

/// One routed update-undo: restore `value` at `key` on leaf `pid` and stamp
/// `lsn` (the CLR's LSN). The before-image is OWNED — the dispatcher keeps
/// appending CLRs, which can realloc the log buffer, so unlike redo no
/// Slice may alias it across threads here. Ring slots persist, so the
/// string assignment on push reuses slot capacity. pid == kInvalidPageId is
/// the control token: release pins (barriers, end of pass).
struct UndoWorkItem {
  PageId pid = kInvalidPageId;
  TableId table_id = kInvalidTableId;
  Key key = 0;
  Lsn lsn = kInvalidLsn;
  std::string value;
};

/// One update-undo apply partition: a pin cache and ring-peek read-ahead.
/// Compared with redo's it has no DPT tests (every restore touches its
/// page) and no apply-CPU fold (the undo pass charges no apply CPU — its
/// cost is I/O, which the shared clock already accounts under the gate).
class UndoApplier {
 public:
  using Item = UndoWorkItem;
  static bool IsControl(const Item& item) {
    return item.pid == kInvalidPageId;
  }

  UndoApplier(BufferPool* pool, Mutex* gate, const TableRegistry* tables,
              uint32_t pin_cache_cap, uint32_t read_ahead_budget)
      : tables_(tables),
        pins_(pool, gate, pin_cache_cap),
        read_ahead_(pool, gate, read_ahead_budget) {}

  void Release() { pins_.ReleaseAll(); }

  Status Apply(const Item& item, const SpscRing<Item>& upcoming) {
    // The undo pass's misses are the expensive random seeks; keeping the
    // budget of them in flight per partition is what the multi-channel
    // SimDisk overlaps. Every restore fetches: prefetch everything peeked.
    read_ahead_.MaybeTopUp(upcoming, [](const Item& next) { return next.pid; });
    PinCache::Pin* pin = nullptr;
    DEUTERO_RETURN_NOT_OK(pins_.FindOrPin(item.pid, &pin));
    uint32_t value_size = 0;
    if (!tables_->Lookup(item.table_id, &value_size)) {
      return Status::NotFound("undo of op on unknown table");
    }
    DEUTERO_RETURN_NOT_OK(LeafApplyUpdate(pin->handle.view(), value_size,
                                          item.key, Slice(item.value)));
    pins_.MarkDirty(pin, item.lsn);
    return Status::OK();
  }

 private:
  const TableRegistry* tables_;
  PinCache pins_;
  RingReadAhead read_ahead_;
};

}  // namespace

Status RunUndo(LogManager* log, DataComponent* dc, const ActiveTxnTable& att,
               UndoResult* out, uint64_t max_ops_for_test, uint32_t threads) {
  threads = std::max(1u, threads);
  *out = UndoResult();
  out->threads_used = threads;

  // Quiesce the monitor and pool callbacks (a live monitor would react to
  // worker-side MarkDirty by appending Δ/BW records from worker threads,
  // racing the dispatcher's CLR appends and breaking the log's
  // byte-identity across thread counts) — but NOT row-count tracking: undo
  // maintains the exact counters apply-side. RecoveryManager already
  // quiesces globally; this makes direct drivers (tests) safe.
  const bool monitor_was = dc->monitor().enabled();
  const bool callbacks_were = dc->pool().callbacks_enabled();
  dc->monitor().set_enabled(false);
  dc->pool().set_callbacks_enabled(false);

  Mutex pool_gate;  // serializes EVERY pool/disk touch (cf. redo)
  // Undo cannot create tables (DDL is a system transaction, never a
  // loser), so the registry is fixed for the whole pass.
  TableRegistry tables;
  tables.Refresh(dc);
  const uint32_t pin_cap = PinCacheCapacity(dc->pool(), threads);
  const uint32_t read_ahead =
      ReadAheadBudget(dc->pool(), dc->options(), threads);
  WorkerPool<UndoApplier> fleet(threads, kUndoRingCapacity, [&](uint32_t) {
    return UndoApplier(&dc->pool(), &pool_gate, &tables, pin_cap, read_ahead);
  });
  // With one thread nothing is routed: every op takes the dispatcher path.
  const bool fan_out = threads > 1;

  const Status st = [&]() -> Status {
    std::priority_queue<UndoCursor> heap;
    for (const auto& [txn, last] : att) {
      heap.push(UndoCursor{last, txn, last});
    }
    // Scratch records hoisted out of the loop: ReadRecordAt copy-assigns
    // into `rec` (LogRecordView::CopyTo reuses string capacity) and the
    // CLR/abort fields below are fully re-assigned per use, so steady-state
    // rollback performs zero heap allocations per record
    // (hotpath_alloc_test).
    LogRecord rec;
    LogRecord clr;
    LogRecord abort;
    abort.type = LogRecordType::kTxnAbort;
    UndoWorkItem item;

    auto finish_txn = [&](const UndoCursor& cur) {
      abort.txn_id = cur.txn;
      abort.prev_lsn = cur.last_lsn;
      log->Append(abort);
      out->txns_undone++;
    };

    // The dispatcher is the only appender: same heap order, same backchain
    // reads, same CLR/abort append sequence for every thread count, so the
    // undo log stream is byte-identical. Only the leaf restore of an
    // update-undo leaves this thread.
    while (!heap.empty()) {
      if (fleet.AnyFailed()) {
        return Status::OK();  // a worker failed; the epilogue surfaces it
      }
      if (max_ops_for_test != 0 && out->ops_undone >= max_ops_for_test) {
        return Status::OK();  // mid-undo crash point: CLRs flushed, no aborts
      }
      UndoCursor cur = heap.top();
      heap.pop();
      if (cur.next == kInvalidLsn) {
        finish_txn(cur);
        continue;
      }
      // No gate: the log buffer is dispatcher-only (workers never touch
      // it) and the clock's log-read charge is atomic.
      DEUTERO_RETURN_NOT_OK(log->ReadRecordAt(cur.next, &rec, true));
      switch (rec.type) {
        case LogRecordType::kUpdate:
        case LogRecordType::kInsert:
        case LogRecordType::kDelete: {
          // Logical undo (§1.2): rediscover the record's page by key.
          PageId pid = kInvalidPageId;
          if (rec.type == LogRecordType::kUpdate) {
            // The traversal touches the pool: gated. Its result is stable
            // against in-flight worker restores — updates never change
            // tree structure, and structure changes below happen only
            // with all workers drained.
            MutexLock lock(&pool_gate);
            DEUTERO_RETURN_NOT_OK(dc->FindLeaf(rec.table_id, rec.key, &pid));
          } else {
            // Structure-changing undo: quiesce the fleet, then run it on
            // this thread (PrepareInsert may log splits BEFORE the CLR;
            // insert-undo may merge AFTER it — both need the tree to
            // itself). The undo of a delete re-inserts the before-image, so
            // it must ensure leaf space first (PrepareInsert splits if the
            // leaf filled up since the delete).
            fleet.DrainBarrier();
            if (rec.type == LogRecordType::kDelete) {
              DEUTERO_RETURN_NOT_OK(
                  dc->PrepareInsert(rec.table_id, rec.key, &pid));
            } else {
              DEUTERO_RETURN_NOT_OK(dc->FindLeaf(rec.table_id, rec.key, &pid));
            }
          }
          clr.type = LogRecordType::kClr;
          clr.txn_id = cur.txn;
          clr.table_id = rec.table_id;
          clr.key = rec.key;
          if (rec.type == LogRecordType::kInsert) {
            clr.after.clear();
          } else {
            clr.after = rec.before;
          }
          clr.pid = pid;
          clr.undo_next_lsn = rec.prev_lsn;
          // Row-count effect of the compensation, carried on the record so
          // a later recovery's scan-complete row accounting replays it.
          clr.clr_row_delta = rec.type == LogRecordType::kInsert  ? -1
                              : rec.type == LogRecordType::kDelete ? 1
                                                                   : 0;
          const Lsn clr_lsn = log->Append(clr);
          switch (rec.type) {
            case LogRecordType::kUpdate:
              if (fan_out) {
                item.pid = pid;
                item.table_id = rec.table_id;
                item.key = rec.key;
                item.lsn = clr_lsn;
                item.value = rec.before;
                fleet.Route(pid, item);
              } else {
                DEUTERO_RETURN_NOT_OK(dc->ApplyUpdate(
                    rec.table_id, pid, rec.key, rec.before, clr_lsn));
              }
              break;
            case LogRecordType::kInsert: {
              // Undoing an insert is a delete: it may leave the leaf
              // underfull and trigger a merge SMO — logged, exactly like
              // the splits PrepareInsert can log during undo of a delete.
              // Undo runs identically for every method after redo, so the
              // merges it performs are deterministic across methods too.
              bool underfull = false;
              DEUTERO_RETURN_NOT_OK(dc->ApplyDelete(rec.table_id, pid, rec.key,
                                                    clr_lsn, &underfull));
              if (underfull) {
                DEUTERO_RETURN_NOT_OK(
                    dc->MaybeMergeLeaf(rec.table_id, rec.key));
              }
              break;
            }
            default:  // kDelete: restore the row
              DEUTERO_RETURN_NOT_OK(dc->ApplyUpsert(rec.table_id, pid, rec.key,
                                                    rec.before, clr_lsn));
              break;
          }
          out->ops_undone++;
          cur.last_lsn = clr_lsn;
          cur.next = rec.prev_lsn;
          if (cur.next == kInvalidLsn) {
            finish_txn(cur);
          } else {
            heap.push(cur);
          }
          break;
        }
        case LogRecordType::kClr:
          // Already-compensated prefix: jump over it.
          cur.next = rec.undo_next_lsn;
          if (cur.next == kInvalidLsn) {
            finish_txn(cur);
          } else {
            heap.push(cur);
          }
          break;
        case LogRecordType::kTxnBegin:
          finish_txn(cur);
          break;
        default:
          // Commit/abort records cannot appear for losers; anything else
          // in the chain is skipped through its backchain.
          cur.next = rec.prev_lsn;
          heap.push(cur);
          break;
      }
    }
    return Status::OK();
  }();

  // Epilogue: drain and stop the fleet (routed restores are applied, never
  // discarded — an op whose CLR was appended must take effect), then
  // restore instrumentation and surface errors.
  const Status fleet_status = fleet.Finish();
  dc->pool().set_callbacks_enabled(callbacks_were);
  dc->monitor().set_enabled(monitor_was);
  DEUTERO_RETURN_NOT_OK(st);
  DEUTERO_RETURN_NOT_OK(fleet_status);
  log->Flush();
  return Status::OK();
}

}  // namespace deutero
