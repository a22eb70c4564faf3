// Analysis passes that build the DPT:
//
//  * RunSqlAnalysis — Algorithm 3: SQL Server's integrated analysis, driven
//    by update-record PIDs and pruned by BW-records. Also builds the active
//    transaction table for undo.
//  * RunDcRecovery — the DC redo/analysis pass of logical recovery (§4.2,
//    Algorithm 4): redoes SMOs so the B-tree is well-formed, then constructs
//    the DPT purely from Δ-records (standard / perfect / reduced modes,
//    App. D), builds the PF-list (App. A.2) and optionally preloads the
//    index (App. A.1).
//
// Both run on the partition skeleton (pipeline_util.h) with `threads` DPT
// shards. One log-scanning dispatcher resolves every DPT mutation to a
// (pid, lsn) event and routes it by RedoPartitionOf(pid) to a shard that
// owns a private DirtyPageTable. DPT operations on distinct PIDs commute
// (the table is logically a map keyed by PID) and every PID's events land
// in one FIFO, so per-page event order — the only order the DPT semantics
// depend on — is the scan's. With threads == 1 the single shard applies
// inline on the dispatcher's thread: no thread, no queue.
//
// What stays on the dispatcher, in log order: the ActiveTxnTable and
// max_txn_id (assembled in LSN order, as undo requires), redo_start_lsn,
// SMO/DDL redo in the DC pass (RedoSmo/RedoSmoMerge/RedoCreateTable touch
// the buffer pool and the simulated clock — shards never do), the prev-Δ
// TC-LSN chain that resolves each dirty-set entry's rLSN proxy before
// routing, and all scan counters. Shards see only resolved scalars, so no
// log-buffer Slice crosses a thread boundary and no alias guard is needed.
//
// PF-list (App. A.2): global first-mention DirtySet order. The dispatcher
// stamps every routed dirty-set entry with a global sequence number; a
// shard records (seq, pid) at its shard-local first mention — which IS the
// global first mention, since a PID maps to exactly one shard — and the
// merged list is sorted by seq.
//
// Simulated time. cpu_per_dpt_update_us is charged per DPT mutation event,
// folded once at pass end (nothing in an analysis pass depends on absolute
// time between records). Shards count their events and only the slowest
// shard's share is charged — deterministic, independent of thread
// scheduling — so DPT construction scales with recovery_threads the way
// parallel redo's apply CPU does; a single shard's share is the whole
// count. Log-page read I/O stays on the dispatcher's iterator (charge_io).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/options.h"
#include "common/status.h"
#include "common/types.h"
#include "dc/data_component.h"
#include "recovery/dpt.h"
#include "sim/clock.h"
#include "wal/log_manager.h"

namespace deutero {

/// Loser-candidate table: txn id -> LSN of its last logged record.
///
/// Storage: a flat vector of (txn, lsn) pairs with linear probes instead of
/// unordered_map. Active-transaction counts are small (tens at most — every
/// live txn holds locks), so a contiguous scan beats hashing: no node
/// allocations per insert, no pointer chasing per record during analysis and
/// the logical redo scan, and erase is a swap-with-back. Iteration order is
/// unspecified (as it was with unordered_map); undo's loser heap orders by
/// LSN, which is unique, so recovery output does not depend on it.
class ActiveTxnTable {
 public:
  using value_type = std::pair<TxnId, Lsn>;
  using iterator = std::vector<value_type>::iterator;
  using const_iterator = std::vector<value_type>::const_iterator;

  iterator begin() { return entries_.begin(); }
  iterator end() { return entries_.end(); }
  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  void clear() { entries_.clear(); }

  iterator find(TxnId txn) {
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->first == txn) return it;
    }
    return entries_.end();
  }
  const_iterator find(TxnId txn) const {
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->first == txn) return it;
    }
    return entries_.end();
  }

  size_t count(TxnId txn) const { return find(txn) == end() ? 0 : 1; }

  /// Mapped LSN of `txn`. Unlike map::at this does not throw on a missing
  /// key: it asserts in debug builds and returns kInvalidLsn in release.
  Lsn at(TxnId txn) const {
    const const_iterator it = find(txn);
    assert(it != end() && "ActiveTxnTable::at on missing txn");
    return it == end() ? kInvalidLsn : it->second;
  }

  Lsn& operator[](TxnId txn) {
    const iterator it = find(txn);
    if (it != entries_.end()) return it->second;
    entries_.emplace_back(txn, kInvalidLsn);
    return entries_.back().second;
  }

  std::pair<iterator, bool> try_emplace(TxnId txn, Lsn lsn) {
    const iterator it = find(txn);
    if (it != entries_.end()) return {it, false};
    entries_.emplace_back(txn, lsn);
    return {entries_.end() - 1, true};
  }

  size_t erase(TxnId txn) {
    const iterator it = find(txn);
    if (it == entries_.end()) return 0;
    *it = entries_.back();
    entries_.pop_back();
    return 1;
  }

 private:
  std::vector<value_type> entries_;
};

/// RAII: quiesce normal-operation instrumentation (dirty monitor, pool
/// callbacks) for the duration of a recovery pass, restoring the previous
/// state on exit. RecoveryManager already does this globally, but the pass
/// functions must be safe when driven directly (tests, tools): a live
/// monitor would react to redo-time MarkDirty by APPENDING Δ/BW records to
/// the very log being scanned — corrupting the recovery log and, since the
/// scan holds zero-copy LogRecordViews into the log buffer, potentially
/// invalidating the view mid-record when the append reallocates it.
class RecoveryPassQuiescence {
 public:
  explicit RecoveryPassQuiescence(DataComponent* dc)
      : dc_(dc),
        monitor_was_(dc->monitor().enabled()),
        callbacks_were_(dc->pool().callbacks_enabled()),
        tracking_was_(dc->row_count_tracking()) {
    dc_->monitor().set_enabled(false);
    dc_->pool().set_callbacks_enabled(false);
    // Redo passes account row counts scan-complete (every record's delta
    // exactly once, in LSN order, independent of the redo skip tests);
    // apply-side maintenance must not double-count the applied subset.
    dc_->SetRowCountTracking(false);
  }
  ~RecoveryPassQuiescence() {
    dc_->SetRowCountTracking(tracking_was_);
    dc_->pool().set_callbacks_enabled(callbacks_were_);
    dc_->monitor().set_enabled(monitor_was_);
  }
  RecoveryPassQuiescence(const RecoveryPassQuiescence&) = delete;
  RecoveryPassQuiescence& operator=(const RecoveryPassQuiescence&) = delete;

 private:
  DataComponent* dc_;
  bool monitor_was_;
  bool callbacks_were_;
  bool tracking_was_;
};

/// Row-count effect of one redoable data-op record: +1 insert, -1 delete,
/// a CLR's carried compensation delta, 0 otherwise. Summed over the redo
/// scan (clamped per record) this reproduces the runtime counter exactly.
template <typename RecordT>
int64_t RecordRowDelta(const RecordT& rec) {
  switch (rec.type) {
    case LogRecordType::kInsert:
      return 1;
    case LogRecordType::kDelete:
      return -1;
    case LogRecordType::kClr:
      return rec.clr_row_delta;
    default:
      return 0;
  }
}

/// Maintain the ATT incrementally from a scanned record. Templated over the
/// record representation so the zero-copy LogRecordView of recovery scans
/// and the owning LogRecord of tests both work without conversion.
template <typename RecordT>
void ObserveForAtt(const RecordT& rec, ActiveTxnTable* att,
                   TxnId* max_txn_id) {
  switch (rec.type) {
    case LogRecordType::kTxnBegin:
    case LogRecordType::kUpdate:
    case LogRecordType::kInsert:
    case LogRecordType::kDelete:
    case LogRecordType::kClr:
      (*att)[rec.txn_id] = rec.lsn;
      if (max_txn_id != nullptr && rec.txn_id > *max_txn_id) {
        *max_txn_id = rec.txn_id;
      }
      break;
    case LogRecordType::kTxnCommit:
    case LogRecordType::kTxnAbort:
      att->erase(rec.txn_id);
      if (max_txn_id != nullptr && rec.txn_id > *max_txn_id) {
        *max_txn_id = rec.txn_id;
      }
      break;
    case LogRecordType::kBeginCheckpoint:
      // The checkpoint's captured ATT seeds transactions whose records all
      // precede the redo scan start point (idle losers).
      for (size_t i = 0; i < rec.att_txn_ids.size(); i++) {
        const TxnId txn = rec.att_txn_ids[i];
        auto [it, inserted] = att->try_emplace(txn, rec.att_last_lsns[i]);
        if (!inserted && it->second < rec.att_last_lsns[i]) {
          it->second = rec.att_last_lsns[i];
        }
        if (max_txn_id != nullptr && txn > *max_txn_id) *max_txn_id = txn;
      }
      break;
    default:
      break;
  }
}

struct SqlAnalysisResult {
  DirtyPageTable dpt;
  ActiveTxnTable att;
  TxnId max_txn_id = 0;
  uint64_t bw_records_seen = 0;
  uint64_t delta_records_seen = 0;  ///< Present on the common log; ignored.
  uint64_t records_scanned = 0;
  uint64_t log_pages = 0;
  /// DPT mutation events performed (adds/updates/prune probes/removals) —
  /// the unit cpu_per_dpt_update_us is charged per. The same for every
  /// shard count on the same log.
  uint64_t dpt_updates = 0;
  uint32_t threads_used = 1;       ///< DPT shards (1 == inline).
  double shard_cpu_us_max = 0;     ///< Slowest shard's charged DPT CPU.
  double shard_cpu_us_total = 0;   ///< Sum over shards (== max at 1).
  /// Where redo must start. Equal to the analysis start under penultimate
  /// checkpointing; under ARIES checkpointing (§3.1) it reaches back to the
  /// oldest rLSN of the DPT captured in the checkpoint record.
  Lsn redo_start_lsn = kInvalidLsn;
};

/// Algorithm 3 over [bckpt_lsn, stable end) with `threads` DPT shards.
/// When `clock` is non-null, DPT mutation CPU (`cpu_per_dpt_update_us` per
/// event, slowest shard) is charged to it at pass end. RecoveryManager
/// passes the engine clock; direct callers that only care about the tables
/// may omit it. The DPT, ATT, redo_start_lsn and every counter are the same
/// for every thread count.
Status RunSqlAnalysis(LogManager* log, Lsn bckpt_lsn, SqlAnalysisResult* out,
                      SimClock* clock = nullptr,
                      double cpu_per_dpt_update_us = 0, uint32_t threads = 1);

struct DcRecoveryResult {
  DirtyPageTable dpt;
  std::vector<PageId> pf_list;  ///< First-mention DirtySet order (App. A.2).
  Lsn last_delta_tc_lsn = kInvalidLsn;  ///< Tail-mode boundary (§4.3).
  uint64_t delta_records_seen = 0;
  uint64_t bw_records_seen = 0;  ///< Seen on the common log; ignored.
  uint64_t smo_redone = 0;
  uint64_t records_scanned = 0;
  uint64_t log_pages = 0;
  uint64_t dpt_updates = 0;      ///< DPT mutation events (see SqlAnalysisResult).
  uint32_t threads_used = 1;
  double shard_cpu_us_max = 0;
  double shard_cpu_us_total = 0;
};

/// DC recovery over [bckpt_lsn, stable end) with `threads` DPT shards.
/// `build_dpt` is false for Log0 (which still needs SMO redo for a
/// well-formed tree; with no DPT to shard it runs one inline shard);
/// `preload_index` corresponds to Log2. DPT, PF-list (exact order) and
/// counters are the same for every thread count.
Status RunDcRecovery(LogManager* log, DataComponent* dc, Lsn bckpt_lsn,
                     DptMode mode, bool build_dpt, bool preload_index,
                     DcRecoveryResult* out, uint32_t threads = 1);

}  // namespace deutero
