// The five redo engines of the paper's evaluation (§5.2):
//
//   RunLogicalRedo covers Log0 (Algorithm 2: basic logical redo), Log1
//   (Algorithm 5: DPT-assisted with the tail-of-log fallback) and Log2
//   (Algorithm 5 + PF-list prefetch; the index preload already happened in
//   the DC pass).
//
//   RunSqlRedo covers SQL1 (Algorithm 1: physiological redo with DPT and
//   rLSN test) and SQL2 (+ log-driven prefetch).
//
// Both also maintain the active-transaction table for the logical families
// (the SQL family gets it from analysis) and replay CLRs (redo-only, ARIES).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/options.h"
#include "common/status.h"
#include "common/types.h"
#include "dc/data_component.h"
#include "recovery/analysis.h"
#include "recovery/dpt.h"
#include "recovery/stats.h"
#include "wal/log_manager.h"

namespace deutero {

struct RedoResult {
  uint64_t records_scanned = 0;
  uint64_t log_pages = 0;
  uint64_t examined = 0;
  uint64_t applied = 0;
  uint64_t skipped_dpt = 0;
  uint64_t skipped_rlsn = 0;
  uint64_t skipped_plsn = 0;
  uint64_t tail_ops = 0;
  uint64_t smo_redone = 0;  ///< SQL family only (logical did them earlier).
  /// Logical family: index traversals skipped by the last-leaf memo.
  uint64_t leaf_memo_hits = 0;
  ActiveTxnTable att;       ///< Filled by the logical families.
  TxnId max_txn_id = 0;

  // Parallel pipeline measurements (defaults describe the serial pass).
  uint32_t threads_used = 1;       ///< Partition workers (1 = serial).
  double dispatch_cpu_us = 0;      ///< Dispatcher scan CPU (parallel only).
  double worker_cpu_us_max = 0;    ///< Slowest partition's apply CPU.
  double worker_cpu_us_total = 0;  ///< Sum of all partitions' apply CPU.
  uint64_t smo_barriers = 0;       ///< Drain barriers taken (SQL family).
};

/// Memo of the last logical-redo traversal: consecutive records whose keys
/// land inside the same leaf's fence range skip the index walk entirely.
/// Valid for a whole redo pass — the tree's structure is frozen then (all
/// SMOs were replayed by the DC pass; redo applies record ops only). ONE
/// definition shared by the serial pass and the parallel dispatcher: the
/// parallel/serial equivalence guarantee (identical leaf_memo_hits)
/// depends on both using the same fence policy.
struct RedoLeafMemo {
  TableId table = kInvalidTableId;
  PageId pid = kInvalidPageId;
  Key lo = 0;
  Key hi = 0;
  bool bounded = false;
  bool valid = false;

  bool Hit(TableId t, Key key) const {
    return valid && t == table && key >= lo && (!bounded || key < hi);
  }
};

/// The data-prefetch window both redo families use, throttled by cache
/// size: read-ahead that fills the cache faster than redo consumes it
/// evicts pages before their use (the paper's "prefetching proceeds too
/// quickly" hazard, App. A.2). ONE definition shared by the serial passes
/// and the parallel pipeline's per-partition read-ahead budget.
inline uint32_t RedoPrefetchWindow(const BufferPool& pool,
                                   const EngineOptions& options) {
  return std::min<uint32_t>(
      options.prefetch_window,
      std::max<uint32_t>(4, static_cast<uint32_t>(pool.capacity() / 8)));
}

/// Per-worker read-ahead budget of the partitioned redo and undo passes:
/// the prefetch window split across partitions, at least 2 pages each.
inline uint32_t ReadAheadBudget(const BufferPool& pool,
                                const EngineOptions& options,
                                uint32_t threads) {
  const uint32_t window = RedoPrefetchWindow(pool, options);
  return std::max<uint32_t>(2, window / (threads == 0 ? 1 : threads));
}

/// TC redo pass for the logical family.
///   use_dpt=false  -> Log0 semantics (every op fetches its page).
///   use_dpt=true   -> Algorithm 5; `dpt` and `last_delta_tc_lsn` required.
///   pf_list != nullptr -> Log2 prefetching.
Status RunLogicalRedo(LogManager* log, DataComponent* dc, Lsn bckpt_lsn,
                      bool use_dpt, const DirtyPageTable* dpt,
                      Lsn last_delta_tc_lsn,
                      const std::vector<PageId>* pf_list,
                      const EngineOptions& options, RedoResult* out,
                      Lsn count_rows_from = kInvalidLsn);

/// Redo pass for the SQL family (Algorithm 1), optionally with log-driven
/// prefetch (SQL2). `count_rows_from` bounds the scan-complete row-count
/// accounting: records below it are already reflected in the catalog's
/// persisted counters (ARIES checkpointing starts the scan before the
/// bCkpt; penultimate starts at it). Defaults to the scan start.
Status RunSqlRedo(LogManager* log, DataComponent* dc, Lsn bckpt_lsn,
                  const DirtyPageTable* dpt, bool prefetch,
                  const EngineOptions& options, RedoResult* out,
                  Lsn count_rows_from = kInvalidLsn);

}  // namespace deutero
