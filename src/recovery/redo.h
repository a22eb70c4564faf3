// The five redo engines of the paper's evaluation (§5.2), one dispatcher
// loop per method family:
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
//
// Partitioning (cf. Wu et al., "Fast Failure Recovery for Main-Memory
// DBMSs on Multicores"). Each family's loop is a log-scan DISPATCHER; with
// `threads` >= 2 it feeds that many partition WORKERS over per-partition
// FIFO queues (the shared skeleton of recovery/pipeline_util.h). A record
// is routed by the identity of the leaf page it applies to: the PID named
// by the record (physiological), or the PID discovered by the
// dispatcher's fence-memoized index traversal (logical — the tree's
// structure is frozen during the pass, so the traversal result is stable).
// Hash(pid) -> partition, so every page is owned by exactly one worker and
// per-page log order is preserved by the partition's FIFO — which is the
// whole correctness argument: redo's effects are per-page state
// transitions guarded by the pLSN test, and both the test and the
// transition sequence are per-page serial here, exactly as at one thread.
//
// Shared-structure contracts when fanning out:
//  * Buffer pool — NOT thread-safe by itself; every pool call (Get, pin
//    release, MarkDirty bookkeeping, prefetch pump, eviction/flush) is
//    serialized by a pass-wide pool gate (one mutex). The expensive part —
//    the leaf binary search/shift/copy and the pLSN read — runs OUTSIDE
//    the gate on the pinned frame, which is safe because the frame's page
//    belongs to the applying partition. Workers amortize the gate with a
//    small pin cache: consecutive records hitting the same leaf (log
//    locality) reuse one pinned handle, and re-stamping an already-dirty
//    held page skips the gated dirty bookkeeping entirely.
//  * DPT — read-only during redo; each worker receives its own shard
//    (exactly the entries whose PIDs hash to its partition) so the
//    rLSN/membership tests touch partition-local memory. The worker and
//    the one-thread path make the same test (ClassifyRedo).
//  * RecoveryStats/RedoResult — each worker fills a private shard; the
//    dispatcher merges them after the join. Scan-order state (ATT
//    maintenance, the leaf memo, records_scanned/examined, scan-complete
//    row accounting) lives on the dispatcher, which observes records in
//    log order.
//  * WAL iterator hand-off — work items carry Slices that alias the log
//    buffer (the zero-copy contract). That is valid across threads exactly
//    while the log's generation counter is unchanged, i.e. no
//    Append/Crash/RestoreSnapshot during the pass — enforced by a
//    LogManager::AliasGuard over the whole pass (redo never appends;
//    parallel undo, which does append CLRs, copies before-images into
//    OWNED work-item strings instead of aliasing — see undo.cc).
//  * SMO/DDL barrier (SQL family) — a kSmo/kSmoMerge/kCreateTable record
//    spans partitions (multiple page images), so it must apply at a
//    deterministic log position: the dispatcher tells every worker to drop
//    its pinned pages, waits until every queue is fully APPLIED (not
//    merely popped), replays the record itself under the gate, then
//    resumes routing. The logical family needs no barrier: its redo pass
//    sees data ops only (the DC pass already replayed SMOs serially).
//  * Simulated time — I/O waits stay on the global clock (the device is
//    shared and its queue is serialized under the pool gate), and the
//    dispatcher's scan CPU and log-page reads are charged to it live in
//    batches of 32 records (its iterator runs charge_io=false) so absolute
//    completion times (prefetch!) keep their meaning. Worker apply CPU is
//    accumulated per partition and folded once at pass end as max(worker
//    CPU) MINUS the I/O stall time the pass already waited out, clamped at
//    zero: the pipeline overlaps apply work with device waits (while one
//    partition stalls, the others keep applying), so an I/O-gated pass
//    converges to the data I/O floor and a cache-resident pass shows the
//    1/N CPU scaling.
//
// With `threads` == 1 nothing is routed, as in undo: there is no worker,
// queue, DPT shard, alias guard or batched clock. Each data op passes the
// same DPT test and then the pLSN test and applies on the dispatcher,
// through the DataComponent; the iterator charges log pages itself
// (charge_io=true) and scan and apply CPU go to the clock per record. Data
// prefetch is one shared window (PfListPrefetcher / LogDrivenPrefetcher)
// pumped from the scan, where the partitions peek their own queues
// (RingReadAhead). Structure records replay on the dispatcher with no
// barrier. These are the simulated charges fig2a's serial tables and
// tests/golden/serial_pass_golden.txt pin.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
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

  // Partition measurements. At threads == 1 nothing is routed and these
  // keep their defaults (the scan and apply CPU go to the clock directly).
  uint32_t threads_used = 1;       ///< Partition workers (1 = no fan-out).
  double dispatch_cpu_us = 0;      ///< Dispatcher scan CPU.
  double worker_cpu_us_max = 0;    ///< Slowest partition's apply CPU.
  double worker_cpu_us_total = 0;  ///< Sum of all partitions' apply CPU.
  uint64_t smo_barriers = 0;       ///< Drain barriers taken (SQL family).
};

/// Memo of the last logical-redo traversal: consecutive records whose keys
/// land inside the same leaf's fence range skip the index walk entirely.
/// Valid for a whole redo pass — the tree's structure is frozen then (all
/// SMOs were replayed by the DC pass; redo applies record ops only).
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

/// What the DPT says about one data record's page: Algorithm 5 lines 5-8
/// (logical) / Algorithm 1 lines 4-8 (SQL).
enum class RedoDptOutcome : uint8_t {
  kFetch,      ///< Page must be fetched for the pLSN test.
  kTailFetch,  ///< Same, via the tail-of-log fallback (§4.3).
  kSkipDpt,    ///< Not in the DPT: cannot need redo, no fetch.
  kSkipRlsn,   ///< LSN < rLSN: effect provably durable, no fetch.
};

/// `tail_from` of a pass without a log tail the DPT cannot vouch for (the
/// SQL family: its DPT covers the whole log).
inline constexpr Lsn kNoRedoTail = std::numeric_limits<Lsn>::max();

/// The one redo DPT test. `dpt` null: no DPT tests, every op fetches its
/// page (Log0). Records at or after `tail_from` — the last Δ-record's
/// TC-LSN in Log1/Log2 — fall back to the basic algorithm (§4.3).
inline RedoDptOutcome ClassifyRedo(const DirtyPageTable* dpt, Lsn tail_from,
                                   Lsn lsn, PageId pid) {
  if (dpt == nullptr) return RedoDptOutcome::kFetch;
  if (lsn >= tail_from) return RedoDptOutcome::kTailFetch;
  const DirtyPageTable::Entry* e = dpt->Find(pid);
  if (e == nullptr) return RedoDptOutcome::kSkipDpt;
  if (lsn < e->rlsn) return RedoDptOutcome::kSkipRlsn;
  return RedoDptOutcome::kFetch;
}

/// The data-prefetch window both redo families use, throttled by cache
/// size: read-ahead that fills the cache faster than redo consumes it
/// evicts pages before their use (the paper's "prefetching proceeds too
/// quickly" hazard, App. A.2). ONE definition shared by the one-thread
/// prefetchers and the partitions' read-ahead budget.
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

/// Split a finished DPT into per-partition shards along RedoPartitionOf.
/// rLSN/lastLSN are copied exactly; the union of the shards is the input.
void BuildDptShards(const DirtyPageTable& dpt, uint32_t partitions,
                    std::vector<DirtyPageTable>* shards);

/// TC redo pass for the logical family.
///   dpt == nullptr -> Log0 semantics (every op fetches its page).
///   dpt != nullptr -> Algorithm 5, tail-of-log from `last_delta_tc_lsn`.
///   pf_list != nullptr (with a DPT) -> Log2 prefetching.
/// `count_rows_from` bounds the scan-complete row accounting (see
/// RunSqlRedo). `threads` partitions apply the data ops (see above).
Status RunLogicalRedo(LogManager* log, DataComponent* dc, Lsn bckpt_lsn,
                      const DirtyPageTable* dpt, Lsn last_delta_tc_lsn,
                      const std::vector<PageId>* pf_list,
                      const EngineOptions& options, RedoResult* out,
                      Lsn count_rows_from = kInvalidLsn, uint32_t threads = 1);

/// Redo pass for the SQL family (Algorithm 1), optionally with log-driven
/// prefetch (SQL2). `count_rows_from` bounds the scan-complete row-count
/// accounting: records below it are already reflected in the catalog's
/// persisted counters (ARIES checkpointing starts the scan before the
/// bCkpt; penultimate starts at it). Defaults to the scan start. `threads`
/// partitions apply the data ops (see above).
Status RunSqlRedo(LogManager* log, DataComponent* dc, Lsn bckpt_lsn,
                  const DirtyPageTable* dpt, bool prefetch,
                  const EngineOptions& options, RedoResult* out,
                  Lsn count_rows_from = kInvalidLsn, uint32_t threads = 1);

}  // namespace deutero
