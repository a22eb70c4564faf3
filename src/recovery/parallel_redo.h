// Partitioned parallel redo pipeline (ISSUE 4 tentpole; cf. Wu et al.,
// "Fast Failure Recovery for Main-Memory DBMSs on Multicores"): the redo
// phase of every method — logical Algorithm 5 and physiological
// Algorithm 1 — re-expressed as a single log-scan DISPATCHER stage feeding
// N partition WORKERS over per-partition FIFO queues.
//
// Partitioning invariant. A record is routed by the identity of the leaf
// page it applies to: the PID named by the record (physiological), or the
// PID discovered by the dispatcher's fence-memoized index traversal
// (logical — the tree's structure is frozen during the pass, so the
// traversal result is stable). Hash(pid) -> partition, so every page is
// owned by exactly one worker and per-page log order is preserved by the
// partition's FIFO — which is the whole correctness argument: redo's
// effects are per-page state transitions guarded by the pLSN test, and
// both the test and the transition sequence are per-page serial here,
// exactly as in the serial pass.
//
// Shared-structure contracts, re-drawn for the pass:
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
//    rLSN/membership tests touch partition-local memory.
//  * RecoveryStats/RedoResult — each worker fills a private shard; the
//    dispatcher merges them after the join. Scan-order state (ATT
//    maintenance, the leaf memo, records_scanned/examined) lives on the
//    dispatcher, which observes records in log order.
//  * WAL iterator hand-off — work items carry Slices that alias the log
//    buffer (the zero-copy contract). That is valid across threads exactly
//    while the log's generation counter is unchanged, i.e. no
//    Append/Crash/RestoreSnapshot during the pass — enforced by a
//    LogAliasGuard over the whole pass (redo never appends; parallel undo,
//    which does append CLRs, copies before-images into OWNED work-item
//    strings instead of aliasing — see undo.cc).
//  * SMO/DDL barrier (SQL family) — a kSmo/kCreateTable record spans
//    partitions (multiple page images), so it must apply at a
//    deterministic log position: the dispatcher tells every worker to drop
//    its pinned pages, waits until every queue is fully APPLIED (not
//    merely popped), replays the record itself, then resumes routing.
//    The logical family needs no barrier: its redo pass sees data ops
//    only (the DC pass already replayed SMOs serially).
//  * Simulated time — I/O waits stay on the global clock (the device is
//    shared and its queue is serialized under the pool gate), and the
//    dispatcher's scan CPU is charged to it live in small batches so
//    absolute completion times (prefetch!) keep their meaning. Worker
//    apply CPU is accumulated per partition and folded once at pass end
//    as max(worker CPU) MINUS the I/O stall time the pass already waited
//    out, clamped at zero: the pipeline overlaps apply work with device
//    waits (while one partition stalls, the others keep applying), so an
//    I/O-gated pass converges to the data I/O floor and a cache-resident
//    pass shows the 1/N CPU scaling.
//
// The workers are the shared partition skeleton (pipeline_util.h); this
// file supplies only the redo item and its Apply. recovery_threads == 1
// does not go through this code: the RecoveryManager calls the serial
// RunLogicalRedo/RunSqlRedo. Those pace one shared prefetch window
// (PfListPrefetcher/LogDrivenPrefetcher) and charge the clock per record,
// where the pipeline uses per-worker ring-peek read-ahead and batches
// clock charges (DispatchClockMeter), so running them as a one-partition
// pipeline would move fig2a's simulated times.
#pragma once

#include <cstdint>
#include <vector>

#include "common/options.h"
#include "common/status.h"
#include "common/types.h"
#include "dc/data_component.h"
#include "recovery/dpt.h"
#include "recovery/pipeline_util.h"
#include "recovery/redo.h"
#include "wal/log_manager.h"

namespace deutero {

/// Split a finished DPT into per-partition shards along RedoPartitionOf.
/// rLSN/lastLSN are copied exactly; the union of the shards is the input.
void BuildDptShards(const DirtyPageTable& dpt, uint32_t partitions,
                    std::vector<DirtyPageTable>* shards);

/// Parallel counterpart of RunLogicalRedo (same contract and arguments,
/// plus the worker count). `threads` must be >= 2 — the serial function is
/// the 1-thread pipeline.
Status RunLogicalRedoParallel(LogManager* log, DataComponent* dc,
                              Lsn bckpt_lsn, bool use_dpt,
                              const DirtyPageTable* dpt,
                              Lsn last_delta_tc_lsn,
                              const std::vector<PageId>* pf_list,
                              const EngineOptions& options, uint32_t threads,
                              RedoResult* out,
                              Lsn count_rows_from = kInvalidLsn);

/// Parallel counterpart of RunSqlRedo (same contract and arguments, plus
/// the worker count — including `count_rows_from`, the scan-complete
/// row-accounting boundary). `threads` must be >= 2.
Status RunSqlRedoParallel(LogManager* log, DataComponent* dc, Lsn bckpt_lsn,
                          const DirtyPageTable* dpt, bool prefetch,
                          const EngineOptions& options, uint32_t threads,
                          RedoResult* out, Lsn count_rows_from = kInvalidLsn);

}  // namespace deutero
