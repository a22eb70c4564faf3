// Transactional undo pass — the last pass of every recovery variant, and
// deliberately identical across them ("all variants also perform logical
// undo as the last pass of recovery, and hence this performance is constant
// in all methods", paper §2.1). Losers are rolled back logically: each
// update is compensated by locating the record through the B-tree (it may
// have moved) and restoring the before-image under a CLR.
#pragma once

#include "common/status.h"
#include "dc/data_component.h"
#include "recovery/analysis.h"
#include "wal/log_manager.h"

namespace deutero {

struct UndoResult {
  uint64_t txns_undone = 0;
  uint64_t ops_undone = 0;  ///< One CLR appended per undone op.
  uint32_t threads_used = 1;  ///< Apply partitions (1 == no fan-out).
};

/// Roll back every transaction in `att` (losers), interleaved in descending
/// LSN order as ARIES prescribes. Appends CLRs and final abort records,
/// then forces the log.
///
/// The dispatcher (the calling thread) walks the loser heap and appends
/// every CLR/abort in the same order for every `threads`, so the undo log
/// stream is byte-identical across thread counts. With threads >= 2 the
/// leaf before-image restores of update-undos fan out to hash(pid) apply
/// workers with pin caches and ring-peek read-ahead (the undo pass's page
/// misses are random 5 ms seeks; overlapping them across io_channels is
/// where the time goes). Insert/delete undos change tree structure
/// (splits, merges, row counts), so the dispatcher drains all workers to a
/// barrier and applies those itself. With threads == 1 nothing is routed:
/// every op applies on the dispatcher, through the DataComponent. Recovered
/// state and UndoResult counters are the same for every thread count.
///
/// `max_ops_for_test` (tests only): stop after that many undo operations,
/// mimicking a crash in the middle of the undo pass; the CLRs written so
/// far are flushed, abort records are not. 0 = run to completion.
Status RunUndo(LogManager* log, DataComponent* dc, const ActiveTxnTable& att,
               UndoResult* out, uint64_t max_ops_for_test = 0,
               uint32_t threads = 1);

}  // namespace deutero
