#include "recovery/analysis.h"

#include <algorithm>
#include <cassert>
#include <utility>
#include <vector>

#include "recovery/pipeline_util.h"

namespace deutero {

namespace {

constexpr size_t kDptRingCapacity = 4096;  // power of two (SpscRing)

/// One resolved DPT mutation event. The dispatcher resolves every LSN
/// (record LSN, FW-LSN, prev-Δ TC-LSN, per-entry perfect LSN) before
/// routing, so a shard applies scalars with no per-mode logic of its own
/// beyond the prune comparison kind.
struct DptWorkItem {
  enum class Kind : uint8_t {
    kControl = 0,   ///< Release token (default-constructed); no DPT work.
    kUpsert,        ///< AddOrUpdate(pid, lsn); first mention may record seq.
    kSeed,          ///< Checkpoint DPT seed: AddExact(pid, lsn, lsn) if absent.
    kRemove,        ///< Remove(pid) (merge victim, free-list purge).
    kPruneSql,      ///< Algorithm 3 prune: lastLSN <= lsn removes.
    kPruneDc,       ///< Algorithm 4 prune: lastLSN <  lsn removes.
    kPruneReduced,  ///< App. D.2 prune: lastLSN < lsn removes, no rLSN bump.
  };
  Kind kind = Kind::kControl;
  PageId pid = kInvalidPageId;
  Lsn lsn = kInvalidLsn;
  uint64_t seq = 0;  ///< Global DirtySet mention order (PF-list; DC pass).
};

/// One shard: a private DirtyPageTable, mutated with no locking at all —
/// the shard is the only state its worker touches. It touches no clock
/// either: the pass charges `ops` once, at its end.
class DptApplier {
 public:
  using Item = DptWorkItem;
  static bool IsControl(const Item& item) {
    return item.kind == Item::Kind::kControl;
  }

  explicit DptApplier(bool track_first_mentions)
      : track_(track_first_mentions) {}

  void Release() {}

  Status Apply(const Item& item, const SpscRing<Item>& /*upcoming*/) {
    ops++;
    switch (item.kind) {
      case Item::Kind::kUpsert:
        if (track_ && dpt.Find(item.pid) == nullptr) {
          first_mentions.emplace_back(item.seq, item.pid);
        }
        dpt.AddOrUpdate(item.pid, item.lsn);
        break;
      case Item::Kind::kSeed:
        if (dpt.Find(item.pid) == nullptr) {
          dpt.AddExact(item.pid, item.lsn, item.lsn);
        }
        break;
      case Item::Kind::kRemove:
        dpt.Remove(item.pid);
        break;
      case Item::Kind::kPruneSql: {
        DirtyPageTable::Entry* e = dpt.Find(item.pid);
        if (e == nullptr) break;
        if (e->last_lsn <= item.lsn) {
          dpt.Remove(item.pid);
        } else if (e->rlsn < item.lsn) {
          e->rlsn = item.lsn;
        }
        break;
      }
      case Item::Kind::kPruneDc: {
        DirtyPageTable::Entry* e = dpt.Find(item.pid);
        if (e == nullptr) break;
        if (e->last_lsn < item.lsn) {
          dpt.Remove(item.pid);
        } else if (e->rlsn < item.lsn) {
          e->rlsn = item.lsn;
        }
        break;
      }
      case Item::Kind::kPruneReduced: {
        DirtyPageTable::Entry* e = dpt.Find(item.pid);
        if (e != nullptr && e->last_lsn < item.lsn) dpt.Remove(item.pid);
        break;
      }
      case Item::Kind::kControl:
        break;  // handled by the worker
    }
    return Status::OK();
  }

  DirtyPageTable dpt;
  std::vector<std::pair<uint64_t, PageId>> first_mentions;
  uint64_t ops = 0;  ///< DPT mutation events applied.

 private:
  bool track_;
};

using DptShards = WorkerPool<DptApplier>;

DptShards StartShards(uint32_t threads, bool track_first_mentions) {
  return DptShards(threads, kDptRingCapacity, [&](uint32_t) {
    return DptApplier(track_first_mentions);
  });
}

/// Stop the shards and merge them into `dpt`, folding the per-shard op
/// counts: `*total_ops` is the serial-equivalent event count, `*max_ops`
/// the slowest shard's (the pass's critical path). A single shard is
/// moved, not copied, so its table is exactly the serial scan's.
void FinishShards(DptShards* shards, DirtyPageTable* dpt, uint64_t* total_ops,
                  uint64_t* max_ops, std::vector<PageId>* pf_list) {
  (void)shards->Finish();  // shard Apply cannot fail
  *total_ops = 0;
  *max_ops = 0;
  std::vector<std::pair<uint64_t, PageId>> mentions;
  for (uint32_t i = 0; i < shards->partitions(); i++) {
    DptApplier& w = shards->applier(i);
    *total_ops += w.ops;
    *max_ops = std::max(*max_ops, w.ops);
    if (shards->partitions() == 1) {
      *dpt = std::move(w.dpt);
    } else {
      w.dpt.ForEach([&](PageId pid, const DirtyPageTable::Entry& e) {
        dpt->AddExact(pid, e.rlsn, e.last_lsn);
      });
    }
    mentions.insert(mentions.end(), w.first_mentions.begin(),
                    w.first_mentions.end());
  }
  if (pf_list != nullptr) {
    // Each shard records its mentions in seq order: one shard needs no sort.
    if (shards->partitions() > 1) std::sort(mentions.begin(), mentions.end());
    pf_list->reserve(mentions.size());
    for (const auto& [seq, pid] : mentions) pf_list->push_back(pid);
  }
}

/// Algorithm 4's DC-DPT-UPDATE plus the App. D variants, as routed events.
/// Each dirty-set entry's conservative rLSN proxy is resolved here (it
/// depends on scan-order state: the prev-Δ TC-LSN chain) and stamped with
/// the global mention sequence; the written set becomes prune events with
/// the mode's comparison.
void RouteDelta(const LogRecordView& rec, Lsn prev_delta_lsn, DptMode mode,
                uint64_t* seq, DptShards* shards) {
  DptWorkItem item;
  // Dirty set: assign conservative rLSN proxies.
  item.kind = DptWorkItem::Kind::kUpsert;
  for (size_t i = 0; i < rec.dirty_set.size(); i++) {
    item.pid = rec.dirty_set[i];
    item.seq = (*seq)++;
    switch (mode) {
      case DptMode::kPerfect:
        // App. D.1: the Δ-record carries the exact update LSNs.
        item.lsn = rec.dirty_lsns.at(i);
        break;
      case DptMode::kStandard:
        // Algorithm 4 lines 10-15.
        item.lsn = (rec.has_fw_fields && i >= rec.first_dirty)
                       ? rec.fw_lsn
                       : prev_delta_lsn;
        break;
      case DptMode::kReduced:
        // App. D.2: no FW-LSN/FirstDirty; everything gets the previous
        // Δ-record's TC-LSN.
        item.lsn = prev_delta_lsn;
        break;
    }
    shards->Route(item.pid, item);
  }

  // Written set: prune.
  switch (mode) {
    case DptMode::kStandard:
    case DptMode::kPerfect:
      // Algorithm 4 lines 16-22.
      if (!rec.has_fw_fields) return;
      item.kind = DptWorkItem::Kind::kPruneDc;
      item.lsn = rec.fw_lsn;
      break;
    case DptMode::kReduced:
      // App. D.2: the flushed set may prune pages added by PRIOR Δ-records
      // only. Entries added by this record carry lastLSN == prev_delta_lsn;
      // strictly older proxies identify prior-record entries.
      item.kind = DptWorkItem::Kind::kPruneReduced;
      item.lsn = prev_delta_lsn;
      break;
  }
  for (PageId pid : rec.written_set) {
    item.pid = pid;
    shards->Route(item.pid, item);
  }
}

}  // namespace

Status RunSqlAnalysis(LogManager* log, Lsn bckpt_lsn, SqlAnalysisResult* out,
                      SimClock* clock, double cpu_per_dpt_update_us,
                      uint32_t threads) {
  threads = std::max(1u, threads);
  *out = SqlAnalysisResult();
  out->redo_start_lsn = bckpt_lsn;
  DptShards shards = StartShards(threads, /*track_first_mentions=*/false);
  DptWorkItem item;
  auto it = log->NewIterator(bckpt_lsn, /*charge_io=*/true);
  for (; it.Valid(); it.Next()) {
    const LogRecordView& rec = it.record();
    out->records_scanned++;
    ObserveForAtt(rec, &out->att, &out->max_txn_id);
    switch (rec.type) {
      case LogRecordType::kBeginCheckpoint:
        // ARIES checkpointing (§3.1): seed the DPT from the captured table;
        // the redo scan must reach back to its oldest rLSN.
        item.kind = DptWorkItem::Kind::kSeed;
        for (size_t i = 0; i < rec.ckpt_dpt_pids.size(); i++) {
          item.pid = rec.ckpt_dpt_pids[i];
          item.lsn = rec.ckpt_dpt_rlsns[i];
          shards.Route(item.pid, item);
          if (item.lsn != kInvalidLsn && item.lsn < out->redo_start_lsn) {
            out->redo_start_lsn = item.lsn;
          }
        }
        break;
      case LogRecordType::kUpdate:
      case LogRecordType::kInsert:
      case LogRecordType::kDelete:
      case LogRecordType::kClr:
        // Algorithm 3 lines 5-10: first mention adds (PID, rLSN = LSN);
        // later mentions advance lastLSN.
        item.kind = DptWorkItem::Kind::kUpsert;
        item.pid = rec.pid;
        item.lsn = rec.lsn;
        shards.Route(item.pid, item);
        break;
      case LogRecordType::kSmo:
      case LogRecordType::kCreateTable:
        // SMO system transactions (and DDL) are page updates too; their
        // pages need redo consideration exactly like data updates.
        item.kind = DptWorkItem::Kind::kUpsert;
        item.lsn = rec.lsn;
        for (const SmoPageImageRef& p : rec.smo_pages) {
          item.pid = p.pid;
          shards.Route(item.pid, item);
        }
        break;
      case LogRecordType::kSmoMerge:
        // The surviving pages need redo consideration; the freed victim
        // drops out of the DPT — it is dead as of this record, and its
        // free image installs unconditionally when the merge replays. A
        // later split re-allocating it re-adds it with that split's rLSN.
        item.kind = DptWorkItem::Kind::kUpsert;
        item.lsn = rec.lsn;
        for (const SmoPageImageRef& p : rec.smo_pages) {
          if (p.pid == rec.pid) continue;
          item.pid = p.pid;
          shards.Route(item.pid, item);
        }
        item.kind = DptWorkItem::Kind::kRemove;
        item.pid = rec.pid;
        shards.Route(item.pid, item);
        break;
      case LogRecordType::kBwRecord:
        // Algorithm 3 lines 11-18: prune by the flushed set. Every probe
        // counts as a DPT event — the lookup is the work, hit or miss.
        out->bw_records_seen++;
        item.kind = DptWorkItem::Kind::kPruneSql;
        item.lsn = rec.fw_lsn;
        for (PageId pid : rec.written_set) {
          item.pid = pid;
          shards.Route(item.pid, item);
        }
        break;
      case LogRecordType::kDeltaRecord:
        out->delta_records_seen++;  // common-log artifact; SQL ignores it
        break;
      default:
        break;
    }
  }
  out->log_pages = it.pages_read();
  uint64_t max_ops = 0;
  FinishShards(&shards, &out->dpt, &out->dpt_updates, &max_ops, nullptr);
  out->threads_used = threads;
  out->shard_cpu_us_max = static_cast<double>(max_ops) * cpu_per_dpt_update_us;
  out->shard_cpu_us_total =
      static_cast<double>(out->dpt_updates) * cpu_per_dpt_update_us;
  if (clock != nullptr && out->shard_cpu_us_max > 0) {
    clock->AdvanceUs(out->shard_cpu_us_max);
  }
  return Status::OK();
}

Status RunDcRecovery(LogManager* log, DataComponent* dc, Lsn bckpt_lsn,
                     DptMode mode, bool build_dpt, bool preload_index,
                     DcRecoveryResult* out, uint32_t threads) {
  // Log0 builds no DPT: nothing to shard, one inline partition.
  threads = build_dpt ? std::max(1u, threads) : 1;
  *out = DcRecoveryResult();
  RecoveryPassQuiescence quiesce(dc);
  DptShards shards = StartShards(threads, /*track_first_mentions=*/true);
  DptWorkItem item;
  uint64_t seq = 0;
  // "For the first Δ-log record encountered after the RSSP, we use rsspLSN"
  // as the previous record's TC-LSN (§4.2).
  Lsn prev_delta_lsn = bckpt_lsn;
  auto it = log->NewIterator(bckpt_lsn, /*charge_io=*/true);
  const Status scan_status = [&]() -> Status {
    for (; it.Valid(); it.Next()) {
      const LogRecordView& rec = it.record();
      out->records_scanned++;
      switch (rec.type) {
        case LogRecordType::kSmo:
          // Make the B-tree well-formed before any logical redo traverses
          // it. Structure redo touches the pool and the clock: it is
          // dispatcher-only, like every shared-state access in this pass.
          DEUTERO_RETURN_NOT_OK(dc->RedoSmo(rec));
          out->smo_redone++;
          break;
        case LogRecordType::kSmoMerge:
          // Delete-side SMO: reinstall the merge images and re-free the
          // victim page. The victim drops out of the DPT under
          // construction (it cannot need data-op redo once merged away; a
          // later in-window split re-allocating it re-adds it).
          DEUTERO_RETURN_NOT_OK(dc->RedoSmoMerge(rec));
          out->smo_redone++;
          if (build_dpt) {
            item.kind = DptWorkItem::Kind::kRemove;
            item.pid = rec.pid;
            shards.Route(item.pid, item);
          }
          break;
        case LogRecordType::kCreateTable:
          // DDL is a DC system transaction: re-register the table and its
          // root before logical redo routes operations to it.
          DEUTERO_RETURN_NOT_OK(dc->RedoCreateTable(rec));
          out->smo_redone++;
          break;
        case LogRecordType::kDeltaRecord:
          out->delta_records_seen++;
          if (build_dpt) RouteDelta(rec, prev_delta_lsn, mode, &seq, &shards);
          prev_delta_lsn = rec.tc_lsn;
          out->last_delta_tc_lsn = rec.tc_lsn;
          break;
        case LogRecordType::kBwRecord:
          out->bw_records_seen++;  // SQL-Server artifact; the DC ignores it
          break;
        default:
          break;  // TC records are not the DC's concern in this pass
      }
    }
    return Status::OK();
  }();
  out->log_pages = it.pages_read();  // filled on error exits too
  if (scan_status.ok() && build_dpt) {
    // Pages that ended the window on the free-list must not remain in the
    // DPT: a Δ-record logged AFTER a merge can still list the victim (its
    // DirtySet accumulated the merge-time dirtying), and a stale entry
    // would let the PF-list prefetcher fault the free page back into the
    // pool — where it would sit resident until a post-recovery split
    // re-allocates the pid and collides in BufferPool::Create. The purge
    // rides the same queues: FIFO puts it after every scan event.
    item.kind = DptWorkItem::Kind::kRemove;
    for (const PageId pid : dc->allocator().free_list()) {
      item.pid = pid;
      shards.Route(item.pid, item);
    }
  }
  uint64_t max_ops = 0;
  FinishShards(&shards, &out->dpt, &out->dpt_updates, &max_ops, &out->pf_list);
  DEUTERO_RETURN_NOT_OK(scan_status);
  out->threads_used = threads;
  // DPT-construction CPU, charged pass-complete (inline-equivalent: nothing
  // in this pass depends on absolute time between records): the slowest
  // shard's share.
  const double cpu_us = dc->options().io.cpu_per_dpt_update_us;
  out->shard_cpu_us_max = static_cast<double>(max_ops) * cpu_us;
  out->shard_cpu_us_total = static_cast<double>(out->dpt_updates) * cpu_us;
  if (out->shard_cpu_us_max > 0) dc->clock().AdvanceUs(out->shard_cpu_us_max);
  if (preload_index) {
    DEUTERO_RETURN_NOT_OK(dc->PreloadIndex());
  }
  return Status::OK();
}

}  // namespace deutero
