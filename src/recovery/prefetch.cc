#include "recovery/prefetch.h"

#include <algorithm>

#include "recovery/redo.h"

namespace deutero {

void PrefetchWindow::Drain() {
  const size_t before = inflight_.size();
  inflight_.erase(
      std::remove_if(inflight_.begin(), inflight_.end(),
                     [this](PageId pid) {
                       // Loaded means a demand Get claimed the page (or an
                       // eviction materialized it); not-resident means it was
                       // evicted. Either way the slot is free. Budget is
                       // deliberately tied to CONSUMPTION, not to I/O
                       // completion: this keeps the read-ahead moving at
                       // redo's pace instead of flooding the cache (the
                       // paper's "prefetching proceeds too quickly" hazard).
                       return !pool_->IsResidentOrPending(pid) ||
                              pool_->IsLoaded(pid);
                     }),
      inflight_.end());
  // Escape hatch: a prefetched page that redo never claims (every one of
  // its log records failed the rLSN test) would otherwise occupy a window
  // slot forever in a cache with no eviction pressure.
  if (inflight_.size() == before && budget() == 0) {
    if (++stalled_pumps_ > 64 && !inflight_.empty()) {
      inflight_.erase(inflight_.begin());
      stalled_pumps_ = 0;
    }
  } else {
    stalled_pumps_ = 0;
  }
}

void PrefetchWindow::Issue(const std::vector<PageId>& candidates) {
  if (candidates.empty()) return;
  pool_->Prefetch(candidates, PageClass::kData);
  for (PageId pid : candidates) {
    if (pool_->IsResidentOrPending(pid) && !pool_->IsLoaded(pid)) {
      inflight_.push_back(pid);
    }
  }
}

void PfListPrefetcher::Pump() {
  window_.Drain();
  uint32_t budget = window_.budget();
  if (budget == 0 || pf_list_ == nullptr) return;
  std::vector<PageId>& batch = batch_;  // member scratch: 0 allocs/pump
  batch.clear();
  while (budget > 0 && cursor_ < pf_list_->size()) {
    const PageId pid = (*pf_list_)[cursor_++];
    // Re-check DPT membership at issue time: entries pruned after the PID
    // entered the PF-list must not be fetched.
    if (dpt_->Find(pid) == nullptr) continue;
    if (window_.pool()->IsResidentOrPending(pid)) continue;
    batch.push_back(pid);
    budget--;
  }
  window_.Issue(batch);
}

void LogDrivenPrefetcher::Pump(uint64_t redo_records_consumed) {
  window_.Drain();
  uint32_t budget = window_.budget();
  if (budget == 0) return;
  std::vector<PageId>& batch = batch_;  // member scratch: 0 allocs/pump
  batch.clear();
  while (budget > 0 && ahead_.Valid() &&
         ahead_consumed_ < redo_records_consumed + lookahead_records_) {
    const LogRecordView& rec = ahead_.record();
    ahead_consumed_++;
    // Issue only if the DPT says this record might need redo.
    if (rec.IsRedoableDataOp() &&
        ClassifyRedo(dpt_, kNoRedoTail, rec.lsn, rec.pid) ==
            RedoDptOutcome::kFetch &&
        !window_.pool()->IsResidentOrPending(rec.pid)) {
      batch.push_back(rec.pid);
      budget--;
    }
    ahead_.Next();
  }
  window_.Issue(batch);
}

}  // namespace deutero
