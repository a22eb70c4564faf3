// The dispatcher/worker skeleton shared by every partitioned pass: the
// analysis/DPT build (recovery/analysis.cc), redo
// (recovery/parallel_redo.cc), undo (recovery/undo.cc) and the standby
// replication applier (core/replica.cc). All four have the same shape —
// one log-scanning dispatcher routing fixed-size items by hash(pid) to
// per-partition consumers over bounded FIFO queues — so the queue, the
// wait policy, the worker thread with its drain barrier and error
// handling, the pin cache, the ring-peek read-ahead and the table
// registry live here, once. A pass supplies only an Applier: its item
// type and what applying one item means.
//
//   struct Applier {
//     using Item = ...;                    // ring slot; copy-assignable
//     static bool IsControl(const Item&);  // the release-pins token
//     void Release();                      // drop pins (token, end of run)
//     Status Apply(const Item&, const SpscRing<Item>& upcoming);
//   };
//
// Dispatch is static (templates): no virtual call or std::function per
// item. A pool of ONE partition runs inline: no thread and no queue — the
// dispatcher's Route applies the item on its own thread.
#pragma once

#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "btree/btree.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/types.h"
#include "dc/data_component.h"
#include "storage/buffer_pool.h"
#include "wal/log_record.h"

namespace deutero {

/// Stable partition map: which of `n` partitions owns `pid`. Every pass
/// routes by it, so a page belongs to the same partition in each of them.
inline uint32_t RedoPartitionOf(PageId pid, uint32_t n) {
  return static_cast<uint32_t>(
      ((static_cast<uint64_t>(pid) * 0x9E3779B97F4A7C15ull) >> 32) % n);
}

/// Single-producer single-consumer ring. The dispatcher owns the producer
/// side, one worker the consumer side. Capacity is fixed (a power of two);
/// the producer spins (with yields) when full — backpressure, not loss.
template <typename T>
class SpscRing {
 public:
  explicit SpscRing(size_t capacity_pow2) : buf_(capacity_pow2) {
    assert((capacity_pow2 & (capacity_pow2 - 1)) == 0);
  }

  bool TryPush(const T& item) {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    if (head - tail_.load(std::memory_order_acquire) == buf_.size()) {
      return false;
    }
    buf_[head & (buf_.size() - 1)] = item;
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  bool TryPop(T* out) {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (head_.load(std::memory_order_acquire) == tail) return false;
    *out = buf_[tail & (buf_.size() - 1)];
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer-side: read the i-th not-yet-popped item (0 = next) without
  /// consuming it. Returns false when fewer than i+1 items are buffered.
  /// The consumer's ring slice IS its upcoming page-access sequence —
  /// which is what makes per-partition read-ahead exact (RingReadAhead).
  bool Peek(uint64_t i, T* out) const {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (head_.load(std::memory_order_acquire) - tail <= i) return false;
    *out = buf_[(tail + i) & (buf_.size() - 1)];
    return true;
  }

 private:
  std::vector<T> buf_;
  alignas(64) std::atomic<uint64_t> head_{0};
  alignas(64) std::atomic<uint64_t> tail_{0};
};

/// Progressive wait: spin briefly, then yield, then (when the scheduler is
/// clearly starving us — oversubscribed cores, sanitizer slowdown) sleep.
/// Keeps a pipeline thread from burning a core another pipeline thread
/// needs.
inline void SpinWait(uint32_t* spins) {
  ++*spins;
  if (*spins < 32) return;
  if (*spins < 2048) {
    std::this_thread::yield();
    return;
  }
  std::this_thread::sleep_for(std::chrono::microseconds(50));
  *spins = 2048;  // stay in the sleep regime until progress resets us
}

/// Pin-cache capacity that keeps worst-case pinned frames well below pool
/// capacity even at test-sized caches: an eighth of the pool split across
/// workers, at least 1, at most 8 per worker.
inline uint32_t PinCacheCapacity(const BufferPool& pool, uint32_t threads) {
  const uint64_t budget = pool.capacity() / 8;
  const uint64_t per = budget / (threads == 0 ? 1 : threads);
  if (per < 1) return 1;
  return per > 8 ? 8 : static_cast<uint32_t>(per);
}

/// Table facts a worker needs to apply an op without touching the DC's
/// catalog structures: the fixed value size per table. Rebuilt by the
/// dispatcher only while all workers are quiescent (pass start, DDL
/// barriers), and read by workers only for items pushed after the rebuild
/// — the ring hand-off orders the accesses.
class TableRegistry {
 public:
  void Refresh(DataComponent* dc) {
    value_sizes_.clear();
    for (const TableInfo& info : dc->catalog().tables()) {
      BTree* tree = dc->FindTable(info.id);
      if (tree != nullptr) {
        value_sizes_.emplace_back(info.id, tree->value_size());
      }
    }
  }
  bool Lookup(TableId id, uint32_t* value_size) const {
    for (const auto& [tid, vs] : value_sizes_) {
      if (tid == id) {
        *value_size = vs;
        return true;
      }
    }
    return false;
  }

 private:
  std::vector<std::pair<TableId, uint32_t>> value_sizes_;
};

/// Re-execute one routed data op on a pinned leaf (redo and standby
/// replay). A CLR with an empty restored image compensates an insert
/// (delete the row); otherwise it restores as an upsert (see redo.cc
/// ApplyDataOp). Row accounting is the dispatcher's, so the leaf's row
/// delta is dropped.
inline Status ApplyLeafOp(PageView page, LogRecordType type,
                          uint32_t value_size, Key key, Slice after) {
  int64_t delta = 0;
  switch (type) {
    case LogRecordType::kUpdate:
      return LeafApplyUpdate(page, value_size, key, after);
    case LogRecordType::kInsert:
      return LeafApplyInsert(page, value_size, key, after, &delta);
    case LogRecordType::kDelete:
      return LeafApplyDelete(page, value_size, key, &delta);
    case LogRecordType::kClr:
      if (after.empty()) return LeafApplyDelete(page, value_size, key, &delta);
      return LeafApplyUpsert(page, value_size, key, after, &delta);
    default:
      return Status::InvalidArgument("not a data op");
  }
}

/// A worker's small LRU cache of pinned data pages. Consecutive items on
/// the same leaf (log locality) reuse one pinned handle, and re-stamping
/// an already-dirty held page skips the gated dirty bookkeeping. Every
/// pool call runs under `gate`, which serializes all pool/disk/clock
/// touches of a pass.
class PinCache {
 public:
  struct Pin {
    PageId pid = kInvalidPageId;
    PageHandle handle;
    bool dirtied = false;  ///< This pass already ran MarkDirty on the pin.
    uint64_t last_use = 0;
  };

  PinCache(BufferPool* pool, Mutex* gate, uint32_t capacity)
      : pool_(pool), gate_(gate), capacity_(capacity == 0 ? 1 : capacity) {}

  Status FindOrPin(PageId pid, Pin** out) {
    use_tick_++;
    for (Pin& p : pins_) {
      if (p.pid == pid) {
        p.last_use = use_tick_;
        *out = &p;
        return Status::OK();
      }
    }
    // Miss: evict the least-recently-used slot if at capacity, then pin
    // the page — one gated section for both.
    Pin* slot = nullptr;
    if (pins_.size() < capacity_) {
      pins_.emplace_back();
      slot = &pins_.back();
    } else {
      slot = &pins_[0];
      for (Pin& p : pins_) {
        if (p.last_use < slot->last_use) slot = &p;
      }
    }
    {
      MutexLock lock(gate_);
      slot->handle.Release();
      DEUTERO_RETURN_NOT_OK(pool_->Get(pid, PageClass::kData, &slot->handle));
    }
    slot->pid = pid;
    slot->dirtied = false;
    slot->last_use = use_tick_;
    *out = slot;
    return Status::OK();
  }

  /// Dirty/pLSN bookkeeping after modifying a held pin's page. The first
  /// modification runs the full gated MarkDirty (dirty transition, FIFO,
  /// first-dirty LSN); after that the frame stays dirty while pinned, so
  /// later ones only need the pLSN stamp — a plain write to page bytes
  /// this partition owns.
  void MarkDirty(Pin* pin, Lsn lsn) {
    if (pin->dirtied) {
      pin->handle.view().set_plsn(lsn);
      return;
    }
    MutexLock lock(gate_);
    pin->handle.MarkDirty(lsn);
    pin->dirtied = true;
  }

  void ReleaseAll() {
    if (pins_.empty()) return;
    MutexLock lock(gate_);
    for (Pin& p : pins_) p.handle.Release();
    pins_.clear();
  }

 private:
  BufferPool* pool_;
  Mutex* gate_;
  const uint32_t capacity_;
  std::vector<Pin> pins_;
  uint64_t use_tick_ = 0;
};

/// Per-partition read-ahead: every `budget` applied items, peek this
/// worker's own queue — its exact upcoming page-access sequence — and
/// issue asynchronous reads for the next `budget` pages the apply loop
/// will fetch. Claim order equals issue order within a partition (the
/// queue is FIFO), so the pacing a serial prefetch window gets from its
/// cursor is restored per partition, immune to cross-partition reordering.
/// budget == 0 disables it.
class RingReadAhead {
 public:
  RingReadAhead(BufferPool* pool, Mutex* gate, uint32_t budget)
      : pool_(pool), gate_(gate), budget_(budget) {}

  /// `fetch_pid(item)` names the page applying `item` will fetch, or
  /// kInvalidPageId if it fetches none (control tokens, DPT skips).
  template <typename Item, typename FetchPid>
  void MaybeTopUp(const SpscRing<Item>& upcoming, FetchPid fetch_pid) {
    if (budget_ == 0 || ++items_since_ < budget_) return;
    items_since_ = 0;
    batch_.clear();
    Item peeked;
    for (uint64_t i = 0; i < 8u * budget_ && batch_.size() < budget_ &&
                         upcoming.Peek(i, &peeked);
         i++) {
      const PageId pid = fetch_pid(peeked);
      if (pid != kInvalidPageId) batch_.push_back(pid);
    }
    if (!batch_.empty()) {
      MutexLock lock(gate_);
      pool_->Prefetch(batch_, PageClass::kData);
    }
  }

 private:
  BufferPool* pool_;
  Mutex* gate_;
  const uint32_t budget_;
  /// Huge initial value forces a top-up on the first item.
  uint64_t items_since_ = uint64_t{1} << 62;
  std::vector<PageId> batch_;  ///< Scratch (reused).
};

/// One partition: a queue, a consumer thread and an Applier. The
/// dispatcher is the only producer. A failed worker keeps draining (and
/// discarding) items, so the producer never blocks on a dead consumer.
template <typename Applier>
class PartitionWorker {
 public:
  using Item = typename Applier::Item;

  /// `inline_mode`: no thread; Push applies on the caller's thread.
  PartitionWorker(bool inline_mode, size_t ring_capacity,
                  std::atomic<uint32_t>* failures, Applier applier)
      : inline_(inline_mode),
        ring_(inline_mode ? 1 : ring_capacity),
        failures_(failures),
        applier_(std::move(applier)) {}
  // The worker thread holds `this`.
  PartitionWorker(const PartitionWorker&) = delete;
  PartitionWorker& operator=(const PartitionWorker&) = delete;

  void Start() {
    if (!inline_) thread_ = std::thread([this] { Run(); });
  }

  /// Producer side: enqueue, spinning on backpressure.
  void Push(const Item& item) {
    if (inline_) {
      Process(item);
      return;
    }
    uint32_t spins = 0;
    while (!ring_.TryPush(item)) SpinWait(&spins);
    pushed_++;
  }

  /// Barrier support: everything pushed so far has been APPLIED (not just
  /// popped).
  bool Drained() const {
    return applied_.load(std::memory_order_acquire) == pushed_;
  }

  void SignalDone() { done_.store(true, std::memory_order_release); }
  void Join() {
    if (thread_.joinable()) thread_.join();
  }

  bool failed() const { return failed_.load(std::memory_order_acquire); }
  /// Valid once drained (a drain barrier) or joined.
  const Status& error() const { return error_; }
  Applier& applier() { return applier_; }         ///< Consumer state.

 private:
  void Run() {
    Item item;
    uint32_t spins = 0;
    uint64_t applied = 0;  // this thread is applied_'s only writer
    while (true) {
      if (ring_.TryPop(&item)) {
        spins = 0;
        Process(item);
        applied_.store(++applied, std::memory_order_release);
        continue;
      }
      if (done_.load(std::memory_order_acquire)) {
        // Re-check the ring: the dispatcher pushes before signaling done.
        if (!ring_.TryPop(&item)) break;
        Process(item);
        applied_.store(++applied, std::memory_order_release);
        continue;
      }
      SpinWait(&spins);
    }
    applier_.Release();
  }

  void Process(const Item& item) {
    if (Applier::IsControl(item)) {
      applier_.Release();
      return;
    }
    if (failed_.load(std::memory_order_relaxed)) return;  // drain mode
    const Status st = applier_.Apply(item, ring_);
    if (!st.ok()) {
      error_ = st;
      failed_.store(true, std::memory_order_release);
      failures_->fetch_add(1, std::memory_order_release);
    }
  }

  const bool inline_;
  SpscRing<Item> ring_;
  std::atomic<uint32_t>* failures_;

  uint64_t pushed_ = 0;  ///< Producer-side only.
  alignas(64) std::atomic<uint64_t> applied_{0};
  std::atomic<bool> done_{false};
  std::atomic<bool> failed_{false};
  Status error_;
  Applier applier_;
  std::thread thread_;  // last: it runs on every member above
};

/// The partition fleet: routing by RedoPartitionOf, the drain barrier and
/// the shut-down/join/first-error epilogue. One partition runs inline.
template <typename Applier>
class WorkerPool {
 public:
  using Item = typename Applier::Item;

  /// `make(i)` returns partition i's Applier.
  template <typename MakeApplier>
  WorkerPool(uint32_t partitions, size_t ring_capacity, MakeApplier make) {
    assert(partitions >= 1);
    const bool inline_mode = partitions == 1;
    workers_.reserve(partitions);
    for (uint32_t i = 0; i < partitions; i++) {
      workers_.push_back(std::make_unique<PartitionWorker<Applier>>(
          inline_mode, ring_capacity, &failures_, make(i)));
    }
    for (auto& w : workers_) w->Start();
  }
  ~WorkerPool() { (void)Finish(); }
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  uint32_t partitions() const {
    return static_cast<uint32_t>(workers_.size());
  }

  /// Hand `item` to the partition owning `pid`.
  void Route(PageId pid, const Item& item) {
    const uint32_t n = partitions();
    workers_[n == 1 ? 0 : RedoPartitionOf(pid, n)]->Push(item);
  }

  /// Tell every worker to drop its pins, then wait until every queue is
  /// fully applied. Used before structure changes the dispatcher makes
  /// itself (SMO/DDL redo, structure-changing undo, standby splits/merges).
  void DrainBarrier() {
    for (auto& w : workers_) w->Push(Item());  // control: release pins
    for (auto& w : workers_) {
      uint32_t spins = 0;
      while (!w->Drained()) SpinWait(&spins);
    }
  }

  bool AnyFailed() const {
    return failures_.load(std::memory_order_acquire) != 0;
  }

  /// Drain, stop and join every worker (items already routed are applied,
  /// never discarded). Returns the lowest failed partition's error.
  /// Idempotent.
  Status Finish() {
    if (!finished_) {
      finished_ = true;
      for (auto& w : workers_) w->Push(Item());  // control: release pins
      for (auto& w : workers_) w->SignalDone();
      for (auto& w : workers_) w->Join();
    }
    return FirstError();
  }

  /// The lowest failed partition's error, or OK. Valid while the pool is
  /// quiescent: after DrainBarrier() or Finish().
  Status FirstError() const {
    for (const auto& w : workers_) {
      if (w->failed()) return w->error();
    }
    return Status::OK();
  }

  Applier& applier(uint32_t i) { return workers_[i]->applier(); }

 private:
  std::atomic<uint32_t> failures_{0};  ///< Failed workers (they hold it).
  std::vector<std::unique_ptr<PartitionWorker<Applier>>> workers_;
  bool finished_ = false;
};

}  // namespace deutero
