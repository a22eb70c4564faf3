// Single-threaded logical lock manager (paper §1.1 cites [13]: locking
// without location information). Locks are on (table, key) — never on
// pages, which the TC cannot name. Exclusive for writes, shared for reads.
// The engine locks through concurrency/ShardedLockManager; this one is the
// serial oracle the lock-manager and concurrent-front-end suites check it
// against.
//
// Allocation behaviour: the lock table pools its entries. Releasing a lock
// empties the entry's holder list (keeping its capacity) instead of erasing
// the node, and per-transaction lock lists live in reusable slots, so a
// steady-state Acquire/ReleaseAll cycle over previously-seen keys performs
// zero heap allocations — a WriteBatch apply stays allocation-free per op.
// The table grows with the set of distinct keys ever locked (bounded by the
// working set; dropped wholesale on Reset()).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace deutero {

class LockManager {
 public:
  enum class LockMode : uint8_t { kShared = 0, kExclusive = 1 };

  /// Acquire a lock; returns Busy on conflict with another transaction
  /// (no blocking and no wait-die: the caller decides what a conflict
  /// means).
  Status Acquire(TxnId txn, TableId table, Key key, LockMode mode);

  /// Release everything held by `txn` (commit/abort).
  void ReleaseAll(TxnId txn);

  /// Drop all state (crash — logical locks are volatile).
  void Reset();

  bool Holds(TxnId txn, TableId table, Key key) const;
  size_t held_by(TxnId txn) const;
  /// Number of (table, key) entries currently held by some transaction.
  size_t total_locks() const { return held_entries_; }

 private:
  struct LockId {
    TableId table;
    Key key;
    bool operator==(const LockId&) const = default;
  };
  struct LockIdHash {
    size_t operator()(const LockId& id) const {
      // 64-bit mix of table and key.
      uint64_t h = id.key * 0x9e3779b97f4a7c15ULL;
      h ^= (static_cast<uint64_t>(id.table) << 32) + id.table;
      h ^= h >> 29;
      return static_cast<size_t>(h);
    }
  };
  struct LockState {
    LockMode mode = LockMode::kShared;
    std::vector<TxnId> holders;  ///< 1 holder if exclusive; >=1 if shared.
  };
  /// Per-transaction lock list. Slots are recycled across transactions
  /// (txn == kInvalidTxnId marks a free slot with retained capacity).
  struct TxnLocks {
    TxnId txn = kInvalidTxnId;
    std::vector<LockId> ids;
  };

  TxnLocks* FindTxn(TxnId txn);
  const TxnLocks* FindTxn(TxnId txn) const;
  void RecordHeld(TxnId txn, const LockId& id);

  std::unordered_map<LockId, LockState, LockIdHash> locks_;
  std::vector<TxnLocks> by_txn_;
  size_t held_entries_ = 0;
};

}  // namespace deutero
