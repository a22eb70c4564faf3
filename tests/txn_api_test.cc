// Tests for the first-class handle API (core/txn.h): RAII Txn semantics,
// Table handles, Delete, snapshot Scan cursors, and atomic WriteBatch
// application.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "test_util.h"

namespace deutero {
namespace {

using testing_util::SmallOptions;

class TxnApiTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(Engine::Open(SmallOptions(), &engine_));
    ASSERT_OK(engine_->OpenDefaultTable(&table_));
  }

  std::string Val(Key key, uint32_t version) const {
    return SynthesizeValueString(key, version,
                                 engine_->options().value_size);
  }

  std::unique_ptr<Engine> engine_;
  Table table_;
};

// ---------------------------------------------------------------------------
// RAII Txn.
// ---------------------------------------------------------------------------

TEST_F(TxnApiTest, CommitMakesUpdatesVisible) {
  Txn txn;
  ASSERT_OK(engine_->Begin(&txn));
  EXPECT_TRUE(txn.active());
  ASSERT_OK(txn.Update(table_, 5, Val(5, 1)));
  ASSERT_OK(txn.Commit());
  EXPECT_FALSE(txn.active());
  std::string v;
  ASSERT_OK(table_.Read(5, &v));
  EXPECT_EQ(v, Val(5, 1));
}

TEST_F(TxnApiTest, ScopeExitAutoAborts) {
  {
    Txn txn;
    ASSERT_OK(engine_->Begin(&txn));
    ASSERT_OK(txn.Update(table_, 5, Val(5, 9)));
    // No Commit: destruction must roll back.
  }
  std::string v;
  ASSERT_OK(table_.Read(5, &v));
  EXPECT_EQ(v, Val(5, 0));
  // The abort released the lock: another transaction can take it.
  EXPECT_EQ(engine_->tc().locks().total_locks(), 0u);
  Txn other;
  ASSERT_OK(engine_->Begin(&other));
  ASSERT_OK(other.Update(table_, 5, Val(5, 1)));
  ASSERT_OK(other.Commit());
  EXPECT_EQ(engine_->tc().stats().aborted, 1u);
}

TEST_F(TxnApiTest, MoveTransfersOwnership) {
  Txn a;
  ASSERT_OK(engine_->Begin(&a));
  ASSERT_OK(a.Update(table_, 7, Val(7, 1)));
  const TxnId id = a.id();
  Txn b = std::move(a);
  EXPECT_FALSE(a.active());  // NOLINT(bugprone-use-after-move): documented
  EXPECT_TRUE(b.active());
  EXPECT_EQ(b.id(), id);
  ASSERT_OK(b.Commit());
  EXPECT_EQ(engine_->tc().stats().aborted, 0u);  // moved-from didn't abort
  std::string v;
  ASSERT_OK(table_.Read(7, &v));
  EXPECT_EQ(v, Val(7, 1));
}

TEST_F(TxnApiTest, MoveAssignOverActiveTxnAbortsIt) {
  Txn a;
  ASSERT_OK(engine_->Begin(&a));
  ASSERT_OK(a.Update(table_, 11, Val(11, 1)));
  Txn b;
  ASSERT_OK(engine_->Begin(&b));
  a = std::move(b);  // a's original transaction must roll back
  EXPECT_EQ(engine_->tc().stats().aborted, 1u);
  std::string v;
  ASSERT_OK(table_.Read(11, &v));
  EXPECT_EQ(v, Val(11, 0));
  ASSERT_OK(a.Commit());
}

TEST_F(TxnApiTest, OperationsOnInactiveTxnFail) {
  Txn txn;
  EXPECT_TRUE(txn.Update(table_, 1, Val(1, 1)).IsInvalidArgument());
  EXPECT_TRUE(txn.Delete(table_, 1).IsInvalidArgument());
  EXPECT_TRUE(txn.Commit().IsInvalidArgument());
  EXPECT_TRUE(txn.Abort().IsInvalidArgument());
}

TEST_F(TxnApiTest, TxnReadTakesSharedLock) {
  Txn txn;
  ASSERT_OK(engine_->Begin(&txn));
  std::string v;
  ASSERT_OK(txn.Read(table_, 3, &v));
  EXPECT_EQ(v, Val(3, 0));
  EXPECT_TRUE(engine_->tc().locks().Holds(txn.id(), table_.id(), 3));
  Txn writer;
  ASSERT_OK(engine_->Begin(&writer));
  EXPECT_TRUE(writer.Update(table_, 3, Val(3, 1)).IsBusy());
  ASSERT_OK(txn.Commit());
  ASSERT_OK(writer.Update(table_, 3, Val(3, 1)));
  ASSERT_OK(writer.Commit());
}

// ---------------------------------------------------------------------------
// Table handles.
// ---------------------------------------------------------------------------

TEST_F(TxnApiTest, OpenTableUnknownIsNotFound) {
  Table t;
  EXPECT_TRUE(engine_->OpenTable(999, &t).IsNotFound());
  EXPECT_FALSE(t.valid());
}

TEST_F(TxnApiTest, TableHandleCarriesSchema) {
  ASSERT_OK(engine_->CreateTable(42, 16));
  Table t;
  ASSERT_OK(engine_->OpenTable(42, &t));
  EXPECT_EQ(t.id(), 42u);
  EXPECT_EQ(t.value_size(), 16u);
  Txn txn;
  ASSERT_OK(engine_->Begin(&txn));
  ASSERT_OK(txn.Insert(t, 1, std::string(16, 'x')));
  EXPECT_TRUE(
      txn.Insert(t, 2, std::string(26, 'x')).IsInvalidArgument());
  ASSERT_OK(txn.Commit());
}

TEST_F(TxnApiTest, TableHandleSurvivesCrashRecovery) {
  Txn txn;
  ASSERT_OK(engine_->Begin(&txn));
  ASSERT_OK(txn.Update(table_, 9, Val(9, 1)));
  ASSERT_OK(txn.Commit());
  engine_->SimulateCrash();
  RecoveryStats st;
  ASSERT_OK(engine_->Recover(RecoveryMethod::kLog1, &st));
  std::string v;
  ASSERT_OK(table_.Read(9, &v));  // the old handle still names the table
  EXPECT_EQ(v, Val(9, 1));
}

// ---------------------------------------------------------------------------
// Delete.
// ---------------------------------------------------------------------------

TEST_F(TxnApiTest, DeleteRemovesRow) {
  Txn txn;
  ASSERT_OK(engine_->Begin(&txn));
  ASSERT_OK(txn.Delete(table_, 5));
  ASSERT_OK(txn.Commit());
  std::string v;
  EXPECT_TRUE(table_.Read(5, &v).IsNotFound());
  EXPECT_EQ(engine_->tc().stats().deletes, 1u);
}

TEST_F(TxnApiTest, DeleteOfMissingKeyIsNotFound) {
  Txn txn;
  ASSERT_OK(engine_->Begin(&txn));
  const Key missing = engine_->options().num_rows + 77;
  EXPECT_TRUE(txn.Delete(table_, missing).IsNotFound());
  ASSERT_OK(txn.Commit());
}

TEST_F(TxnApiTest, AbortRestoresDeletedRow) {
  Txn txn;
  ASSERT_OK(engine_->Begin(&txn));
  ASSERT_OK(txn.Delete(table_, 5));
  std::string v;
  EXPECT_TRUE(table_.Read(5, &v).IsNotFound());
  ASSERT_OK(txn.Abort());
  ASSERT_OK(table_.Read(5, &v));
  EXPECT_EQ(v, Val(5, 0));  // the before-image came back
}

TEST_F(TxnApiTest, UpdateThenDeleteThenAbortRestoresOriginal) {
  Txn txn;
  ASSERT_OK(engine_->Begin(&txn));
  ASSERT_OK(txn.Update(table_, 6, Val(6, 3)));
  ASSERT_OK(txn.Delete(table_, 6));
  ASSERT_OK(txn.Abort());
  std::string v;
  ASSERT_OK(table_.Read(6, &v));
  EXPECT_EQ(v, Val(6, 0));
}

TEST_F(TxnApiTest, DeleteThenInsertSameKeyInOneTxn) {
  Txn txn;
  ASSERT_OK(engine_->Begin(&txn));
  ASSERT_OK(txn.Delete(table_, 8));
  ASSERT_OK(txn.Insert(table_, 8, Val(8, 5)));
  ASSERT_OK(txn.Commit());
  std::string v;
  ASSERT_OK(table_.Read(8, &v));
  EXPECT_EQ(v, Val(8, 5));
}

// ---------------------------------------------------------------------------
// Scan.
// ---------------------------------------------------------------------------

TEST_F(TxnApiTest, ScanReturnsInclusiveRangeInOrder) {
  ScanCursor c;
  ASSERT_OK(table_.Scan(10, 20, &c));
  Key expect = 10;
  while (c.Valid()) {
    EXPECT_EQ(c.key(), expect);
    EXPECT_EQ(c.value().ToString(), Val(expect, 0));
    expect++;
    ASSERT_OK(c.Next());
  }
  EXPECT_EQ(expect, 21u);  // 10..20 inclusive
}

TEST_F(TxnApiTest, ScanCrossesLeafBoundaries) {
  // SmallOptions: 1 KB pages, 29 rows/leaf at 95% fill — a 200-key scan
  // crosses several leaves.
  ScanCursor c;
  ASSERT_OK(table_.Scan(0, 199, &c));
  uint64_t rows = 0;
  while (c.Valid()) {
    rows++;
    ASSERT_OK(c.Next());
  }
  EXPECT_EQ(rows, 200u);
}

TEST_F(TxnApiTest, ScanSkipsDeletedKeys) {
  Txn txn;
  ASSERT_OK(engine_->Begin(&txn));
  ASSERT_OK(txn.Delete(table_, 12));
  ASSERT_OK(txn.Delete(table_, 14));
  ASSERT_OK(txn.Commit());
  ScanCursor c;
  ASSERT_OK(table_.Scan(10, 16, &c));
  std::vector<Key> keys;
  while (c.Valid()) {
    keys.push_back(c.key());
    ASSERT_OK(c.Next());
  }
  EXPECT_EQ(keys, (std::vector<Key>{10, 11, 13, 15, 16}));
}

TEST_F(TxnApiTest, MovedFromCursorIsInvalid) {
  ScanCursor a;
  ASSERT_OK(table_.Scan(10, 20, &a));
  ASSERT_TRUE(a.Valid());
  ScanCursor b = std::move(a);
  EXPECT_FALSE(a.Valid());  // NOLINT(bugprone-use-after-move): documented
  ASSERT_TRUE(b.Valid());
  EXPECT_EQ(b.key(), 10u);
  // Move-assign over a live cursor releases its pin and takes over.
  ScanCursor c;
  ASSERT_OK(table_.Scan(30, 40, &c));
  c = std::move(b);
  EXPECT_FALSE(b.Valid());  // NOLINT(bugprone-use-after-move): documented
  ASSERT_TRUE(c.Valid());
  EXPECT_EQ(c.key(), 10u);
  EXPECT_EQ(engine_->dc().pool().pinned_pages(), 1u);
}

TEST_F(TxnApiTest, CrossEngineTableHandleRejected) {
  std::unique_ptr<Engine> other;
  ASSERT_OK(Engine::Open(SmallOptions(), &other));
  Table foreign;
  ASSERT_OK(other->OpenDefaultTable(&foreign));
  Txn txn;
  ASSERT_OK(engine_->Begin(&txn));
  EXPECT_TRUE(txn.Update(foreign, 1, Val(1, 1)).IsInvalidArgument());
  EXPECT_TRUE(txn.Delete(foreign, 1).IsInvalidArgument());
  ASSERT_OK(txn.Commit());
  WriteBatch batch;
  batch.Update(1, Val(1, 1));
  EXPECT_TRUE(engine_->Apply(foreign, batch).IsInvalidArgument());
  // Nothing leaked into either engine.
  std::string v;
  ASSERT_OK(table_.Read(1, &v));
  EXPECT_EQ(v, Val(1, 0));
}

TEST_F(TxnApiTest, EmptyAndPastEndScans) {
  ScanCursor c;
  ASSERT_OK(table_.Scan(20, 10, &c));  // inverted range
  EXPECT_FALSE(c.Valid());
  const Key past = engine_->options().num_rows + 1000;
  ASSERT_OK(table_.Scan(past, past + 10, &c));  // beyond the last key
  EXPECT_FALSE(c.Valid());
}

TEST_F(TxnApiTest, ScanAtTableTailStopsAtLastKey) {
  const Key last = engine_->options().num_rows - 1;
  ScanCursor c;
  ASSERT_OK(table_.Scan(last - 2, last + 100, &c));
  uint64_t rows = 0;
  while (c.Valid()) {
    rows++;
    ASSERT_OK(c.Next());
  }
  EXPECT_EQ(rows, 3u);
}

// ---------------------------------------------------------------------------
// WriteBatch.
// ---------------------------------------------------------------------------

TEST_F(TxnApiTest, ApplyBatchIsAtomicAndFlushesOnce) {
  const uint64_t flushes_before = engine_->wal().stats().flushes;
  WriteBatch batch;
  batch.Update(1, Val(1, 1));
  batch.Update(2, Val(2, 1));
  batch.Delete(3);
  batch.Insert(engine_->options().num_rows + 1,
               Val(engine_->options().num_rows + 1, 1));
  ASSERT_OK(engine_->Apply(table_, batch));
  EXPECT_EQ(engine_->wal().stats().flushes, flushes_before + 1)
      << "a WriteBatch must cost exactly one commit flush";
  std::string v;
  ASSERT_OK(table_.Read(1, &v));
  EXPECT_EQ(v, Val(1, 1));
  EXPECT_TRUE(table_.Read(3, &v).IsNotFound());
  ASSERT_OK(table_.Read(engine_->options().num_rows + 1, &v));
}

TEST_F(TxnApiTest, FailedBatchRollsBackEntirely) {
  WriteBatch batch;
  batch.Update(1, Val(1, 7));
  batch.Delete(2);
  batch.Insert(5, Val(5, 7));  // duplicate key: fails
  batch.Update(6, Val(6, 7));  // never reached
  EXPECT_TRUE(engine_->Apply(table_, batch).IsInvalidArgument());
  // Nothing from the batch is visible — including no collateral damage to
  // the committed row the duplicate insert collided with (a failed insert
  // must be rejected BEFORE logging, or its rollback would delete it).
  std::string v;
  ASSERT_OK(table_.Read(1, &v));
  EXPECT_EQ(v, Val(1, 0));
  ASSERT_OK(table_.Read(2, &v));
  EXPECT_EQ(v, Val(2, 0));
  ASSERT_OK(table_.Read(5, &v));
  EXPECT_EQ(v, Val(5, 0)) << "duplicate-insert rollback ate the row";
  ASSERT_OK(table_.Read(6, &v));
  EXPECT_EQ(v, Val(6, 0));
  EXPECT_EQ(engine_->tc().locks().total_locks(), 0u);
  // And the log must still recover: no orphan kInsert record may exist for
  // redo to replay into a duplicate-key failure.
  engine_->SimulateCrash();
  RecoveryStats st;
  ASSERT_OK(engine_->Recover(RecoveryMethod::kLog1, &st));
  ASSERT_OK(table_.Read(5, &v));
  EXPECT_EQ(v, Val(5, 0));
  uint64_t rows = 0;
  ASSERT_OK(engine_->dc().btree().CheckWellFormed(&rows));
  EXPECT_EQ(rows, engine_->options().num_rows);
}

TEST_F(TxnApiTest, BatchClearRetainsNothingVisible) {
  WriteBatch batch;
  batch.Update(1, Val(1, 1));
  EXPECT_EQ(batch.size(), 1u);
  batch.Clear();
  EXPECT_TRUE(batch.empty());
  ASSERT_OK(engine_->Apply(table_, batch));  // empty batch: a no-op commit
  std::string v;
  ASSERT_OK(table_.Read(1, &v));
  EXPECT_EQ(v, Val(1, 0));
}

TEST_F(TxnApiTest, TxnApplyFoldsBatchIntoOpenTxn) {
  Txn txn;
  ASSERT_OK(engine_->Begin(&txn));
  ASSERT_OK(txn.Update(table_, 30, Val(30, 1)));
  WriteBatch batch;
  batch.Update(31, Val(31, 1));
  batch.Delete(32);
  ASSERT_OK(txn.Apply(table_, batch));
  ASSERT_OK(txn.Abort());  // everything — including the batch — rolls back
  std::string v;
  ASSERT_OK(table_.Read(31, &v));
  EXPECT_EQ(v, Val(31, 0));
  ASSERT_OK(table_.Read(32, &v));
  EXPECT_EQ(v, Val(32, 0));
}

// ---------------------------------------------------------------------------
// Crash safety of the new operations (single-method smoke; the full
// cross-method equivalence lives in recovery_property_test).
// ---------------------------------------------------------------------------

TEST_F(TxnApiTest, CommittedDeleteAndBatchSurviveCrash) {
  WriteBatch batch;
  batch.Delete(40);
  batch.Update(41, Val(41, 2));
  ASSERT_OK(engine_->Apply(table_, batch));
  engine_->SimulateCrash();
  RecoveryStats st;
  ASSERT_OK(engine_->Recover(RecoveryMethod::kLog2, &st));
  std::string v;
  EXPECT_TRUE(table_.Read(40, &v).IsNotFound());
  ASSERT_OK(table_.Read(41, &v));
  EXPECT_EQ(v, Val(41, 2));
}

TEST_F(TxnApiTest, UncommittedDeleteIsUndoneByRecovery) {
  Txn txn;
  ASSERT_OK(engine_->Begin(&txn));
  ASSERT_OK(txn.Delete(table_, 50));
  engine_->tc().ForceLog();  // the loser's delete reaches the stable log
  txn.Release();
  engine_->SimulateCrash();
  RecoveryStats st;
  ASSERT_OK(engine_->Recover(RecoveryMethod::kLog1, &st));
  EXPECT_GE(st.txns_undone, 1u);
  std::string v;
  ASSERT_OK(table_.Read(50, &v));
  EXPECT_EQ(v, Val(50, 0));  // undo re-inserted the before-image
  uint64_t rows = 0;
  ASSERT_OK(engine_->dc().btree().CheckWellFormed(&rows));
  EXPECT_EQ(rows, engine_->options().num_rows);
}

}  // namespace
}  // namespace deutero
