// Undo-pass tests: multi-loser interleaving, CLR chains, crash-during-undo
// (partial undo followed by a second recovery), and losers of every shape.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/engine.h"
#include "recovery/analysis.h"
#include "recovery/redo.h"
#include "recovery/undo.h"
#include "test_util.h"
#include "workload/driver.h"

namespace deutero {
namespace {

using testing_util::SmallOptions;

class UndoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(Engine::Open(SmallOptions(), &engine_));
    ASSERT_OK(engine_->OpenDefaultTable(&table_));
  }

  std::string Val(Key k, uint32_t version) {
    return SynthesizeValueString(k, version, engine_->options().value_size);
  }

  std::unique_ptr<Engine> engine_;
  Table table_;
};

TEST_F(UndoTest, MultipleLosersAllRolledBack) {
  Txn a, b, c;
  ASSERT_OK(engine_->Begin(&a));
  ASSERT_OK(engine_->Begin(&b));
  ASSERT_OK(engine_->Begin(&c));
  // Interleaved updates across three losers on disjoint keys.
  ASSERT_OK(a.Update(table_, 10, Val(10, 1)));
  ASSERT_OK(b.Update(table_, 20, Val(20, 1)));
  ASSERT_OK(c.Update(table_, 30, Val(30, 1)));
  ASSERT_OK(a.Update(table_, 11, Val(11, 1)));
  ASSERT_OK(b.Update(table_, 21, Val(21, 1)));
  engine_->tc().ForceLog();

  engine_->SimulateCrash();
  for (Txn* loser : {&a, &b, &c}) loser->Release();  // recovery undoes them
  RecoveryStats st;
  ASSERT_OK(engine_->Recover(RecoveryMethod::kLog1, &st));
  EXPECT_EQ(st.txns_undone, 3u);
  EXPECT_EQ(st.undo_ops, 5u);
  for (Key k : {10, 11, 20, 21, 30}) {
    std::string v;
    ASSERT_OK(engine_->Read(k, &v));
    EXPECT_EQ(v, Val(k, 0)) << k;
  }
}

TEST_F(UndoTest, LoserWithOnlyBeginRecordIsHarmless) {
  Txn t;
  ASSERT_OK(engine_->Begin(&t));
  engine_->tc().ForceLog();
  engine_->SimulateCrash();
  t.Release();
  RecoveryStats st;
  ASSERT_OK(engine_->Recover(RecoveryMethod::kSql1, &st));
  EXPECT_EQ(st.txns_undone, 1u);
  EXPECT_EQ(st.undo_ops, 0u);
}

TEST_F(UndoTest, CommittedAndLoserOnSameKeySequence) {
  // Committed txn sets version 1; the loser overwrites with version 2 but
  // never commits: undo must restore version 1, not version 0.
  Txn t;
  ASSERT_OK(engine_->Begin(&t));
  ASSERT_OK(t.Update(table_, 42, Val(42, 1)));
  ASSERT_OK(t.Commit());
  Txn loser;
  ASSERT_OK(engine_->Begin(&loser));
  ASSERT_OK(loser.Update(table_, 42, Val(42, 2)));
  engine_->tc().ForceLog();

  engine_->SimulateCrash();
  loser.Release();
  RecoveryStats st;
  ASSERT_OK(engine_->Recover(RecoveryMethod::kLog2, &st));
  std::string v;
  ASSERT_OK(engine_->Read(42, &v));
  EXPECT_EQ(v, Val(42, 1));
}

TEST_F(UndoTest, CrashDuringUndoThenFullRecovery) {
  // Build a crash image with a 9-op loser.
  WorkloadDriver driver(engine_.get(), WorkloadConfig{});
  ASSERT_OK(driver.RunOps(200));
  ASSERT_OK(engine_->Checkpoint());
  ASSERT_OK(driver.RunOpsNoCommit(9));
  engine_->tc().ForceLog();
  driver.OnCrash();
  engine_->SimulateCrash();

  // Manual recovery: analysis + redo, then undo that "crashes" after 4 ops.
  ASSERT_OK(engine_->dc().OpenDatabase());
  engine_->dc().monitor().set_enabled(false);
  engine_->dc().pool().set_callbacks_enabled(false);
  const Lsn start = engine_->wal().master().bckpt_lsn;
  SqlAnalysisResult ar;
  ASSERT_OK(RunSqlAnalysis(&engine_->wal(), start, &ar));
  RedoResult rr;
  ASSERT_OK(RunSqlRedo(&engine_->wal(), &engine_->dc(), start, &ar.dpt,
                       false, engine_->options(), &rr));
  UndoResult ur;
  ASSERT_OK(RunUndo(&engine_->wal(), &engine_->dc(), ar.att, &ur,
                    /*max_ops_for_test=*/4));
  EXPECT_EQ(ur.ops_undone, 4u);

  // Second crash, then a COMPLETE recovery. The partial undo's CLRs are on
  // the log; the remaining 5 ops must be undone exactly once.
  engine_->dc().monitor().set_enabled(true);
  engine_->dc().pool().set_callbacks_enabled(true);
  engine_->SimulateCrash();
  RecoveryStats st;
  ASSERT_OK(engine_->Recover(RecoveryMethod::kSql1, &st));
  EXPECT_EQ(st.txns_undone, 1u);
  EXPECT_EQ(st.undo_ops, 5u);  // CLR undo_next skipped the undone prefix

  uint64_t checked = 0;
  ASSERT_OK(driver.Verify(0, &checked));
  EXPECT_GT(checked, 0u);
}

TEST_F(UndoTest, UndoOfInsertsDeletesRows) {
  const Key fresh = engine_->options().num_rows + 1;
  Txn t;
  ASSERT_OK(engine_->Begin(&t));
  ASSERT_OK(t.Insert(table_, fresh, Val(fresh, 1)));
  ASSERT_OK(t.Insert(table_, fresh + 1, Val(fresh + 1, 1)));
  engine_->tc().ForceLog();
  engine_->SimulateCrash();
  t.Release();
  RecoveryStats st;
  ASSERT_OK(engine_->Recover(RecoveryMethod::kLog1, &st));
  std::string v;
  EXPECT_TRUE(engine_->Read(fresh, &v).IsNotFound());
  EXPECT_TRUE(engine_->Read(fresh + 1, &v).IsNotFound());
  uint64_t rows = 0;
  ASSERT_OK(engine_->dc().btree().CheckWellFormed(&rows));
  EXPECT_EQ(rows, engine_->options().num_rows);
}

TEST_F(UndoTest, MixedLoserInsertAndUpdate) {
  const Key fresh = engine_->options().num_rows + 5;
  Txn t;
  ASSERT_OK(engine_->Begin(&t));
  ASSERT_OK(t.Update(table_, 7, Val(7, 1)));
  ASSERT_OK(t.Insert(table_, fresh, Val(fresh, 1)));
  ASSERT_OK(t.Update(table_, fresh, Val(fresh, 2)));
  engine_->tc().ForceLog();
  engine_->SimulateCrash();
  t.Release();
  RecoveryStats st;
  ASSERT_OK(engine_->Recover(RecoveryMethod::kLog2, &st));
  EXPECT_EQ(st.undo_ops, 3u);
  std::string v;
  ASSERT_OK(engine_->Read(7, &v));
  EXPECT_EQ(v, Val(7, 0));
  EXPECT_TRUE(engine_->Read(fresh, &v).IsNotFound());
}

TEST_F(UndoTest, UndoPassTimingIsRecorded) {
  Txn t;
  ASSERT_OK(engine_->Begin(&t));
  for (Key k = 0; k < 20; k++) {
    ASSERT_OK(t.Update(table_, k * 37, Val(k * 37, 1)));
  }
  engine_->tc().ForceLog();
  engine_->SimulateCrash();
  t.Release();
  RecoveryStats st;
  ASSERT_OK(engine_->Recover(RecoveryMethod::kLog1, &st));
  EXPECT_EQ(st.undo_ops, 20u);
  EXPECT_GT(st.undo.ms, 0.0);
  EXPECT_GE(st.total_ms, st.undo.ms);
}

}  // namespace
}  // namespace deutero
