// Engine facade tests: lifecycle state machine, snapshot/restore, and the
// crash model (volatile state dropped, stable state kept).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/engine.h"
#include "storage/page.h"
#include "test_util.h"
#include "workload/driver.h"

namespace deutero {
namespace {

using testing_util::SmallOptions;

std::string V(const Engine& e, Key k, uint32_t version) {
  return SynthesizeValueString(k, version, e.options().value_size);
}

TEST(EngineTest, OpenBulkLoadsAndTakesInitialCheckpoint) {
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(SmallOptions(), &e));
  EXPECT_TRUE(e->running());
  EXPECT_EQ(e->wal().master().checkpoint_count, 1u);
  std::string v;
  ASSERT_OK(e->Read(0, &v));
  ASSERT_OK(e->Read(SmallOptions().num_rows - 1, &v));
  EXPECT_TRUE(e->Read(SmallOptions().num_rows, &v).IsNotFound());
}

TEST(EngineTest, OperationsRejectedWhileCrashed) {
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(SmallOptions(), &e));
  e->SimulateCrash();
  EXPECT_FALSE(e->running());
  Txn t;
  EXPECT_TRUE(e->Begin(&t).IsInvalidArgument());
  std::string v;
  EXPECT_TRUE(e->Read(1, &v).IsInvalidArgument());
  EXPECT_TRUE(e->Checkpoint().IsInvalidArgument());
}

TEST(EngineTest, RecoverRejectedWhileRunning) {
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(SmallOptions(), &e));
  RecoveryStats st;
  EXPECT_TRUE(e->Recover(RecoveryMethod::kLog1, &st).IsInvalidArgument());
}

TEST(EngineTest, CrashDropsUnflushedLogTail) {
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(SmallOptions(), &e));
  Table tbl;
  ASSERT_OK(e->OpenDefaultTable(&tbl));
  Txn t;
  ASSERT_OK(e->Begin(&t));
  ASSERT_OK(t.Update(tbl, 3, V(*e, 3, 1)));
  // No commit, no flush: the update exists only in the volatile tail.
  const Lsn stable = e->wal().stable_end();
  EXPECT_GT(e->wal().next_lsn(), stable);
  e->SimulateCrash();
  t.Release();
  EXPECT_EQ(e->wal().next_lsn(), stable);
  RecoveryStats st;
  ASSERT_OK(e->Recover(RecoveryMethod::kLog1, &st));
  std::string v;
  ASSERT_OK(e->Read(3, &v));
  EXPECT_EQ(v, V(*e, 3, 0));  // the unlogged update evaporated
}

// Regression: Engine::Recover(method, nullptr) crashed with a null deref —
// RecoveryManager::Recover zeroes *stats unconditionally, and the engine
// passed the caller's pointer straight through even though the parameter
// is documented optional elsewhere (the standby's recovery path already
// carried its own local). Found during the [[nodiscard]]/annotation sweep
// (PR 10); the engine now substitutes a local when the caller passes none.
TEST(EngineTest, RecoverWithNullStatsSucceeds) {
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(SmallOptions(), &e));
  Table tbl;
  ASSERT_OK(e->OpenDefaultTable(&tbl));
  Txn t;
  ASSERT_OK(e->Begin(&t));
  ASSERT_OK(t.Update(tbl, 3, V(*e, 3, 1)));
  ASSERT_OK(t.Commit());
  e->SimulateCrash();
  ASSERT_OK(e->Recover(RecoveryMethod::kLog2, nullptr));
  std::string v;
  ASSERT_OK(e->Read(3, &v));
  EXPECT_EQ(v, V(*e, 3, 1));
  // The phase breakdown still lands in EngineStats off the internal local.
  EXPECT_GT(e->Stats().recovery_total_ms, 0.0);
}

TEST(EngineTest, SnapshotRequiresCrashedState) {
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(SmallOptions(), &e));
  Engine::StableSnapshot snap;
  EXPECT_TRUE(e->TakeStableSnapshot(&snap).IsInvalidArgument());
  e->SimulateCrash();
  ASSERT_OK(e->TakeStableSnapshot(&snap));
  EXPECT_TRUE(e->RestoreStableSnapshot(snap).ok());
}

TEST(EngineTest, SnapshotRestoreReplaysIdentically) {
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(SmallOptions(), &e));
  WorkloadDriver driver(e.get(), WorkloadConfig{});
  ASSERT_OK(driver.RunOps(300));
  ASSERT_OK(e->Checkpoint());
  ASSERT_OK(driver.RunOps(300));
  driver.OnCrash();
  e->SimulateCrash();

  Engine::StableSnapshot snap;
  ASSERT_OK(e->TakeStableSnapshot(&snap));

  RecoveryStats first, second;
  ASSERT_OK(e->Recover(RecoveryMethod::kSql1, &first));
  e->SimulateCrash();
  ASSERT_OK(e->RestoreStableSnapshot(snap));
  ASSERT_OK(e->Recover(RecoveryMethod::kSql1, &second));
  EXPECT_DOUBLE_EQ(first.total_ms, second.total_ms);
  EXPECT_EQ(first.data_page_fetches, second.data_page_fetches);
  EXPECT_EQ(first.dpt_size, second.dpt_size);
}

TEST(EngineTest, ClockResetsAtCrash) {
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(SmallOptions(), &e));
  WorkloadDriver driver(e.get(), WorkloadConfig{});
  ASSERT_OK(driver.RunOps(100));
  EXPECT_GT(e->clock().NowMs(), 0.0);
  driver.OnCrash();
  e->SimulateCrash();
  EXPECT_DOUBLE_EQ(e->clock().NowMs(), 0.0);
}

TEST(EngineTest, NormalOperationResumesAfterRecovery) {
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(SmallOptions(), &e));
  WorkloadDriver driver(e.get(), WorkloadConfig{});
  ASSERT_OK(driver.RunOps(200));
  driver.OnCrash();
  e->SimulateCrash();
  RecoveryStats st;
  ASSERT_OK(e->Recover(RecoveryMethod::kLog2, &st));

  // Post-recovery: updates, checkpoints and another crash/recover cycle.
  ASSERT_OK(driver.RunOps(200));
  ASSERT_OK(e->Checkpoint());
  ASSERT_OK(driver.RunOps(100));
  driver.OnCrash();
  e->SimulateCrash();
  ASSERT_OK(e->Recover(RecoveryMethod::kSql2, &st));
  uint64_t checked = 0;
  ASSERT_OK(driver.Verify(0, &checked));
  EXPECT_GT(checked, 0u);
}

TEST(EngineTest, MonitoringResumesAfterRecovery) {
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(SmallOptions(), &e));
  WorkloadDriver driver(e.get(), WorkloadConfig{});
  ASSERT_OK(driver.RunOps(100));
  driver.OnCrash();
  e->SimulateCrash();
  RecoveryStats st;
  ASSERT_OK(e->Recover(RecoveryMethod::kLog1, &st));
  const uint64_t deltas_before = e->dc().monitor().stats().delta_records;
  ASSERT_OK(driver.RunOps(1000));
  EXPECT_GT(e->dc().monitor().stats().delta_records, deltas_before);
}

TEST(EngineTest, DirtyWatermarkScalesWithCacheCurve) {
  EngineOptions small = SmallOptions();
  EngineOptions big = SmallOptions();
  big.cache_pages = small.cache_pages * 8;
  std::unique_ptr<Engine> a, b;
  ASSERT_OK(Engine::Open(small, &a));
  ASSERT_OK(Engine::Open(big, &b));
  const uint64_t wa = a->dc().pool().dirty_watermark();
  const uint64_t wb = b->dc().pool().dirty_watermark();
  EXPECT_GT(wb, wa);           // absolute watermark grows
  EXPECT_LT(wb, wa * 8);       // ...sub-linearly (Fig. 2(b) calibration)
}

// Every system-transaction record (SMO split, CreateTable) must stamp its
// own LSN into the pLSN of every page image it carries — the idempotence
// test during redo depends on it. A tiny Δ-capacity forces the dirty
// monitor to hit emission pressure inside the system transaction, which
// without AtomicScope deferral would interleave a Δ-record between the
// LSN reservation and the append and break the invariant.
TEST(EngineTest, SmoPageImagesCarryTheirRecordLsn) {
  EngineOptions o = SmallOptions();
  o.delta_dirty_capacity = 2;
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(o, &e));
  Table tbl;
  ASSERT_OK(e->OpenDefaultTable(&tbl));
  // Insert-heavy load: new keys force leaf (and eventually internal/root)
  // splits while the tiny Δ-capacity keeps the monitor at emission pressure.
  Key next = o.num_rows;
  for (int txn = 0; txn < 40; txn++) {
    Txn t;
    ASSERT_OK(e->Begin(&t));
    for (int i = 0; i < 10; i++, next++) {
      const std::string v = V(*e, next, 1);
      ASSERT_OK(t.Insert(tbl, next, v));
    }
    ASSERT_OK(t.Commit());
  }
  ASSERT_OK(e->CreateTable(/*table=*/7, /*value_size=*/16));
  e->wal().Flush();
  size_t images_checked = 0;
  for (auto it = e->wal().NewIterator(kFirstLsn, /*charge_io=*/false);
       it.Valid(); it.Next()) {
    const LogRecordView& rec = it.record();
    if (rec.type != LogRecordType::kSmo &&
        rec.type != LogRecordType::kCreateTable) {
      continue;
    }
    for (const SmoPageImageRef& p : rec.smo_pages) {
      std::vector<uint8_t> img(p.image.data(),
                               p.image.data() + p.image.size());
      PageView view(img.data(), o.page_size);
      EXPECT_EQ(view.plsn(), it.lsn()) << "pid " << p.pid;
      images_checked++;
    }
  }
  EXPECT_GT(images_checked, 0u);  // the bulk load must have split pages
}

}  // namespace
}  // namespace deutero
