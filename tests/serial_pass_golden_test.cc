// Serial-pass exactness golden. One seeded, single-client crash image is
// recovered by all five methods at recovery_threads=1, and the test prints,
// per method:
//  * every RecoveryStats field (doubles as %.17g, so a one-ulp move of any
//    simulated pass time shows);
//  * a digest of the DC pass's DPT and PF-list (logical methods) or of the
//    SQL analysis DPT (SQL methods);
//  * a digest of the log suffix the recovery appended (the undo pass's CLR
//    and abort stream).
// The text must match tests/golden/serial_pass_golden.txt byte for byte.
// The fig2a golden rounds to whole milliseconds and covers redo only; this
// one pins the analysis and undo passes exactly.
//
// A change that is MEANT to move serial simulated time regenerates the file:
//   DEUTERO_UPDATE_GOLDEN=1 build/tests/serial_pass_golden_test
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "recovery/analysis.h"
#include "recovery/stats.h"
#include "test_util.h"
#include "workload/driver.h"

namespace deutero {
namespace {

using testing_util::SmallOptions;

const char* const kGoldenPath = DEUTERO_GOLDEN_DIR "/serial_pass_golden.txt";

/// FNV-1a, 64-bit: a stable digest that does not depend on the standard
/// library's hash.
class Fnv64 {
 public:
  void Add(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; i++) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ull;
    }
  }
  void Add(uint64_t v) { Add(&v, sizeof(v)); }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

/// Order-independent DPT digest: (pid, rLSN, lastLSN) sorted by pid.
std::string DptDigest(const DirtyPageTable& dpt) {
  std::vector<std::tuple<PageId, Lsn, Lsn>> entries;
  dpt.ForEach([&](PageId pid, const DirtyPageTable::Entry& e) {
    entries.emplace_back(pid, e.rlsn, e.last_lsn);
  });
  std::sort(entries.begin(), entries.end());
  Fnv64 h;
  for (const auto& [pid, rlsn, last] : entries) {
    h.Add(pid);
    h.Add(rlsn);
    h.Add(last);
  }
  return std::to_string(entries.size()) + ":" + Hex(h.value());
}

/// Order-SENSITIVE PF-list digest: the list's order is its contract.
std::string PfListDigest(const std::vector<PageId>& pf_list) {
  Fnv64 h;
  for (PageId pid : pf_list) h.Add(pid);
  return std::to_string(pf_list.size()) + ":" + Hex(h.value());
}

class GoldenWriter {
 public:
  explicit GoldenWriter(const std::string& method) : method_(method) {}
  void U(const char* field, uint64_t v) {
    out_ << method_ << "." << field << " = " << v << "\n";
  }
  void D(const char* field, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out_ << method_ << "." << field << " = " << buf << "\n";
  }
  void S(const char* field, const std::string& v) {
    out_ << method_ << "." << field << " = " << v << "\n";
  }
  void Pass(const char* name, const PassTiming& p) {
    const std::string n(name);
    D((n + ".ms").c_str(), p.ms);
    U((n + ".log_pages").c_str(), p.log_pages);
    U((n + ".records").c_str(), p.records);
  }
  std::string str() const { return out_.str(); }

 private:
  std::string method_;
  std::ostringstream out_;
};

void PrintStats(const RecoveryStats& s, GoldenWriter* w) {
  w->Pass("dc_pass", s.dc_pass);
  w->Pass("analysis", s.analysis);
  w->Pass("redo", s.redo);
  w->Pass("undo", s.undo);
  w->D("total_ms", s.total_ms);
  w->U("dpt_size", s.dpt_size);
  w->U("delta_records_seen", s.delta_records_seen);
  w->U("bw_records_seen", s.bw_records_seen);
  w->U("smo_redone", s.smo_redone);
  w->U("redo_examined", s.redo_examined);
  w->U("redo_applied", s.redo_applied);
  w->U("redo_skipped_dpt", s.redo_skipped_dpt);
  w->U("redo_skipped_rlsn", s.redo_skipped_rlsn);
  w->U("redo_skipped_plsn", s.redo_skipped_plsn);
  w->U("redo_tail_ops", s.redo_tail_ops);
  w->U("redo_leaf_memo_hits", s.redo_leaf_memo_hits);
  w->U("redo_threads", s.redo_threads);
  w->D("redo_dispatch_cpu_ms", s.redo_dispatch_cpu_ms);
  w->D("redo_worker_cpu_ms_max", s.redo_worker_cpu_ms_max);
  w->D("redo_worker_cpu_ms_total", s.redo_worker_cpu_ms_total);
  w->U("redo_smo_barriers", s.redo_smo_barriers);
  w->U("analysis_threads", s.analysis_threads);
  w->U("dpt_updates", s.dpt_updates);
  w->D("analysis_shard_cpu_ms_max", s.analysis_shard_cpu_ms_max);
  w->D("analysis_shard_cpu_ms_total", s.analysis_shard_cpu_ms_total);
  w->U("undo_threads", s.undo_threads);
  w->U("data_page_fetches", s.data_page_fetches);
  w->U("index_page_fetches", s.index_page_fetches);
  w->U("stall_count", s.stall_count);
  w->D("stall_ms", s.stall_ms);
  w->D("data_stall_ms", s.data_stall_ms);
  w->D("index_stall_ms", s.index_stall_ms);
  w->U("prefetch_issued", s.prefetch_issued);
  w->U("prefetch_used", s.prefetch_used);
  w->U("prefetch_wasted", s.prefetch_wasted);
  w->U("pages_flushed", s.pages_flushed);
  w->U("io_retries", s.io_retries);
  w->D("backoff_ms", s.backoff_ms);
  w->U("checksum_failures", s.checksum_failures);
  w->U("pages_repaired", s.pages_repaired);
  w->U("txns_undone", s.txns_undone);
  w->U("undo_ops", s.undo_ops);
}

/// The crash image: the mixed single-client workload (inserts, deletes and
/// scans riding on updates, two checkpoints) plus three in-flight losers.
/// One updates rows spread over the whole key space, so undo misses the
/// cache; the other two also insert and delete, so undo runs every kind of
/// compensation, including the structure-changing ones.
void BuildCrashImage(const EngineOptions& o, Engine::StableSnapshot* snap) {
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(o, &e));
  WorkloadConfig wc;
  wc.insert_fraction = 0.15;
  wc.delete_fraction = 0.10;
  wc.scan_fraction = 0.05;
  WorkloadDriver driver(e.get(), wc);
  ASSERT_OK(driver.RunOps(400));
  ASSERT_OK(e->Checkpoint());
  ASSERT_OK(driver.RunOps(300));
  ASSERT_OK(e->Checkpoint());
  ASSERT_OK(driver.RunOps(300));

  Table table;
  ASSERT_OK(e->OpenDefaultTable(&table));
  const Key base = o.num_rows + 7000;
  const std::string v0(o.value_size, 's');
  const std::string v(o.value_size, 'u');
  {
    Txn setup;
    ASSERT_OK(e->Begin(&setup));
    for (uint32_t i = 1; i < 3; i++) {
      for (uint32_t j = 0; j <= 15; j++) {
        ASSERT_OK(setup.Insert(table, base + static_cast<Key>(i * 100 + j),
                               v0));
      }
    }
    ASSERT_OK(setup.Commit());
  }
  // Committed rows the spread loser can update (the driver's deletes may
  // have removed any given pre-loaded key).
  std::vector<Key> spread;
  ASSERT_OK(e->dc().btree().ScanAll([&](Key k, Slice) {
    if (k < base && k % 97 == 37) spread.push_back(k);
  }));
  ASSERT_GT(spread.size(), 30u);
  Txn losers[3];
  ASSERT_OK(e->Begin(&losers[0]));
  for (Key k : spread) ASSERT_OK(losers[0].Update(table, k, v));
  for (uint32_t i = 1; i < 3; i++) {
    ASSERT_OK(e->Begin(&losers[i]));
    for (uint32_t j = 0; j < 15; j++) {
      ASSERT_OK(
          losers[i].Update(table, base + static_cast<Key>(i * 100 + j), v));
    }
    ASSERT_OK(losers[i].Insert(table, base + static_cast<Key>(1000 + i), v));
    ASSERT_OK(losers[i].Delete(table, base + static_cast<Key>(i * 100 + 15)));
  }
  e->tc().ForceLog();
  for (Txn& t : losers) t.Release();  // in flight at the crash
  driver.OnCrash();
  e->SimulateCrash();
  ASSERT_OK(e->TakeStableSnapshot(snap));
}

/// The analysis tables of `method`, computed by the pass entry points on a
/// fresh copy of the crash image.
void AnalysisDigests(const EngineOptions& o, const Engine::StableSnapshot& snap,
                     RecoveryMethod method, GoldenWriter* w) {
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(o, &e));
  e->SimulateCrash();
  ASSERT_OK(e->RestoreStableSnapshot(snap));
  ASSERT_OK(e->dc().OpenDatabase());
  e->dc().monitor().set_enabled(false);
  e->dc().pool().set_callbacks_enabled(false);
  const Lsn start = e->wal().master().bckpt_lsn;
  if (method == RecoveryMethod::kSql1 || method == RecoveryMethod::kSql2) {
    SqlAnalysisResult ar;
    ASSERT_OK(RunSqlAnalysis(&e->wal(), start, &ar));
    w->S("analysis.dpt", DptDigest(ar.dpt));
    w->U("analysis.redo_start_lsn", ar.redo_start_lsn);
    w->U("analysis.att_size", ar.att.size());
  } else {
    DcRecoveryResult dcr;
    ASSERT_OK(RunDcRecovery(&e->wal(), &e->dc(), start, o.dpt_mode,
                            /*build_dpt=*/method != RecoveryMethod::kLog0,
                            /*preload_index=*/method == RecoveryMethod::kLog2,
                            &dcr));
    w->S("dc_pass.dpt", DptDigest(dcr.dpt));
    w->S("dc_pass.pf_list", PfListDigest(dcr.pf_list));
    w->U("dc_pass.last_delta_tc_lsn", dcr.last_delta_tc_lsn);
  }
}

std::string RenderGolden() {
  EngineOptions o = SmallOptions();
  o.recovery_threads = 1;
  Engine::StableSnapshot snap;
  BuildCrashImage(o, &snap);
  if (::testing::Test::HasFatalFailure()) return "";

  std::string text;
  for (RecoveryMethod method :
       {RecoveryMethod::kLog0, RecoveryMethod::kLog1, RecoveryMethod::kLog2,
        RecoveryMethod::kSql1, RecoveryMethod::kSql2}) {
    GoldenWriter w(RecoveryMethodName(method));
    std::unique_ptr<Engine> e;
    EXPECT_OK(Engine::Open(o, &e));
    e->SimulateCrash();
    EXPECT_OK(e->RestoreStableSnapshot(snap));
    const Lsn crash_end = e->wal().next_lsn();
    RecoveryStats st;
    EXPECT_OK(e->Recover(method, &st));
    PrintStats(st, &w);

    // Everything recovery appended: the undo pass's CLRs and abort records.
    const Slice suffix = e->wal().StableBytes(crash_end);
    Fnv64 h;
    h.Add(suffix.data(), suffix.size());
    w.S("log_suffix", std::to_string(suffix.size()) + ":" + Hex(h.value()));

    AnalysisDigests(o, snap, method, &w);
    text += w.str();
  }
  return text;
}

TEST(SerialPassGolden, FiveMethodsMatchRecordedFile) {
  const std::string text = RenderGolden();
  ASSERT_FALSE(HasFailure());
  ASSERT_FALSE(text.empty());

  if (std::getenv("DEUTERO_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(kGoldenPath, std::ios::binary | std::ios::trunc);
    out << text;
    ASSERT_TRUE(out.good()) << "cannot write " << kGoldenPath;
    GTEST_SKIP() << "golden rewritten: " << kGoldenPath;
  }

  std::ifstream in(kGoldenPath, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << kGoldenPath;
  std::stringstream golden;
  golden << in.rdbuf();
  if (golden.str() == text) return;

  // Name every differing line, not just the first.
  std::istringstream want(golden.str());
  std::istringstream got(text);
  std::string a;
  std::string b;
  while (true) {
    const bool more_a = static_cast<bool>(std::getline(want, a));
    const bool more_b = static_cast<bool>(std::getline(got, b));
    if (!more_a && !more_b) break;
    EXPECT_EQ(more_a ? a : "<eof>", more_b ? b : "<eof>");
  }
  FAIL() << "serial recovery output differs from " << kGoldenPath;
}

}  // namespace
}  // namespace deutero
