// recover_uniform_fit and recover_zipf_evict_par, plus the recovery
// rounds, probes and reporting every workload shares.
#include <sys/resource.h>

#include <memory>
#include <random>
#include <unordered_set>

#include "btree/btree.h"
#include "common/value_codec.h"
#include "workload/driver.h"
#include "workloads.h"

namespace perfbench {

using deutero::Engine;
using deutero::EngineOptions;
using deutero::Lsn;
using deutero::RecoveryStats;
using deutero::Status;
using deutero::Table;
using deutero::Txn;
using deutero::WorkloadConfig;
using deutero::WorkloadDriver;

namespace {

/// The geometry of one recovery workload.
struct RecoverSpec {
  EngineOptions engine;
  WorkloadConfig workload;
  uint64_t redo_ops = 0;      ///< Driver operations after the checkpoint.
  uint32_t losers = 0;        ///< Transactions in flight at the crash.
  uint32_t loser_updates = 0; ///< Updates per loser (plus 1 insert, 1 delete).
};

RecoverSpec MakeSpec(const Args& args) {
  const bool zipf = args.workload == "recover_zipf_evict_par";
  RecoverSpec s;
  EngineOptions& o = s.engine;
  o.num_rows = args.tiny ? 20'000 : 1'000'000;
  o.cache_pages = zipf ? (args.tiny ? 24 : 819) : (args.tiny ? 256 : 8192);
  o.recovery_threads = zipf ? 4 : 1;
  o.io.io_channels = zipf ? 4 : 1;
  o.seed = args.seed;
  WorkloadConfig& w = s.workload;
  w.distribution = zipf ? WorkloadConfig::Distribution::kZipfian
                        : WorkloadConfig::Distribution::kUniform;
  w.zipf_theta = 0.99;
  w.insert_fraction = zipf ? 0.05 : 0.0;
  w.delete_fraction = zipf ? 0.05 : 0.0;
  w.seed = args.seed;
  s.redo_ops = args.tiny ? 6'000 : 300'000;
  s.losers = args.tiny ? 4 : 8;
  s.loser_updates = args.tiny ? 20 : 250;
  return s;
}

/// One crash image: the crashed engine, the driver holding its oracle, and
/// the stable state every repetition restores.
struct CrashImage {
  std::unique_ptr<Engine> engine;
  std::unique_ptr<WorkloadDriver> driver;
  Engine::StableSnapshot snap;
  Lsn redo_start = deutero::kInvalidLsn;
  Key scan_hi = 0;  ///< Every key the workload wrote is at most this.
};

/// Open, load, checkpoint, run the redo window, leave fat losers in flight
/// (as the micro bench BM_ParallelUndo does) and crash.
Status BuildCrashImage(const RecoverSpec& spec, uint64_t seed,
                       Tracer::Buffer* trace, CrashImage* out) {
  {
    ScopedSpan sp(trace, SpanName::kOpen, 0);
    DEUTERO_RETURN_NOT_OK(Engine::Open(spec.engine, &out->engine));
  }
  Engine* e = out->engine.get();
  {
    ScopedSpan sp(trace, SpanName::kCheckpoint, 0);
    DEUTERO_RETURN_NOT_OK(e->Checkpoint());
  }
  out->redo_start = e->wal().master().bckpt_lsn;
  out->driver = std::make_unique<WorkloadDriver>(e, spec.workload);
  WorkloadDriver* d = out->driver.get();
  {
    ScopedSpan sp(trace, SpanName::kDriverOps, 0);
    DEUTERO_RETURN_NOT_OK(d->RunOps(spec.redo_ops));
  }

  // Losers touch live keys the oracle knows, each its own; their inserts go
  // just past every key the driver handed out.
  std::mt19937_64 rng(seed * 7919 + 17);
  std::uniform_int_distribution<Key> pick(0, spec.engine.num_rows - 1);
  std::unordered_set<Key> used;
  auto live_key = [&]() -> Key {
    for (;;) {
      const Key k = pick(rng);
      if (used.count(k) == 0 && !d->ExpectedValue(k).empty()) {
        used.insert(k);
        return k;
      }
    }
  };
  Table table;
  DEUTERO_RETURN_NOT_OK(e->OpenDefaultTable(&table));
  const uint32_t vs = spec.engine.value_size;
  const Key fresh = d->fresh_key_bound() + 1;
  std::vector<Txn> losers(spec.losers);
  for (uint32_t i = 0; i < spec.losers; i++) {
    DEUTERO_RETURN_NOT_OK(e->Begin(&losers[i]));
    for (uint32_t j = 0; j < spec.loser_updates; j++) {
      const Key k = live_key();
      DEUTERO_RETURN_NOT_OK(losers[i].Update(
          table, k, deutero::SynthesizeValueString(k, 1'000'000 + i, vs)));
    }
    DEUTERO_RETURN_NOT_OK(losers[i].Insert(
        table, fresh + i,
        deutero::SynthesizeValueString(fresh + i, 1'000'000, vs)));
    DEUTERO_RETURN_NOT_OK(losers[i].Delete(table, live_key()));
  }
  // A committed rewrite of an unchanged value forces the log, losers'
  // records included, without changing what the oracle expects.
  {
    const Key k = live_key();
    Txn force;
    DEUTERO_RETURN_NOT_OK(e->Begin(&force));
    DEUTERO_RETURN_NOT_OK(force.Update(table, k, d->ExpectedValue(k)));
    DEUTERO_RETURN_NOT_OK(force.Commit());
  }
  for (Txn& t : losers) t.Release();  // in flight at the crash
  out->scan_hi = fresh + spec.losers + 1;
  d->OnCrash();
  {
    ScopedSpan sp(trace, SpanName::kSimulateCrash, 0);
    e->SimulateCrash();
  }
  return e->TakeStableSnapshot(&out->snap);
}

}  // namespace

void RunRecoveryRounds(Engine* engine, const Engine::StableSnapshot& snap,
                       double seconds, uint32_t min_rounds,
                       const Verifier& verify, bool alternate_tracing,
                       Tracer::Buffer* trace, Report* report,
                       RoundsResult* out) {
  const std::vector<RecoveryMethod>& methods = AllMethods();
  out->methods.assign(methods.size(), MethodSamples());
  // The process's first recovery pays one-time costs (first touch of the
  // cache frames and log buffers); it is verified but not timed.
  Status s = engine->RestoreStableSnapshot(snap);
  if (s.ok()) s = engine->Recover(RecoveryMethod::kLog0, nullptr);
  report->Count(s, "Engine::Recover (warm-up)");
  if (s.ok()) report->Count(verify(), "oracle (every key written)");
  if (engine->running()) engine->SimulateCrash();

  const int64_t t_start = NowNs();
  for (uint32_t round = 0;
       round < min_rounds || MsSince(t_start) < seconds * 1e3; round++) {
    const bool traced = alternate_tracing && round % 2 == 1;
    Tracer::Buffer* buf = traced ? trace : nullptr;
    double round_ms = 0;
    for (size_t i = 0; i < methods.size(); i++) {
      const size_t mi = (i + round) % methods.size();
      const uint64_t run = uint64_t{round} * methods.size() + i + 1;
      MethodSamples& ms = out->methods[mi];
      ScopedSpan rep(buf, SpanName::kRepetition, run);
      int64_t t0 = NowNs();
      {
        ScopedSpan sp(buf, SpanName::kRestore, run);
        s = engine->RestoreStableSnapshot(snap);
      }
      out->restore_ms.push_back(MsSince(t0));
      report->Count(s, "Engine::RestoreStableSnapshot");
      if (!s.ok()) continue;

      RecoveryStats st;
      const uint64_t steal0 = HostStealTicks();
      t0 = NowNs();
      {
        ScopedSpan sp(buf, SpanName::kRecover, run);
        s = engine->Recover(methods[mi], &st);
      }
      const double wall = MsSince(t0);
      const uint64_t steal = HostStealTicks() - steal0;
      report->Count(s, "Engine::Recover");
      if (s.ok()) {
        round_ms += wall;
        if (!traced) {
          ms.wall_ms.push_back(wall);
          ms.wall_steal.push_back(steal);
        }
        ms.sim_ms.push_back(st.total_ms);
        ms.stats = st;
        // Recover resets the pool and disk counters on entry, so these are
        // this recovery's own.
        ms.evictions = engine->dc().pool().stats().evictions;
        ms.read_ios = engine->dc().disk().stats().read_ios;
        ms.read_service_ms = engine->dc().disk().stats().read_service_ms;
        ScopedSpan sp(buf, SpanName::kVerify, run);
        report->Count(verify(), "oracle (every key written)");
      }
      if (engine->running()) {
        ScopedSpan sp(buf, SpanName::kSimulateCrash, run);
        engine->SimulateCrash();
      }
    }
    (traced ? out->round_ms_traced : out->round_ms).push_back(round_ms);
    out->rounds++;
  }
  // Leave the engine running (untimed) for the phases that follow.
  s = engine->RestoreStableSnapshot(snap);
  if (s.ok()) s = engine->Recover(RecoveryMethod::kSql1, nullptr);
  report->Count(s, "Engine::Recover (final)");
}

void ReportRecovery(const RoundsResult& rounds, Report* report) {
  const std::vector<RecoveryMethod>& methods = AllMethods();
  for (size_t i = 0; i < methods.size(); i++) {
    const MethodSamples& ms = rounds.methods[i];
    const RecoveryStats& st = ms.stats;
    const std::string m = deutero::RecoveryMethodName(methods[i]);
    auto layer = [&](const std::string& name, double v, const char* unit) {
      report->Set(name + "." + m, v, unit, Layer::kPerLayer);
    };
    // Recoveries the hypervisor visibly interrupted are left out while
    // enough others remain.
    const std::vector<double> wall = LeastDisturbed(
        ms.wall_ms, ms.wall_steal, std::max<size_t>(3, ms.wall_ms.size() / 4));
    report->Set("recover_wall_ms." + m, Median(wall), "ms", Layer::kEndToEnd);
    report->Set("recover_sim_ms." + m, Median(ms.sim_ms), "sim_ms",
                Layer::kEndToEnd);
    std::string samples;
    for (double w : ms.wall_ms) samples += " " + std::to_string(w).substr(0, 7);
    report->Note("recover " + m + " wall ms (" +
                 std::to_string(ms.wall_ms.size()) + " samples, the " +
                 std::to_string(wall.size()) +
                 " least disturbed by host steal used):" + samples);

    layer("wal.log_pages_scanned",
          static_cast<double>(st.dc_pass.log_pages + st.analysis.log_pages +
                              st.redo.log_pages + st.undo.log_pages),
          "count");
    layer("recovery.leaf_memo_hit_ratio",
          Ratio(st.redo_leaf_memo_hits, st.redo_examined), "ratio");
    layer("recovery.analysis_sim_ms", st.dc_pass.ms + st.analysis.ms,
          "sim_ms");
    layer("recovery.redo_sim_ms", st.redo.ms, "sim_ms");
    layer("recovery.undo_sim_ms", st.undo.ms, "sim_ms");
    layer("recovery.redo_examined", st.redo_examined, "count");
    layer("recovery.redo_apply_ratio",
          Ratio(st.redo_applied, st.redo_examined), "ratio");
    layer("recovery.dpt_size", st.dpt_size, "count");
    layer("recovery.undo_ops", st.undo_ops, "count");
    // Slowest redo worker's CPU over the mean worker's; 1 when serial.
    const double mean_worker =
        st.redo_threads > 0 ? st.redo_worker_cpu_ms_total / st.redo_threads
                            : 0;
    layer("recovery.worker_balance",
          st.redo_threads > 1 && mean_worker > 0
              ? st.redo_worker_cpu_ms_max / mean_worker
              : 1.0,
          "ratio");
    layer("recovery.dispatch_sim_ms", st.redo_dispatch_cpu_ms, "sim_ms");
    layer("recovery.smo_barriers", st.redo_smo_barriers, "count");
    layer("storage.data_fetches", st.data_page_fetches, "count");
    layer("storage.index_fetches", st.index_page_fetches, "count");
    layer("storage.evictions", ms.evictions, "count");
    layer("storage.stall_sim_ms", st.stall_ms, "sim_ms");
    layer("storage.prefetch_used_ratio",
          Ratio(st.prefetch_used, st.prefetch_issued), "ratio");
    layer("sim.read_ios", ms.read_ios, "count");
    layer("sim.read_service_ms", ms.read_service_ms, "sim_ms");
  }
  report->Set("core.restore_wall_ms", Median(rounds.restore_ms), "ms",
              Layer::kPerLayer);
  report->Note("recovery rounds: " + std::to_string(rounds.rounds) +
               " (each restores the image and recovers it with all five "
               "methods)");
}

void RunProbes(Engine* engine, Lsn start, Tracer::Buffer* trace,
               Report* report) {
  constexpr int kReps = 3;
  const deutero::TableId table = engine->options().table_id;
  std::vector<Key> keys;
  for (auto it = engine->wal().NewIterator(start, /*charge_io=*/false);
       it.Valid(); it.Next()) {
    const deutero::LogRecordView& r = it.record();
    if ((r.type == deutero::LogRecordType::kUpdate ||
         r.type == deutero::LogRecordType::kInsert ||
         r.type == deutero::LogRecordType::kDelete) &&
        r.table_id == table) {
      keys.push_back(r.key);
    }
  }

  std::vector<double> scan_ns;
  uint64_t records = 0;
  for (int rep = 0; rep < kReps; rep++) {
    ScopedSpan sp(trace, SpanName::kWalScanProbe, 0);
    records = 0;
    uint64_t type_sum = 0;
    const int64_t t0 = NowNs();
    for (auto it = engine->wal().NewIterator(start, /*charge_io=*/false);
         it.Valid(); it.Next()) {
      type_sum += static_cast<uint64_t>(it.record().type);
      records++;
    }
    scan_ns.push_back(Ratio(NowNs() - t0, records));
    if (type_sum == 0 && records > 0) report->Note("log scan saw no types");
  }

  deutero::BTree* tree = engine->dc().FindTable(table);
  std::vector<double> find_ns;
  for (int rep = 0; rep < kReps && tree != nullptr && !keys.empty(); rep++) {
    ScopedSpan sp(trace, SpanName::kFindProbe, 0);
    Status failed;
    const int64_t t0 = NowNs();
    for (Key k : keys) {
      deutero::PageId pid = deutero::kInvalidPageId;
      Key lo = 0, hi = 0;
      bool bounded = false;
      Status s = tree->FindRanged(k, &pid, &lo, &hi, &bounded);
      if (!s.ok()) failed = s;
    }
    find_ns.push_back(Ratio(NowNs() - t0, keys.size()));
    report->Count(failed, "BTree::FindRanged probe");
  }
  report->Set("wal.scan_ns_per_record", Median(scan_ns), "ns",
              Layer::kPerLayer);
  report->Set("btree.find_ns", Median(find_ns), "ns", Layer::kPerLayer);
  report->Note("probes over the redo window: " + std::to_string(records) +
               " log records, " + std::to_string(keys.size()) +
               " logged keys");
}

void ReportSetupAndMemory(const std::vector<double>& setup_s,
                          Report* report) {
  report->Set("setup_s", Median(setup_s), "s", Layer::kEndToEnd);
  report->Note("setup repetitions: " + std::to_string(setup_s.size()));
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  report->Set("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0,
              "MB", Layer::kEndToEnd);
}

void ReportOverhead(const std::vector<double>& traced,
                    const std::vector<double>& untraced, const char* what,
                    Report* report) {
  const double ratio = Ratio(Median(traced), Median(untraced));
  report->Set("trace.overhead_ratio", ratio, "ratio", Layer::kPerLayer);
  report->Note(std::string("tracing overhead: traced/untraced median ") +
               what + " = " + std::to_string(ratio) + " (" +
               std::to_string(traced.size()) + " traced vs " +
               std::to_string(untraced.size()) + " untraced samples)");
}

void WriteSpans(const Tracer& tracer, const Args& args, Report* report) {
  const std::string path = args.trace_dir + "/" + args.workload + ".spans.csv";
  report->Note("spans: " + std::to_string(tracer.span_count()) +
               " written to " + path + " (" +
               std::to_string(tracer.dropped()) + " dropped)");
  if (!tracer.WriteCsv(path)) report->Note("could not write " + path);
}

Status RunRecoverWorkload(const Args& args, Report* report) {
  const RecoverSpec spec = MakeSpec(args);
  Tracer tracer;
  Tracer::Buffer* main_buf = args.trace ? tracer.NewBuffer() : nullptr;

  // Set-up is repeated and its median reported; the last image is kept.
  const int setup_reps = args.tiny ? 1 : 3;
  std::vector<double> setup_s;
  CrashImage image;
  for (int rep = 0; rep < setup_reps; rep++) {
    image.driver.reset();  // before the engine it points to
    image = CrashImage();
    const int64_t t0 = NowNs();
    ScopedSpan sp(main_buf, SpanName::kSetup, 0);
    DEUTERO_RETURN_NOT_OK(BuildCrashImage(spec, args.seed, main_buf, &image));
    setup_s.push_back(MsSince(t0) / 1e3);
  }
  Engine* e = image.engine.get();
  WorkloadDriver* d = image.driver.get();
  report->Note("crash image: " + std::to_string(spec.engine.num_rows) +
               " rows, " + std::to_string(spec.redo_ops) +
               " driver ops after the checkpoint, " +
               std::to_string(spec.losers) + " losers x " +
               std::to_string(spec.loser_updates + 2) + " ops, cache " +
               std::to_string(spec.engine.cache_pages) + " pages");

  // The oracle: the driver's committed versions (losers and uncommitted
  // inserts must be gone). Every key up to scan_hi is checked.
  const uint64_t rows = spec.engine.num_rows;
  const auto& committed = d->committed_versions();
  const InitialState initial = [&committed, rows](Key k) {
    auto it = committed.find(k);
    if (it != committed.end()) {
      return it->second == WorkloadDriver::kTombstone
                 ? KeyState{0, false}
                 : KeyState{it->second, true};
    }
    return KeyState{0, k < rows};
  };
  const Key scan_hi = image.scan_hi;
  std::vector<KeyState> expected(scan_hi + 1);
  for (Key k = 0; k <= scan_hi; k++) expected[k] = initial(k);
  const Verifier verify = [e, &expected] {
    uint64_t seen = 0;
    return VerifyTable(e, expected, &seen);
  };
  // Most of the run recovers the image; a short commit burst on the
  // recovered engine closes it.
  RoundsResult rounds;
  RunRecoveryRounds(e, image.snap, args.seconds * 0.85, args.tiny ? 1 : 2,
                    verify, args.trace, main_buf, report, &rounds);
  ReportRecovery(rounds, report);
  if (args.trace) {
    RunProbes(e, image.redo_start, main_buf, report);
    ReportOverhead(rounds.round_ms_traced, rounds.round_ms,
                   "recovery round wall time", report);
  }

  // One client: the recovered engine runs without group commit, where
  // clients contending for the engine's write gate make latency bimodal.
  LoadConfig lc;
  lc.clients = 1;
  lc.slice_hi = rows;
  lc.fresh_base = scan_hi + 1;
  lc.checkpoint_every = args.tiny ? 200 : 5'000;
  lc.seed = args.seed;
  ClosedLoop loop(e, lc, initial, args.trace ? &tracer : nullptr);
  const ForwardCounters before = ForwardCounters::Read(e);
  LoadResult load;
  loop.Run(args.seconds * 0.15, 0, args.trace, /*checkpoints=*/true, report,
           &load);
  const ForwardCounters after = ForwardCounters::Read(e);
  ReportForward(load, before, after, args.trace ? &tracer : nullptr, report);
  uint64_t checked = 0;
  report->Count(VerifyTable(e, loop.ExpectedTable(), &checked),
                "oracle (commit burst)");

  ReportSetupAndMemory(setup_s, report);
  if (args.trace) WriteSpans(tracer, args, report);
  return Status::OK();
}

}  // namespace perfbench
