#include "commit_workload.h"

#include <algorithm>
#include <cstring>
#include <thread>

#include "common/value_codec.h"
#include "workloads.h"

namespace perfbench {

using deutero::Engine;
using deutero::Lsn;
using deutero::Slice;
using deutero::Status;
using deutero::Table;
using deutero::Txn;

struct ClosedLoop::Client {
  uint32_t index = 0;
  std::mt19937_64 rng;
  Key lo = 0, hi = 0;  ///< Owned slice of the loaded keys.
  Key next_fresh = 0;
  uint32_t next_ver = 0;
  std::unordered_map<Key, KeyState> touched;  ///< Committed writes.
  Tracer::Buffer* buffer = nullptr;
  uint64_t txn_seq = 0;

  // Per-Run() results, folded by the main thread after the join.
  uint64_t committed = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<TxnSample> samples;
  uint64_t writes = 0;
  uint64_t user_bytes = 0;

  void Fail(const Status& s, const char* what) {
    failed++;
    if (errors.size() < 4) errors.push_back(std::string(what) + ": " +
                                            s.ToString());
  }
};

ClosedLoop::ClosedLoop(Engine* engine, const LoadConfig& config,
                       InitialState initial, Tracer* tracer)
    : engine_(engine),
      config_(config),
      initial_(std::move(initial)),
      tracer_(tracer),
      value_size_(engine->options().value_size) {
  const Key span = config_.slice_hi / config_.clients;
  for (uint32_t i = 0; i < config_.clients; i++) {
    auto c = std::make_unique<Client>();
    c->index = i;
    c->rng.seed(config_.seed * 1'000'003 + i);
    c->lo = span * i;
    c->hi = i + 1 == config_.clients ? config_.slice_hi : c->lo + span;
    c->next_fresh = config_.fresh_base + i;
    // Versions only need to be reproducible from the oracle; a per-client
    // base keeps them apart from the loaded data's small versions.
    c->next_ver = (i + 1) << 24;
    if (tracer_ != nullptr) c->buffer = tracer_->NewBuffer();
    clients_.push_back(std::move(c));
  }
}

ClosedLoop::~ClosedLoop() = default;

Key ClosedLoop::key_bound() const {
  Key bound = std::max(config_.slice_hi, config_.fresh_base);
  for (const auto& c : clients_) bound = std::max(bound, c->next_fresh);
  return bound;
}

void ClosedLoop::RunTxn(Client* c, const Table& table) {
  const bool traced = tracing_.load(std::memory_order_relaxed);
  Tracer::Buffer* buf = traced ? c->buffer : nullptr;
  const uint64_t run = (uint64_t{c->index + 1} << 40) | ++c->txn_seq;
  ScopedSpan txn_span(buf, SpanName::kTxn, run);
  const int64_t t0 = NowNs();

  Txn txn;
  Status s;
  {
    ScopedSpan sp(buf, SpanName::kBegin, run);
    s = engine_->Begin(&txn);
  }
  c->attempted++;
  if (!s.ok()) {
    c->Fail(s, "Begin");
    return;
  }

  std::vector<std::pair<Key, KeyState>> pending;
  auto current = [&](Key k) -> KeyState {
    for (const auto& [pk, st] : pending) {
      if (pk == k) return st;
    }
    auto it = c->touched.find(k);
    return it != c->touched.end() ? it->second : initial_(k);
  };
  auto in_txn = [&](Key k) {
    for (const auto& p : pending) {
      if (p.first == k) return true;
    }
    return false;
  };
  std::uniform_int_distribution<Key> pick(c->lo, c->hi - 1);
  std::uniform_real_distribution<double> u01(0, 1);
  // A key of the own slice not yet written by this transaction, live if
  // `want_live`; false when a few draws found none.
  auto draw = [&](bool want_live, Key* out) {
    for (int i = 0; i < 16; i++) {
      const Key k = pick(c->rng);
      if (in_txn(k)) continue;
      if (!want_live || current(k).live) {
        *out = k;
        return true;
      }
    }
    return false;
  };

  char value[256];
  const uint32_t vs = std::min<uint32_t>(value_size_, sizeof(value));
  auto make_value = [&](Key k, uint32_t ver) {
    deutero::SynthesizeValue(k, ver, vs, reinterpret_cast<uint8_t*>(value));
    return Slice(value, vs);
  };

  // Cumulative operation mix; the rest are updates.
  constexpr double kRead = 0.15;
  constexpr double kInsert = kRead + 0.10;
  constexpr double kDelete = kInsert + 0.10;
  constexpr uint32_t kOpsPerTxn = 4;
  for (uint32_t op = 0; op < kOpsPerTxn; op++) {
    const double r = u01(c->rng);
    Key k = 0;
    if (r < kRead && draw(/*want_live=*/true, &k)) {
      std::string got;
      {
        ScopedSpan sp(buf, SpanName::kRead, run);
        s = txn.Read(table, k, &got);
      }
      c->attempted++;
      if (!s.ok()) {
        c->Fail(s, "Txn::Read");
        return;
      }
      const KeyState st = current(k);
      const Slice want = make_value(k, st.ver);
      c->attempted++;  // the oracle check of the value read
      if (Slice(got) != want) {
        c->Fail(Status::Corruption("read mismatch at key " +
                                   std::to_string(k)),
                "oracle");
        return;
      }
      continue;
    }
    if (r >= kRead && r < kInsert) {
      k = c->next_fresh;
      c->next_fresh += config_.clients;
      const uint32_t ver = ++c->next_ver;
      {
        ScopedSpan sp(buf, SpanName::kInsert, run);
        s = txn.Insert(table, k, make_value(k, ver));
      }
      c->attempted++;
      c->writes++;
      c->user_bytes += vs;
      if (!s.ok()) {
        c->Fail(s, "Txn::Insert");
        return;
      }
      pending.emplace_back(k, KeyState{ver, true});
      continue;
    }
    if (r >= kInsert && r < kDelete && draw(/*want_live=*/true, &k)) {
      {
        ScopedSpan sp(buf, SpanName::kDelete, run);
        s = txn.Delete(table, k);
      }
      c->attempted++;
      c->writes++;
      if (!s.ok()) {
        c->Fail(s, "Txn::Delete");
        return;
      }
      pending.emplace_back(k, KeyState{current(k).ver, false});
      continue;
    }
    // Update; a deleted key is inserted back instead.
    if (!draw(/*want_live=*/false, &k)) continue;
    const bool live = current(k).live;
    const uint32_t ver = ++c->next_ver;
    {
      ScopedSpan sp(buf, live ? SpanName::kUpdate : SpanName::kInsert, run);
      s = live ? txn.Update(table, k, make_value(k, ver))
               : txn.Insert(table, k, make_value(k, ver));
    }
    c->attempted++;
    c->writes++;
    c->user_bytes += vs;
    if (!s.ok()) {
      c->Fail(s, live ? "Txn::Update" : "Txn::Insert");
      return;
    }
    pending.emplace_back(k, KeyState{ver, true});
  }

  {
    ScopedSpan sp(buf, SpanName::kCommit, run);
    s = txn.Commit();
  }
  const int64_t t1 = NowNs();
  c->attempted++;
  if (!s.ok()) {
    c->Fail(s, "Txn::Commit");
    return;
  }
  for (const auto& [k, st] : pending) c->touched[k] = st;
  c->samples.push_back(
      TxnSample{t1, static_cast<float>((t1 - t0) / 1e3), traced});
  c->committed++;
  acked_.fetch_add(1, std::memory_order_relaxed);
}

void ClosedLoop::ClientMain(Client* c, uint64_t quota) {
  Table table;
  const Status s = engine_->OpenDefaultTable(&table);
  c->attempted++;
  if (!s.ok()) {
    c->Fail(s, "OpenTable");
    return;
  }
  while (!stop_.load(std::memory_order_relaxed) &&
         (quota == 0 || c->committed < quota)) {
    // A failed transaction aborts through the Txn destructor; the run goes
    // on (the failure is counted and fails the run).
    RunTxn(c, table);
  }
}

void ClosedLoop::Run(double seconds, uint64_t txns_per_client,
                     bool alternate_tracing, bool checkpoints,
                     Report* report, LoadResult* out) {
  *out = LoadResult();
  for (auto& c : clients_) {
    c->committed = c->attempted = c->failed = 0;
    c->errors.clear();
    c->samples.clear();
    c->writes = c->user_bytes = 0;
  }
  stop_ = false;
  acked_ = 0;
  tracing_ = false;
  Tracer::Buffer* main_buf =
      alternate_tracing && tracer_ != nullptr ? tracer_->NewBuffer() : nullptr;

  const int64_t t0 = NowNs();
  std::vector<std::thread> threads;
  for (auto& c : clients_) {
    threads.emplace_back([this, cp = c.get(), txns_per_client] {
      ClientMain(cp, txns_per_client);
    });
  }
  uint64_t next_ckpt = config_.checkpoint_every;
  int64_t next_toggle = t0 + 100'000'000;
  // Host steal at every window boundary (the loop wakes every 1 ms).
  constexpr int64_t kWindowNs = 250'000'000;
  std::vector<uint64_t> steal_at = {HostStealTicks()};
  const uint64_t target = txns_per_client * clients_.size();
  for (;;) {
    const int64_t now = NowNs();
    if ((txns_per_client > 0 && acked_.load() >= target) ||
        (seconds > 0 && now - t0 >= static_cast<int64_t>(seconds * 1e9))) {
      break;
    }
    if (now - t0 >= static_cast<int64_t>(steal_at.size()) * kWindowNs) {
      steal_at.push_back(HostStealTicks());
    }
    if (alternate_tracing && now >= next_toggle) {
      tracing_ = !tracing_.load();
      next_toggle = now + 100'000'000;
    }
    if (checkpoints && config_.checkpoint_every > 0 &&
        acked_.load() >= next_ckpt) {
      uint64_t pages = 0;
      const int64_t c0 = NowNs();
      Status s;
      {
        ScopedSpan sp(tracing_.load() ? main_buf : nullptr,
                      SpanName::kCheckpoint, 0);
        s = engine_->Checkpoint(&pages);
      }
      out->checkpoint_ms.push_back(MsSince(c0));
      out->checkpoint_pages += pages;
      report->Count(s, "Engine::Checkpoint");
      next_ckpt += config_.checkpoint_every;
      continue;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop_ = true;
  for (std::thread& t : threads) t.join();
  out->wall_s = (NowNs() - t0) / 1e9;
  tracing_ = false;

  // Latency and rate per 0.25 s window of commit completion; the partial
  // last window is dropped. Untraced transactions only, except that every
  // commit counts toward the window's rate.
  const size_t windows = std::min(
      static_cast<size_t>((NowNs() - t0) / kWindowNs), steal_at.size() - 1);
  std::vector<std::vector<double>> lat(windows);
  std::vector<uint64_t> commits(windows, 0);
  for (auto& c : clients_) {
    out->acked += c->committed;
    for (const TxnSample& t : c->samples) {
      (t.traced ? out->txn_us_traced : out->txn_us).push_back(t.us);
      const size_t w = static_cast<size_t>((t.end_ns - t0) / kWindowNs);
      if (w >= windows) continue;
      commits[w]++;
      if (!t.traced) lat[w].push_back(t.us);
    }
    out->writes += c->writes;
    out->user_bytes += c->user_bytes;
    report->CountMany(c->attempted, c->failed, c->errors);
  }
  for (size_t w = 0; w < windows; w++) {
    out->window_tps.push_back(commits[w] * 1e9 / kWindowNs);
    out->window_p50.push_back(Percentile(lat[w], 0.50));
    out->window_p99.push_back(Percentile(lat[w], 0.99));
    out->window_steal.push_back(steal_at[w + 1] - steal_at[w]);
  }
}

std::vector<KeyState> ClosedLoop::ExpectedTable() const {
  std::vector<KeyState> out(key_bound() + 1);
  for (Key k = 0; k < out.size(); k++) out[k] = initial_(k);
  for (const auto& c : clients_) {
    for (const auto& [k, st] : c->touched) out[k] = st;
  }
  return out;
}

Status VerifyTable(Engine* engine, const std::vector<KeyState>& expected,
                   uint64_t* rows) {
  Table table;
  DEUTERO_RETURN_NOT_OK(engine->OpenDefaultTable(&table));
  if (expected.empty()) return Status::InvalidArgument("empty oracle");
  const Key hi = expected.size() - 1;
  std::vector<uint8_t> want(table.value_size());
  auto mismatch = [](const char* what, Key k) {
    return Status::Corruption(std::string(what) + " at key " +
                              std::to_string(k));
  };
  deutero::ScanCursor cur;
  DEUTERO_RETURN_NOT_OK(table.Scan(0, hi, &cur));
  uint64_t n = 0;
  Key expect = 0;
  for (; cur.Valid(); n++) {
    const Key k = cur.key();
    if (k < expect) return mismatch("scan out of order", k);
    for (; expect < k; expect++) {
      if (expected[expect].live) return mismatch("missing row", expect);
    }
    const KeyState st = expected[k];
    if (!st.live) return mismatch("row that must not exist", k);
    deutero::SynthesizeValue(k, st.ver, table.value_size(), want.data());
    const Slice got = cur.value();
    if (got.size() != want.size() ||
        std::memcmp(got.data(), want.data(), want.size()) != 0) {
      return mismatch("value mismatch", k);
    }
    expect = k + 1;
    DEUTERO_RETURN_NOT_OK(cur.Next());
  }
  for (; expect <= hi; expect++) {
    if (expected[expect].live) return mismatch("missing row", expect);
  }
  if (rows != nullptr) *rows = n;
  return Status::OK();
}

ForwardCounters ForwardCounters::Read(Engine* engine) {
  ForwardCounters c;
  c.engine = engine->Stats();
  c.pool = engine->dc().pool().stats();
  c.disk = engine->dc().disk().stats();
  c.log = engine->wal().StatsSnapshot();
  return c;
}

void ReportForward(const LoadResult& load, const ForwardCounters& before,
                   const ForwardCounters& after, const Tracer* tracer,
                   Report* report) {
  // Medians over the 0.25 s windows the hypervisor did not visibly
  // interrupt (at least the eighth it interrupted least), so host stalls,
  // which hit lock holders and the batcher hand-off hard, do not decide the
  // run.
  const size_t min_keep = std::max<size_t>(4, load.window_tps.size() / 8);
  const std::vector<double> tps =
      LeastDisturbed(load.window_tps, load.window_steal, min_keep);
  report->Set("commit_tps", Median(tps), "txn/s", Layer::kEndToEnd);
  report->Set("txn_p50_us",
              Median(LeastDisturbed(load.window_p50, load.window_steal,
                                 min_keep)),
              "us", Layer::kEndToEnd);
  report->Set("txn_p99_us",
              Median(LeastDisturbed(load.window_p99, load.window_steal,
                                 min_keep)),
              "us", Layer::kEndToEnd);
  report->Note("commit load: " + std::to_string(load.acked) +
               " acknowledged commits in " + std::to_string(load.wall_s) +
               " s; latency samples " + std::to_string(load.txn_us.size()) +
               " untraced, " + std::to_string(load.txn_us_traced.size()) +
               " traced; " + std::to_string(load.checkpoint_ms.size()) +
               " checkpoints");
  std::string windows;
  for (size_t w = 0; w < load.window_tps.size(); w++) {
    windows += " " + std::to_string(static_cast<int>(load.window_tps[w])) +
               "/" + std::to_string(static_cast<int>(load.window_p99[w])) +
               "/" + std::to_string(load.window_steal[w]);
  }
  report->Note("per 0.25 s window, commits/s / p99 us / steal ticks:" +
               windows);
  report->Note(std::to_string(tps.size()) + " of " +
               std::to_string(load.window_tps.size()) +
               " windows used (those least disturbed by host steal)");
  report->Note("whole load: " +
               std::to_string(Ratio(load.acked, load.wall_s)) +
               " commits/s, p50 " +
               std::to_string(Percentile(load.txn_us, 0.50)) + " us, p99 " +
               std::to_string(Percentile(load.txn_us, 0.99)) + " us");

  auto layer = [&](const char* name, double v, const char* unit) {
    report->Set(name, v, unit, Layer::kPerLayer);
  };
  if (tracer != nullptr) {
    std::vector<double> writes = tracer->DurationsUs(SpanName::kUpdate);
    for (SpanName n : {SpanName::kInsert, SpanName::kDelete}) {
      const std::vector<double> more = tracer->DurationsUs(n);
      writes.insert(writes.end(), more.begin(), more.end());
    }
    const std::vector<double> reads = tracer->DurationsUs(SpanName::kRead);
    const std::vector<double> commits =
        tracer->DurationsUs(SpanName::kCommit);
    layer("tc.write_p50_us", Percentile(writes, 0.50), "us");
    layer("tc.write_p99_us", Percentile(writes, 0.99), "us");
    layer("tc.read_p50_us", Percentile(reads, 0.50), "us");
    layer("tc.read_p99_us", Percentile(reads, 0.99), "us");
    layer("tc.commit_p50_us", Percentile(commits, 0.50), "us");
    layer("tc.commit_p99_us", Percentile(commits, 0.99), "us");
    report->Note("tc spans: " + std::to_string(writes.size()) + " writes, " +
                 std::to_string(reads.size()) + " reads, " +
                 std::to_string(commits.size()) + " commits");
  }

  const deutero::EngineStats& e0 = before.engine;
  const deutero::EngineStats& e1 = after.engine;
  const double commits = static_cast<double>(e1.committed - e0.committed);
  const double batches =
      static_cast<double>(e1.commit_batches - e0.commit_batches);
  layer("concurrency.flushes_per_commit",
        Ratio(e1.log_flushes - e0.log_flushes, commits), "ratio");
  // Without a batcher every commit forces the log itself: batches of one.
  layer("concurrency.batch_size_mean",
        batches > 0 ? (e1.commits_enqueued - e0.commits_enqueued) / batches
                    : 1.0,
        "txn");
  layer("concurrency.shard_collisions_per_ktxn",
        Ratio(e1.lock_shard_collisions - e0.lock_shard_collisions,
              commits / 1000),
        "count/ktxn");
  layer("concurrency.wait_die_aborts",
        static_cast<double>(e1.wait_die_aborts - e0.wait_die_aborts),
        "count");

  const double log_bytes =
      static_cast<double>(after.log.bytes_appended - before.log.bytes_appended);
  layer("wal.log_bytes_per_user_byte", Ratio(log_bytes, load.user_bytes),
        "ratio");
  layer("wal.delta_bw_byte_share",
        Ratio((after.log.delta_bytes - before.log.delta_bytes) +
                  (after.log.bw_bytes - before.log.bw_bytes),
              log_bytes),
        "ratio");
  layer("dc.checkpoint_wall_ms", Median(load.checkpoint_ms), "ms");
  layer("dc.checkpoint_pages",
        Ratio(load.checkpoint_pages, load.checkpoint_ms.size()), "count");
  layer("storage.hit_ratio",
        Ratio(after.pool.hits - before.pool.hits,
              after.pool.gets - before.pool.gets),
        "ratio");
  layer("storage.dirty_evictions",
        static_cast<double>(after.pool.dirty_evictions -
                            before.pool.dirty_evictions),
        "count");
  layer("sim.pages_written_per_kupdate",
        Ratio(after.disk.pages_written - before.disk.pages_written,
              load.writes / 1000.0),
        "count");
}

Status RunCommitMixed(const Args& args, Report* report) {
  deutero::EngineOptions o;
  o.num_rows = args.tiny ? 20'000 : 1'000'000;
  o.cache_pages = args.tiny ? 32 : 2048;
  // Group commit on with a zero window: a simulated log force costs no
  // wall time, so any window would only add a sleep floor.
  o.group_commit_window_us = 0;
  o.group_commit_max_batch = 64;
  o.seed = args.seed;
  Tracer tracer;
  Tracer* tr = args.trace ? &tracer : nullptr;
  Tracer::Buffer* main_buf = args.trace ? tracer.NewBuffer() : nullptr;

  // Open alone is short, so it is repeated more often than the recovery
  // workloads' set-up.
  const int setup_reps = args.tiny ? 1 : 5;
  std::vector<double> setup_s;
  std::unique_ptr<Engine> engine;
  for (int rep = 0; rep < setup_reps; rep++) {
    engine.reset();
    const int64_t t0 = NowNs();
    ScopedSpan setup(main_buf, SpanName::kSetup, 0);
    ScopedSpan sp(main_buf, SpanName::kOpen, 0);
    DEUTERO_RETURN_NOT_OK(Engine::Open(o, &engine));
    setup_s.push_back(MsSince(t0) / 1e3);
  }
  Engine* e = engine.get();

  const Key rows = o.num_rows;
  LoadConfig lc;
  lc.slice_hi = rows;
  lc.fresh_base = rows;
  // Several checkpoints fall in every 0.25 s window, so each window's
  // tail latency sees checkpoint stalls alike.
  lc.checkpoint_every = args.tiny ? 500 : 2'000;
  lc.seed = args.seed;
  ClosedLoop loop(e, lc, [rows](Key k) { return KeyState{0, k < rows}; }, tr);

  // The measured load. The commit cap keeps the log, and with it the
  // process's memory, the same size from run to run.
  const ForwardCounters before = ForwardCounters::Read(e);
  LoadResult load;
  loop.Run(args.seconds * 0.6, args.tiny ? 0 : 85'000, args.trace,
           /*checkpoints=*/true, report, &load);
  const ForwardCounters after = ForwardCounters::Read(e);
  ReportForward(load, before, after, tr, report);
  if (args.trace) {
    ReportOverhead(load.txn_us_traced, load.txn_us, "transaction latency",
                   report);
  }

  // The crash image: a checkpoint, then a fixed number of commits per
  // client, so every run's redo window holds the same work.
  {
    ScopedSpan sp(main_buf, SpanName::kCheckpoint, 0);
    report->Count(e->Checkpoint(), "Engine::Checkpoint");
  }
  const Lsn redo_start = e->wal().master().bckpt_lsn;
  LoadResult window;
  loop.Run(0, args.tiny ? 100 : 5'000, /*alternate_tracing=*/false,
           /*checkpoints=*/false, report, &window);
  {
    ScopedSpan sp(main_buf, SpanName::kSimulateCrash, 0);
    e->SimulateCrash();
  }
  Engine::StableSnapshot snap;
  DEUTERO_RETURN_NOT_OK(e->TakeStableSnapshot(&snap));

  // Every acknowledged commit must survive each method's recovery.
  const std::vector<KeyState> expected = loop.ExpectedTable();
  const Verifier verify = [e, &expected] {
    uint64_t rows_seen = 0;
    return VerifyTable(e, expected, &rows_seen);
  };
  RoundsResult rounds;
  RunRecoveryRounds(e, snap, args.seconds * 0.4, args.tiny ? 1 : 2, verify,
                    args.trace, main_buf, report, &rounds);
  ReportRecovery(rounds, report);
  if (args.trace) RunProbes(e, redo_start, main_buf, report);

  ReportSetupAndMemory(setup_s, report);
  if (args.trace) WriteSpans(tracer, args, report);
  return Status::OK();
}

}  // namespace perfbench
