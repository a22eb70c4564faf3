// Closed-loop forward-path load: N client threads, each running one
// transaction at a time through Engine::Begin / Txn (4 operations: ~65%
// update, 15% read, 10% insert, 10% delete), while the benchmark's
// main thread takes a checkpoint every fixed number of acknowledged
// commits. Each client writes only its own slice of the loaded keys plus
// its own stream of fresh keys, so its oracle is exact and needs no
// synchronization; every payload is SynthesizeValue(key, version).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "core/engine.h"
#include "report.h"
#include "trace.h"

namespace perfbench {

/// Committed state of one key: its payload version and whether it exists.
struct KeyState {
  uint32_t ver = 0;
  bool live = false;
};
/// State of a key no client has written (the database the load started
/// from).
using InitialState = std::function<KeyState(Key)>;

struct LoadConfig {
  uint32_t clients = 3;
  /// Owned slices split [0, slice_hi) evenly between the clients.
  Key slice_hi = 0;
  /// Fresh keys: client c inserts fresh_base + c + k * clients.
  Key fresh_base = 0;
  /// Main thread checkpoints after every this many acknowledged commits
  /// (0: never).
  uint64_t checkpoint_every = 0;
  uint64_t seed = 1;
};

struct TxnSample {
  int64_t end_ns = 0;  ///< When Commit returned.
  float us = 0;        ///< Begin to Commit return.
  bool traced = false;
};

/// What one Run() measured. Latencies are Begin-to-Commit-return in µs,
/// split by whether tracing was on for that transaction.
struct LoadResult {
  double wall_s = 0;
  uint64_t acked = 0;
  std::vector<double> txn_us;
  std::vector<double> txn_us_traced;
  uint64_t writes = 0;      ///< Update + insert + delete calls.
  uint64_t user_bytes = 0;  ///< Payload bytes handed to Update/Insert.
  /// Per 0.25 s window: commit rate and untraced latency percentiles.
  std::vector<double> window_tps;
  std::vector<double> window_p50;
  std::vector<double> window_p99;
  std::vector<uint64_t> window_steal;  ///< Host steal ticks per window.
  std::vector<double> checkpoint_ms;
  uint64_t checkpoint_pages = 0;
};

class ClosedLoop {
 public:
  ClosedLoop(deutero::Engine* engine, const LoadConfig& config,
             InitialState initial, Tracer* tracer);
  ~ClosedLoop();
  ClosedLoop(const ClosedLoop&) = delete;
  ClosedLoop& operator=(const ClosedLoop&) = delete;

  /// Run the clients until `seconds` of wall time have passed (when > 0) or
  /// each client committed `txns_per_client` (when > 0), if sooner. With
  /// `alternate_tracing`, tracing is switched on and off every 100 ms so
  /// one run yields traced and untraced samples side by side; with
  /// `checkpoints`, the main thread checkpoints every
  /// config.checkpoint_every commits. Calls and oracle checks are counted
  /// into `report`.
  void Run(double seconds, uint64_t txns_per_client, bool alternate_tracing,
           bool checkpoints, Report* report, LoadResult* out);

  /// Expected committed state of every key in [0, key_bound()] after the
  /// last Run(): every acknowledged commit, nothing else.
  std::vector<KeyState> ExpectedTable() const;

 private:
  struct Client;
  /// One past the largest key any client may have written.
  Key key_bound() const;
  void ClientMain(Client* c, uint64_t quota);
  /// One transaction; a failure is counted in the client's tallies.
  void RunTxn(Client* c, const deutero::Table& table);

  deutero::Engine* engine_;
  LoadConfig config_;
  InitialState initial_;
  Tracer* tracer_;
  uint32_t value_size_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> tracing_{false};
  std::atomic<uint64_t> acked_{0};
};

/// Scan keys [0, expected.size()) of the default table and compare every
/// row, and every gap, with `expected`: each live key present once with its
/// payload, nothing else.
deutero::Status VerifyTable(deutero::Engine* engine,
                            const std::vector<KeyState>& expected,
                            uint64_t* rows);

}  // namespace perfbench
