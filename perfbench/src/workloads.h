// The three workloads and the measurement phases they share.
//
//   recover_uniform_fit     one crash image, every method recovers it many
//                           times (serial recovery, cache holds the table)
//   recover_zipf_evict_par  the same with zipf keys, inserts and deletes, a
//                           small cache and 4 recovery threads / channels
//   commit_mixed            closed-loop commits from 3 clients with group
//                           commit and periodic checkpoints
//
// Every workload reports every end-to-end metric: the recovery workloads
// close with a short commit burst on the recovered engine, and
// commit_mixed crashes at the end and recovers its image with every
// method. Both halves are oracle-checked.
#pragma once

#include <functional>
#include <vector>

#include "bench.h"
#include "commit_workload.h"
#include "core/engine.h"
#include "recovery/stats.h"
#include "report.h"
#include "trace.h"

namespace perfbench {

deutero::Status RunRecoverWorkload(const Args& args, Report* report);
deutero::Status RunCommitMixed(const Args& args, Report* report);

/// Samples of one method over the run's repetitions.
struct MethodSamples {
  std::vector<double> wall_ms;
  std::vector<uint64_t> wall_steal;  ///< Host steal ticks during each.
  std::vector<double> sim_ms;
  deutero::RecoveryStats stats;  ///< Of the last repetition.
  uint64_t evictions = 0;        ///< Buffer-pool evictions, last repetition.
  uint64_t read_ios = 0;         ///< SimDisk reads, last repetition.
  double read_service_ms = 0;
};

struct RoundsResult {
  std::vector<MethodSamples> methods;  ///< Indexed like AllMethods().
  std::vector<double> restore_ms;
  uint32_t rounds = 0;
  /// Per-round sum of recovery wall time, split by tracing on/off.
  std::vector<double> round_ms;
  std::vector<double> round_ms_traced;
};

/// Oracle check run after every recovery (outside the timed call).
using Verifier = std::function<deutero::Status()>;

/// Restore the crash image, recover it with each method in turn (the
/// starting method rotates every round), verify, crash again; repeat until
/// `seconds` have passed and at least `min_rounds` rounds ran. When
/// `alternate_tracing`, every other round records spans into `trace`. The
/// engine is left running after one more, untimed, recovery.
void RunRecoveryRounds(deutero::Engine* engine,
                       const deutero::Engine::StableSnapshot& snap,
                       double seconds, uint32_t min_rounds,
                       const Verifier& verify, bool alternate_tracing,
                       Tracer::Buffer* trace, Report* report,
                       RoundsResult* out);

/// recover_wall_ms.* / recover_sim_ms.* and the recovery-side per-layer
/// metrics.
void ReportRecovery(const RoundsResult& rounds, Report* report);

/// Engine counters around a forward-path phase, read while it is quiesced.
struct ForwardCounters {
  deutero::EngineStats engine;
  deutero::BufferPool::Stats pool;
  deutero::SimDisk::Stats disk;
  deutero::LogManager::Stats log;
  static ForwardCounters Read(deutero::Engine* engine);
};

/// commit_tps / txn_p50_us / txn_p99_us and the forward-path per-layer
/// metrics, from one load phase and the counter deltas around it.
void ReportForward(const LoadResult& load, const ForwardCounters& before,
                   const ForwardCounters& after, const Tracer* tracer,
                   Report* report);

/// Layer probes over the redo window [start, end of log): a full log scan
/// (wal.scan_ns_per_record) and BTree::FindRanged on every logged key of
/// the default table (btree.find_ns). The engine must be running.
void RunProbes(deutero::Engine* engine, deutero::Lsn start,
               Tracer::Buffer* trace, Report* report);

/// setup_s (median of the repetitions) and peak_rss_mb.
void ReportSetupAndMemory(const std::vector<double>& setup_s, Report* report);

/// Tracing overhead: traced ÷ untraced median of the same measurement.
void ReportOverhead(const std::vector<double>& traced,
                    const std::vector<double>& untraced, const char* what,
                    Report* report);

/// Write the traced run's spans to <trace_dir>/<workload>.spans.csv.
void WriteSpans(const Tracer& tracer, const Args& args, Report* report);

}  // namespace perfbench
