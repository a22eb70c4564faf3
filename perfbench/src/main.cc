// perfbench: the repository benchmark. Runs one workload through the public
// API, checks every result against an oracle, and prints the metrics; the
// last line of standard output is the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] [--trace-dir <dir>]
//
// Exit status: 0 when every check passed, 1 on a failed check, 2 on bad
// arguments or a refused build, 3 when the result is not published (the
// host cannot run the workload as defined).
#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "report.h"
#include "workloads.h"

namespace {

using perfbench::Args;

// Timings from unoptimized or sanitized builds say nothing about the
// engine; such a build refuses to run.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_REFUSAL "built with a sanitizer"
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PERFBENCH_REFUSAL "built with a sanitizer"
#endif
#endif
#if !defined(PERFBENCH_REFUSAL) && !defined(__OPTIMIZE__)
#define PERFBENCH_REFUSAL "built without optimisation"
#endif

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<recover_uniform_fit|recover_zipf_evict_par|commit_mixed> "
               "--seed <n> --seconds <s> --trace <0|1> [--tiny] "
               "[--trace-dir <dir>]\n",
               why);
  return 2;
}

int HostCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

void PrintHostFacts(const Args& a, int cpus) {
#if defined(__clang__)
  const char* compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const char* compiler = "gcc " __VERSION__;
#else
  const char* compiler = "unknown";
#endif
  std::printf(
      "# host {\"nproc\": %d, \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"cxx_flags\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d, \"tiny\": %d, \"units\": {\"ms\": "
      "\"wall milliseconds (steady_clock)\", \"sim_ms\": \"simulated "
      "milliseconds of the SimDisk cost model\", \"us\": \"wall "
      "microseconds\", \"ns\": \"wall nanoseconds\", \"s\": \"wall "
      "seconds\", \"MB\": \"MiB of peak resident memory\"}}\n",
      cpus, compiler, PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS,
      a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.seconds,
      a.trace ? 1 : 0, a.tiny ? 1 : 0);
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; i++) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--tiny") {
      a.tiny = true;
    } else if (flag == "--workload" && has_value) {
      a.workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds" && has_value) {
      a.seconds = std::strtod(argv[++i], nullptr);
      have_seconds = a.seconds > 0;
    } else if (flag == "--trace" && has_value) {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return Usage("--trace takes 0 or 1");
      a.trace = v == "1";
      have_trace = true;
    } else if (flag == "--trace-dir" && has_value) {
      a.trace_dir = argv[++i];
    } else {
      return Usage(("unknown or incomplete argument " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds (> 0) and --trace are required");
  }
#if defined(PERFBENCH_REFUSAL)
  std::fprintf(stderr, "perfbench: refusing to measure: %s\n",
               PERFBENCH_REFUSAL);
  return 2;
#endif

  const int cpus = HostCpus();
  PrintHostFacts(a, cpus);
  perfbench::Report report;
  const uint64_t steal0 = perfbench::HostStealTicks();
  deutero::Status s;
  if (a.workload == "recover_uniform_fit" ||
      a.workload == "recover_zipf_evict_par") {
    // Four recovery threads and channels on fewer cores measure the
    // scheduler, not the engine.
    if (a.workload == "recover_zipf_evict_par" && cpus < 4 && !a.tiny) {
      std::printf("# recover_zipf_evict_par is invalid on this host (nproc "
                  "%d < 4): result not published\n",
                  cpus);
      return 3;
    }
    s = perfbench::RunRecoverWorkload(a, &report);
  } else if (a.workload == "commit_mixed") {
    s = perfbench::RunCommitMixed(a, &report);
  } else {
    return Usage(("unknown workload '" + a.workload + "'").c_str());
  }
  if (!s.ok()) {
    std::printf("# setup failed: %s\n", s.ToString().c_str());
    return 1;
  }
  report.Note("host steal during the run: " +
              std::to_string(static_cast<double>(perfbench::HostStealTicks() -
                                                 steal0) /
                             static_cast<double>(sysconf(_SC_CLK_TCK))) +
              " CPU-seconds");
  return report.Print(a.trace) ? 0 : 1;
}
