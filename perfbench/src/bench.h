// Shared pieces of the repository benchmark: command-line arguments, the
// method list, wall clocks, host steal and order statistics.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "common/options.h"
#include "common/types.h"

namespace perfbench {

using deutero::Key;
using deutero::RecoveryMethod;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-check geometry: every workload at a few thousand rows.
  bool tiny = false;
  /// Where the traced run writes its spans.
  std::string trace_dir = ".bench_build/traces";
};

/// The five recovery methods, in the order every round starts from before
/// rotation (paper §5.2).
inline const std::vector<RecoveryMethod>& AllMethods() {
  static const std::vector<RecoveryMethod> kMethods = {
      RecoveryMethod::kLog0, RecoveryMethod::kLog1, RecoveryMethod::kLog2,
      RecoveryMethod::kSql1, RecoveryMethod::kSql2};
  return kMethods;
}

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double MsSince(int64_t t0_ns) { return (NowNs() - t0_ns) / 1e6; }

/// Host steal time so far, in clock ticks summed over the CPUs: time the
/// hypervisor ran something else while this machine's CPUs wanted to run
/// (the 8th field of /proc/stat's "cpu" line). 0 where it is not exposed.
inline uint64_t HostStealTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  uint64_t field = 0;
  stat >> cpu;
  for (int i = 0; i < 8 && (stat >> field); i++) {
  }
  return cpu == "cpu" && stat ? field : 0;
}

/// A sample or window counts as undisturbed by the host when at most this
/// many steal ticks (1/USER_HZ s each, 10 ms on Linux) fell inside it.
constexpr uint64_t kMaxCleanStealTicks = 1;

/// The values least disturbed by host steal: every undisturbed one, or, when
/// fewer than `min_keep` are, the `min_keep` with the least steal (ties in
/// time order). `steal` parallels `values`.
inline std::vector<double> LeastDisturbed(const std::vector<double>& values,
                                          const std::vector<uint64_t>& steal,
                                          size_t min_keep) {
  std::vector<size_t> order;
  for (size_t i = 0; i < values.size() && i < steal.size(); i++) {
    order.push_back(i);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return steal[a] < steal[b]; });
  std::vector<double> kept;
  for (size_t i : order) {
    if (steal[i] > kMaxCleanStealTicks && kept.size() >= min_keep) break;
    kept.push_back(values[i]);
  }
  return kept;
}

/// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()));
  return v[std::min(rank, v.size() - 1)];
}

/// Median (mean of the middle pair for an even count); 0 when empty.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// a / b, or 0 when the base is 0 (the base is printed alongside).
inline double Ratio(double a, double b) { return b == 0 ? 0 : a / b; }

}  // namespace perfbench
