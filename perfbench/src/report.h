// Result collection and printing. A workload records its end-to-end and
// per-layer metrics here, together with every call it made and every oracle
// check; Print() writes the human-readable report and, as the last line of
// standard output, the result object described in perfbench/README.md.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

enum class Layer { kEndToEnd, kPerLayer };

class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           Layer layer);
  /// A free-form line for the human-readable part of the output.
  void Note(const std::string& line) { notes_.push_back(line); }

  /// One public call or oracle check was attempted; a non-OK status is a
  /// failure (the first few messages are kept for the report).
  void Count(const deutero::Status& s, const char* what);
  /// Fold counts kept elsewhere (the client threads keep their own).
  void CountMany(uint64_t attempted, uint64_t failed,
                 const std::vector<std::string>& errors);

  /// Print the report; the metrics in the final JSON line are the
  /// end-to-end ones when `trace` is false and the per-layer ones when it
  /// is true. Returns whether the run is correct: something was attempted,
  /// nothing failed and every value is finite.
  bool Print(bool trace) const;

 private:
  struct Metric {
    double value = 0;
    std::string unit;
    Layer layer = Layer::kEndToEnd;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> errors_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

}  // namespace perfbench
