#include "report.h"

#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {
constexpr size_t kMaxErrors = 8;
}  // namespace

void Report::Set(const std::string& name, double value,
                 const std::string& unit, Layer layer) {
  metrics_[name] = Metric{value, unit, layer};
}

void Report::Count(const deutero::Status& s, const char* what) {
  attempted_++;
  if (s.ok()) return;
  failed_++;
  if (errors_.size() < kMaxErrors) {
    errors_.push_back(std::string(what) + ": " + s.ToString());
  }
}

void Report::CountMany(uint64_t attempted, uint64_t failed,
                       const std::vector<std::string>& errors) {
  attempted_ += attempted;
  failed_ += failed;
  for (const std::string& e : errors) {
    if (errors_.size() < kMaxErrors) errors_.push_back(e);
  }
}

bool Report::Print(bool trace) const {
  const Layer shown = trace ? Layer::kPerLayer : Layer::kEndToEnd;
  for (const std::string& n : notes_) std::printf("# %s\n", n.c_str());
  bool finite = true;
  for (const auto& [name, m] : metrics_) {
    if (!std::isfinite(m.value)) finite = false;
    std::printf("%-44s %16.6f %s%s\n", name.c_str(), m.value, m.unit.c_str(),
                m.layer == Layer::kPerLayer ? "  (per-layer)" : "");
  }
  // Failures count against everything attempted: every public call the
  // benchmark made in its measured phases and every oracle check.
  std::printf("failed_frac %.6g (failed %llu of %llu attempted)\n",
              attempted_ == 0 ? 0.0
                              : static_cast<double>(failed_) / attempted_,
              static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_));
  for (const std::string& e : errors_) std::printf("# error: %s\n", e.c_str());
  if (!finite) std::printf("# error: a metric is not finite\n");

  const bool correct = finite && failed_ == 0 && attempted_ > 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, m] : metrics_) {
    if (m.layer != shown) continue;
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    json += first ? "" : ", ";
    json += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct;
}

}  // namespace perfbench
