#include "trace.h"

#include <cstdio>
#include <filesystem>

namespace perfbench {

namespace {
// Memory cap per thread (~64 MB of spans); spans past it are counted only.
constexpr size_t kMaxSpansPerBuffer = 2'000'000;
// Ids are unique across buffers: each buffer owns a 2^40-wide id range.
constexpr uint64_t kIdsPerBuffer = uint64_t{1} << 40;
}  // namespace

const char* SpanNameString(SpanName n) {
  static const char* kNames[] = {
      "Engine::Open",       "WorkloadDriver::RunOps", "Engine::Checkpoint",
      "Engine::SimulateCrash", "Engine::RestoreStableSnapshot",
      "Engine::Recover",    "oracle.verify",          "Engine::Begin",
      "Txn::Update",        "Txn::Insert",            "Txn::Delete",
      "Txn::Read",          "Txn::Commit",            "probe.wal_scan",
      "probe.btree_find",   "bench.setup",            "bench.repetition",
      "bench.txn"};
  static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
                static_cast<size_t>(SpanName::kCount));
  return kNames[static_cast<size_t>(n)];
}

void Tracer::Buffer::Close(uint64_t id, SpanName name, uint64_t run,
                           int64_t start_ns, int64_t end_ns) {
  open_.pop_back();
  if (spans_.size() >= kMaxSpansPerBuffer) {
    dropped_++;
    return;
  }
  spans_.push_back(Span{id, open_.empty() ? 0 : open_.back(), run, start_ns,
                        end_ns, name});
}

Tracer::Buffer* Tracer::NewBuffer() {
  std::lock_guard<std::mutex> lk(mu_);
  buffers_.push_back(
      std::make_unique<Buffer>(kIdsPerBuffer * (buffers_.size() + 1)));
  return buffers_.back().get();
}

std::vector<double> Tracer::DurationsUs(SpanName name) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<double> out;
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans()) {
      if (s.name == name) out.push_back((s.end_ns - s.start_ns) / 1e3);
    }
  }
  return out;
}

uint64_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  uint64_t n = 0;
  for (const auto& b : buffers_) n += b->spans().size();
  return n;
}

uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lk(mu_);
  uint64_t n = 0;
  for (const auto& b : buffers_) n += b->dropped();
  return n;
}

bool Tracer::WriteCsv(const std::string& path) const {
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,parent,run,name,start_ns,end_ns\n");
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans()) {
      std::fprintf(f, "%llu,%llu,%llu,%s,%lld,%lld\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.run),
                   SpanNameString(s.name), static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
