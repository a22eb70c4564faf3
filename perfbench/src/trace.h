// Traced mode: spans recorded by the benchmark around each public call it
// makes into the engine. Each thread records into its own buffer, so
// recording takes no lock; spans stay in memory and are written out once,
// when the run ends. A span carries its name, start and end (steady clock,
// ns), the span that was open around it on the same thread (its parent),
// and a run id shared by the spans of one request: one transaction on the
// forward path, one restore-recover-verify repetition on the recovery
// path.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

enum class SpanName : uint8_t {
  kOpen,            // Engine::Open
  kDriverOps,       // WorkloadDriver::RunOps
  kCheckpoint,      // Engine::Checkpoint
  kSimulateCrash,   // Engine::SimulateCrash
  kRestore,         // Engine::RestoreStableSnapshot
  kRecover,         // Engine::Recover
  kVerify,          // oracle check (benchmark code, not the engine)
  kBegin,           // Engine::Begin
  kUpdate,          // Txn::Update
  kInsert,          // Txn::Insert
  kDelete,          // Txn::Delete
  kRead,            // Txn::Read
  kCommit,          // Txn::Commit
  kWalScanProbe,    // LogManager::NewIterator scan of the redo window
  kFindProbe,       // BTree::FindRanged over the redo window's keys
  // Benchmark-side parents of the spans above.
  kSetup,           // one set-up repetition
  kRepetition,      // restore + recover + verify + crash of one method
  kTxn,             // one client transaction, Begin to Commit
  kCount,
};

const char* SpanNameString(SpanName n);

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 for a root span.
  uint64_t run = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  SpanName name = SpanName::kOpen;
};

class Tracer {
 public:
  /// One thread's spans. Not shared between threads.
  class Buffer {
   public:
    explicit Buffer(uint64_t id_base) : next_id_(id_base) {}
    uint64_t Open() {
      const uint64_t id = ++next_id_;
      open_.push_back(id);
      return id;
    }
    void Close(uint64_t id, SpanName name, uint64_t run, int64_t start_ns,
               int64_t end_ns);
    const std::vector<Span>& spans() const { return spans_; }
    uint64_t dropped() const { return dropped_; }

   private:
    uint64_t next_id_;
    std::vector<uint64_t> open_;  ///< Enclosing spans, innermost last.
    std::vector<Span> spans_;
    uint64_t dropped_ = 0;
  };

  /// A new buffer for the calling thread; valid as long as the tracer.
  Buffer* NewBuffer();

  /// Durations (µs) of every recorded span with this name.
  std::vector<double> DurationsUs(SpanName name) const;
  uint64_t span_count() const;
  uint64_t dropped() const;

  /// Write every span as CSV (id,parent,run,name,start_ns,end_ns).
  bool WriteCsv(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Records one span into `buffer` for its lifetime; a null buffer (tracing
/// off) records nothing and costs one branch.
class ScopedSpan {
 public:
  ScopedSpan(Tracer::Buffer* buffer, SpanName name, uint64_t run)
      : buffer_(buffer), name_(name), run_(run) {
    if (buffer_ != nullptr) {
      id_ = buffer_->Open();
      start_ns_ = NowNs();
    }
  }
  ~ScopedSpan() {
    if (buffer_ != nullptr) {
      buffer_->Close(id_, name_, run_, start_ns_, NowNs());
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer::Buffer* buffer_;
  SpanName name_;
  uint64_t run_;
  uint64_t id_ = 0;
  int64_t start_ns_ = 0;
};

}  // namespace perfbench
