// Logical log shipping to a physically different replica — the paper's §1.1
// replication motivation: "the data can be replicated in a database using a
// different kind of stable storage, e.g. a disk with different page size...
// Because the log records shipped to the replica are logical, they can be
// applied to disparate physical system configurations."
//
// The primary uses 8 KB pages; the replica 2 KB pages with a smaller cache.
// Committed transactions stream across a ReplicationChannel (publish on the
// primary, pump on the standby); the replica converges to the same logical
// table content, then survives a crash of its own using logical recovery
// and resumes from its durable replication cursor.
#include <cstdio>
#include <memory>

#include "core/replica.h"
#include "workload/driver.h"

using namespace deutero;  // NOLINT

int main() {
  EngineOptions primary_opts;
  primary_opts.num_rows = 50'000;
  primary_opts.page_size = 8192;
  primary_opts.cache_pages = 256;
  primary_opts.lazy_writer_reference_cache_pages = 256;

  EngineOptions replica_opts = primary_opts;
  replica_opts.page_size = 2048;  // different physical geometry
  replica_opts.cache_pages = 512;

  std::unique_ptr<Engine> primary;
  if (!Engine::Open(primary_opts, &primary).ok()) return 1;
  std::unique_ptr<LogicalReplica> replica;
  if (!LogicalReplica::Open(replica_opts, &replica).ok()) return 1;

  std::printf("primary: %u KB pages, B-tree height %u\n",
              primary_opts.page_size / 1024, primary->dc().btree().height());
  std::printf("replica: %u KB pages, B-tree height %u\n",
              replica_opts.page_size / 1024,
              replica->engine().dc().btree().height());

  // Stream five batches of transactions.
  WorkloadDriver driver(primary.get(), WorkloadConfig{});
  ReplicationChannel channel;
  for (int batch = 0; batch < 5; batch++) {
    if (!driver.RunOps(500).ok()) return 1;
    channel.Publish(*primary);
    if (!replica->Pump(&channel).ok()) return 1;
    std::printf("batch %d: replica applied %llu txns / %llu ops total\n",
                batch + 1, (unsigned long long)replica->txns_applied(),
                (unsigned long long)replica->ops_applied());
  }

  // Compare full logical content across the two geometries.
  uint64_t rows = 0;
  bool identical = true;
  {
    std::vector<std::pair<Key, std::string>> a, b;
    (void)primary->dc().btree().ScanAll(
        [&](Key k, Slice v) { a.emplace_back(k, v.ToString()); });
    (void)replica->engine().dc().btree().ScanAll(
        [&](Key k, Slice v) { b.emplace_back(k, v.ToString()); });
    identical = a == b;
    rows = a.size();
  }
  std::printf("content comparison over %llu rows: %s\n",
              (unsigned long long)rows,
              identical ? "IDENTICAL" : "DIVERGED (bug!)");

  // The replica is a full engine: crash and logically recover it.
  replica->CrashStandby();
  RecoveryStats st;
  if (!replica->RecoverStandby(RecoveryMethod::kLog2, &st).ok()) return 1;
  std::printf("replica crash-recovered (Log2) in %.1f simulated ms\n",
              st.total_ms);
  return identical ? 0 : 1;
}
