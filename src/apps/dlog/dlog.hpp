#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "remem/atomics.hpp"
#include "sim/sync.hpp"
#include "verbs/buffer.hpp"
#include "verbs/context.hpp"

namespace rdmasem::apps::dlog {

// Distributed log (§IV-E): an append-only, totally ordered record sequence
// in the remote memory of a log server. The whole append path is
// one-sided:
//
//   reserve : remote fetch-and-add on the global tail advances it by the
//             batch's bytes and hands the writer a private extent
//   write   : one RDMA Write (SGL-coalesced records) into the extent
//
// NUMA-awareness (the paper's design): a transaction engine whose data
// tables live on its alternate socket first copies and coalesces the
// records into buffers on its NUMA-friendly socket (SP), then writes
// from there; without it the write gathers straight from the alternate
// socket's tables.
struct Config {
  std::uint32_t engines = 7;            // transaction engines (writers)
  std::uint64_t records_per_engine = 1 << 12;
  std::uint32_t record_size = 64;
  std::uint32_t batch_size = 8;         // records coalesced per reservation
  // Replication factor (§IV-A class III: replicate data to remote memory
  // for fast recovery). 1 = the paper's single global log; R > 1 appends
  // every extent to R-1 additional replica machines (Tailwind-style
  // one-sided replication: same FAA-reserved offset, one RDMA write per
  // replica, no replica CPU involvement).
  std::uint32_t replicas = 1;
  // Transaction-execution CPU per record (the log is a sub-module of a
  // transaction engine; commits are not free).
  sim::Duration record_cpu = sim::ns(400);
  bool numa_aware = true;
  std::uint32_t log_machine = 0;
  std::uint64_t seed = 5;
  // Failure handling. With failover on, a replica connection that dies
  // (retry exhaustion after its host crashes) is dropped and appends
  // continue on the survivors; an append is acknowledged once the primary
  // and every LIVE replica have landed it. Off (default), any failed
  // append aborts — the pre-fault behavior. Replica QPs get the finite
  // `failover_retry_cnt` budget so dead peers are detected instead of
  // retried forever. For crash drills, keep engine hosts disjoint from
  // replica hosts: replicas fill machines from the top (N-1 downward),
  // engines from the bottom (1 upward).
  bool failover = false;
  std::uint32_t failover_retry_cnt = 3;
};

struct Result {
  double mops = 0;  // records appended per microsecond
  sim::Duration elapsed = 0;
  std::uint64_t records = 0;
  std::uint64_t log_bytes = 0;
  // Failover observability: engine->replica connections dropped and the
  // sim time the first drop was detected (0 = no failover happened).
  std::uint64_t failovers = 0;
  sim::Time first_failover_at = 0;
};

class DistributedLog {
 public:
  // ctxs: one per machine; ctxs[cfg.log_machine] hosts the log.
  DistributedLog(std::vector<verbs::Context*> ctxs, const Config& cfg);
  ~DistributedLog();

  Result run();

  // Post-run verification helpers: the log must contain exactly
  // engines*records_per_engine records, each intact (checksum), with
  // disjoint extents densely covering [0, tail).
  std::uint64_t tail() const;
  bool verify_dense_and_intact() const;

  // Replication: every LIVE replica's record area must be byte-identical
  // to the primary's (valid after run(); dead replicas are skipped).
  bool verify_replicas_identical() const;
  // Disaster drill: verify the log can be rebuilt from replica `r` alone
  // (its image passes the same density/integrity checks).
  bool recover_from_replica(std::uint32_t r) const;

  // False once any engine dropped replica `r` (failover after a crash).
  bool replica_alive(std::uint32_t r) const {
    return r < replica_dead_.size() && !replica_dead_[r];
  }
  std::uint64_t failovers() const { return failovers_; }

 private:
  struct Engine;
  sim::Task run_engine(Engine* en, sim::CountdownLatch& done);
  void drop_replica(Engine* en, std::uint32_t r);

  bool verify_image(const std::byte* records_base,
                    std::uint64_t record_bytes) const;

  std::vector<verbs::Context*> ctxs_;
  Config cfg_;
  verbs::Buffer log_mem_;
  verbs::MemoryRegion* log_mr_ = nullptr;
  // Replica images on other machines, written directly by the engines.
  std::vector<verbs::Buffer> replica_mem_;
  std::vector<verbs::MemoryRegion*> replica_mrs_;
  std::vector<std::unique_ptr<Engine>> engines_;
  // Failover bookkeeping, written from every engine's lane.
  std::vector<bool> replica_dead_;
  std::uint64_t failovers_ = 0;
  sim::Time first_failover_at_ = 0;
};

}  // namespace rdmasem::apps::dlog
