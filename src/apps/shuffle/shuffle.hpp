#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "remem/atomics.hpp"
#include "remem/batch.hpp"
#include "sim/sync.hpp"
#include "verbs/buffer.hpp"
#include "verbs/context.hpp"

namespace rdmasem::apps::shuffle {

// Push-based distributed shuffle (§IV-C, Fig. 14): n source executors
// stream key-value entries and push each to its destination executor's
// registered memory with in-bound RDMA Write. Entries bound for the same
// destination are batched with SP or SGL (the paper's Batch Schedule);
// the receive regions are pre-partitioned per (src, dst) pair so the data
// path needs no per-entry atomics, and stage hand-off uses remote
// fetch-and-add "done" counters (Atomic operation optimization).
//
// NUMA-awareness assigns each executor a dedicated socket with affine
// memory and RNIC port; without it every executor shares the default
// port regardless of its socket.
using remem::BatchMode;

// Data-movement direction. The paper implements PUSH ("in-bound RDMA
// Write has higher performance than out-bound RDMA Read") and cites
// pull-based designs as the alternative; both are implemented here so the
// claim is testable. Pull: senders stage partitioned entries locally and
// raise a doorbell counter; receivers READ their partitions out.
enum class Direction : std::uint8_t { kPush, kPull };

struct Config {
  std::uint32_t executors = 8;        // senders; also receivers (all-to-all)
  std::uint64_t entries_per_executor = 1 << 14;
  std::uint32_t entry_size = 64;      // key u64 + payload
  BatchMode batch = BatchMode::kNone;
  std::uint32_t batch_size = 16;
  Direction direction = Direction::kPush;
  bool numa_aware = true;
  std::uint32_t machines = 8;
  std::uint64_t seed = 42;
  // Optional key source (defaults to a seeded uniform stream). Used by the
  // join operator to shuffle concrete relations.
  std::function<std::uint64_t(std::uint32_t executor, std::uint64_t i)> keygen;
};

struct Result {
  double mops = 0;                   // entries shuffled per microsecond
  sim::Duration elapsed = 0;
  std::uint64_t entries = 0;
  std::uint64_t checksum = 0;        // order-independent payload checksum
};

// Runs one full shuffle round on the given cluster contexts (one per
// machine) and reports throughput plus a verifiable checksum: the sum of
// all received entry checksums must equal the sum of all sent ones.
class Shuffle {
 public:
  Shuffle(std::vector<verbs::Context*> ctxs, const Config& cfg);
  ~Shuffle();

  Result run();

  // Order-independent checksum of everything the receivers got (valid
  // after run()).
  std::uint64_t received_checksum() const;
  std::uint64_t sent_checksum() const { return sent_checksum_; }
  // Entries landed at executor `e` (valid after run()).
  std::uint64_t received_count(std::uint32_t executor) const;

  // Visits every entry received by executor `dst` (valid after run()).
  void visit_received(
      std::uint32_t dst,
      const std::function<void(std::span<const std::byte>)>& fn) const;

  // Placement of executor e (machine id, socket) — the join phase runs its
  // build/probe workers on the same placement.
  std::pair<std::uint32_t, hw::SocketId> placement(std::uint32_t e) const;

  // The shuffle rule: destination executor of a key (hash-partitioned, so
  // structured key sets still spread evenly).
  static std::uint32_t dest_of(std::uint64_t key, std::uint32_t executors) {
    std::uint64_t x = key;
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return static_cast<std::uint32_t>(x % executors);
  }

 private:
  struct Executor;
  sim::Task run_executor(Executor* ex, sim::CountdownLatch& done);
  sim::Task run_producer(Executor* ex);
  sim::Task run_puller(Executor* ex, sim::CountdownLatch& done);

  std::vector<verbs::Context*> ctxs_;
  Config cfg_;
  std::vector<std::unique_ptr<Executor>> executors_;
  // Summed from every executor's lane.
  std::uint64_t sent_checksum_ = 0;
};

}  // namespace rdmasem::apps::shuffle
