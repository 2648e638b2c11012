#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "remem/atomics.hpp"
#include "remem/consolidate.hpp"
#include "remem/numa_policy.hpp"
#include "sim/sync.hpp"
#include "verbs/buffer.hpp"
#include "verbs/context.hpp"
#include "verbs/qp.hpp"

namespace rdmasem::apps::hashtable {

// Disaggregated hashtable (§IV-B, Fig. 11): storage lives on a back-end
// machine; front-ends process requests purely with one-sided RDMA.
//
// Layout on the back-end (hash-partitioned across the two sockets):
//
//   cold area: per key, a multi-version entry
//       [ version_counter u64 | V slots of (seq u64, key u64, value) ]
//     writers FAA the counter to claim slot (v % V), then RDMA-write the
//     slot; readers read the counter and fetch the latest complete slot.
//
//   hot area: the hottest keys grouped into blocks of `entries_per_block`
//       [ lock u64 | entries ... ]
//     front-ends buffer hot writes in a Consolidator (the paper's burst
//     buffer) and flush a block's dirty extent under its remote spinlock
//     (exponential backoff).
//
// Optimization toggles reproduce the Fig. 12 breakdown:
//   basic           : every put is a single RDMA write of the entry
//   +numa_aware     : socket-matched QPs + proxy-socket routing
//   +consolidate    : hot-area burst buffering with threshold theta
struct Config {
  std::uint64_t num_keys = 1 << 18;
  std::uint32_t value_size = 64;
  std::uint32_t versions = 4;            // cold multi-version slots
  double hot_fraction = 1.0 / 4;         // top keys placed in the hot area
  std::uint32_t entries_per_block = 4;   // 2^t entries per hot block
  bool numa_aware = false;
  bool consolidate = false;
  std::uint32_t theta = 16;
  // Burst-buffer lease: cool hot blocks flush at most once per lease
  // (write-behind). Milliseconds-scale leases are what make the hot area
  // profitable — with short leases the zipf tail dribbles out one entry
  // per flush and the per-flush lock traffic exceeds the cold-path cost.
  sim::Duration lease = sim::ms(10);
  std::uint32_t backend_machine = 0;
};

class Backend;

// One front-end worker thread: owns its QPs (socket-matched when
// numa_aware), its consolidators, and its scratch memory. Created via
// DisaggHashTable::add_front_end.
class FrontEnd {
 public:
  // put/get may be called from several concurrent coroutines of the same
  // front-end (a front-end server multiplexes many client requests); each
  // in-flight request holds one of kSlots scratch slots.
  sim::TaskT<void> put(std::uint64_t key, std::span<const std::byte> value);
  sim::TaskT<std::vector<std::byte>> get(std::uint64_t key);
  // Deletes a key (tombstone write; subsequent gets see not-found).
  sim::TaskT<void> remove(std::uint64_t key);

  static constexpr std::uint32_t kSlots = 32;
  static constexpr std::uint64_t kSlotBytes = 256;

  // Pushes out all buffered hot writes (end of run).
  sim::TaskT<void> drain();

  std::uint64_t puts() const { return puts_; }
  hw::SocketId socket() const { return socket_; }

  // Introspection (consolidate mode; nullptr otherwise).
  const remem::Consolidator* consolidator(hw::SocketId s) const {
    return s < cons_.size() ? cons_[s].get() : nullptr;
  }

 private:
  friend class DisaggHashTable;
  FrontEnd() = default;

  sim::TaskT<void> put_cold(std::uint64_t key,
                            std::span<const std::byte> value,
                            std::uint64_t slot_off, bool tombstone);
  sim::TaskT<void> put_hot(std::uint64_t key,
                           std::span<const std::byte> value);
  sim::TaskT<verbs::Completion> issue(hw::SocketId target_socket,
                                      verbs::WorkRequest wr);
  sim::TaskT<std::uint32_t> acquire_slot();
  void release_slot(std::uint32_t slot);
  // The front-end machine's lane. Public ops settle() here first so all
  // front-end state (scratch slots, consolidators) is single-lane.
  std::uint32_t home_lane() const { return ctx_->machine().id() + 1; }

  const Config* cfg_ = nullptr;
  Backend* backend_ = nullptr;
  verbs::Context* ctx_ = nullptr;
  hw::SocketId socket_ = 0;
  // Direct QPs per backend socket (basic mode uses [rnic_socket] only).
  std::vector<verbs::QueuePair*> qps_;
  std::unique_ptr<remem::ProxySocketRouter> router_;
  verbs::Buffer scratch_;
  verbs::MemoryRegion* scratch_mr_ = nullptr;
  std::unique_ptr<sim::Semaphore> slot_sem_;
  std::vector<std::uint32_t> free_slots_;
  // Consolidators + hot-block locks per backend socket (consolidate mode).
  // Flushes run on the consolidator's background chains; each flush takes
  // the block's remote spinlock (exponential backoff) around its write.
  sim::TaskT<void> lease_before_flush(hw::SocketId s, std::uint64_t block);
  sim::TaskT<void> lease_after_flush(hw::SocketId s, std::uint64_t block);

  std::vector<std::unique_ptr<remem::Consolidator>> cons_;
  std::vector<std::unique_ptr<remem::RemoteLockClient>> locks_;
  std::uint64_t puts_ = 0;
};

// Back-end memory image + addressing helpers (shared by all front-ends).
class Backend {
 public:
  Backend(verbs::Context& ctx, const Config& cfg);

  const Config& cfg() const { return *cfg_; }
  verbs::Context& ctx() { return *ctx_; }

  bool is_hot(std::uint64_t key) const { return key < hot_keys_; }
  hw::SocketId socket_of(std::uint64_t key) const {
    return static_cast<hw::SocketId>(key & 1);
  }

  // Cold addressing (within the socket's region).
  std::uint64_t cold_entry_bytes() const;
  std::uint64_t cold_addr(std::uint64_t key) const;      // entry base
  std::uint64_t cold_slot_addr(std::uint64_t key, std::uint64_t version) const;

  // Hot addressing.
  std::uint64_t hot_block_bytes() const;
  std::uint64_t hot_block_addr(std::uint64_t block) const;  // lock word
  std::uint64_t hot_entry_off(std::uint64_t key) const;     // offset of the
                                                            // entry in the
                                                            // hot region
  std::uint64_t hot_region_addr(hw::SocketId s) const;
  std::uint64_t hot_region_size() const;

  verbs::MemoryRegion* region(hw::SocketId s) { return regions_[s]; }
  std::uint64_t hot_keys() const { return hot_keys_; }

 private:
  const Config* cfg_;
  verbs::Context* ctx_;
  std::uint64_t hot_keys_;
  std::vector<verbs::Buffer> mem_;
  std::vector<verbs::MemoryRegion*> regions_;
};

// The deployment object: builds the back-end image and hands out
// front-end workers bound to (context, socket).
class DisaggHashTable {
 public:
  DisaggHashTable(verbs::Context& backend_ctx, const Config& cfg)
      : cfg_(cfg), backend_(backend_ctx, cfg_) {}

  Backend& backend() { return backend_; }

  // Creates a front-end on `ctx` whose thread runs on `socket`.
  std::unique_ptr<FrontEnd> add_front_end(verbs::Context& ctx,
                                          hw::SocketId socket);

 private:
  // Declaration order matters: backend_ (and every FrontEnd) keeps a
  // pointer into cfg_, so cfg_ must be constructed first.
  Config cfg_;
  Backend backend_;
};

}  // namespace rdmasem::apps::hashtable
