#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rdmasem::hw {

// MetadataCache — the RNIC's on-device SRAM cache for address-translation
// entries (PTEs), memory-region state and queue-pair state (§II-B2).
//
// Modeled as a single weighted-capacity LRU pool: each object class has a
// weight (a QP context is bigger than one PTE), and the pool evicts
// least-recently-used objects of any class once the total weight exceeds
// capacity. This reproduces the paper's observations that
//   * registered regions beyond ~4 MB lose the seq/rand symmetry (PTE
//     working set > SRAM),
//   * many MRs degrade access latency (~60 % at 10x MRs),
//   * many QPs degrade throughput (QP state thrashing).
//
// Host layout (docs/PERF.md, "Flat hardware-model state"): resident
// entries live in a node array, linked by index into an exact LRU list,
// and an open-addressing table (linear probing, backward-shift delete) maps
// keys to node indices. Both grow by doubling up to the most entries the
// capacity can hold, so the per-access path never allocates once warm.
class MetadataCache {
 public:
  enum class Kind : std::uint8_t { kPte = 0, kMr = 1, kQp = 2 };

  // Every weight must be at least 1.
  MetadataCache(std::size_t capacity_units, std::size_t pte_w,
                std::size_t mr_w, std::size_t qp_w);

  // Touches (kind, id). Returns true on hit; on miss the entry is inserted
  // and LRU victims are evicted to make room.
  bool access(Kind kind, std::uint64_t id);

  // Current occupancy in weight units.
  std::size_t occupancy() const { return occupancy_; }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  double hit_rate() const {
    const auto total = hits_ + misses_;
    return total ? static_cast<double>(hits_) / static_cast<double>(total)
                 : 1.0;
  }
  void reset_stats() { hits_ = misses_ = 0; }
  void clear();

  // Removes an entry if present (e.g. MR deregistration).
  void invalidate(Kind kind, std::uint64_t id);

 private:
  // Key packs kind into the top bits of the id.
  static std::uint64_t key(Kind kind, std::uint64_t id) {
    return (static_cast<std::uint64_t>(kind) << 62) | (id & ((1ULL << 62) - 1));
  }
  std::size_t weight_of(std::uint64_t k) const { return weight_[k >> 62]; }

  // Empty table slot, and the null link of the LRU and free lists.
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};
  struct Node {
    std::uint64_t key;
    std::uint32_t prev;  // towards the MRU head
    std::uint32_t next;  // towards the LRU tail; free-list link when free
  };

  std::size_t home(std::uint64_t k) const {
    return ((k ^ (k >> 32)) * 0x9E3779B97F4A7C15ULL) >> shift_;
  }
  // Table slot holding key k, or the empty slot where its probe ends.
  std::size_t probe(std::uint64_t k) const;
  void erase_slot(std::size_t slot);
  void grow_table();
  std::uint32_t new_node(std::uint64_t k);
  void unlink(std::uint32_t n);
  void push_front(std::uint32_t n);
  void remove(std::size_t slot);

  std::size_t capacity_;
  std::size_t weight_[3];
  std::size_t occupancy_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  // Growth cap of the node array: no more than capacity / min weight
  // entries are ever resident at once.
  std::size_t max_nodes_ = 0;
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> table_;  // node index per slot, or kNil
  unsigned shift_ = 64;               // 64 - log2(table_.size())
  std::size_t resident_ = 0;
  std::uint32_t head_ = kNil;  // most recently used
  std::uint32_t tail_ = kNil;  // least recently used: next victim
  std::uint32_t free_ = kNil;
};

}  // namespace rdmasem::hw
