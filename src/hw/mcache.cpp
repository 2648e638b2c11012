#include "hw/mcache.hpp"

#include <algorithm>
#include <bit>

#include "util/assert.hpp"

namespace rdmasem::hw {

MetadataCache::MetadataCache(std::size_t capacity_units, std::size_t pte_w,
                             std::size_t mr_w, std::size_t qp_w)
    : capacity_(capacity_units), weight_{pte_w, mr_w, qp_w} {
  RDMASEM_CHECK(pte_w >= 1 && mr_w >= 1 && qp_w >= 1);
  max_nodes_ = capacity_ / std::min({pte_w, mr_w, qp_w}) + 1;
  grow_table();
}

bool MetadataCache::access(Kind kind, std::uint64_t id) {
  const std::uint64_t k = key(kind, id);
  std::size_t slot = probe(k);
  if (const std::uint32_t n = table_[slot]; n != kNil) {
    ++hits_;
    if (n != head_) {
      unlink(n);
      push_front(n);
    }
    return true;
  }
  ++misses_;
  const std::size_t w = weight_[static_cast<std::size_t>(kind)];
  // Evict from the LRU tail until the new entry fits. A single object
  // heavier than the whole cache is pinned-resident (never inserted).
  if (w > capacity_) return false;
  bool moved = false;  // evictions and growth shift slots: probe again
  while (occupancy_ + w > capacity_) {
    RDMASEM_CHECK(tail_ != kNil);
    remove(probe(nodes_[tail_].key));
    moved = true;
  }
  if ((resident_ + 1) * 2 > table_.size()) {
    grow_table();
    moved = true;
  }
  if (moved) slot = probe(k);
  const std::uint32_t n = new_node(k);
  push_front(n);
  table_[slot] = n;
  ++resident_;
  occupancy_ += w;
  return false;
}

void MetadataCache::invalidate(Kind kind, std::uint64_t id) {
  const std::size_t slot = probe(key(kind, id));
  if (table_[slot] != kNil) remove(slot);
}

void MetadataCache::clear() {
  std::fill(table_.begin(), table_.end(), kNil);
  nodes_.clear();
  resident_ = 0;
  head_ = tail_ = free_ = kNil;
  occupancy_ = 0;
}

std::size_t MetadataCache::probe(std::uint64_t k) const {
  const std::size_t mask = table_.size() - 1;
  std::size_t i = home(k);
  while (table_[i] != kNil && nodes_[table_[i]].key != k) i = (i + 1) & mask;
  return i;
}

void MetadataCache::erase_slot(std::size_t slot) {
  // Backward-shift delete: pull each later entry of the probe run into the
  // hole unless its home lies cyclically in (hole, its slot]. No tombstones.
  const std::size_t mask = table_.size() - 1;
  for (std::size_t j = slot;;) {
    j = (j + 1) & mask;
    const std::uint32_t n = table_[j];
    if (n == kNil) break;
    const std::size_t h = home(nodes_[n].key);
    if (((j - h) & mask) >= ((j - slot) & mask)) {
      table_[slot] = n;
      slot = j;
    }
  }
  table_[slot] = kNil;
}

void MetadataCache::grow_table() {
  std::vector<std::uint32_t> old(table_.empty() ? 16 : table_.size() * 2,
                                 kNil);
  old.swap(table_);
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(table_.size()));
  for (const std::uint32_t n : old)
    if (n != kNil) table_[probe(nodes_[n].key)] = n;
}

std::uint32_t MetadataCache::new_node(std::uint64_t k) {
  if (free_ != kNil) {
    const std::uint32_t n = free_;
    free_ = nodes_[n].next;
    nodes_[n].key = k;
    return n;
  }
  if (nodes_.size() == nodes_.capacity())
    nodes_.reserve(std::min(std::max<std::size_t>(16, nodes_.size() * 2),
                            max_nodes_));
  RDMASEM_CHECK(nodes_.size() < kNil);
  nodes_.push_back({k, kNil, kNil});
  return static_cast<std::uint32_t>(nodes_.size() - 1);
}

void MetadataCache::unlink(std::uint32_t n) {
  const Node& x = nodes_[n];
  (x.prev == kNil ? head_ : nodes_[x.prev].next) = x.next;
  (x.next == kNil ? tail_ : nodes_[x.next].prev) = x.prev;
}

void MetadataCache::push_front(std::uint32_t n) {
  nodes_[n].prev = kNil;
  nodes_[n].next = head_;
  (head_ == kNil ? tail_ : nodes_[head_].prev) = n;
  head_ = n;
}

void MetadataCache::remove(std::size_t slot) {
  const std::uint32_t n = table_[slot];
  occupancy_ -= weight_of(nodes_[n].key);
  erase_slot(slot);
  unlink(n);
  nodes_[n].next = free_;
  free_ = n;
  --resident_;
}

}  // namespace rdmasem::hw
