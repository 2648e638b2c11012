#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <unordered_map>

#include "hw/coherence.hpp"
#include "hw/dram.hpp"
#include "hw/mcache.hpp"
#include "hw/numa.hpp"
#include "hw/params.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"

namespace hw = rdmasem::hw;
namespace sim = rdmasem::sim;
using Kind = hw::MetadataCache::Kind;

TEST(ModelParams, SerTimeMatchesLinkRate) {
  // 1000 bytes at 40 Gbps = 200 ns.
  EXPECT_EQ(hw::ModelParams::ser_time(1000, 40.0), sim::ns(200));
  EXPECT_EQ(hw::ModelParams::ser_time(0, 40.0), 0u);
}

TEST(ModelParams, WireTimeIncludesHeader) {
  hw::ModelParams p;
  EXPECT_GT(p.wire_time(0), 0u);  // headers still serialize
  EXPECT_EQ(p.wire_time(100) - p.wire_time(0),
            hw::ModelParams::ser_time(100, p.link_gbps));
}

TEST(ModelParams, MemcpyTimeHasFixedOverhead) {
  hw::ModelParams p;
  EXPECT_GE(p.memcpy_time(1), p.cpu_memcpy_overhead);
  EXPECT_GT(p.memcpy_time(1 << 20), p.memcpy_time(1 << 10));
}

// ---------------------------------------------------------------------------
// MetadataCache

TEST(MetadataCache, HitAfterInsert) {
  hw::MetadataCache c(16, 1, 2, 4);
  EXPECT_FALSE(c.access(Kind::kPte, 1));  // cold miss
  EXPECT_TRUE(c.access(Kind::kPte, 1));   // now resident
  EXPECT_EQ(c.hits(), 1u);
  EXPECT_EQ(c.misses(), 1u);
}

TEST(MetadataCache, KindsDoNotCollide) {
  hw::MetadataCache c(16, 1, 2, 4);
  c.access(Kind::kPte, 7);
  EXPECT_FALSE(c.access(Kind::kQp, 7));  // distinct object, distinct key
}

TEST(MetadataCache, LruEvictionOrder) {
  hw::MetadataCache c(3, 1, 2, 4);  // three PTE slots
  c.access(Kind::kPte, 1);
  c.access(Kind::kPte, 2);
  c.access(Kind::kPte, 3);
  c.access(Kind::kPte, 1);          // refresh 1; LRU order now 2,3,1
  c.access(Kind::kPte, 4);          // evicts 2
  EXPECT_TRUE(c.access(Kind::kPte, 1));
  EXPECT_TRUE(c.access(Kind::kPte, 3));
  EXPECT_FALSE(c.access(Kind::kPte, 2));  // was evicted
}

TEST(MetadataCache, WeightedOccupancy) {
  hw::MetadataCache c(8, 1, 2, 4);
  c.access(Kind::kQp, 1);   // weight 4
  c.access(Kind::kMr, 1);   // weight 2
  c.access(Kind::kPte, 1);  // weight 1
  EXPECT_EQ(c.occupancy(), 7u);
  c.access(Kind::kQp, 2);   // needs 4 -> evicts LRU until it fits
  EXPECT_LE(c.occupancy(), 8u);
}

TEST(MetadataCache, WorkingSetBeyondCapacityThrashes) {
  hw::MetadataCache c(64, 1, 2, 4);
  // Cycle through 128 PTEs repeatedly: pure LRU on a loop > capacity
  // never hits.
  for (int round = 0; round < 4; ++round)
    for (std::uint64_t i = 0; i < 128; ++i) c.access(Kind::kPte, i);
  EXPECT_EQ(c.hits(), 0u);
}

TEST(MetadataCache, WorkingSetWithinCapacityAllHits) {
  hw::MetadataCache c(64, 1, 2, 4);
  for (std::uint64_t i = 0; i < 32; ++i) c.access(Kind::kPte, i);
  c.reset_stats();
  for (int round = 0; round < 4; ++round)
    for (std::uint64_t i = 0; i < 32; ++i) c.access(Kind::kPte, i);
  EXPECT_DOUBLE_EQ(c.hit_rate(), 1.0);
}

TEST(MetadataCache, InvalidateRemoves) {
  hw::MetadataCache c(16, 1, 2, 4);
  c.access(Kind::kMr, 5);
  c.invalidate(Kind::kMr, 5);
  EXPECT_EQ(c.occupancy(), 0u);
  EXPECT_FALSE(c.access(Kind::kMr, 5));
}

TEST(MetadataCache, OversizedObjectNeverInserted) {
  hw::MetadataCache c(2, 1, 2, 4);  // QP weight 4 > capacity 2
  EXPECT_FALSE(c.access(Kind::kQp, 1));
  EXPECT_FALSE(c.access(Kind::kQp, 1));  // still a miss, no crash
  EXPECT_EQ(c.occupancy(), 0u);
}

TEST(MetadataCache, ClearEmpties) {
  hw::MetadataCache c(16, 1, 2, 4);
  c.access(Kind::kPte, 1);
  c.clear();
  EXPECT_EQ(c.occupancy(), 0u);
  EXPECT_FALSE(c.access(Kind::kPte, 1));
}

namespace {

// Reference weighted LRU: the std::list + std::unordered_map formulation
// MetadataCache must agree with access for access.
class RefWeightedLru {
 public:
  RefWeightedLru(std::size_t cap, std::size_t pte_w, std::size_t mr_w,
                 std::size_t qp_w)
      : cap_(cap), w_{pte_w, mr_w, qp_w} {}
  bool access(Kind kind, std::uint64_t id) {
    const std::uint64_t k = key(kind, id);
    if (auto it = map_.find(k); it != map_.end()) {
      ++hits;
      lru_.splice(lru_.begin(), lru_, it->second);
      return true;
    }
    ++misses;
    const std::size_t w = w_[static_cast<std::size_t>(kind)];
    if (w > cap_) return false;
    while (occupancy + w > cap_) {
      occupancy -= w_[lru_.back() >> 62];
      map_.erase(lru_.back());
      lru_.pop_back();
    }
    lru_.push_front(k);
    map_[k] = lru_.begin();
    occupancy += w;
    return false;
  }
  void invalidate(Kind kind, std::uint64_t id) {
    const auto it = map_.find(key(kind, id));
    if (it == map_.end()) return;
    occupancy -= w_[it->first >> 62];
    lru_.erase(it->second);
    map_.erase(it);
  }
  void clear() {
    lru_.clear();
    map_.clear();
    occupancy = 0;
  }
  std::size_t occupancy = 0;
  std::uint64_t hits = 0, misses = 0;

 private:
  static std::uint64_t key(Kind kind, std::uint64_t id) {
    return (static_cast<std::uint64_t>(kind) << 62) | (id & ((1ULL << 62) - 1));
  }
  std::size_t cap_;
  std::size_t w_[3];
  std::list<std::uint64_t> lru_;
  std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator> map_;
};

// 100k random operations against the reference: mixed kinds, ids drawn
// from a pool a few times the capacity (so hits, misses and evictions all
// occur), occasional ids with high bits set (masked by the key packing),
// invalidations and rare clears.
void diff_mcache(std::uint64_t seed, std::size_t cap, std::size_t pte_w,
                 std::size_t mr_w, std::size_t qp_w) {
  SCOPED_TRACE(testing::Message() << "seed " << seed << " cap " << cap);
  hw::MetadataCache c(cap, pte_w, mr_w, qp_w);
  RefWeightedLru ref(cap, pte_w, mr_w, qp_w);
  sim::Rng rng(seed);
  const std::uint64_t pool = 3 * cap + 8;
  for (int i = 0; i < 100000; ++i) {
    const auto kind = static_cast<Kind>(rng.uniform(3));
    const std::uint64_t id =
        rng.chance(0.01) ? rng.next() : rng.uniform(pool);
    const std::uint64_t op = rng.uniform(1000);
    if (op == 0) {
      c.clear();
      ref.clear();
    } else if (op < 60) {
      c.invalidate(kind, id);
      ref.invalidate(kind, id);
    } else {
      ASSERT_EQ(c.access(kind, id), ref.access(kind, id)) << "op " << i;
    }
    ASSERT_EQ(c.occupancy(), ref.occupancy) << "op " << i;
  }
  EXPECT_EQ(c.hits(), ref.hits);
  EXPECT_EQ(c.misses(), ref.misses);
  EXPECT_GT(c.hits(), 0u);
}

}  // namespace

TEST(MetadataCache, MatchesReferenceLru) {
  diff_mcache(1, 1024, 1, 2, 4);  // the RNIC's default shape
  diff_mcache(2, 64, 1, 2, 4);
  diff_mcache(3, 37, 3, 5, 7);    // no weight divides the capacity
  diff_mcache(4, 3, 1, 2, 4);     // capacity below the QP weight
  diff_mcache(5, 1, 1, 1, 1);
}

TEST(MetadataCacheDeathTest, ZeroWeightAborts) {
  EXPECT_DEATH(hw::MetadataCache(16, 1, 0, 4), "RDMASEM_CHECK");
}

// ---------------------------------------------------------------------------
// DramModel

TEST(Dram, SequentialCheaperThanRandom) {
  hw::ModelParams p;
  hw::DramModel seq(p), rnd(p);
  sim::Duration t_seq = 0, t_rnd = 0;
  sim::Rng rng(42);
  const std::uint64_t region = 1ull << 30;
  for (int i = 0; i < 10000; ++i) {
    t_seq += seq.access(static_cast<std::uint64_t>(i) * 64, 64,
                        hw::DramModel::Op::kWrite);
    t_rnd += rnd.access(rng.uniform(region / 64) * 64, 64,
                        hw::DramModel::Op::kWrite);
  }
  // The paper's local asymmetry anchor: ~2.9x for writes.
  const double ratio =
      static_cast<double>(t_rnd) / static_cast<double>(t_seq);
  EXPECT_GT(ratio, 2.0);
  EXPECT_LT(ratio, 5.0);
}

TEST(Dram, SubLineSequentialHitsLine) {
  hw::ModelParams p;
  hw::DramModel d(p);
  (void)d.access(0, 8, hw::DramModel::Op::kRead);
  // Next 8B in the same 64B line: line-hit price.
  const auto t = d.access(8, 8, hw::DramModel::Op::kRead);
  EXPECT_EQ(t, p.dram_line_hit);
}

TEST(Dram, RowMissRecorded) {
  hw::ModelParams p;
  hw::DramModel d(p);
  d.access(0, 64, hw::DramModel::Op::kRead);
  d.access(1ull << 26, 64, hw::DramModel::Op::kRead);  // far away row
  EXPECT_GE(d.row_misses(), 2u);
}

TEST(Dram, CrossSocketCostsMore) {
  hw::ModelParams p;
  hw::DramModel a(p), b(p);
  const auto local = a.access(0, 64, hw::DramModel::Op::kRead, true);
  const auto remote = b.access(0, 64, hw::DramModel::Op::kRead, false);
  EXPECT_GT(remote, local);
}

TEST(Dram, BandwidthFloorForBulk) {
  hw::ModelParams p;
  hw::DramModel d(p);
  const std::size_t size = 1 << 20;
  const auto t = d.access(0, size, hw::DramModel::Op::kRead);
  EXPECT_GE(t, hw::ModelParams::ser_time(size, p.mem_local_gbps));
}

TEST(Dram, StreamRemoteSlower) {
  hw::ModelParams p;
  hw::DramModel d(p);
  EXPECT_GT(d.stream(1 << 20, false), d.stream(1 << 20, true));
}

TEST(Dram, IdleLatencyMatchesTable2) {
  hw::ModelParams p;
  hw::DramModel d(p);
  EXPECT_EQ(d.idle_latency(true), sim::ns(92));
  EXPECT_EQ(d.idle_latency(false), sim::ns(162));
}

TEST(Dram, ResetClearsState) {
  hw::ModelParams p;
  hw::DramModel d(p);
  d.access(0, 64, hw::DramModel::Op::kRead);
  d.reset();
  EXPECT_EQ(d.row_hits(), 0u);
  EXPECT_EQ(d.row_misses(), 0u);
}

namespace {

// Reference DRAM row model: the std::list + std::unordered_map open-row LRU
// that DramModel must agree with, charge for charge.
class RefDram {
 public:
  explicit RefDram(const hw::ModelParams& p) : p_(p) {}
  sim::Duration access(std::uint64_t addr, std::size_t size, bool write,
                       bool same) {
    const std::uint64_t first = addr / p_.dram_line_bytes;
    const std::uint64_t last =
        (addr + (size ? size - 1 : 0)) / p_.dram_line_bytes;
    sim::Duration total = 0;
    std::uint32_t pending = 0;
    for (std::uint64_t line = first; line <= last; ++line) {
      if (line == last_line_) {
        total += p_.dram_line_hit;
        continue;
      }
      const std::uint64_t row = line * p_.dram_line_bytes / p_.dram_row_bytes;
      if (auto it = map_.find(row); it != map_.end()) {
        ++row_hits;
        lru_.splice(lru_.begin(), lru_, it->second);
        total += p_.dram_row_hit;
        continue;
      }
      ++row_misses;
      if (map_.size() >= p_.dram_banks) {
        map_.erase(lru_.back());
        lru_.pop_back();
      }
      lru_.push_front(row);
      map_[row] = lru_.begin();
      total += (++pending % p_.dram_mlp == 1 || p_.dram_mlp == 1)
                   ? p_.dram_row_miss
                   : p_.dram_row_hit;
    }
    last_line_ = last;
    if (write) total = total * 3 / 4;
    if (!same) {
      total += p_.mem_remote_socket_latency - p_.mem_local_latency;
      total = static_cast<sim::Duration>(
          static_cast<double>(total) *
          (p_.mem_local_gbps / p_.mem_remote_socket_gbps));
    }
    return std::max(total, hw::ModelParams::ser_time(
                               size, same ? p_.mem_local_gbps
                                          : p_.mem_remote_socket_gbps));
  }
  std::uint64_t row_hits = 0, row_misses = 0;

 private:
  const hw::ModelParams& p_;
  std::list<std::uint64_t> lru_;
  std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator> map_;
  std::uint64_t last_line_ = ~std::uint64_t{0};
};

// 100k random accesses against the reference: sizes 1..1023 B over a span
// of 24 rows (so open rows hit and get evicted), both ops and both sockets,
// and every fourth access starting just before the previous access's last
// line so that line falls inside the new range.
void diff_dram(std::uint64_t seed, const hw::ModelParams& p) {
  SCOPED_TRACE(testing::Message() << "seed " << seed << " banks "
                                  << p.dram_banks << " mlp " << p.dram_mlp);
  hw::DramModel d(p);
  RefDram ref(p);
  sim::Rng rng(seed);
  std::uint64_t prev_end = 0;
  for (int i = 0; i < 100000; ++i) {
    const std::size_t size = 1 + rng.uniform(1023);
    const std::uint64_t back = rng.uniform(size);
    const std::uint64_t addr =
        rng.uniform(4) == 0 && prev_end >= back
            ? prev_end - back
            : rng.uniform(24 * p.dram_row_bytes);
    const bool write = rng.chance(0.5);
    const bool same = rng.chance(0.5);
    ASSERT_EQ(d.access(addr, size,
                       write ? hw::DramModel::Op::kWrite
                             : hw::DramModel::Op::kRead,
                       same),
              ref.access(addr, size, write, same))
        << "access " << i;
    prev_end = addr + size - 1;
  }
  EXPECT_EQ(d.row_hits(), ref.row_hits);
  EXPECT_EQ(d.row_misses(), ref.row_misses);
  EXPECT_GT(d.row_hits(), 0u);
}

}  // namespace

TEST(Dram, MatchesReferenceRowModel) {
  hw::ModelParams p;
  diff_dram(1, p);  // 16 banks, MLP 4
  p.dram_banks = 1;
  diff_dram(2, p);
  p.dram_banks = 5;
  p.dram_mlp = 1;
  diff_dram(3, p);
}

TEST(DramDeathTest, ZeroBanksAborts) {
  hw::ModelParams p;
  p.dram_banks = 0;
  EXPECT_DEATH(hw::DramModel{p}, "RDMASEM_CHECK");
}

// ---------------------------------------------------------------------------
// CoherenceModel

TEST(Coherence, UncontendedIsBase) {
  sim::Engine e;
  hw::ModelParams p;
  hw::CoherenceModel c(e, p);
  EXPECT_EQ(c.rmw_cost(1, false), p.coh_atomic_base);
}

TEST(Coherence, CostGrowsWithContenders) {
  sim::Engine e;
  hw::ModelParams p;
  hw::CoherenceModel c(e, p);
  c.add_contender(1);
  const auto one = c.rmw_cost(1, false);
  for (int i = 0; i < 7; ++i) c.add_contender(1);
  const auto eight = c.rmw_cost(1, false);
  EXPECT_GT(eight, one * 4);
}

TEST(Coherence, FaaDegradesMoreGracefullyThanCas) {
  sim::Engine e;
  hw::ModelParams p;
  hw::CoherenceModel c(e, p);
  for (int i = 0; i < 14; ++i) c.add_contender(1);
  EXPECT_LT(c.rmw_cost(1, false, hw::CoherenceModel::Rmw::kFaa),
            c.rmw_cost(1, false, hw::CoherenceModel::Rmw::kCas) / 3);
}

TEST(Coherence, RemoveContenderRestores) {
  sim::Engine e;
  hw::ModelParams p;
  hw::CoherenceModel c(e, p);
  c.add_contender(1);
  c.add_contender(1);
  c.remove_contender(1);
  c.remove_contender(1);
  EXPECT_EQ(c.contenders(1), 0u);
  EXPECT_EQ(c.rmw_cost(1, false), p.coh_atomic_base);
}

TEST(Coherence, CrossSocketSurcharge) {
  sim::Engine e;
  hw::ModelParams p;
  hw::CoherenceModel c(e, p);
  EXPECT_EQ(c.rmw_cost(1, true) - c.rmw_cost(1, false), p.coh_cross_socket);
}

TEST(Coherence, LinesAreIndependent) {
  sim::Engine e;
  hw::ModelParams p;
  hw::CoherenceModel c(e, p);
  for (int i = 0; i < 8; ++i) c.add_contender(1);
  EXPECT_EQ(c.rmw_cost(2, false), p.coh_atomic_base);
}

TEST(Coherence, LineResourceSerializes) {
  sim::Engine e;
  hw::ModelParams p;
  hw::CoherenceModel c(e, p);
  auto& r = c.line_resource(1);
  EXPECT_EQ(r.reserve(sim::ns(10)), sim::ns(10));
  EXPECT_EQ(r.reserve(sim::ns(10)), sim::ns(20));
  EXPECT_EQ(&c.line_resource(1), &r);  // stable identity
}

// ---------------------------------------------------------------------------
// NumaTopology

TEST(Numa, PortSocketBinding) {
  hw::ModelParams p;
  hw::NumaTopology t(p);
  EXPECT_EQ(t.port_socket(0), 0u);
  EXPECT_EQ(t.port_socket(1), 1u);
  EXPECT_EQ(t.port_socket(2), 0u);  // wraps
}

TEST(Numa, PenaltiesZeroWhenLocal) {
  hw::ModelParams p;
  hw::NumaTopology t(p);
  EXPECT_EQ(t.cpu_mem_penalty(0, 0), 0u);
  EXPECT_EQ(t.dma_mem_penalty(1, 1), 0u);
  EXPECT_EQ(t.mmio_penalty(1, 1), 0u);
}

TEST(Numa, PenaltiesMatchParams) {
  hw::ModelParams p;
  hw::NumaTopology t(p);
  EXPECT_EQ(t.cpu_mem_penalty(0, 1),
            p.mem_remote_socket_latency - p.mem_local_latency);
  EXPECT_EQ(t.dma_mem_penalty(0, 1), p.pcie_dma_alt_socket);
  EXPECT_EQ(t.mmio_penalty(0, 1), p.cpu_mmio_alt_socket);
}
