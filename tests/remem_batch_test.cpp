#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <utility>
#include <vector>

#include "remem/batch.hpp"
#include "sim/rng.hpp"
#include "sim/sync.hpp"
#include "testbed.hpp"
#include "util/sanitizer.hpp"

// Counts global-allocator hits in this test binary, for
// Batchers.SglFlushIsAllocationFree. Under ASan the sanitizer keeps its
// own operator new.
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

#if !RDMASEM_ASAN
void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace v = rdmasem::verbs;
namespace sim = rdmasem::sim;
namespace remem = rdmasem::remem;
using rdmasem::test::Testbed;
using remem::BatchMode;

namespace {

struct BatchRig {
  Testbed tb;
  v::Buffer src;
  v::Buffer dst;
  v::MemoryRegion* lmr;
  v::MemoryRegion* rmr;
  Testbed::Conn conn;

  BatchRig() : src(1 << 16), dst(1 << 16), conn(tb.connect(0, 1)) {
    lmr = tb.ctx[0]->register_buffer(src, 1);
    rmr = tb.ctx[1]->register_buffer(dst, 1);
    for (std::size_t i = 0; i < src.size(); ++i)
      src.data()[i] = static_cast<std::byte>(i * 7 + 3);
  }

  // `n` scattered 32 B pieces at stride 512 -> contiguous at remote.
  std::vector<remem::BatchItem> items(std::size_t n) {
    std::vector<remem::BatchItem> out;
    for (std::size_t i = 0; i < n; ++i)
      out.push_back({{lmr->addr + i * 512, 32, lmr->key},
                     rmr->addr + i * 32});
    return out;
  }

  bool remote_matches_gather(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i)
      if (std::memcmp(dst.data() + i * 32, src.data() + i * 512, 32) != 0)
        return false;
    return true;
  }

  double flush_mops(remem::Batcher& b, std::size_t n, int reps) {
    double out = 0;
    auto task = [](BatchRig& r, remem::Batcher& batcher, std::size_t nn,
                   int rr, double& res) -> sim::Task {
      auto its = r.items(nn);
      const sim::Time start = r.tb.eng.now();
      for (int i = 0; i < rr; ++i) {
        auto c = co_await batcher.flush(v::Opcode::kWrite, its, r.rmr->addr,
                                        r.rmr->key);
        RDMASEM_CHECK(c.ok());
      }
      res = static_cast<double>(nn) * rr /
            sim::to_us(r.tb.eng.now() - start);
    };
    tb.eng.spawn(task(*this, b, n, reps, out));
    tb.eng.run();
    return out;
  }
};

}  // namespace

TEST(Batchers, SpMovesDataCorrectly) {
  BatchRig rig;
  remem::Batcher sp(*rig.conn.local, BatchMode::kSp, 1 << 14);
  rig.flush_mops(sp, 8, 1);
  EXPECT_TRUE(rig.remote_matches_gather(8));
}

TEST(Batchers, SglMovesDataCorrectly) {
  BatchRig rig;
  remem::Batcher sgl(*rig.conn.local, BatchMode::kSgl);
  rig.flush_mops(sgl, 8, 1);
  EXPECT_TRUE(rig.remote_matches_gather(8));
}

// An SGL flush of rnic_max_sge pieces builds one WR whose gather list
// outgrows SmallVec's 4 inline SGEs. Once warm, that spill (and the rest
// of the WR's path) is served from recycled pool blocks: steady-state
// flushes make no global-allocator call.
TEST(Batchers, SglFlushIsAllocationFree) {
#if RDMASEM_ASAN
  GTEST_SKIP() << "under ASan the pools pass every block to the allocator";
#else
  BatchRig rig;
  remem::Batcher sgl(*rig.conn.local, BatchMode::kSgl);
  const std::size_t n = rig.tb.ctx[0]->params().rnic_max_sge;
  std::uint64_t steady_allocs = ~std::uint64_t{0};
  auto task = [](BatchRig& r, remem::Batcher& b, std::size_t nn,
                 std::uint64_t& out) -> sim::Task {
    const auto its = r.items(nn);
    const auto flush = [&]() -> sim::TaskT<void> {
      const auto c =
          co_await b.flush(v::Opcode::kWrite, its, r.rmr->addr, r.rmr->key);
      EXPECT_TRUE(c.ok());
    };
    for (int i = 0; i < 8; ++i) co_await flush();
    const std::uint64_t before = g_heap_allocs.load();
    for (int i = 0; i < 64; ++i) co_await flush();
    out = g_heap_allocs.load() - before;
  };
  rig.tb.eng.spawn(task(rig, sgl, n, steady_allocs));
  rig.tb.eng.run();
  EXPECT_TRUE(rig.remote_matches_gather(n));
  EXPECT_EQ(steady_allocs, 0u) << "allocations over 64 flushes of " << n
                               << " SGEs";
#endif
}

TEST(Batchers, DoorbellMovesDataToPerItemAddresses) {
  BatchRig rig;
  remem::Batcher db(*rig.conn.local, BatchMode::kDoorbell);
  rig.flush_mops(db, 8, 1);
  // Doorbell writes each item at its own remote_addr (same layout here).
  EXPECT_TRUE(rig.remote_matches_gather(8));
}

TEST(Batchers, PaperOrderingSpGeSglGtDoorbell) {
  // §III-A: SP >= SGL >> Doorbell in throughput for small payloads.
  BatchRig rig;
  remem::Batcher sp(*rig.conn.local, BatchMode::kSp, 1 << 14);
  remem::Batcher sgl(*rig.conn.local, BatchMode::kSgl);
  remem::Batcher db(*rig.conn.local, BatchMode::kDoorbell);
  const double m_sp = rig.flush_mops(sp, 16, 300);
  const double m_sgl = rig.flush_mops(sgl, 16, 300);
  const double m_db = rig.flush_mops(db, 16, 300);
  EXPECT_GE(m_sp, m_sgl * 0.95);
  EXPECT_GT(m_sgl, m_db * 1.3);
  // Fig. 4 text: SP is 1.11x~2.14x SGL.
  EXPECT_LT(m_sp / m_sgl, 2.5);
}

TEST(Batchers, SpScalesWithBatchSize) {
  BatchRig rig;
  remem::Batcher sp(*rig.conn.local, BatchMode::kSp, 1 << 14);
  const double b1 = rig.flush_mops(sp, 1, 300);
  const double b16 = rig.flush_mops(sp, 16, 300);
  EXPECT_GT(b16 / b1, 4.0);  // strong scaling
}

TEST(Batchers, DoorbellBarelyScalesWithBatchSize) {
  BatchRig rig;
  remem::Batcher db(*rig.conn.local, BatchMode::kDoorbell);
  const double b1 = rig.flush_mops(db, 1, 300);
  const double b32 = rig.flush_mops(db, 32, 100);
  const double gain = b32 / b1;
  EXPECT_GT(gain, 1.2);  // it does help (fewer MMIOs)...
  EXPECT_LT(gain, 5.0);  // ...but stays WQE-throttled (paper: ~2.5x)
}

TEST(Batchers, SglDegradesAtLargeBatch) {
  // "High performance only exists in a small range": per-SGE fetch costs
  // make large SGL batches sublinear vs SP.
  BatchRig rig;
  remem::Batcher sp(*rig.conn.local, BatchMode::kSp, 1 << 14);
  remem::Batcher sgl(*rig.conn.local, BatchMode::kSgl);
  const double sp32 = rig.flush_mops(sp, 32, 200);
  const double sgl32 = rig.flush_mops(sgl, 32, 200);
  const double sp4 = rig.flush_mops(sp, 4, 200);
  const double sgl4 = rig.flush_mops(sgl, 4, 200);
  EXPECT_GT(sp32 / sgl32, sp4 / sgl4);  // the gap widens with batch size
}

namespace {
void oversized_sgl_flush() {
  BatchRig rig;
  remem::Batcher sgl(*rig.conn.local, BatchMode::kSgl);
  auto items = rig.items(rig.tb.cluster.params().rnic_max_sge + 1);
  auto task = [](BatchRig& r, remem::Batcher& b,
                 std::vector<remem::BatchItem>& its) -> sim::Task {
    (void)co_await b.flush(v::Opcode::kWrite, its, r.rmr->addr, r.rmr->key);
  };
  rig.tb.eng.spawn(task(rig, sgl, items));
  rig.tb.eng.run();
}

// Flushes `n` of the rig's 32 B items through an SP batcher whose staging
// holds 64 B.
void sp_flush_into_64b_staging(v::Opcode op, std::size_t n) {
  BatchRig rig;
  remem::Batcher sp(*rig.conn.local, BatchMode::kSp, 64);
  auto items = rig.items(n);
  auto task = [](BatchRig& r, remem::Batcher& b, v::Opcode o,
                 std::vector<remem::BatchItem>& its) -> sim::Task {
    (void)co_await b.flush(o, its, r.rmr->addr, r.rmr->key);
  };
  rig.tb.eng.spawn(task(rig, sp, op, items));
  rig.tb.eng.run();
}
}  // namespace

TEST(BatchersDeathTest, SglRejectsBatchBeyondSgeLimit) {
  EXPECT_DEATH(oversized_sgl_flush(), "SGE limit");
}

TEST(BatchersDeathTest, SpRejectsWriteBeyondStaging) {
  sp_flush_into_64b_staging(v::Opcode::kWrite, 2);  // exactly fills staging
  EXPECT_DEATH(sp_flush_into_64b_staging(v::Opcode::kWrite, 3),
               "SP staging overflow");
}

TEST(BatchersDeathTest, SpRejectsReadBeyondStaging) {
  sp_flush_into_64b_staging(v::Opcode::kRead, 2);
  EXPECT_DEATH(sp_flush_into_64b_staging(v::Opcode::kRead, 3),
               "SP staging overflow");
}

TEST(BatchersDeathTest, FlushIsOnlyWriteOrRead) {
  auto flush_as = [](v::Opcode op) {
    BatchRig rig;
    remem::Batcher sgl(*rig.conn.local, BatchMode::kSgl);
    auto items = rig.items(2);
    (void)sgl.flush(op, items, rig.rmr->addr, rig.rmr->key);
  };
  EXPECT_DEATH(flush_as(v::Opcode::kSend), "WRITE or a READ");
  EXPECT_DEATH(flush_as(v::Opcode::kFetchAdd), "WRITE or a READ");
}

// One rule for every mode and direction: a flush with no items aborts at
// the call, before any WR is built.
TEST(BatchersDeathTest, EmptyFlushAborts) {
  auto flush_empty = [](BatchMode mode, v::Opcode op) {
    BatchRig rig;
    remem::Batcher b(*rig.conn.local, mode, 64);
    (void)b.flush(op, {}, rig.rmr->addr, rig.rmr->key);
  };
  for (auto mode : {BatchMode::kNone, BatchMode::kSgl, BatchMode::kSp,
                    BatchMode::kDoorbell})
    for (auto op : {v::Opcode::kWrite, v::Opcode::kRead})
      EXPECT_DEATH(flush_empty(mode, op), "empty batch");
}

// Every mode, both directions: random piece sizes (1..64 B), random local
// strides and up to rnic_max_sge items, checked against a plain memcpy
// reference of both buffers. kNone and kDoorbell must honour each item's
// remote_addr; kSgl and kSp must lay the pieces out back-to-back from
// remote_base and ignore remote_addr (it points elsewhere here).
TEST(Batchers, RoundTripMatchesMemcpyReference) {
  struct Case {
    BatchMode mode;
    v::Opcode op;
  };
  const Case cases[] = {
      {BatchMode::kNone, v::Opcode::kWrite},
      {BatchMode::kNone, v::Opcode::kRead},
      {BatchMode::kSgl, v::Opcode::kWrite},
      {BatchMode::kSgl, v::Opcode::kRead},
      {BatchMode::kSp, v::Opcode::kWrite},
      {BatchMode::kSp, v::Opcode::kRead},
      {BatchMode::kDoorbell, v::Opcode::kWrite},
      {BatchMode::kDoorbell, v::Opcode::kRead},
  };
  for (const Case& tc : cases) {
    SCOPED_TRACE(testing::Message()
                 << "mode " << static_cast<int>(tc.mode) << ", op "
                 << static_cast<int>(tc.op));
    BatchRig rig;
    remem::Batcher b(*rig.conn.local, tc.mode, 1 << 14);
    const std::size_t max_sge = rig.tb.cluster.params().rnic_max_sge;
    sim::Rng rng(static_cast<std::uint64_t>(tc.mode) * 2 +
                 static_cast<std::uint64_t>(tc.op) + 1);
    for (int round = 0; round < 16; ++round) {
      for (auto* buf : {&rig.src, &rig.dst})
        for (std::size_t i = 0; i < buf->size(); ++i)
          buf->data()[i] = static_cast<std::byte>(rng.next());
      const std::size_t n = 1 + rng.uniform(max_sge);
      // Per-item remote slots of 128 B from 4 KiB, in shuffled order;
      // the contiguous destination starts at 32 KiB plus a random offset.
      std::vector<std::size_t> slot(n);
      for (std::size_t i = 0; i < n; ++i) slot[i] = i;
      for (std::size_t i = n; i > 1; --i)
        std::swap(slot[i - 1], slot[rng.uniform(i)]);
      const std::uint64_t base_off = 32768 + rng.uniform(1024);
      const bool per_item = tc.mode == BatchMode::kNone ||
                            tc.mode == BatchMode::kDoorbell;
      std::vector<remem::BatchItem> items;
      std::vector<std::byte> ref_src(rig.src.data(),
                                     rig.src.data() + rig.src.size());
      std::vector<std::byte> ref_dst(rig.dst.data(),
                                     rig.dst.data() + rig.dst.size());
      std::uint64_t local_off = rng.uniform(256);
      std::uint64_t packed_off = base_off;
      for (std::size_t i = 0; i < n; ++i) {
        const auto len = static_cast<std::uint32_t>(1 + rng.uniform(64));
        const std::uint64_t item_off = 4096 + slot[i] * 128 + rng.uniform(64);
        items.push_back({{rig.lmr->addr + local_off, len, rig.lmr->key},
                         rig.rmr->addr + item_off});
        const std::uint64_t remote_off = per_item ? item_off : packed_off;
        if (tc.op == v::Opcode::kWrite)
          std::memcpy(ref_dst.data() + remote_off, ref_src.data() + local_off,
                      len);
        else
          std::memcpy(ref_src.data() + local_off, ref_dst.data() + remote_off,
                      len);
        packed_off += len;
        local_off += len + rng.uniform(256);
      }
      v::Completion c;
      rig.tb.eng.spawn([](BatchRig& r, remem::Batcher& bb, v::Opcode op,
                          const std::vector<remem::BatchItem>& its,
                          std::uint64_t base,
                          v::Completion& out) -> sim::Task {
        out = co_await bb.flush(op, its, r.rmr->addr + base, r.rmr->key);
      }(rig, b, tc.op, items, base_off, c));
      rig.tb.eng.run();
      ASSERT_TRUE(c.ok()) << "round " << round;
      EXPECT_EQ(std::memcmp(rig.src.data(), ref_src.data(), ref_src.size()),
                0)
          << "local memory, round " << round << ", " << n << " items";
      EXPECT_EQ(std::memcmp(rig.dst.data(), ref_dst.data(), ref_dst.size()),
                0)
          << "remote memory, round " << round << ", " << n << " items";
    }
  }
}

TEST(Batchers, ThreadScalingMatchesFig5) {
  // Fig. 5: with window-1 batch-4 clients sharing a port, Doorbell's
  // per-thread throughput collapses with thread count while SP barely
  // moves (it spends 1 WQE per 4 logical ops).
  auto per_thread = [](BatchMode mode, std::uint32_t threads) {
    BatchRig rig;
    std::vector<remem::Batcher> batchers;
    batchers.reserve(threads);
    for (std::uint32_t t = 0; t < threads; ++t)
      batchers.emplace_back(*rig.tb.connect(0, 1).local, mode, 1 << 12);
    double total = 0;
    sim::CountdownLatch done(rig.tb.eng, threads);
    sim::Time end = 0;
    for (std::uint32_t t = 0; t < threads; ++t) {
      auto loop = [](BatchRig& r, remem::Batcher& b, sim::CountdownLatch& d,
                     sim::Time& e) -> sim::Task {
        auto its = r.items(4);
        for (int i = 0; i < 300; ++i)
          (void)co_await b.flush(v::Opcode::kWrite, its, r.rmr->addr,
                                 r.rmr->key);
        e = std::max(e, r.tb.eng.now());
        d.count_down();
      };
      rig.tb.eng.spawn(loop(rig, batchers[t], done, end));
    }
    rig.tb.eng.run();
    total = 4.0 * 300 * threads / rdmasem::sim::to_us(end);
    return total / threads;
  };

  const double sp1 = per_thread(BatchMode::kSp, 1);
  const double sp8 = per_thread(BatchMode::kSp, 8);
  const double db1 = per_thread(BatchMode::kDoorbell, 1);
  const double db8 = per_thread(BatchMode::kDoorbell, 8);
  const double sp_drop = 1.0 - sp8 / sp1;
  const double db_drop = 1.0 - db8 / db1;
  EXPECT_LT(sp_drop, 0.45);          // SP holds up
  EXPECT_GT(db_drop, sp_drop + 0.2); // Doorbell collapses harder
}
