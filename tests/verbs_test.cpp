#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "testbed.hpp"
#include "util/sanitizer.hpp"

namespace v = rdmasem::verbs;
namespace sim = rdmasem::sim;
using rdmasem::test::Testbed;
using rdmasem::test::make_read;
using rdmasem::test::make_write;

namespace {

// Runs one coroutine to completion on the testbed engine.
void run(Testbed& tb, sim::Task t) {
  tb.eng.spawn(std::move(t));
  tb.eng.run();
}

}  // namespace

TEST(VerbsWrite, DataActuallyMoves) {
  Testbed tb;
  v::Buffer src(4096), dst(4096);
  auto* lmr = tb.ctx[0]->register_buffer(src, 1);
  auto* rmr = tb.ctx[1]->register_buffer(dst, 1);
  auto conn = tb.connect(0, 1);
  std::memcpy(src.data(), "hello rdma", 10);

  run(tb, [](Testbed& t, v::QueuePair* qp, v::MemoryRegion* l,
             v::MemoryRegion* r) -> sim::Task {
    auto c = co_await qp->execute(make_write(*l, 0, *r, 100, 10));
    EXPECT_TRUE(c.ok());
    EXPECT_EQ(c.byte_len, 10u);
    (void)t;
  }(tb, conn.local, lmr, rmr));

  EXPECT_EQ(std::memcmp(dst.data() + 100, "hello rdma", 10), 0);
}

TEST(VerbsWrite, SglGathersContiguously) {
  Testbed tb;
  v::Buffer src(4096), dst(4096);
  auto* lmr = tb.ctx[0]->register_buffer(src, 1);
  auto* rmr = tb.ctx[1]->register_buffer(dst, 1);
  auto conn = tb.connect(0, 1);
  std::memcpy(src.data(), "AAAA", 4);
  std::memcpy(src.data() + 1000, "BBBB", 4);
  std::memcpy(src.data() + 2000, "CCCC", 4);

  run(tb, [](Testbed&, v::QueuePair* qp, v::MemoryRegion* l,
             v::MemoryRegion* r) -> sim::Task {
    v::WorkRequest wr;
    wr.opcode = v::Opcode::kWrite;
    wr.sg_list = {{l->addr, 4, l->key},
                  {l->addr + 1000, 4, l->key},
                  {l->addr + 2000, 4, l->key}};
    wr.remote_addr = r->addr;
    wr.rkey = r->key;
    auto c = co_await qp->execute(wr);
    EXPECT_TRUE(c.ok());
    EXPECT_EQ(c.byte_len, 12u);
  }(tb, conn.local, lmr, rmr));

  EXPECT_EQ(std::memcmp(dst.data(), "AAAABBBBCCCC", 12), 0);
}

TEST(VerbsRead, PullsRemoteData) {
  Testbed tb;
  v::Buffer local(4096), remote(4096);
  auto* lmr = tb.ctx[0]->register_buffer(local, 1);
  auto* rmr = tb.ctx[1]->register_buffer(remote, 1);
  auto conn = tb.connect(0, 1);
  std::memcpy(remote.data() + 64, "remote-bytes", 12);

  run(tb, [](Testbed&, v::QueuePair* qp, v::MemoryRegion* l,
             v::MemoryRegion* r) -> sim::Task {
    auto c = co_await qp->execute(make_read(*l, 8, *r, 64, 12));
    EXPECT_TRUE(c.ok());
  }(tb, conn.local, lmr, rmr));

  EXPECT_EQ(std::memcmp(local.data() + 8, "remote-bytes", 12), 0);
}

TEST(VerbsAtomic, FetchAddReturnsOldAndAdds) {
  Testbed tb;
  v::Buffer local(64), remote(64);
  auto* lmr = tb.ctx[0]->register_buffer(local, 1);
  auto* rmr = tb.ctx[1]->register_buffer(remote, 1);
  auto conn = tb.connect(0, 1);
  *remote.as<std::uint64_t>() = 41;

  run(tb, [](Testbed&, v::QueuePair* qp, v::MemoryRegion* l,
             v::MemoryRegion* r) -> sim::Task {
    v::WorkRequest wr;
    wr.opcode = v::Opcode::kFetchAdd;
    wr.sg_list = {{l->addr, 8, l->key}};
    wr.remote_addr = r->addr;
    wr.rkey = r->key;
    wr.swap_or_add = 1;
    auto c = co_await qp->execute(wr);
    EXPECT_TRUE(c.ok());
    EXPECT_EQ(c.atomic_old, 41u);
    auto c2 = co_await qp->execute(wr);
    EXPECT_EQ(c2.atomic_old, 42u);
  }(tb, conn.local, lmr, rmr));

  EXPECT_EQ(*remote.as<std::uint64_t>(), 43u);
  EXPECT_EQ(*local.as<std::uint64_t>(), 42u);  // old value DMA'd back
}

TEST(VerbsAtomic, CompSwapOnlyOnMatch) {
  Testbed tb;
  v::Buffer local(64), remote(64);
  auto* lmr = tb.ctx[0]->register_buffer(local, 1);
  auto* rmr = tb.ctx[1]->register_buffer(remote, 1);
  auto conn = tb.connect(0, 1);
  *remote.as<std::uint64_t>() = 7;

  run(tb, [](Testbed&, v::QueuePair* qp, v::MemoryRegion* l,
             v::MemoryRegion* r) -> sim::Task {
    v::WorkRequest wr;
    wr.opcode = v::Opcode::kCompSwap;
    wr.sg_list = {{l->addr, 8, l->key}};
    wr.remote_addr = r->addr;
    wr.rkey = r->key;
    wr.compare = 99;  // mismatch: no swap
    wr.swap_or_add = 1;
    auto c = co_await qp->execute(wr);
    EXPECT_EQ(c.atomic_old, 7u);

    wr.compare = 7;  // match: swap to 1
    auto c2 = co_await qp->execute(wr);
    EXPECT_EQ(c2.atomic_old, 7u);
  }(tb, conn.local, lmr, rmr));

  EXPECT_EQ(*remote.as<std::uint64_t>(), 1u);
}

TEST(VerbsAtomic, MisalignedRejected) {
  Testbed tb;
  v::Buffer local(64), remote(64);
  auto* lmr = tb.ctx[0]->register_buffer(local, 1);
  auto* rmr = tb.ctx[1]->register_buffer(remote, 1);
  auto conn = tb.connect(0, 1);

  run(tb, [](Testbed&, v::QueuePair* qp, v::MemoryRegion* l,
             v::MemoryRegion* r) -> sim::Task {
    v::WorkRequest wr;
    wr.opcode = v::Opcode::kFetchAdd;
    wr.sg_list = {{l->addr, 8, l->key}};
    wr.remote_addr = r->addr + 3;  // misaligned
    wr.rkey = r->key;
    wr.swap_or_add = 1;
    auto c = co_await qp->execute(wr);
    EXPECT_EQ(c.status, v::Status::kRemoteInvalidRequest);
  }(tb, conn.local, lmr, rmr));
}

TEST(VerbsSendRecv, DeliversAndCompletesBothSides) {
  Testbed tb;
  v::Buffer sbuf(4096), rbuf(4096);
  auto* smr = tb.ctx[0]->register_buffer(sbuf, 1);
  auto* rmr = tb.ctx[1]->register_buffer(rbuf, 1);
  auto conn = tb.connect(0, 1);
  std::memcpy(sbuf.data(), "ping", 4);
  conn.remote->post_recv({77, {rmr->addr, 256, rmr->key}});

  bool recv_done = false;
  run(tb, [](Testbed& t, Testbed::Conn c, v::MemoryRegion* s,
             bool& flag) -> sim::Task {
    v::WorkRequest wr;
    wr.opcode = v::Opcode::kSend;
    wr.sg_list = {{s->addr, 4, s->key}};
    auto sc = co_await c.local->execute(wr);
    EXPECT_TRUE(sc.ok());
    auto rc = co_await c.remote->config().cq->next();
    EXPECT_EQ(rc.opcode, v::Opcode::kRecv);
    EXPECT_EQ(rc.wr_id, 77u);
    EXPECT_EQ(rc.byte_len, 4u);
    flag = true;
    (void)t;
  }(tb, conn, smr, recv_done));

  EXPECT_TRUE(recv_done);
  EXPECT_EQ(std::memcmp(rbuf.data(), "ping", 4), 0);
}

TEST(VerbsSendRecv, RnrWhenNoReceivePosted) {
  Testbed tb;
  v::Buffer sbuf(64);
  auto* smr = tb.ctx[0]->register_buffer(sbuf, 1);
  auto conn = tb.connect(0, 1);

  run(tb, [](Testbed&, v::QueuePair* qp, v::MemoryRegion* s) -> sim::Task {
    v::WorkRequest wr;
    wr.opcode = v::Opcode::kSend;
    wr.sg_list = {{s->addr, 4, s->key}};
    auto c = co_await qp->execute(wr);
    EXPECT_EQ(c.status, v::Status::kRnrRetryExceeded);
  }(tb, conn.local, smr));
}

TEST(VerbsErrors, BadRkeyIsRemoteAccessError) {
  Testbed tb;
  v::Buffer src(4096);
  auto* lmr = tb.ctx[0]->register_buffer(src, 1);
  auto conn = tb.connect(0, 1);

  run(tb, [](Testbed&, v::QueuePair* qp, v::MemoryRegion* l) -> sim::Task {
    v::WorkRequest wr;
    wr.opcode = v::Opcode::kWrite;
    wr.sg_list = {{l->addr, 8, l->key}};
    wr.remote_addr = 0x1000;
    wr.rkey = 9999;  // nobody registered this
    auto c = co_await qp->execute(wr);
    EXPECT_EQ(c.status, v::Status::kRemoteAccessError);
  }(tb, conn.local, lmr));
}

TEST(VerbsErrors, RemoteRangeOutOfBounds) {
  Testbed tb;
  v::Buffer src(4096), dst(4096);
  auto* lmr = tb.ctx[0]->register_buffer(src, 1);
  auto* rmr = tb.ctx[1]->register_buffer(dst, 1);
  auto conn = tb.connect(0, 1);

  run(tb, [](Testbed&, v::QueuePair* qp, v::MemoryRegion* l,
             v::MemoryRegion* r) -> sim::Task {
    auto wr = make_write(*l, 0, *r, 4090, 100);  // spills past the MR
    auto c = co_await qp->execute(wr);
    EXPECT_EQ(c.status, v::Status::kRemoteAccessError);
  }(tb, conn.local, lmr, rmr));
}

TEST(VerbsErrors, BadLkeyIsLocalProtectionError) {
  Testbed tb;
  v::Buffer dst(4096);
  auto* rmr = tb.ctx[1]->register_buffer(dst, 1);
  auto conn = tb.connect(0, 1);

  run(tb, [](Testbed&, v::QueuePair* qp, v::MemoryRegion* r) -> sim::Task {
    v::WorkRequest wr;
    wr.opcode = v::Opcode::kWrite;
    wr.sg_list = {{0x4000, 8, 12345}};
    wr.remote_addr = r->addr;
    wr.rkey = r->key;
    auto c = co_await qp->execute(wr);
    EXPECT_EQ(c.status, v::Status::kLocalProtectionError);
  }(tb, conn.local, rmr));
}

TEST(VerbsCompletion, UnsignaledProducesNoCqe) {
  Testbed tb;
  v::Buffer src(4096), dst(4096);
  auto* lmr = tb.ctx[0]->register_buffer(src, 1);
  auto* rmr = tb.ctx[1]->register_buffer(dst, 1);
  auto conn = tb.connect(0, 1);

  auto wr = make_write(*lmr, 0, *rmr, 0, 8);
  wr.wr_id = 1;
  wr.signaled = false;
  conn.local->post_send(wr);
  tb.eng.run();
  EXPECT_EQ(conn.local->config().cq->pending(), 0u);
  EXPECT_EQ(conn.local->outstanding(), 0u);
  EXPECT_EQ(conn.local->ops_completed(), 1u);
}

TEST(VerbsCompletion, SignaledGoesToCq) {
  Testbed tb;
  v::Buffer src(4096), dst(4096);
  auto* lmr = tb.ctx[0]->register_buffer(src, 1);
  auto* rmr = tb.ctx[1]->register_buffer(dst, 1);
  auto conn = tb.connect(0, 1);

  auto wr = make_write(*lmr, 0, *rmr, 0, 8);
  wr.wr_id = 42;
  conn.local->post_send(wr);
  tb.eng.run();
  ASSERT_EQ(conn.local->config().cq->pending(), 1u);
  auto c = conn.local->config().cq->poll();
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->wr_id, 42u);
  EXPECT_TRUE(c->ok());
}

TEST(VerbsCompletion, ExecuteBatchReturnsLastCompletion) {
  Testbed tb;
  v::Buffer src(4096), dst(4096);
  auto* lmr = tb.ctx[0]->register_buffer(src, 1);
  auto* rmr = tb.ctx[1]->register_buffer(dst, 1);
  auto conn = tb.connect(0, 1);
  std::memcpy(src.data(), "0123456789abcdef", 16);

  run(tb, [](Testbed&, v::QueuePair* qp, v::MemoryRegion* l,
             v::MemoryRegion* r) -> sim::Task {
    std::vector<v::WorkRequest> wrs;
    for (int i = 0; i < 4; ++i) {
      auto wr = make_write(*l, static_cast<std::uint64_t>(i) * 4, *r,
                           static_cast<std::uint64_t>(i) * 4, 4);
      wr.signaled = false;
      wrs.push_back(wr);
    }
    auto c = co_await qp->execute_batch(std::move(wrs));
    EXPECT_TRUE(c.ok());
  }(tb, conn.local, lmr, rmr));

  EXPECT_EQ(std::memcmp(dst.data(), "0123456789abcdef", 16), 0);
}

TEST(VerbsLifecycle, OutstandingDrainsToZero) {
  Testbed tb;
  v::Buffer src(1 << 16), dst(1 << 16);
  auto* lmr = tb.ctx[0]->register_buffer(src, 1);
  auto* rmr = tb.ctx[1]->register_buffer(dst, 1);
  auto conn = tb.connect(0, 1);

  for (int i = 0; i < 100; ++i) {
    auto wr = make_write(*lmr, static_cast<std::uint64_t>(i) * 64, *rmr,
                         static_cast<std::uint64_t>(i) * 64, 64);
    wr.signaled = false;
    conn.local->post_send(wr);
  }
  EXPECT_EQ(conn.local->outstanding(), 100u);
  tb.eng.run();
  EXPECT_EQ(conn.local->outstanding(), 0u);
  EXPECT_EQ(conn.local->ops_completed(), 100u);
  EXPECT_EQ(conn.local->bytes_completed(), 6400u);
}

TEST(VerbsMr, DeregisterInvalidatesKey) {
  Testbed tb;
  v::Buffer b(4096);
  auto* mr = tb.ctx[0]->register_buffer(b, 0);
  const auto key = mr->key;
  EXPECT_NE(tb.ctx[0]->lookup(key), nullptr);
  tb.ctx[0]->deregister(key);
  EXPECT_EQ(tb.ctx[0]->lookup(key), nullptr);
}

TEST(VerbsMr, DenseKeysAreNeverReused) {
  Testbed tb;
  v::Context& ctx = *tb.ctx[0];
  const std::size_t base = ctx.mr_count();  // the rig may register some
  v::Buffer a(4096), b(4096), c(4096);
  const std::uint32_t ka = ctx.register_buffer(a, 0)->key;
  const std::uint32_t kb = ctx.register_buffer(b, 0)->key;
  EXPECT_EQ(kb, ka + 1);
  EXPECT_EQ(ctx.mr_count(), base + 2);
  EXPECT_EQ(ctx.lookup(0), nullptr);
  EXPECT_EQ(ctx.lookup(kb + 1), nullptr);  // past the last key
  EXPECT_EQ(ctx.lookup(~std::uint32_t{0}), nullptr);

  ctx.deregister(ka);
  EXPECT_EQ(ctx.lookup(ka), nullptr);
  EXPECT_EQ(ctx.mr_count(), base + 1);
  ctx.deregister(ka);  // second deregister: no-op
  ctx.deregister(0);
  ctx.deregister(kb + 1);
  EXPECT_EQ(ctx.mr_count(), base + 1);
  EXPECT_EQ(ctx.lookup(kb)->key, kb);

  // A registration after a deregister takes a fresh key.
  v::MemoryRegion* mc = ctx.register_buffer(c, 0);
  EXPECT_EQ(mc->key, kb + 1);
  EXPECT_EQ(ctx.lookup(mc->key), mc);
  EXPECT_EQ(ctx.lookup(ka), nullptr);
  EXPECT_EQ(ctx.mr_count(), base + 2);
}

TEST(VerbsMr, ContainsChecksOverflowSafe) {
  v::MemoryRegion mr;
  mr.addr = 1000;
  mr.length = 100;
  EXPECT_TRUE(mr.contains(1000, 100));
  EXPECT_TRUE(mr.contains(1099, 1));
  EXPECT_FALSE(mr.contains(1099, 2));
  EXPECT_FALSE(mr.contains(999, 1));
  EXPECT_FALSE(mr.contains(1000, 101));
  // Overflow attempt: huge addr + len wrapping around.
  EXPECT_FALSE(mr.contains(~0ull - 1, 100));
}

TEST(VerbsLoopback, SameMachineWriteWorks) {
  Testbed tb;
  v::Buffer src(4096), dst(4096);
  auto* lmr = tb.ctx[0]->register_buffer(src, 0);
  auto* rmr = tb.ctx[0]->register_buffer(dst, 1);
  auto conn = tb.connect(0, 0);
  std::memcpy(src.data(), "loop", 4);

  run(tb, [](Testbed&, v::QueuePair* qp, v::MemoryRegion* l,
             v::MemoryRegion* r) -> sim::Task {
    auto c = co_await qp->execute(make_write(*l, 0, *r, 0, 4));
    EXPECT_TRUE(c.ok());
  }(tb, conn.local, lmr, rmr));

  EXPECT_EQ(std::memcmp(dst.data(), "loop", 4), 0);
}

namespace {

constexpr std::size_t kMiB = std::size_t{1} << 20;
constexpr std::size_t kGiB = std::size_t{1} << 30;

// True when every byte of `b` reads zero. Above the prefault limit one
// byte per 2 MiB (and the last byte) is read, so the check itself makes
// neither the lazy mapping nor a sanitizer's shadow of it resident.
bool reads_zero(const v::Buffer& b) {
  const std::size_t stride =
      b.size() > v::Buffer::kPrefaultLimit ? v::Buffer::kHugePage : 1;
  const std::byte* p = b.data();
  for (std::size_t off = 0; off < b.size(); off += stride)
    if (p[off] != std::byte{0}) return false;
  return p[b.size() - 1] == std::byte{0};
}

// Whether a Buffer of `size` bytes gets a mapping of its own (the
// pre-faulted and lazy tiers). Under ASan every size is a heap block.
bool own_mapping(std::size_t size) {
  return !RDMASEM_ASAN && size >= v::Buffer::kHugePage;
}

// Whether [p, p + len) is mapped: msync fails with ENOMEM on any
// unmapped page.
bool is_mapped(const std::byte* p, std::size_t len) {
  return ::msync(const_cast<std::byte*>(p), len, MS_ASYNC) == 0;
}

// Resident set size of this process, from /proc/self/statm.
std::size_t resident_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  EXPECT_NE(f, nullptr);
  if (f == nullptr) return 0;
  unsigned long total = 0, resident = 0;
  EXPECT_EQ(std::fscanf(f, "%lu %lu", &total, &resident), 2);
  std::fclose(f);
  return resident * static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
}

std::size_t growth(std::size_t before, std::size_t after) {
  return after > before ? after - before : 0;
}

}  // namespace

TEST(VerbsBuffer, ZeroFilledAndAlignedInEveryTier) {
  // Each side of both tier boundaries, plus a 1 GiB lazy region.
  const std::size_t sizes[] = {1,
                               v::Buffer::kHugePage - 1,
                               v::Buffer::kHugePage,
                               v::Buffer::kHugePage + 1,
                               v::Buffer::kPrefaultLimit,
                               v::Buffer::kPrefaultLimit + 1,
                               kGiB};
  for (std::size_t size : sizes) {
    v::Buffer b(size);
    ASSERT_NE(b.data(), nullptr) << size;
    EXPECT_EQ(b.size(), size);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.data()) % v::Buffer::kAlignment,
              0u)
        << size;
    EXPECT_TRUE(reads_zero(b)) << size;
    b.data()[0] = std::byte{1};
    b.data()[size - 1] = std::byte{2};
    EXPECT_EQ(b.data()[size - 1], std::byte{2});
  }
}

TEST(VerbsBuffer, MovesCarryOwnershipAcrossTiers) {
  const std::size_t sizes[] = {4096, 4 * kMiB, 32 * kMiB};  // one per tier
  for (std::size_t from : sizes) {
    for (std::size_t to : sizes) {
      std::byte* p = nullptr;
      {
        v::Buffer src(from);
        p = src.data();
        p[from - 1] = std::byte{0x5a};

        v::Buffer moved(std::move(src));
        EXPECT_EQ(src.data(), nullptr);
        EXPECT_EQ(src.size(), 0u);
        EXPECT_EQ(moved.data(), p);

        v::Buffer dst(to);
        std::byte* const old = dst.data();
        dst = std::move(moved);  // releases dst's own memory, once
        EXPECT_EQ(moved.data(), nullptr);
        EXPECT_EQ(moved.size(), 0u);
        EXPECT_EQ(dst.data(), p);
        EXPECT_EQ(dst.size(), from);
        if (own_mapping(to)) {
          EXPECT_FALSE(is_mapped(old, to)) << to;
        }

        v::Buffer& alias = dst;
        dst = std::move(alias);  // self-move keeps the memory
        EXPECT_EQ(dst.data(), p);
        EXPECT_EQ(dst.size(), from);
        EXPECT_EQ(dst.data()[from - 1], std::byte{0x5a});
        if (own_mapping(from)) {
          EXPECT_TRUE(is_mapped(p, from));
        }
      }
      if (own_mapping(from)) {
        EXPECT_FALSE(is_mapped(p, from)) << from;
      }
    }
  }
}

TEST(VerbsBuffer, SimulatedAddressesArePinned) {
  // Offsets from Cluster::kSimVaBase in a fresh cluster: each region starts
  // on an 8 KiB row, one guard row past the previous region's row-rounded
  // length. The host memory tier decides where a buffer's bytes live,
  // never which simulated address its region gets.
  struct Step {
    std::size_t size;
    std::uint64_t offset;
  };
  const Step steps[] = {
      {100, 0x0},
      {4096, 0x4000},
      {2 * kMiB - 1, 0x8000},
      {2 * kMiB, 0x20a000},
      {16 * kMiB, 0x40c000},
      {16 * kMiB + 1, 0x140e000},
      {kGiB, 0x2412000},
      {3 * 8192, 0x42414000},
      {12345, 0x4241c000},
      {2 * kMiB + 1, 0x42422000},
  };
  Testbed tb;
  std::vector<v::Buffer> bufs;
  bufs.reserve(std::size(steps));
  for (const Step& s : steps) {
    bufs.emplace_back(s.size);
    const v::MemoryRegion* mr = tb.ctx[0]->register_buffer(bufs.back(), 0);
    EXPECT_EQ(mr->addr - rdmasem::cluster::Cluster::kSimVaBase, s.offset)
        << s.size;
  }
}

TEST(VerbsBuffer, PrefaultTierIsResidentOnReturn) {
  const std::size_t size = 8 * kMiB;
  const std::size_t before = resident_bytes();
  v::Buffer b(size);
  EXPECT_GE(growth(before, resident_bytes()), size - kMiB);
}

TEST(VerbsBuffer, LazyTierLeavesUntouchedPagesNonResident) {
  if (RDMASEM_ASAN)
    GTEST_SKIP() << "ASan build: every Buffer takes the heap tier, which "
                    "zero-fills (and so makes resident) all of it";
  const std::size_t before = resident_bytes();
  v::Buffer b(kGiB);
  b.data()[kGiB / 2] = std::byte{1};
  const std::size_t grown = growth(before, resident_bytes());
  EXPECT_LT(grown, 16 * kMiB) << "1 GiB buffer made " << grown
                              << " bytes resident";
}

namespace {

// Registers one fresh Buffer per size in a fresh testbed, alternating
// between machines 0 and 1, and returns the regions' simulated addresses.
std::vector<std::uint64_t> registered_addrs(
    std::span<const std::size_t> sizes) {
  Testbed tb;
  std::vector<v::Buffer> bufs;
  bufs.reserve(sizes.size());
  std::vector<std::uint64_t> addrs;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    bufs.emplace_back(sizes[i]);
    addrs.push_back(tb.ctx[i % 2]->register_buffer(bufs.back(), 1)->addr);
  }
  return addrs;
}

}  // namespace

TEST(ClusterAddressSpace, RestartsPerCluster) {
  const std::size_t sizes[] = {64, 4096, 8192, 100000, 3 * kMiB, 777};
  const std::vector<std::uint64_t> first = registered_addrs(sizes);

  // Host memory and a throwaway cluster built in between, with
  // registrations of its own, must not move the next cluster's addresses.
  v::Buffer stray_small(12345), stray_big(5 * kMiB);
  {
    Testbed other;
    other.ctx[2]->register_buffer(stray_small, 0);
    other.ctx[3]->register_buffer(stray_big, 1);
  }
  EXPECT_EQ(registered_addrs(sizes), first);
}

TEST(ClusterAddressSpace, DoubleRegistrationGetsDisjointRangesOverSameBytes) {
  Testbed tb;
  v::Buffer shared(4096), local(4096);
  v::MemoryRegion* a = tb.ctx[1]->register_buffer(shared, 1);
  v::MemoryRegion* b = tb.ctx[1]->register_buffer(shared, 1);
  v::MemoryRegion* l = tb.ctx[0]->register_buffer(local, 1);
  EXPECT_NE(a->key, b->key);
  EXPECT_EQ(a->data, b->data);
  EXPECT_TRUE(a->addr + a->length <= b->addr ||
              b->addr + b->length <= a->addr);
  auto conn = tb.connect(0, 1);
  std::memcpy(local.data(), "via-a", 5);
  std::memcpy(local.data() + 8, "via-b", 5);

  run(tb, [](v::QueuePair* qp, v::MemoryRegion* lm, v::MemoryRegion* ma,
             v::MemoryRegion* mb) -> sim::Task {
    // Write through one region, read the same bytes back through the other.
    EXPECT_TRUE((co_await qp->execute(make_write(*lm, 0, *ma, 128, 5))).ok());
    EXPECT_TRUE((co_await qp->execute(make_read(*lm, 1024, *mb, 128, 5))).ok());
    EXPECT_TRUE((co_await qp->execute(make_write(*lm, 8, *mb, 256, 5))).ok());
    EXPECT_TRUE((co_await qp->execute(make_read(*lm, 2048, *ma, 256, 5))).ok());
    // One region's rkey does not cover the other's address range.
    v::WorkRequest wr = make_write(*lm, 0, *ma, 0, 5);
    wr.rkey = mb->key;
    EXPECT_EQ((co_await qp->execute(wr)).status,
              v::Status::kRemoteAccessError);
  }(conn.local, l, a, b));

  EXPECT_EQ(std::memcmp(shared.data() + 128, "via-a", 5), 0);
  EXPECT_EQ(std::memcmp(shared.data() + 256, "via-b", 5), 0);
  EXPECT_EQ(std::memcmp(local.data() + 1024, "via-a", 5), 0);
  EXPECT_EQ(std::memcmp(local.data() + 2048, "via-b", 5), 0);
}

// Frames per WR: run_wr is the only coroutine frame a posted WR costs —
// the fabric legs, post() and wait() are frame-less awaitables — and
// execute() adds its own. Counted from FramePool's allocation stats over
// a steady loop of fault-free RC WRITE, READ and FETCH_ADD WRs.
TEST(VerbsFrames, OneFramePerPostedWr) {
#if RDMASEM_ASAN
  GTEST_SKIP() << "under ASan FramePool passes frames straight to the "
                  "allocator and counts none";
#else
  Testbed tb;
  v::Buffer local(4096), remote(4096);
  auto* lmr = tb.ctx[0]->register_buffer(local, 1);
  auto* rmr = tb.ctx[1]->register_buffer(remote, 1);
  auto conn = tb.connect(0, 1);
  constexpr int kOps = 64;

  struct Frames {
    std::uint64_t post_send = 0, execute = 0;
  } frames;
  run(tb, [](v::QueuePair* qp, v::MemoryRegion* l, v::MemoryRegion* r,
             Frames& out) -> sim::Task {
    const auto allocated = [] {
      const auto s = sim::FramePool::stats();
      return s.reused + s.fresh + s.oversize;
    };
    const auto make = [l, r](int i) {
      if (i % 3 == 0) return make_write(*l, 0, *r, 0, 64);
      if (i % 3 == 1) return make_read(*l, 0, *r, 0, 64);
      v::WorkRequest wr;
      wr.opcode = v::Opcode::kFetchAdd;
      wr.sg_list = {{l->addr, 8, l->key}};
      wr.remote_addr = r->addr;
      wr.rkey = r->key;
      wr.swap_or_add = 1;
      return wr;
    };
    for (int i = 0; i < kOps; ++i) (void)co_await qp->execute(make(i));
    std::uint64_t f0 = allocated();
    for (int i = 0; i < kOps; ++i) {
      v::WorkRequest wr = make(i);
      wr.signaled = true;
      wr.wr_id = 1'000'000 + static_cast<std::uint64_t>(i);
      const std::uint64_t wid = wr.wr_id;
      qp->post_send(std::move(wr));
      const v::Completion c = co_await qp->wait(wid);
      EXPECT_TRUE(c.ok());
    }
    out.post_send = allocated() - f0;
    f0 = allocated();
    for (int i = 0; i < kOps; ++i)
      EXPECT_TRUE((co_await qp->execute(make(i))).ok());
    out.execute = allocated() - f0;
  }(conn.local, lmr, rmr, frames));

  EXPECT_EQ(frames.post_send, static_cast<std::uint64_t>(kOps));
  EXPECT_EQ(frames.execute, static_cast<std::uint64_t>(2 * kOps));
#endif
}
