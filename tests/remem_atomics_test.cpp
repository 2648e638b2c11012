#include <gtest/gtest.h>

#include "fault/fault.hpp"
#include "remem/atomics.hpp"
#include "remem/rpc.hpp"
#include "testbed.hpp"
#include "util/sanitizer.hpp"

namespace v = rdmasem::verbs;
namespace sim = rdmasem::sim;
namespace fl = rdmasem::fault;
namespace remem = rdmasem::remem;
using rdmasem::test::Testbed;

namespace {

// Shared lock word + N client QPs from machines 1..N to machine 0.
struct LockRig {
  Testbed tb;
  v::Buffer lockmem;
  v::MemoryRegion* mr;

  LockRig() : lockmem(4096) {
    mr = tb.ctx[0]->register_buffer(lockmem, 1);
  }
  v::QueuePair* client(std::uint32_t machine) {
    return tb.connect(machine, 0).local;
  }
};

}  // namespace

TEST(RemoteLockClient, MutualExclusionHolds) {
  LockRig rig;
  int in_critical = 0, max_in_critical = 0, acquired = 0;
  std::vector<std::unique_ptr<remem::RemoteLockClient>> locks;
  for (std::uint32_t t = 0; t < 4; ++t)
    locks.push_back(
        std::make_unique<remem::RemoteLockClient>(*rig.client(1 + t % 3)));
  for (std::uint32_t t = 0; t < 4; ++t) {
    auto worker = [](LockRig& r, remem::RemoteLockClient& l, int& in, int& mx,
                     int& acq) -> sim::Task {
      for (int i = 0; i < 20; ++i) {
        co_await l.lock(r.mr->addr, r.mr->key);
        ++in;
        mx = std::max(mx, in);
        ++acq;
        co_await sim::delay(r.tb.eng, sim::ns(300));  // critical section
        --in;
        co_await l.unlock(r.mr->addr, r.mr->key);
      }
    };
    rig.tb.eng.spawn(
        worker(rig, *locks[t], in_critical, max_in_critical, acquired));
  }
  rig.tb.eng.run();
  EXPECT_EQ(max_in_critical, 1);
  EXPECT_EQ(acquired, 80);
  EXPECT_EQ(*rig.lockmem.as<std::uint64_t>(), 0u);  // released at the end
}

TEST(RemoteLockClient, BackoffReducesCasTraffic) {
  auto cas_per_acquisition = [](remem::BackoffPolicy bp) {
    LockRig rig;
    std::vector<std::unique_ptr<remem::RemoteLockClient>> locks;
    for (std::uint32_t t = 0; t < 6; ++t)
      locks.push_back(std::make_unique<remem::RemoteLockClient>(
          *rig.client(1 + t % 3), bp));
    for (auto& l : locks) {
      auto worker = [](LockRig& r, remem::RemoteLockClient& lk) -> sim::Task {
        for (int i = 0; i < 15; ++i) {
          co_await lk.lock(r.mr->addr, r.mr->key);
          co_await sim::delay(r.tb.eng, sim::ns(200));
          co_await lk.unlock(r.mr->addr, r.mr->key);
        }
      };
      rig.tb.eng.spawn(worker(rig, *l));
    }
    rig.tb.eng.run();
    std::uint64_t cas = 0, acq = 0;
    for (auto& l : locks) {
      cas += l->cas_attempts();
      acq += l->acquisitions();
    }
    EXPECT_EQ(acq, 90u);
    return static_cast<double>(cas) / static_cast<double>(acq);
  };
  const double naive = cas_per_acquisition(remem::BackoffPolicy::none());
  const double backoff =
      cas_per_acquisition(remem::BackoffPolicy::exponential());
  EXPECT_LT(backoff, naive * 0.7);  // backoff kills wasted CAS slots
}

// One client, two lock words, as when the hashtable's async flushes
// overlap a lock with an unlock on one client: each release of A is still
// in flight (its payload is read from the client's scratch line only at
// the remote landing) while the same client's CAS spins on B, held
// elsewhere, and lands B's old value in the scratch line. Every release
// must still write 0, and B is granted only once its holder lets go.
TEST(RemoteLockClient, UnlockInFlightWhileCasOnAnotherWordLands) {
  LockRig rig;
  auto* word_a = rig.lockmem.as<std::uint64_t>(0);
  auto* word_b = rig.lockmem.as<std::uint64_t>(64);
  const std::uint64_t addr_a = rig.mr->addr, addr_b = rig.mr->addr + 64;
  const std::uint32_t rkey = rig.mr->key;
  *word_b = 1;  // held by another client until kRelease
  remem::RemoteLockClient client(*rig.client(1));
  constexpr int kRounds = 24;
  constexpr sim::Time kRelease = sim::us(300);

  int released_ok = 0;
  sim::Time granted_b = 0;
  auto flusher = [&]() -> sim::Task {
    for (int i = 0; i < kRounds; ++i) {
      EXPECT_TRUE((co_await client.lock(addr_a, rkey)).ok());
      co_await sim::delay(rig.tb.eng, sim::ns(97 * (i % 11)));
      EXPECT_EQ(co_await client.unlock(addr_a, rkey), v::Status::kSuccess);
      if (*word_a != 0) break;  // the release wrote a CAS result, not 0
      ++released_ok;
    }
  };
  auto locker = [&]() -> sim::Task {
    EXPECT_TRUE((co_await client.lock(addr_b, rkey)).ok());
    granted_b = rig.tb.eng.now();
  };
  auto holder = [&]() -> sim::Task {
    co_await sim::delay(rig.tb.eng, kRelease);
    *word_b = 0;
  };
  rig.tb.eng.spawn(locker());
  rig.tb.eng.spawn(flusher());
  rig.tb.eng.spawn(holder());
  rig.tb.eng.run();

  EXPECT_EQ(released_ok, kRounds);
  EXPECT_EQ(*word_a, 0u);
  EXPECT_EQ(*word_b, 1u);  // held by the client
  EXPECT_GE(granted_b, kRelease);
  EXPECT_EQ(client.acquisitions(), static_cast<std::uint64_t>(kRounds + 1));
}

// The WordClient ops are plain functions that return qp.execute()'s task,
// so an op allocates exactly the frames of a bare execute of the same WR.
TEST(WordClient, OpAllocatesOnlyTheFramesOfItsExecute) {
#if RDMASEM_ASAN
  GTEST_SKIP() << "under ASan FramePool passes frames straight to the "
                  "allocator and counts none";
#else
  LockRig rig;
  v::QueuePair* qp = rig.client(1);
  remem::WordClient words(*qp);
  v::Buffer local(64);
  auto* lmr = rig.tb.ctx[1]->register_buffer(local, 1);
  const std::uint64_t raddr = rig.mr->addr;
  const std::uint32_t rkey = rig.mr->key;
  constexpr int kOps = 40;

  std::uint64_t word_frames = 0, bare_frames = 0;
  auto task = [&]() -> sim::Task {
    const auto allocated = [] {
      const auto s = sim::FramePool::stats();
      return s.reused + s.fresh + s.oversize;
    };
    // The five op kinds, through the client and as the same bare WR.
    const auto word_op = [&](int i) {
      switch (i % 5) {
        case 0: return words.read(raddr, rkey);
        case 1: return words.write(raddr, rkey, 0);
        case 2: return words.write_pair(raddr + 8, rkey, 0, 0);
        case 3: return words.cas(raddr, rkey, 0, 0);
        default: return words.faa(raddr + 24, rkey, 1);
      }
    };
    const auto bare_op = [&](int i) {
      static constexpr v::Opcode kOp[] = {v::Opcode::kRead, v::Opcode::kWrite,
                                          v::Opcode::kWrite,
                                          v::Opcode::kCompSwap,
                                          v::Opcode::kFetchAdd};
      v::WorkRequest wr;
      wr.opcode = kOp[i % 5];
      wr.sg_list = {{lmr->addr, i % 5 == 2 ? 16u : 8u, lmr->key}};
      wr.remote_addr = raddr + (i % 5 == 2 ? 8 : i % 5 == 4 ? 24 : 0);
      wr.rkey = rkey;
      wr.swap_or_add = i % 5 == 4 ? 1 : 0;
      return qp->execute(std::move(wr));
    };
    for (int i = 0; i < kOps; ++i) {  // warm the pool's size classes
      EXPECT_TRUE((co_await word_op(i)).ok());
      EXPECT_TRUE((co_await bare_op(i)).ok());
    }
    std::uint64_t f0 = allocated();
    for (int i = 0; i < kOps; ++i) EXPECT_TRUE((co_await word_op(i)).ok());
    word_frames = allocated() - f0;
    f0 = allocated();
    for (int i = 0; i < kOps; ++i) EXPECT_TRUE((co_await bare_op(i)).ok());
    bare_frames = allocated() - f0;
  };
  rig.tb.eng.spawn(task());
  rig.tb.eng.run();

  EXPECT_EQ(word_frames, bare_frames);
  EXPECT_EQ(bare_frames, static_cast<std::uint64_t>(2 * kOps));
#endif
}

TEST(RemoteSequencer, TicketsAreUniqueAndDense) {
  LockRig rig;
  std::vector<std::uint64_t> tickets;
  for (std::uint32_t t = 0; t < 4; ++t) {
    auto worker = [](LockRig& r, std::uint32_t tid,
                     std::vector<std::uint64_t>& out) -> sim::Task {
      remem::RemoteSequencer seq(*r.client(1 + tid % 3), r.mr->addr,
                                 r.mr->key);
      for (int i = 0; i < 25; ++i) out.push_back(co_await seq.next());
    };
    rig.tb.eng.spawn(worker(rig, t, tickets));
  }
  rig.tb.eng.run();
  ASSERT_EQ(tickets.size(), 100u);
  std::sort(tickets.begin(), tickets.end());
  for (std::uint64_t i = 0; i < 100; ++i) EXPECT_EQ(tickets[i], i);
  EXPECT_EQ(*rig.lockmem.as<std::uint64_t>(), 100u);
}

// Regression for the stale-compare-after-flush hole: a CAS/FAA completion
// that FAILS (retry exhaustion, flush on error) must carry
// kPoisonedAtomicOld in atomic_old — never a stale or zero value that a
// lock loop could mistake for "the word was free, I won". Pre-fix, the
// flushed completion left atomic_old at its default and a caller reading
// it without checking ok() acquired a lock it never touched.
TEST(RemoteAtomicsFault, FlushedCasCarriesThePoisonOldNotAStaleZero) {
  Testbed tb;
  auto qpc = tb.paper_qp();
  qpc.retry_cnt = 2;  // bounded: the fault surfaces instead of healing
  auto conn = tb.connect(1, 0, qpc, tb.paper_qp());
  fl::FaultPlan plan;
  plan.link_down(0, sim::ms(2), /*machine=*/1, conn.local->config().port);
  tb.cluster.inject(plan);

  v::Buffer lockmem(64);
  *lockmem.as<std::uint64_t>() = 0;
  auto* mr = tb.ctx[0]->register_buffer(lockmem, 1);
  v::Buffer scratch(64);
  auto* smr = tb.ctx[1]->register_buffer(scratch, 1);
  *scratch.as<std::uint64_t>() = 0;  // the stale value the bug leaked

  v::Completion flushed{};
  bool reacquired = false;
  std::uint64_t reacquired_old = 1;
  auto task = [&]() -> sim::Task {
    auto cas = [&]() {
      v::WorkRequest wr;
      wr.opcode = v::Opcode::kCompSwap;
      wr.sg_list = {{smr->addr, 8, smr->key}};
      wr.remote_addr = mr->addr;
      wr.rkey = mr->key;
      wr.compare = 0;
      wr.swap_or_add = 1;
      return wr;
    };
    flushed = co_await conn.local->execute(cas());
    // Past the outage: reset + reconnect, the same CAS must win honestly.
    co_await sim::delay(tb.eng, sim::ms(3));
    conn.local->reset();
    conn.remote->reset();
    v::Context::connect(*conn.local, *conn.remote);
    const auto c = co_await conn.local->execute(cas());
    reacquired = c.ok();
    reacquired_old = c.atomic_old;
  };
  tb.eng.spawn_on(2, task());
  tb.eng.run();

  EXPECT_FALSE(flushed.ok());
  EXPECT_EQ(flushed.atomic_old, v::kPoisonedAtomicOld);
  EXPECT_NE(flushed.atomic_old, 0u);  // the false-acquisition signature
  EXPECT_EQ(*lockmem.as<std::uint64_t>(), 1u);  // only the honest CAS landed
  EXPECT_TRUE(reacquired);
  EXPECT_EQ(reacquired_old, 0u);
}

// End to end: a RemoteLockClient whose CAS flushes while ANOTHER client
// holds the word must report the failure — never a phantom acquisition —
// and after reset + reconnect it acquires for real once the word frees.
TEST(RemoteAtomicsFault, NoFalseAcquisitionAcrossResetAndReconnect) {
  Testbed tb;
  auto qpc = tb.paper_qp();
  qpc.retry_cnt = 2;
  auto conn = tb.connect(1, 0, qpc, tb.paper_qp());
  fl::FaultPlan plan;
  plan.link_down(0, sim::ms(2), /*machine=*/1, conn.local->config().port);
  tb.cluster.inject(plan);

  v::Buffer lockmem(64);
  *lockmem.as<std::uint64_t>() = 1;  // held by someone else throughout
  auto* mr = tb.ctx[0]->register_buffer(lockmem, 1);
  remem::RemoteLockClient lock(*conn.local);

  bool faulted_ok = true;
  std::uint64_t acquired_after = 0;
  auto task = [&]() -> sim::Task {
    const auto o = co_await lock.lock(mr->addr, mr->key);
    faulted_ok = o.ok();  // must be false: flushed, not granted
    co_await sim::delay(tb.eng, sim::ms(3));
    *lockmem.as<std::uint64_t>() = 0;  // the holder releases
    conn.local->reset();
    conn.remote->reset();
    v::Context::connect(*conn.local, *conn.remote);
    const auto o2 = co_await lock.lock(mr->addr, mr->key);
    if (o2.ok()) acquired_after = lock.acquisitions();
    co_await lock.unlock(mr->addr, mr->key);
  };
  tb.eng.spawn_on(2, task());
  tb.eng.run();

  EXPECT_FALSE(faulted_ok);
  EXPECT_EQ(acquired_after, 1u);  // exactly one honest acquisition
  EXPECT_EQ(*lockmem.as<std::uint64_t>(), 0u);
}

TEST(LocalSpinlock, MutualExclusionAndMeltdownShape) {
  // Local lock: throughput/thread collapses as contenders rise (Fig. 10a).
  auto total_mops = [](std::uint32_t threads) {
    Testbed tb;
    auto& m = tb.cluster.machine(0);
    remem::LocalSpinlock lock(tb.eng, m, /*line=*/1);
    int errors = 0;
    std::uint64_t acq = 0;
    sim::Time end = 0;
    for (std::uint32_t t = 0; t < threads; ++t) {
      auto worker = [](Testbed& tbb, remem::LocalSpinlock& l,
                       std::uint32_t tid, int& err, std::uint64_t& a,
                       sim::Time& e) -> sim::Task {
        const rdmasem::hw::SocketId sock = tid % 2;
        for (int i = 0; i < 400; ++i) {
          co_await l.lock(sock);
          if (!l.held()) ++err;
          ++a;
          co_await l.unlock(sock);
        }
        e = std::max(e, tbb.eng.now());
      };
      tb.eng.spawn(worker(tb, lock, t, errors, acq, end));
    }
    tb.eng.run();
    EXPECT_EQ(errors, 0);
    return static_cast<double>(acq) / sim::to_us(end);
  };
  const double t1 = total_mops(1);
  const double t8 = total_mops(8);
  EXPECT_GT(t1, 30.0);       // uncontended local lock is very fast
  EXPECT_LT(t8, t1 * 0.15);  // paper: collapses to ~1% at high contention
}

TEST(LocalSequencer, ContendersSlowItDown) {
  Testbed tb;
  auto& m = tb.cluster.machine(0);
  remem::LocalSequencer seq(tb.eng, m, 2);
  auto run_n = [&](std::uint32_t contenders) {
    for (std::uint32_t i = 0; i < contenders; ++i) seq.add_contender();
    double out = 0;
    auto worker = [](Testbed& tbb, remem::LocalSequencer& s, double& res)
        -> sim::Task {
      const sim::Time start = tbb.eng.now();
      for (int i = 0; i < 1000; ++i) (void)co_await s.next(0);
      res = 1000.0 / sim::to_us(tbb.eng.now() - start);
    };
    tb.eng.spawn(worker(tb, seq, out));
    tb.eng.run();
    for (std::uint32_t i = 0; i < contenders; ++i) seq.remove_contender();
    return out;
  };
  const double solo = run_n(1);
  const double crowded = run_n(12);
  EXPECT_GT(solo, crowded * 4.0);
}

TEST(LocalSequencer, ValuesMonotone) {
  Testbed tb;
  remem::LocalSequencer seq(tb.eng, tb.cluster.machine(0), 3);
  std::vector<std::uint64_t> vals;
  auto worker = [](Testbed&, remem::LocalSequencer& s,
                   std::vector<std::uint64_t>& out) -> sim::Task {
    for (int i = 0; i < 10; ++i) out.push_back(co_await s.next(0));
  };
  tb.eng.spawn(worker(tb, seq, vals));
  tb.eng.run();
  for (std::uint64_t i = 0; i < vals.size(); ++i) EXPECT_EQ(vals[i], i);
}

TEST(Rpc, EchoRoundTrip) {
  Testbed tb;
  remem::RpcLockServiceState state;
  remem::RpcServer server(
      *tb.ctx[0],
      [&state](std::uint64_t op, std::uint64_t arg) {
        return state.handle(op, arg);
      });
  remem::RpcClient client(*tb.ctx[1], tb.paper_qp());
  v::Context::connect(*server.add_endpoint(), *client.qp());

  std::uint64_t got = 0;
  auto task = [](remem::RpcClient& c, std::uint64_t& out) -> sim::Task {
    out = co_await c.call(remem::kRpcEcho, 12345);
  };
  tb.eng.spawn(task(client, got));
  tb.eng.run();
  EXPECT_EQ(got, 12345u);
  EXPECT_EQ(server.requests_served(), 1u);
}

TEST(Rpc, SequencerServiceIsDense) {
  Testbed tb;
  remem::RpcLockServiceState state;
  remem::RpcServer server(
      *tb.ctx[0],
      [&state](std::uint64_t op, std::uint64_t arg) {
        return state.handle(op, arg);
      });
  std::vector<std::unique_ptr<remem::RpcClient>> clients;
  std::vector<std::uint64_t> tickets;
  for (std::uint32_t t = 0; t < 3; ++t) {
    clients.push_back(std::make_unique<remem::RpcClient>(
        *tb.ctx[1 + t], tb.paper_qp()));
    v::Context::connect(*server.add_endpoint(), *clients.back()->qp());
    auto worker = [](remem::RpcClient& c,
                     std::vector<std::uint64_t>& out) -> sim::Task {
      for (int i = 0; i < 20; ++i)
        out.push_back(co_await c.call(remem::kRpcSeqNext, 0));
    };
    tb.eng.spawn(worker(*clients.back(), tickets));
  }
  tb.eng.run();
  ASSERT_EQ(tickets.size(), 60u);
  std::sort(tickets.begin(), tickets.end());
  for (std::uint64_t i = 0; i < 60; ++i) EXPECT_EQ(tickets[i], i);
}

TEST(Rpc, TryLockGrantsExclusively) {
  Testbed tb;
  remem::RpcLockServiceState state;
  remem::RpcServer server(
      *tb.ctx[0],
      [&state](std::uint64_t op, std::uint64_t arg) {
        return state.handle(op, arg);
      });
  remem::RpcClient c1(*tb.ctx[1], tb.paper_qp());
  remem::RpcClient c2(*tb.ctx[2], tb.paper_qp());
  v::Context::connect(*server.add_endpoint(), *c1.qp());
  v::Context::connect(*server.add_endpoint(), *c2.qp());

  auto task = [](Testbed&, remem::RpcClient& a,
                 remem::RpcClient& b) -> sim::Task {
    EXPECT_EQ(co_await a.call(remem::kRpcTryLock, 0), 1u);  // granted
    EXPECT_EQ(co_await b.call(remem::kRpcTryLock, 0), 0u);  // denied
    EXPECT_EQ(co_await a.call(remem::kRpcUnlock, 0), 1u);
    EXPECT_EQ(co_await b.call(remem::kRpcTryLock, 0), 1u);  // now granted
  };
  tb.eng.spawn(task(tb, c1, c2));
  tb.eng.run();
}

TEST(AtomicsComparison, RemoteSequencerBeatsRpcSequencer) {
  // §III-E: remote FAA ~1.9-2.3x the RPC sequencer.
  auto remote_mops = [] {
    LockRig rig;
    std::uint64_t ops = 0;
    sim::Time end = 0;
    for (std::uint32_t t = 0; t < 6; ++t) {
      auto worker = [](LockRig& r, std::uint32_t tid, std::uint64_t& o,
                       sim::Time& e) -> sim::Task {
        remem::RemoteSequencer seq(*r.client(1 + tid % 3), r.mr->addr,
                                   r.mr->key);
        for (int i = 0; i < 500; ++i) {
          (void)co_await seq.next();
          ++o;
        }
        e = std::max(e, r.tb.eng.now());
      };
      rig.tb.eng.spawn(worker(rig, t, ops, end));
    }
    rig.tb.eng.run();
    return static_cast<double>(ops) / sim::to_us(end);
  };
  auto rpc_mops = [] {
    Testbed tb;
    remem::RpcLockServiceState state;
    remem::RpcServer server(
        *tb.ctx[0],
        [&state](std::uint64_t op, std::uint64_t arg) {
          return state.handle(op, arg);
        });
    std::vector<std::unique_ptr<remem::RpcClient>> clients;
    std::uint64_t ops = 0;
    sim::Time end = 0;
    for (std::uint32_t t = 0; t < 6; ++t) {
      clients.push_back(std::make_unique<remem::RpcClient>(
          *tb.ctx[1 + t % 3], tb.paper_qp()));
      v::Context::connect(*server.add_endpoint(), *clients.back()->qp());
      auto worker = [](remem::RpcClient& c, Testbed& tbb, std::uint64_t& o,
                       sim::Time& e) -> sim::Task {
        for (int i = 0; i < 500; ++i) {
          (void)co_await c.call(remem::kRpcSeqNext, 0);
          ++o;
        }
        e = std::max(e, tbb.eng.now());
      };
      tb.eng.spawn(worker(*clients.back(), tb, ops, end));
    }
    tb.eng.run();
    return static_cast<double>(ops) / sim::to_us(end);
  };
  const double remote = remote_mops();
  const double rpc = rpc_mops();
  EXPECT_GT(remote / rpc, 1.3);
  EXPECT_LT(remote / rpc, 3.5);
}
