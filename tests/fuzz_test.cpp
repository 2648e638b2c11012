// Randomized differential tests: drive the simulated fabric with random
// operation sequences and check the outcome against a host-side reference
// model executed in program order.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <queue>
#include <vector>

#include "sim/event_queue.hpp"
#include "testbed.hpp"

namespace v = rdmasem::verbs;
namespace sim = rdmasem::sim;
using rdmasem::test::Testbed;

namespace {

constexpr std::size_t kRegion = 1 << 14;

// The reference: remote memory as a plain byte array mutated in program
// order by the same operations.
struct Reference {
  std::vector<std::byte> mem{std::vector<std::byte>(kRegion)};

  void write(std::uint64_t off, std::span<const std::byte> data) {
    std::memcpy(mem.data() + off, data.data(), data.size());
  }
  std::uint64_t faa(std::uint64_t off, std::uint64_t d) {
    std::uint64_t old = 0;
    std::memcpy(&old, mem.data() + off, 8);
    const std::uint64_t now = old + d;
    std::memcpy(mem.data() + off, &now, 8);
    return old;
  }
  std::uint64_t cas(std::uint64_t off, std::uint64_t cmp, std::uint64_t val) {
    std::uint64_t old = 0;
    std::memcpy(&old, mem.data() + off, 8);
    if (old == cmp) std::memcpy(mem.data() + off, &val, 8);
    return old;
  }
};

}  // namespace

class VerbsDifferential : public ::testing::TestWithParam<int> {};

// Besides single-SGE WRITE/READ/FAA/CAS, the sequence drives every
// responder branch: 2-4-SGE WRITE gathers and READ scatters, SENDs into a
// pre-posted RECV, out-of-range WRITEs (NAKed, memory untouched) and
// misaligned CASes (NAKed with a poisoned atomic_old).
TEST_P(VerbsDifferential, RandomOpSequenceMatchesReference) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Testbed tb;
  v::Buffer local(kRegion), remote(kRegion), inbox(kRegion);
  auto* lmr = tb.ctx[0]->register_buffer(local, 1);
  auto* rmr = tb.ctx[1]->register_buffer(remote, 1);
  auto* imr = tb.ctx[1]->register_buffer(inbox, 1);
  auto conn = tb.connect(0, 1);
  Reference ref;

  bool mismatch = false;
  tb.eng.spawn([](Testbed&, Testbed::Conn cn, v::Buffer& lbuf,
                  v::Buffer& ibuf, v::MemoryRegion* l, v::MemoryRegion* r,
                  v::MemoryRegion* in, Reference& m, std::uint64_t sd,
                  bool& bad) -> sim::Task {
    v::QueuePair* qp = cn.local;
    sim::Rng rng(sd * 7919 + 13);
    auto fill = [&](std::size_t at, std::uint32_t n) {
      for (std::uint32_t b = 0; b < n; ++b)
        lbuf.data()[at + b] = static_cast<std::byte>(rng.uniform(256));
    };
    // 2-4 SGEs of 1-128 bytes, one per 256-byte slot from `base`.
    auto sges = [&](std::uint64_t base, v::WorkRequest& wr) {
      const std::uint64_t n = 2 + rng.uniform(3);
      wr.sg_list.clear();
      for (std::uint64_t i = 0; i < n; ++i)
        wr.sg_list.push_back(
            {l->addr + base + i * 256,
             static_cast<std::uint32_t>(1 + rng.uniform(128)), l->key});
    };
    for (int i = 0; i < 400 && !bad; ++i) {
      const std::uint64_t kind = rng.uniform(9);
      if (kind == 0) {  // write
        const std::uint32_t size =
            static_cast<std::uint32_t>(1 + rng.uniform(512));
        const std::uint64_t off = rng.uniform(kRegion - size);
        fill(0, size);
        v::WorkRequest wr;
        wr.opcode = v::Opcode::kWrite;
        wr.sg_list = {{l->addr, size, l->key}};
        wr.remote_addr = r->addr + off;
        wr.rkey = r->key;
        const auto c = co_await qp->execute(std::move(wr));
        if (!c.ok()) bad = true;
        m.write(off, {lbuf.data(), size});
      } else if (kind == 1) {  // read + compare against reference
        const std::uint32_t size =
            static_cast<std::uint32_t>(1 + rng.uniform(512));
        const std::uint64_t off = rng.uniform(kRegion - size);
        v::WorkRequest wr;
        wr.opcode = v::Opcode::kRead;
        wr.sg_list = {{l->addr + 1024, size, l->key}};
        wr.remote_addr = r->addr + off;
        wr.rkey = r->key;
        const auto c = co_await qp->execute(std::move(wr));
        if (!c.ok() ||
            std::memcmp(lbuf.data() + 1024, m.mem.data() + off, size) != 0)
          bad = true;
      } else if (kind == 2) {  // fetch-add
        const std::uint64_t off = rng.uniform(kRegion / 8) * 8;
        const std::uint64_t delta = rng.next();
        v::WorkRequest wr;
        wr.opcode = v::Opcode::kFetchAdd;
        wr.sg_list = {{l->addr + 2048, 8, l->key}};
        wr.remote_addr = r->addr + off;
        wr.rkey = r->key;
        wr.swap_or_add = delta;
        const auto c = co_await qp->execute(std::move(wr));
        if (!c.ok() || c.atomic_old != m.faa(off, delta)) bad = true;
      } else if (kind == 3) {  // compare-and-swap (50% matching expected)
        const std::uint64_t off = rng.uniform(kRegion / 8) * 8;
        std::uint64_t cur = 0;
        std::memcpy(&cur, m.mem.data() + off, 8);
        const std::uint64_t cmp = rng.chance(0.5) ? cur : rng.next();
        const std::uint64_t val = rng.next();
        v::WorkRequest wr;
        wr.opcode = v::Opcode::kCompSwap;
        wr.sg_list = {{l->addr + 2048, 8, l->key}};
        wr.remote_addr = r->addr + off;
        wr.rkey = r->key;
        wr.compare = cmp;
        wr.swap_or_add = val;
        const auto c = co_await qp->execute(std::move(wr));
        if (!c.ok() || c.atomic_old != m.cas(off, cmp, val)) bad = true;
      } else if (kind == 4) {  // multi-SGE write: the gather concatenates
        v::WorkRequest wr;
        wr.opcode = v::Opcode::kWrite;
        sges(4096, wr);
        std::vector<std::byte> sent;
        for (const auto& s : wr.sg_list) {
          fill(s.addr - l->addr, s.length);
          sent.insert(sent.end(), lbuf.data() + (s.addr - l->addr),
                      lbuf.data() + (s.addr - l->addr) + s.length);
        }
        const std::uint64_t off = rng.uniform(kRegion - sent.size());
        wr.remote_addr = r->addr + off;
        wr.rkey = r->key;
        const auto c = co_await qp->execute(std::move(wr));
        if (!c.ok() || c.byte_len != sent.size()) bad = true;
        m.write(off, sent);
      } else if (kind == 5) {  // multi-SGE read: the landing scatters
        v::WorkRequest wr;
        wr.opcode = v::Opcode::kRead;
        sges(8192, wr);
        const std::size_t total = wr.total_length();
        const std::uint64_t off = rng.uniform(kRegion - total);
        wr.remote_addr = r->addr + off;
        wr.rkey = r->key;
        const v::WorkRequest sent = wr;
        const auto c = co_await qp->execute(std::move(wr));
        if (!c.ok() || c.byte_len != total) bad = true;
        std::size_t at = off;
        for (const auto& s : sent.sg_list) {
          if (std::memcmp(lbuf.data() + (s.addr - l->addr), m.mem.data() + at,
                          s.length) != 0)
            bad = true;
          at += s.length;
        }
      } else if (kind == 6) {  // SEND into a pre-posted RECV
        const std::uint32_t size =
            static_cast<std::uint32_t>(1 + rng.uniform(512));
        const std::uint64_t at = rng.uniform(kRegion - 1024);
        const auto recv_id = static_cast<std::uint64_t>(i) + 1;
        cn.remote->post_recv({recv_id, {in->addr + at, 1024, in->key}});
        fill(0, size);
        v::WorkRequest wr;
        wr.opcode = v::Opcode::kSend;
        wr.sg_list = {{l->addr, size, l->key}};
        const auto c = co_await qp->execute(std::move(wr));
        const auto rc = cn.remote->config().cq->poll();
        if (!c.ok() || !rc.has_value() || rc->wr_id != recv_id ||
            rc->opcode != v::Opcode::kRecv || rc->byte_len != size ||
            std::memcmp(ibuf.data() + at, lbuf.data(), size) != 0)
          bad = true;
      } else if (kind == 7) {  // out-of-range write: NAK, memory untouched
        const std::uint32_t size =
            static_cast<std::uint32_t>(2 + rng.uniform(511));
        const std::uint64_t off = kRegion - size + 1 + rng.uniform(size - 1);
        fill(0, size);
        v::WorkRequest wr;
        wr.opcode = v::Opcode::kWrite;
        wr.sg_list = {{l->addr, size, l->key}};
        wr.remote_addr = r->addr + off;
        wr.rkey = r->key;
        const auto c = co_await qp->execute(std::move(wr));
        if (c.status != v::Status::kRemoteAccessError || c.byte_len != 0)
          bad = true;
      } else {  // misaligned CAS: NAK, poisoned old value, memory untouched
        const std::uint64_t off =
            rng.uniform(kRegion / 8 - 1) * 8 + 1 + rng.uniform(7);
        v::WorkRequest wr;
        wr.opcode = v::Opcode::kCompSwap;
        wr.sg_list = {{l->addr + 2048, 8, l->key}};
        wr.remote_addr = r->addr + off;
        wr.rkey = r->key;
        std::memcpy(&wr.compare, m.mem.data() + off, 8);
        wr.swap_or_add = rng.next();
        const auto c = co_await qp->execute(std::move(wr));
        if (c.status != v::Status::kRemoteInvalidRequest ||
            c.atomic_old != v::kPoisonedAtomicOld)
          bad = true;
      }
    }
  }(tb, conn, local, inbox, lmr, rmr, imr, ref, seed, mismatch));
  tb.eng.run();

  EXPECT_FALSE(mismatch);
  EXPECT_EQ(std::memcmp(remote.data(), ref.mem.data(), kRegion), 0);
  EXPECT_EQ(conn.local->state(), v::QpState::kRts);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VerbsDifferential, ::testing::Range(0, 8));

// ---------------------------------------------------------------------------
// Foundation stress: many actors, exact bookkeeping.

TEST(SimStress, ThousandsOfInterleavedTasksBalance) {
  sim::Engine eng;
  std::uint64_t started = 0, finished = 0;
  sim::Time last = 0;
  sim::Rng rng(77);
  for (int t = 0; t < 2000; ++t) {
    const auto d1 = sim::ns(rng.uniform(5000));
    const auto d2 = sim::ns(rng.uniform(5000));
    ++started;
    eng.spawn([](sim::Engine& e, sim::Duration a, sim::Duration b,
                 std::uint64_t& fin, sim::Time& lst) -> sim::Task {
      co_await sim::delay(e, a);
      co_await sim::delay(e, b);
      fin++;
      lst = std::max(lst, e.now());
    }(eng, d1, d2, finished, last));
  }
  eng.run();
  EXPECT_EQ(finished, started);
  EXPECT_LE(last, sim::ns(10000));
  EXPECT_EQ(eng.now(), last);
}

TEST(SimStress, ChannelDeliversEveryItemExactlyOnce) {
  sim::Engine eng;
  sim::Channel<std::uint64_t> ch(eng);
  const int kProducers = 8, kConsumers = 5, kPerProducer = 500;
  std::vector<int> seen(kProducers * kPerProducer, 0);
  // Producers stamp unique ids; consumers tally.
  for (int p = 0; p < kProducers; ++p) {
    eng.spawn([](sim::Engine& e, sim::Channel<std::uint64_t>& c, int pid,
                 int n) -> sim::Task {
      sim::Rng rng(static_cast<std::uint64_t>(pid) + 1);
      for (int i = 0; i < n; ++i) {
        co_await sim::delay(e, sim::ns(rng.uniform(200)));
        c.push(static_cast<std::uint64_t>(pid) * 500 + i);
      }
    }(eng, ch, p, kPerProducer));
  }
  for (int c = 0; c < kConsumers; ++c) {
    eng.spawn([](sim::Channel<std::uint64_t>& ch2, std::vector<int>& tally,
                 int total_consumers, int idx) -> sim::Task {
      // Each consumer takes a fair-ish share; the last one drains.
      const int quota = 8 * 500 / total_consumers +
                        (idx == 0 ? 8 * 500 % total_consumers : 0);
      for (int i = 0; i < quota; ++i) {
        const auto id = co_await ch2.pop();
        ++tally[id];
      }
    }(ch, seen, kConsumers, c));
  }
  eng.run();
  for (int s : seen) EXPECT_EQ(s, 1);
  EXPECT_TRUE(ch.empty());
}

TEST(SimStress, ResourceConservationLaw) {
  // Busy time can never exceed servers x elapsed, and with more offered
  // load than capacity it converges to exactly that.
  sim::Engine eng;
  sim::Resource r(eng, 3);
  for (int t = 0; t < 300; ++t) {
    eng.spawn([](sim::Resource& res) -> sim::Task {
      for (int i = 0; i < 10; ++i) co_await res.use(sim::ns(100));
    }(r));
  }
  eng.run();
  const double util = r.utilization();
  EXPECT_GT(util, 0.99);
  EXPECT_LE(util, 1.0 + 1e-9);
  EXPECT_EQ(r.busy_time(), sim::ns(100) * 3000);
  // 3000 jobs x 100ns over 3 servers = 100us exactly.
  EXPECT_EQ(eng.now(), sim::us(100));
}

// ---------------------------------------------------------------------------
// EventQueue differential fuzz: the calendar queue must dispatch in exactly
// (at, seq) order — same timestamps, smaller key on ties — across
// same-timestamp pushes, ring-window pushes, overflow pushes and
// run_until-style clock parking. Keys are lane-packed like the engine's
// ((origin_lane << 48) | per_lane_seq), so push order at one timestamp is
// NOT key order: a later push from a lower lane sorts first. Every pop is
// preceded by a peek() that must name the same event.

namespace {

struct RefEvent {
  sim::Time at;
  std::uint64_t seq;
};
struct RefLater {
  bool operator()(const RefEvent& a, const RefEvent& b) const {
    if (a.at != b.at) return a.at > b.at;
    return a.seq > b.seq;
  }
};

// The queue under test and the reference heap, driven in lockstep.
struct QueueHarness {
  explicit QueueHarness(std::uint64_t seed)
      : rng(seed * 6364136223846793005ull + 1) {}

  void push(sim::Time at) {
    if (at < now) at = now;
    // Pack a random origin lane above the per-push counter: unique keys
    // whose order differs from push order, as with cross-lane wakes.
    const std::uint64_t key = (rng.uniform(4) << 48) | seq;
    q.push(sim::Event{at, key});
    ref.push(RefEvent{at, key});
    ++seq;
  }
  // A push with a mix of horizons: immediate (at == now), sub-bucket,
  // inside the ring window, just past it, and far future.
  void push_random() {
    sim::Time at = now;
    switch (rng.uniform(5)) {
      case 0: break;
      case 1: at = now + rng.uniform(5000); break;
      case 2: at = now + rng.uniform(1u << 21); break;
      case 3: at = now + (1u << 21) + rng.uniform(1u << 24); break;
      default: at = now + rng.uniform(1ull << 40); break;
    }
    push(at);
  }
  void pop_one() {
    const RefEvent want = ref.top();
    const auto peeked = q.peek();
    ASSERT_EQ(peeked.first, want.at);
    ASSERT_EQ(peeked.second, want.seq);
    const sim::Event ev = q.pop();
    ref.pop();
    ASSERT_EQ(ev.at, want.at);
    ASSERT_EQ(ev.seq, want.seq);
    now = ev.at;
  }
  // run_until-style: drain everything <= deadline, then park the clock at
  // the deadline (pushes behind the cursor must still interleave
  // correctly).
  void park(sim::Time deadline) {
    while (!ref.empty() && ref.top().at <= deadline)
      ASSERT_NO_FATAL_FAILURE(pop_one());
    now = std::max(now, deadline);
  }
  void drain(int max_pops) {
    for (int k = 0; k < max_pops && !ref.empty(); ++k)
      ASSERT_NO_FATAL_FAILURE(pop_one());
  }
  void expect_same_size() const {
    ASSERT_EQ(q.size(), ref.size());
    ASSERT_EQ(q.empty(), ref.empty());
  }

  sim::Rng rng;
  sim::EventQueue q;
  std::priority_queue<RefEvent, std::vector<RefEvent>, RefLater> ref;
  sim::Time now = 0;
  std::uint64_t seq = 0;
};

// 2^13 ps per calendar bucket (EventQueue::kSlotShift); a burst is more
// than three times the 16 events a bucket holds, so it spills.
constexpr sim::Time kBucketPs = 1u << 13;
constexpr int kBurst = 64;

}  // namespace

class EventQueueDifferential : public ::testing::TestWithParam<int> {};

TEST_P(EventQueueDifferential, MatchesReferenceHeapOrder) {
  QueueHarness h(static_cast<std::uint64_t>(GetParam()));
  for (int step = 0; step < 30000; ++step) {
    const auto op = h.rng.uniform(10);
    if (op < 5 || h.ref.empty()) {
      h.push_random();
    } else if (op < 8) {
      ASSERT_NO_FATAL_FAILURE(h.pop_one());
    } else if (op == 8) {
      ASSERT_NO_FATAL_FAILURE(h.park(h.now + h.rng.uniform(1u << 22)));
    } else {
      ASSERT_NO_FATAL_FAILURE(h.drain(32));
    }
    ASSERT_NO_FATAL_FAILURE(h.expect_same_size());
  }
  ASSERT_NO_FATAL_FAILURE(h.drain(1 << 30));
  EXPECT_TRUE(h.q.empty());
}

// Bursts far larger than a bucket into one future bucket and into the
// cursor bucket (the spill path), mixed with the random traffic above,
// and a clear() mid-run after which the queue must keep matching.
TEST_P(EventQueueDifferential, BurstsSpillAndClearMidRun) {
  QueueHarness h(static_cast<std::uint64_t>(GetParam()) + 1000);
  for (int step = 0; step < 8000; ++step) {
    const auto op = h.rng.uniform(12);
    if (step == 4000) {
      h.q.clear();
      h.ref = {};
    } else if (op < 4 || h.ref.empty()) {
      h.push_random();
    } else if (op < 7) {
      ASSERT_NO_FATAL_FAILURE(h.pop_one());
    } else if (op == 7) {
      // One future bucket, 1..200 buckets past the clock's.
      const sim::Time base =
          ((h.now / kBucketPs) + 1 + h.rng.uniform(200)) * kBucketPs;
      for (int k = 0; k < kBurst; ++k)
        h.push(base + h.rng.uniform(kBucketPs));
    } else if (op == 8) {
      // The clock's own bucket, at and after now.
      const sim::Time end = (h.now / kBucketPs + 1) * kBucketPs;
      for (int k = 0; k < kBurst; ++k)
        h.push(h.now + h.rng.uniform(end - h.now));
    } else if (op == 9) {
      ASSERT_NO_FATAL_FAILURE(h.park(h.now + h.rng.uniform(1u << 22)));
    } else {
      ASSERT_NO_FATAL_FAILURE(h.drain(1 + static_cast<int>(
                                             h.rng.uniform(2 * kBurst))));
    }
    ASSERT_NO_FATAL_FAILURE(h.expect_same_size());
  }
  ASSERT_NO_FATAL_FAILURE(h.drain(1 << 30));
  EXPECT_TRUE(h.q.empty());
}

// The engine's inline-wakeup check peeks between pops. With the clock's
// bucket drained, a peek walks the cursor to the next occupied bucket,
// past the clock; pushes between the clock and that bucket then land
// behind the cursor and sort into the front of the cursor bucket. Mixed
// with parking and random traffic, pops must keep (at, seq) order.
TEST_P(EventQueueDifferential, PeekThenPushBehindCursor) {
  QueueHarness h(static_cast<std::uint64_t>(GetParam()) + 2000);
  for (int step = 0; step < 12000; ++step) {
    const auto op = h.rng.uniform(10);
    if (op < 3 || h.ref.empty()) {
      h.push_random();
    } else if (op < 6) {
      ASSERT_NO_FATAL_FAILURE(h.pop_one());
    } else if (op == 6) {
      ASSERT_NO_FATAL_FAILURE(h.park(h.now + h.rng.uniform(1u << 22)));
    } else {
      const RefEvent next = h.ref.top();
      ASSERT_EQ(h.q.peek().first, next.at);
      ASSERT_EQ(h.q.peek().second, next.seq);
      for (int k = 1 + static_cast<int>(h.rng.uniform(4)); k > 0; --k)
        h.push(h.now + h.rng.uniform(next.at - h.now + 1));
    }
    ASSERT_NO_FATAL_FAILURE(h.expect_same_size());
  }
  ASSERT_NO_FATAL_FAILURE(h.drain(1 << 30));
  EXPECT_TRUE(h.q.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueDifferential, ::testing::Range(0, 10));
