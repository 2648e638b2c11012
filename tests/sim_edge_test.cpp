// Edge cases of the sim/ primitives that the scheduler overhaul must not
// disturb: clock parking (run_until landing exactly on an event), bounded
// dispatch (run_events stopping mid-burst of equal timestamps), engine
// destruction with parked coroutines, channel fairness/cancellation, and
// Resource accounting corners.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/channel.hpp"
#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/size_class_pool.hpp"
#include "sim/resource.hpp"
#include "sim/sync.hpp"

namespace sim = rdmasem::sim;

// ---------------------------------------------------------------------------
// Engine clock / dispatch-order edges

TEST(EngineEdge, RunUntilExactlyOnEventTimestamp) {
  sim::Engine eng;
  int fired = 0;
  eng.schedule_at(sim::us(5), [&] { ++fired; });
  eng.schedule_at(sim::us(5) + 1, [&] { ++fired; });
  // Deadline == event time: the event at the deadline fires, the one 1 ps
  // later does not, and the clock parks exactly at the deadline.
  EXPECT_TRUE(eng.run_until(sim::us(5)));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eng.now(), sim::us(5));
  EXPECT_FALSE(eng.run_until(sim::us(5) + 1));
  EXPECT_EQ(fired, 2);
}

TEST(EngineEdge, RunUntilParksClockOnEmptyGap) {
  sim::Engine eng;
  int fired = 0;
  eng.schedule_at(sim::us(10), [&] { ++fired; });
  // Park below the next event: nothing fires, clock advances to deadline.
  EXPECT_TRUE(eng.run_until(sim::us(5)));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(eng.now(), sim::us(5));
  // Scheduling at the parked now() and after it keeps FIFO-by-time order
  // even though the pre-existing event entered the queue first.
  std::vector<int> order;
  eng.schedule_at(sim::us(5), [&] { order.push_back(1); });
  eng.schedule_at(sim::us(6), [&] { order.push_back(2); });
  eng.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);  // at parked now()
  EXPECT_EQ(order[1], 2);  // at 6 us, before the 10 us event
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eng.now(), sim::us(10));
}

TEST(EngineEdge, RunEventsStopsMidBurstOfEqualTimestamps) {
  sim::Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i)
    eng.schedule_at(sim::us(1), [&order, i] { order.push_back(i); });
  // Drain 3 of the 8 equal-timestamp events; FIFO prefix only.
  EXPECT_EQ(eng.run_events(3), 3u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_FALSE(eng.idle());
  // The remainder continues in the same order, including events appended
  // at the same timestamp mid-burst.
  eng.schedule_at(sim::us(1), [&order] { order.push_back(100); });
  EXPECT_EQ(eng.run_events(100), 6u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 100}));
  EXPECT_TRUE(eng.idle());
}

TEST(EngineEdge, SchedulePastClampsToNow) {
  sim::Engine eng;
  eng.schedule_at(sim::us(3), [] {});
  eng.run();
  EXPECT_EQ(eng.now(), sim::us(3));
  sim::Time fired_at = 0;
  eng.schedule_at(sim::us(1), [&] { fired_at = eng.now(); });  // in the past
  eng.run();
  EXPECT_EQ(fired_at, sim::us(3));  // clamped, clock never moves backwards
}

TEST(EngineEdge, DestructionWithParkedCoroutines) {
  // Coroutines parked on a channel/latch when the engine dies must have
  // their frames reclaimed (no leaks under ASan) without resuming.
  int resumed = 0;
  int started = 0;
  {
    sim::Engine eng;
    auto ch = std::make_unique<sim::Channel<int>>(eng);
    for (int i = 0; i < 16; ++i) {
      eng.spawn([](sim::Channel<int>& c, int& st, int& rs) -> sim::Task {
        ++st;
        const int v = co_await c.pop();  // parks forever
        rs += v;
      }(*ch, started, resumed));
    }
    eng.run();
    EXPECT_EQ(started, 16);
    // Engine destroyed here with 16 frames parked in the channel.
  }
  EXPECT_EQ(resumed, 0);
}

TEST(EngineEdge, DestructionWithUndispatchedEvents) {
  // Queued-but-never-run events (cancel-while-queued at teardown): their
  // captured state must be destroyed exactly once and never invoked.
  int fired = 0;
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> observer = token;
  {
    sim::Engine eng;
    eng.schedule_at(sim::ms(1), [t = std::move(token), &fired] {
      fired += *t;
    });
    // No run(): destruction drops the event.
  }
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(observer.expired());  // capture destroyed with the queue
}

// ---------------------------------------------------------------------------
// Channel edges

TEST(ChannelEdge, TryPopYieldsToQueuedWaiters) {
  sim::Engine eng;
  sim::Channel<int> ch(eng);
  int got = -1;
  eng.spawn([](sim::Channel<int>& c, int& out) -> sim::Task {
    out = co_await c.pop();
  }(ch, got));
  eng.run();  // waiter parks first
  ch.push(42);
  // A waiter is queued: try_pop must not steal its item.
  EXPECT_EQ(ch.try_pop(), std::nullopt);
  eng.run();
  EXPECT_EQ(got, 42);
  ch.push(7);
  EXPECT_EQ(ch.try_pop(), std::optional<int>(7));  // no waiters: fine
}

TEST(ChannelEdge, PopFifoAcrossPushBursts) {
  sim::Engine eng;
  sim::Channel<int> ch(eng);
  std::vector<int> by_waiter(3, -1);
  for (int w = 0; w < 3; ++w) {
    eng.spawn([](sim::Channel<int>& c, std::vector<int>& out,
                 int id) -> sim::Task {
      out[static_cast<std::size_t>(id)] = co_await c.pop();
    }(ch, by_waiter, w));
  }
  eng.run();
  ch.push(10);
  ch.push(11);
  ch.push(12);
  eng.run();
  // Waiters resume in arrival order and consume items in push order.
  EXPECT_EQ(by_waiter, (std::vector<int>{10, 11, 12}));
}

TEST(ChannelEdge, PushWhileDrainingKeepsOrder) {
  sim::Engine eng;
  sim::Channel<int> ch(eng);
  std::vector<int> seen;
  eng.spawn([](sim::Channel<int>& c, std::vector<int>& out) -> sim::Task {
    for (int i = 0; i < 4; ++i) out.push_back(co_await c.pop());
  }(ch, seen));
  eng.spawn([](sim::Engine& e, sim::Channel<int>& c) -> sim::Task {
    c.push(1);
    c.push(2);
    co_await sim::delay(e, sim::ns(5));
    c.push(3);
    c.push(4);
  }(eng, ch));
  eng.run();
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_TRUE(ch.empty());
  EXPECT_EQ(ch.waiting(), 0u);
}

// A reply channel that lives in the consumer's own frame, as in
// remem::ProxySocketRouter::submit: the wake that resumes the consumer
// lets it finish, which destroys the channel before the wake returns.
sim::TaskT<int> ask_with_reply_channel(sim::Engine& eng) {
  sim::Channel<int> reply(eng);
  eng.schedule_in(sim::ns(10), [&reply] { reply.push(42); });
  co_return co_await reply.pop();
}

TEST(ChannelEdge, ConsumerMayDestroyChannelDuringWake) {
  // The wake must not touch the channel after resuming the consumer;
  // under ASan a re-arm on the freed frame is a heap-use-after-free.
  sim::Engine eng;
  int got = 0;
  eng.spawn([](sim::Engine& e, int& out) -> sim::Task {
    out = co_await ask_with_reply_channel(e);
  }(eng, got));
  eng.run();
  EXPECT_EQ(got, 42);
}

// ---------------------------------------------------------------------------
// Resource edges

TEST(ResourceEdge, UtilizationAtTimeZeroIsZero) {
  sim::Engine eng;
  sim::Resource r(eng, 2);
  EXPECT_EQ(r.utilization(), 0.0);  // no division by a zero-length horizon
  EXPECT_EQ(r.busy_time(), 0u);
  EXPECT_EQ(r.requests(), 0u);
}

TEST(ResourceEdge, ZeroServiceTimeCompletesAtNow) {
  sim::Engine eng;
  sim::Resource r(eng, 1);
  sim::Time done = 1;
  eng.spawn([](sim::Resource& res, sim::Time& out) -> sim::Task {
    out = (co_await res.use(0)).at;
  }(r, done));
  eng.run();
  EXPECT_EQ(done, 0u);
  EXPECT_EQ(eng.now(), 0u);
  EXPECT_EQ(r.requests(), 1u);
}

TEST(ResourceEdge, PeekDoesNotReserve) {
  sim::Engine eng;
  sim::Resource r(eng, 1);
  const sim::Time first = r.peek(sim::ns(100));
  EXPECT_EQ(first, r.peek(sim::ns(100)));  // peek is idempotent
  const sim::Time got = r.reserve(sim::ns(100));
  EXPECT_EQ(got, first);
  EXPECT_GT(r.peek(sim::ns(100)), first);  // now the server is busy
}

TEST(ResourceEdge, ResetStatsKeepsReservations) {
  sim::Engine eng;
  sim::Resource r(eng, 1);
  (void)r.reserve(sim::ns(500));
  r.reset_stats();
  EXPECT_EQ(r.requests(), 0u);
  EXPECT_EQ(r.busy_time(), 0u);
  // The server is still occupied: a new request queues behind it.
  EXPECT_EQ(r.reserve(sim::ns(100)), sim::ns(600));
}

TEST(ResourceEdge, FifoGrantOrderUnderContention) {
  sim::Engine eng;
  sim::Resource r(eng, 2);
  std::vector<int> completion_order;
  for (int i = 0; i < 6; ++i) {
    eng.spawn([](sim::Resource& res, std::vector<int>& out,
                 int id) -> sim::Task {
      co_await res.use(sim::ns(100));
      out.push_back(id);
    }(r, completion_order, i));
  }
  eng.run();
  // 2 servers, equal service: grants (and completions) in request order.
  EXPECT_EQ(completion_order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(eng.now(), sim::ns(300));
  EXPECT_EQ(r.busy_time(), sim::ns(600));
}

// ---------------------------------------------------------------------------
// FramePool behavior (recycling is what makes spawn-per-WR allocation-free)

TEST(FramePool, RecyclesSameSizeFrames) {
  sim::FramePool::trim();
  const auto before = sim::FramePool::stats();
  sim::Engine eng;
  for (int i = 0; i < 100; ++i) {
    eng.spawn([](sim::Engine& e) -> sim::Task {
      co_await sim::delay(e, sim::ns(10));
    }(eng));
    eng.run();
  }
  const auto after = sim::FramePool::stats();
  // Under ASan the pool is a passthrough (reused stays 0); otherwise the
  // 99 later frames all reuse the first one's storage.
  if (after.fresh > before.fresh || after.reused > before.reused) {
    EXPECT_GE(after.reused + after.fresh - (before.reused + before.fresh),
              100u);
  }
  sim::FramePool::trim();
  EXPECT_EQ(sim::FramePool::stats().cached, 0u);
}

// ---------------------------------------------------------------------------
// EventQueue unit edges (the differential fuzz lives in fuzz_test.cpp)

TEST(EventQueueEdge, ImmediateLosesTieToEarlierScheduledEvent) {
  // An event scheduled for time T while now == T must fire after every
  // event scheduled for T before the clock got there: same-lane tie-break
  // means smaller per-lane seq wins.
  sim::Engine eng;
  std::vector<int> order;
  eng.schedule_at(sim::us(1), [&] {
    order.push_back(1);
    eng.schedule_at(sim::us(1), [&] { order.push_back(3); });  // at == now
  });
  eng.schedule_at(sim::us(1), [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueEdge, ClearDropsEverythingAndKeepsWorking) {
  sim::EventQueue q;
  for (int i = 0; i < 100; ++i)
    q.push(sim::Event{static_cast<sim::Time>(i * 1000),
                      static_cast<std::uint64_t>(i)});
  EXPECT_EQ(q.size(), 100u);
  q.clear();
  EXPECT_TRUE(q.empty());
  q.push(sim::Event{5, 0});
  EXPECT_EQ(q.pop().at, 5u);
  EXPECT_TRUE(q.empty());
}

// A peek that finds the cursor bucket empty walks the cursor to the next
// occupied bucket, here ~100 ns past the clock. A push between the clock
// and that bucket then lies behind the cursor: it must stay in the ring
// (sorted into the cursor bucket's front) and pop first, and the overflow
// heap must take only what does not fit: a push past the horizon, and a
// push behind the cursor once the cursor bucket holds its 16 events.
TEST(EventQueueEdge, PushBehindPeekedCursorStaysInRing) {
  sim::EventQueue q;
  q.push(sim::Event{sim::ns(100), 0});
  EXPECT_EQ(q.peek().first, sim::ns(100));  // cursor now at 100 ns's bucket
  q.push(sim::Event{sim::ns(1), 1});
  EXPECT_EQ(q.overflow_pushes().behind, 0u);
  EXPECT_EQ(q.peek().first, sim::ns(1));
  for (std::uint64_t k = 2; k < sim::EventQueue::kBucketCap + 1; ++k)
    q.push(sim::Event{sim::ns(2), k});
  EXPECT_EQ(q.overflow_pushes().behind, 1u);  // seq 16 found it full
  q.push(sim::Event{sim::ms(1), 100});
  EXPECT_EQ(q.overflow_pushes().far, 1u);
  EXPECT_EQ(q.overflow_pushes().spill, 0u);
  const std::uint64_t want[] = {1, 2,  3,  4,  5,  6,  7,  8, 9,
                                10, 11, 12, 13, 14, 15, 16, 0, 100};
  for (const std::uint64_t seq : want) EXPECT_EQ(q.pop().seq, seq);
  EXPECT_TRUE(q.empty());
  q.clear();
  EXPECT_EQ(q.overflow_pushes().far, 0u);
}
