#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "sim/channel.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace sim = rdmasem::sim;
using sim::Task;
using sim::TaskT;

namespace {

Task sleeper(sim::Engine& e, sim::Duration d, sim::Time& out) {
  co_await sim::delay(e, d);
  out = e.now();
}

TaskT<int> add_later(sim::Engine& e, int a, int b) {
  co_await sim::delay(e, sim::ns(5));
  co_return a + b;
}

Task parent(sim::Engine& e, int& result) {
  const int x = co_await add_later(e, 2, 3);
  const int y = co_await add_later(e, x, 10);
  result = y;
}

Task thrower(sim::Engine& e) {
  co_await sim::delay(e, sim::ns(1));
  throw std::runtime_error("boom");
}

Task catcher(sim::Engine& e, bool& caught) {
  try {
    co_await thrower(e);
  } catch (const std::runtime_error&) {
    caught = true;
  }
}

}  // namespace

TEST(Coro, DelayResumesAtRightTime) {
  sim::Engine e;
  sim::Time t = 0;
  e.spawn(sleeper(e, sim::us(3), t));
  e.run();
  EXPECT_EQ(t, sim::us(3));
}

TEST(Coro, SpawnedTasksInterleave) {
  sim::Engine e;
  sim::Time t1 = 0, t2 = 0;
  e.spawn(sleeper(e, sim::ns(100), t1));
  e.spawn(sleeper(e, sim::ns(50), t2));
  e.run();
  EXPECT_EQ(t1, sim::ns(100));
  EXPECT_EQ(t2, sim::ns(50));
}

TEST(Coro, AwaitChildTaskReturnsValue) {
  sim::Engine e;
  int result = 0;
  e.spawn(parent(e, result));
  e.run();
  EXPECT_EQ(result, 15);
  EXPECT_EQ(e.now(), sim::ns(10));  // two sequential 5ns children
}

TEST(Coro, ExceptionPropagatesToAwaiter) {
  sim::Engine e;
  bool caught = false;
  e.spawn(catcher(e, caught));
  e.run();
  EXPECT_TRUE(caught);
}

TEST(Coro, ResourceUseChargesServiceTime) {
  sim::Engine e;
  sim::Resource r(e, 1);
  std::vector<sim::Time> done;
  auto worker = [&](sim::Duration svc) -> Task {
    co_await r.use(svc);
    done.push_back(e.now());
  };
  e.spawn(worker(sim::ns(10)));
  e.spawn(worker(sim::ns(10)));
  e.spawn(worker(sim::ns(10)));
  e.run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0], sim::ns(10));
  EXPECT_EQ(done[1], sim::ns(20));
  EXPECT_EQ(done[2], sim::ns(30));
}

TEST(Coro, ResourceContentionEmergesWithTwoServers) {
  sim::Engine e;
  sim::Resource r(e, 2);
  int finished_by_15 = 0;
  auto worker = [&]() -> Task {
    co_await r.use(sim::ns(10));
    if (e.now() <= sim::ns(15)) ++finished_by_15;
  };
  for (int i = 0; i < 4; ++i) e.spawn(worker());
  e.run();
  EXPECT_EQ(finished_by_15, 2);  // two in parallel, two queued
  EXPECT_EQ(e.now(), sim::ns(20));
}

TEST(Coro, ChannelPushPopOrder) {
  sim::Engine e;
  sim::Channel<int> ch(e);
  std::vector<int> got;
  auto consumer = [&]() -> Task {
    for (int i = 0; i < 3; ++i) got.push_back(co_await ch.pop());
  };
  e.spawn(consumer());
  e.schedule_at(sim::ns(10), [&] { ch.push(1); });
  e.schedule_at(sim::ns(20), [&] { ch.push(2); ch.push(3); });
  e.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
}

TEST(Coro, ChannelMultipleWaitersFifo) {
  sim::Engine e;
  sim::Channel<int> ch(e);
  std::vector<std::pair<int, int>> got;  // (consumer, value)
  auto consumer = [&](int id) -> Task {
    const int v = co_await ch.pop();
    got.emplace_back(id, v);
  };
  e.spawn(consumer(0));
  e.spawn(consumer(1));
  e.schedule_at(sim::ns(5), [&] {
    ch.push(100);
    ch.push(200);
  });
  e.run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], (std::pair<int, int>{0, 100}));
  EXPECT_EQ(got[1], (std::pair<int, int>{1, 200}));
}

TEST(Coro, ChannelTryPop) {
  sim::Engine e;
  sim::Channel<int> ch(e);
  EXPECT_FALSE(ch.try_pop().has_value());
  ch.push(9);
  auto v = ch.try_pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 9);
  EXPECT_TRUE(ch.empty());
}

TEST(Coro, CountdownLatchJoinsWorkers) {
  sim::Engine e;
  sim::CountdownLatch latch(e, 3);
  sim::Time join_time = 0;
  auto worker = [&](sim::Duration d) -> Task {
    co_await sim::delay(e, d);
    latch.count_down();
  };
  auto joiner = [&]() -> Task {
    co_await latch.wait();
    join_time = e.now();
  };
  e.spawn(joiner());
  e.spawn(worker(sim::ns(10)));
  e.spawn(worker(sim::ns(30)));
  e.spawn(worker(sim::ns(20)));
  e.run();
  EXPECT_EQ(join_time, sim::ns(30));
}

TEST(Coro, SemaphoreLimitsConcurrency) {
  sim::Engine e;
  sim::Semaphore sem(e, 2);
  int in_flight = 0, max_in_flight = 0;
  auto worker = [&]() -> Task {
    co_await sem.acquire();
    ++in_flight;
    max_in_flight = std::max(max_in_flight, in_flight);
    co_await sim::delay(e, sim::ns(10));
    --in_flight;
    sem.release();
  };
  for (int i = 0; i < 6; ++i) e.spawn(worker());
  e.run();
  EXPECT_EQ(max_in_flight, 2);
  EXPECT_EQ(e.now(), sim::ns(30));  // 6 jobs, width 2, 10ns each
}

TEST(Coro, YieldGoesBehindQueuedWork) {
  sim::Engine e;
  std::vector<int> order;
  auto a = [&]() -> Task {
    order.push_back(1);
    co_await sim::yield(e);
    order.push_back(3);
  };
  e.spawn(a());
  e.schedule_in(0, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Coro, DestroyUnstartedTaskLeaksNothing) {
  sim::Engine e;
  sim::Time out = 0;
  {
    Task t = sleeper(e, sim::ns(5), out);
    // never awaited, never spawned: destructor must clean the frame
    EXPECT_TRUE(t.valid());
  }
  e.run();
  EXPECT_EQ(out, 0u);  // body never ran
}

TEST(Coro, TaskTMoveSemantics) {
  sim::Engine e;
  auto t1 = add_later(e, 1, 1);
  TaskT<int> t2 = std::move(t1);
  EXPECT_FALSE(t1.valid());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(t2.valid());
  int out = 0;
  auto runner = [&](TaskT<int> t) -> Task { out = co_await std::move(t); };
  e.spawn(runner(std::move(t2)));
  e.run();
  EXPECT_EQ(out, 2);
}
