// Lifetime of scheduled callables. sim::Event is 32 trivially copyable
// bytes; a callable lives out of line in a pooled CallBox that the event
// owns until it fires or is dropped at teardown. Every test here captures
// a Tracker whose destructor counts only the instance that currently owns
// the capture (moves hand ownership on), and checks that each callable is
// destroyed exactly once on every path it can take: fired, pending at
// ~Engine in each queue tier, and carried across shards through the SPSC
// ring or a spilled outbox row. Under ASan the FramePool passes through to
// new/delete, so a double free or a leaked box also fails the run.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <utility>

#include "sim/engine.hpp"

namespace rdmasem {
namespace {

static_assert(sizeof(sim::Event) == 32);

struct Counters {
  std::atomic<int> fired{0};
  std::atomic<int> destroyed{0};
};

class Tracker {
 public:
  explicit Tracker(Counters* c) : c_(c) {}
  Tracker(Tracker&& o) noexcept : c_(std::exchange(o.c_, nullptr)) {}
  Tracker& operator=(Tracker&&) = delete;
  ~Tracker() {
    if (c_ != nullptr) c_->destroyed.fetch_add(1, std::memory_order_relaxed);
  }
  void fire() const { c_->fired.fetch_add(1, std::memory_order_relaxed); }

 private:
  Counters* c_;
};

auto tracked(Counters& c) {
  return [t = Tracker(&c)] { t.fire(); };
}

TEST(EngineCallables, FiredCallableIsDestroyedOnce) {
  Counters c;
  {
    sim::Engine eng;
    for (int i = 0; i < 3; ++i) eng.schedule_at(sim::ns(10 * i), tracked(c));
    eng.run();
    EXPECT_EQ(c.fired, 3);
    EXPECT_EQ(c.destroyed, 3);  // freed at dispatch, not at teardown
  }
  EXPECT_EQ(c.destroyed, 3);
}

TEST(EngineCallables, PendingInRingBucketIsDestroyedOnce) {
  Counters c;
  {
    sim::Engine eng;
    eng.schedule_at(sim::us(1), tracked(c));  // inside the ~2 us ring
  }
  EXPECT_EQ(c.fired, 0);
  EXPECT_EQ(c.destroyed, 1);
}

TEST(EngineCallables, PendingInOverflowHeapIsDestroyedOnce) {
  Counters c;
  {
    sim::Engine eng;
    eng.schedule_at(sim::ms(1), tracked(c));  // past the ring horizon
    eng.schedule_at(sim::ms(2), tracked(c));
  }
  EXPECT_EQ(c.fired, 0);
  EXPECT_EQ(c.destroyed, 2);
}

TEST(EngineCallables, PartlyPoppedCursorBucketIsDestroyedOnce) {
  // Four events in one bucket; dispatching two leaves the cursor bucket
  // with a consumed prefix whose slots still hold the fired boxes'
  // pointers. Teardown must drop only the two live ones.
  Counters c;
  {
    sim::Engine eng;
    for (int i = 0; i < 4; ++i) eng.schedule_at(sim::ns(1), tracked(c));
    EXPECT_EQ(eng.run_events(2), 2u);
    EXPECT_EQ(c.fired, 2);
    EXPECT_EQ(c.destroyed, 2);
  }
  EXPECT_EQ(c.fired, 2);
  EXPECT_EQ(c.destroyed, 4);
}

TEST(EngineCallables, CoroutineEventsAreNotDropped) {
  // Pending resumptions are not owned by the queue: the engine reclaims
  // the frame itself, once, after dropping the queued events.
  Counters c;
  {
    sim::Engine eng;
    eng.spawn([](sim::Engine& e, Tracker t) -> sim::Task {
      co_await sim::delay(e, sim::ms(1));
      t.fire();
    }(eng, Tracker(&c)));
    eng.run_until(sim::us(1));  // parks the frame on a far wakeup
    EXPECT_EQ(c.destroyed, 0);
  }
  EXPECT_EQ(c.fired, 0);
  EXPECT_EQ(c.destroyed, 1);
}

// Lane 4 of 5 sits alone on the last shard at 2 and at 4 shards, so
// every schedule_on(4, ...) from lane 0 crosses shards.
constexpr std::uint32_t kLanes = 5;
constexpr std::uint32_t kFar = 4;

void configure(sim::Engine& eng, std::uint32_t shards) {
  eng.configure_lanes(kLanes, shards);
  eng.set_lookahead(sim::ns(100));
  ASSERT_NE(eng.shard_of(kFar), eng.shard_of(0));
}

TEST(EngineCallables, CrossShardRingCallableIsDestroyedOnce) {
  for (const std::uint32_t shards : {2u, 4u}) {
    SCOPED_TRACE(shards);
    Counters c;
    {
      sim::Engine eng;
      configure(eng, shards);
      eng.schedule_on(0, 0, [&eng, &c] {
        for (int i = 0; i < 8; ++i)
          eng.schedule_on(kFar, eng.now() + sim::ns(100), tracked(c));
      });
      eng.run();
      EXPECT_EQ(c.fired, 8);
      EXPECT_EQ(c.destroyed, 8);
    }
    EXPECT_EQ(c.destroyed, 8);
  }
}

// 600 cross-shard callables pushed in one round overflow the 256-slot
// ring, so most of them travel through the barrier-drained outbox row.
// The receiving shard is held inside a dispatch until the flood is
// pushed, so it cannot drain the ring mid-round (see horizon_test.cpp).
std::uint64_t flood(sim::Engine& eng, Counters& c, bool run_past) {
  std::atomic<bool> flooded{false};
  eng.set_profiling(true);
  eng.schedule_on(0, 0, [&eng, &c, &flooded] {
    for (int i = 0; i < 600; ++i)
      eng.schedule_on(kFar, eng.now() + sim::ns(100), tracked(c));
    flooded.store(true, std::memory_order_release);
  });
  eng.schedule_on(kFar, 0, [&flooded] {
    while (!flooded.load(std::memory_order_acquire))
      std::this_thread::yield();
  });
  if (run_past) {
    eng.run();
  } else {
    EXPECT_TRUE(eng.run_until(sim::ns(50)));  // the flood stays queued
  }
  std::uint64_t spilled = 0;
  for (const auto& s : eng.drain_profile().shard) spilled += s.spilled_events;
  return spilled;
}

TEST(EngineCallables, SpilledCallableIsDestroyedOnce) {
  for (const std::uint32_t shards : {2u, 4u}) {
    SCOPED_TRACE(shards);
    Counters c;
    {
      sim::Engine eng;
      configure(eng, shards);
      EXPECT_GT(flood(eng, c, /*run_past=*/true), 0u);
      EXPECT_EQ(c.fired, 600);
      EXPECT_EQ(c.destroyed, 600);
    }
    EXPECT_EQ(c.destroyed, 600);
  }
}

TEST(EngineCallables, SpilledCallablePendingAtTeardownIsDestroyedOnce) {
  for (const std::uint32_t shards : {2u, 4u}) {
    SCOPED_TRACE(shards);
    Counters c;
    {
      sim::Engine eng;
      configure(eng, shards);
      EXPECT_GT(flood(eng, c, /*run_past=*/false), 0u);
      EXPECT_EQ(c.destroyed, 0);
    }
    EXPECT_EQ(c.fired, 0);
    EXPECT_EQ(c.destroyed, 600);
  }
}

}  // namespace
}  // namespace rdmasem
