// Lifetime of scheduled callables. sim::Event is 32 trivially copyable
// bytes; a callable lives out of line in a pooled CallBox that the event
// owns until it fires or is dropped at teardown. Every test here captures
// a Tracker whose destructor counts only the instance that currently owns
// the capture (moves hand ownership on), and checks that each callable is
// destroyed exactly once on every path it can take: fired, or pending at
// ~Engine in each queue tier. Under ASan the FramePool passes through to
// new/delete, so a double free or a leaked box also fails the run. The
// last test does the same for detached coroutine frames, which the
// engine's registry reclaims at teardown.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/channel.hpp"
#include "sim/engine.hpp"

namespace rdmasem {
namespace {

static_assert(sizeof(sim::Event) == 32);

struct Counters {
  int fired = 0;
  int destroyed = 0;
};

class Tracker {
 public:
  explicit Tracker(Counters* c) : c_(c) {}
  Tracker(Tracker&& o) noexcept : c_(std::exchange(o.c_, nullptr)) {}
  Tracker& operator=(Tracker&&) = delete;
  ~Tracker() {
    if (c_ != nullptr) ++c_->destroyed;
  }
  void fire() const { ++c_->fired; }

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

TEST(EngineCallables, SpilledFromFullBucketIsDestroyedOnce) {
  // 48 callables in one future bucket, three times what a bucket holds:
  // the rest spill into the overflow heap. Dispatching 20 fires some from
  // each tier; teardown must drop every remaining one exactly once.
  Counters c;
  {
    sim::Engine eng;
    for (int i = 0; i < 48; ++i) eng.schedule_at(sim::ns(100), tracked(c));
    EXPECT_EQ(eng.run_events(20), 20u);
    EXPECT_EQ(c.fired, 20);
    EXPECT_EQ(c.destroyed, 20);
  }
  EXPECT_EQ(c.fired, 20);
  EXPECT_EQ(c.destroyed, 48);
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

TEST(EngineCallables, DetachedFramesAreDestroyedOnceAtTeardown) {
  // 24 detached frames: every third finishes early, in an order scrambled
  // against spawn order, so the registry unlinks from all over its list;
  // the rest stay suspended, on a far wakeup or on a channel nothing
  // pushes to (only the registry knows those). Each frame's Tracker local
  // must be destroyed exactly once: at its finish or at ~Engine.
  constexpr int kFrames = 24;
  std::vector<Counters> c(kFrames);
  {
    sim::Engine eng;
    sim::Channel<int> never(eng);
    for (int i = 0; i < kFrames; ++i) {
      if (i % 3 == 0) {
        const sim::Duration d = sim::ns(1 + (i * 11) % kFrames);
        eng.spawn([](sim::Engine& e, sim::Duration wait,
                     Tracker t) -> sim::Task {
          co_await sim::delay(e, wait);
          t.fire();
        }(eng, d, Tracker(&c[i])));
      } else if (i % 3 == 1) {
        eng.spawn([](sim::Engine& e, Tracker t) -> sim::Task {
          co_await sim::delay(e, sim::ms(1));
          t.fire();
        }(eng, Tracker(&c[i])));
      } else {
        eng.spawn([](sim::Channel<int>& ch, Tracker t) -> sim::Task {
          co_await ch.pop();
          t.fire();
        }(never, Tracker(&c[i])));
      }
    }
    eng.run_until(sim::us(1));
    for (int i = 0; i < kFrames; ++i) {
      EXPECT_EQ(c[i].fired, i % 3 == 0 ? 1 : 0) << i;
      EXPECT_EQ(c[i].destroyed, i % 3 == 0 ? 1 : 0) << i;
    }
  }
  for (int i = 0; i < kFrames; ++i) {
    EXPECT_EQ(c[i].fired, i % 3 == 0 ? 1 : 0) << i;
    EXPECT_EQ(c[i].destroyed, 1) << i;
  }
}

}  // namespace
}  // namespace rdmasem
