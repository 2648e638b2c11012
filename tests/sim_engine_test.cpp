#include <gtest/gtest.h>

#include <vector>

#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "sim/rng.hpp"

namespace sim = rdmasem::sim;

TEST(Engine, StartsAtZeroAndIdle) {
  sim::Engine e;
  EXPECT_EQ(e.now(), 0u);
  EXPECT_TRUE(e.idle());
  EXPECT_EQ(e.run(), 0u);
}

TEST(Engine, EventsFireInTimeOrder) {
  sim::Engine e;
  std::vector<int> order;
  e.schedule_at(sim::ns(30), [&] { order.push_back(3); });
  e.schedule_at(sim::ns(10), [&] { order.push_back(1); });
  e.schedule_at(sim::ns(20), [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), sim::ns(30));
}

TEST(Engine, EqualTimestampsFifo) {
  sim::Engine e;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i)
    e.schedule_at(sim::ns(5), [&order, i] { order.push_back(i); });
  e.run();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Engine, PastTimesClampToNow) {
  sim::Engine e;
  sim::Time fired = 0;
  e.schedule_at(sim::ns(100), [&] {
    // Scheduling "in the past" must not rewind the clock.
    e.schedule_at(sim::ns(1), [&] { fired = e.now(); });
  });
  e.run();
  EXPECT_EQ(fired, sim::ns(100));
}

TEST(Engine, NestedSchedulingAdvances) {
  sim::Engine e;
  int depth = 0;
  std::function<void()> recur = [&] {
    if (++depth < 5) e.schedule_in(sim::ns(10), recur);
  };
  e.schedule_in(sim::ns(10), recur);
  e.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(e.now(), sim::ns(50));
}

TEST(Engine, RunUntilStopsAtDeadline) {
  sim::Engine e;
  int fired = 0;
  e.schedule_at(sim::ns(10), [&] { ++fired; });
  e.schedule_at(sim::ns(30), [&] { ++fired; });
  EXPECT_TRUE(e.run_until(sim::ns(20)));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.now(), sim::ns(20));
  EXPECT_FALSE(e.run_until(sim::ns(100)));
  EXPECT_EQ(fired, 2);
}

TEST(Engine, RunEventsBounded) {
  sim::Engine e;
  int fired = 0;
  for (int i = 0; i < 10; ++i) e.schedule_in(sim::ns(i), [&] { ++fired; });
  EXPECT_EQ(e.run_events(4), 4u);
  EXPECT_EQ(fired, 4);
  e.run();
  EXPECT_EQ(fired, 10);
}

TEST(Engine, ProcessedCounter) {
  sim::Engine e;
  for (int i = 0; i < 7; ++i) e.schedule_in(1, [] {});
  e.run();
  EXPECT_EQ(e.events_processed(), 7u);
}

namespace {

// Two leaf groups of two lanes each (driver rides group 0), with an
// ASYMMETRIC cross-group matrix: group 0 -> 1 is cheaper than 1 -> 0.
sim::LaneTopology two_leaf_topo() {
  sim::LaneTopology topo;
  topo.groups = 2;
  topo.lane_group = {0, 0, 1, 1};
  topo.group_latency = {sim::ns(200), sim::ns(500), sim::ns(700),
                        sim::ns(200)};
  return topo;
}

}  // namespace

TEST(Engine, LookaheadReadsBackGroupMatrix) {
  // Intra-group pairs see the diagonal; cross-group pairs the off-diagonal
  // for their direction.
  sim::Engine e;
  e.configure_lanes(4, two_leaf_topo());
  EXPECT_EQ(e.lookahead(0, 1), sim::ns(200));
  EXPECT_EQ(e.lookahead(2, 3), sim::ns(200));
  EXPECT_EQ(e.lookahead(0, 2), sim::ns(500));
  EXPECT_EQ(e.lookahead(1, 3), sim::ns(500));
  EXPECT_EQ(e.lookahead(2, 0), sim::ns(700));
  EXPECT_EQ(e.lookahead(3, 1), sim::ns(700));
}

TEST(Engine, UniformTopologyCollapsesToSetLookahead) {
  // set_lookahead works before or after configure_lanes.
  sim::Engine before;
  before.set_lookahead(sim::ns(300));
  before.configure_lanes(5);
  sim::Engine after;
  after.configure_lanes(5);
  after.set_lookahead(sim::ns(300));
  for (std::uint32_t a = 0; a < 5; ++a)
    for (std::uint32_t b = 0; b < 5; ++b) {
      EXPECT_EQ(before.lookahead(a, b), sim::ns(300));
      EXPECT_EQ(after.lookahead(a, b), sim::ns(300));
    }
}

TEST(EngineDeathTest, ConfigureLanesRejectsMismatchedSizes) {
  EXPECT_DEATH(
      {
        sim::Engine e;
        e.configure_lanes(3, two_leaf_topo());  // 4 lane groups for 3 lanes
      },
      "lane_group size mismatch");
  EXPECT_DEATH(
      {
        sim::Engine e;
        sim::LaneTopology topo = two_leaf_topo();
        topo.group_latency.pop_back();  // 3 entries for 2 x 2 groups
        e.configure_lanes(4, std::move(topo));
      },
      "group_latency size mismatch");
}

TEST(Resource, SingleServerSerializes) {
  sim::Engine e;
  sim::Resource r(e, 1);
  // Three back-to-back 10ns jobs reserved at t=0 complete at 10/20/30.
  EXPECT_EQ(r.reserve(sim::ns(10)), sim::ns(10));
  EXPECT_EQ(r.reserve(sim::ns(10)), sim::ns(20));
  EXPECT_EQ(r.reserve(sim::ns(10)), sim::ns(30));
  EXPECT_EQ(r.requests(), 3u);
  EXPECT_EQ(r.busy_time(), sim::ns(30));
}

TEST(Resource, MultiServerParallelism) {
  sim::Engine e;
  sim::Resource r(e, 2);
  EXPECT_EQ(r.reserve(sim::ns(10)), sim::ns(10));
  EXPECT_EQ(r.reserve(sim::ns(10)), sim::ns(10));  // second server
  EXPECT_EQ(r.reserve(sim::ns(10)), sim::ns(20));  // queues
}

TEST(Resource, IdleGapRestartsAtNow) {
  sim::Engine e;
  sim::Resource r(e, 1);
  EXPECT_EQ(r.reserve(sim::ns(10)), sim::ns(10));
  // Advance the clock past the busy period.
  e.schedule_at(sim::ns(100), [] {});
  e.run();
  EXPECT_EQ(r.reserve(sim::ns(5)), sim::ns(105));
}

TEST(Resource, PeekDoesNotReserve) {
  sim::Engine e;
  sim::Resource r(e, 1);
  EXPECT_EQ(r.peek(sim::ns(10)), sim::ns(10));
  EXPECT_EQ(r.peek(sim::ns(10)), sim::ns(10));  // unchanged
  EXPECT_EQ(r.requests(), 0u);
}

TEST(Resource, UtilizationFraction) {
  sim::Engine e;
  sim::Resource r(e, 1);
  r.reserve(sim::ns(50));
  e.schedule_at(sim::ns(100), [] {});
  e.run();
  EXPECT_NEAR(r.utilization(), 0.5, 1e-9);
  r.reset_stats();
  EXPECT_EQ(r.requests(), 0u);
  EXPECT_NEAR(r.utilization(), 0.0, 1e-12);
}

TEST(Rng, DeterministicAcrossInstances) {
  sim::Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  sim::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformBounds) {
  sim::Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.uniform(10), 10u);
    const double x = r.uniform01();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
  EXPECT_EQ(r.uniform(0), 0u);
  EXPECT_EQ(r.uniform(1), 0u);
}

TEST(Rng, UniformIsRoughlyUniform) {
  sim::Rng r(99);
  int buckets[10] = {};
  const int n = 100000;
  for (int i = 0; i < n; ++i) buckets[r.uniform(10)]++;
  for (int b : buckets) {
    EXPECT_GT(b, n / 10 - n / 50);
    EXPECT_LT(b, n / 10 + n / 50);
  }
}

TEST(Rng, ReseedReproduces) {
  sim::Rng r(5);
  const auto a = r.next();
  r.next();
  r.reseed(5);
  EXPECT_EQ(r.next(), a);
}
