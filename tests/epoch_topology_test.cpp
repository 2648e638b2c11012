// Per-(src,dst) lookahead matrix: the topology-aware conservative-epoch
// machinery at the raw engine level. Covers the read-back accessors, the
// affinity-aware placement, boundary-exact cross-group hops, asymmetric
// latency matrices, single-lane shards, drained peers, and a
// 10-seed fuzz of random topologies asserting the shard matrix never
// exceeds the true minimum cross-shard lane latency (the safety bound of
// the CMB horizon end(d) = min over s of next(s) + shard_reach(s, d),
// where shard_reach is the min-plus closure of the direct matrix).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/engine.hpp"
#include "sim/rng.hpp"

namespace sim = rdmasem::sim;

namespace {

// Two leaf groups of two lanes each (driver rides group 0), with an
// ASYMMETRIC cross-group matrix: group 0 -> 1 is cheaper than 1 -> 0.
sim::LaneTopology two_leaf_topo(sim::Duration intra, sim::Duration out,
                                sim::Duration back) {
  sim::LaneTopology topo;
  topo.groups = 2;
  topo.lane_group = {0, 0, 1, 1};
  topo.group_latency = {intra, out, back, intra};
  return topo;
}

// One coroutine walking a precomputed lane sequence, each hop of EXACTLY
// the per-pair lookahead for its (from, to) — every cross-shard event
// lands precisely on an epoch boundary, the tightest legal case. The
// digest folds (lane, time) at every step plus the final clock and event
// count, so any ordering or horizon bug shows up as a different vector.
std::vector<std::uint64_t> walk_run(std::uint32_t lanes, std::uint32_t shards,
                                    sim::LaneTopology topo,
                                    const std::vector<std::uint32_t>& walk) {
  sim::Engine eng;
  eng.configure_lanes(lanes, shards, std::move(topo));
  std::vector<std::uint64_t> log;
  auto task = [](sim::Engine& e, const std::vector<std::uint32_t>& w,
                 std::vector<std::uint64_t>& lg) -> sim::Task {
    for (const std::uint32_t next : w) {
      lg.push_back((static_cast<std::uint64_t>(sim::current_lane()) << 48) ^
                   e.now());
      co_await sim::hop(e, next,
                        e.lookahead(sim::current_lane(), next));
    }
    lg.push_back(e.now());
  };
  eng.spawn_on(walk.empty() ? 0 : walk.front(), task(eng, walk, log));
  eng.run();
  log.push_back(eng.now());
  log.push_back(eng.events_processed());
  return log;
}

// A ping-pong walk between two lanes, `hops` legs long.
std::vector<std::uint32_t> pingpong_walk(std::uint32_t a, std::uint32_t b,
                                         int hops) {
  std::vector<std::uint32_t> walk;
  for (int i = 0; i < hops; ++i) walk.push_back(i % 2 == 0 ? b : a);
  walk.insert(walk.begin(), a);  // spawn lane
  return walk;
}

}  // namespace

TEST(EpochTopology, PerPairLookaheadReadsBackGroupMatrix) {
  sim::Engine eng;
  eng.configure_lanes(4, 2, two_leaf_topo(sim::ns(200), sim::ns(500),
                                          sim::ns(700)));
  // Intra-group pairs see the diagonal; cross-group pairs the off-diagonal
  // for their direction; the global floor is the matrix minimum.
  EXPECT_EQ(eng.lookahead(0, 1), sim::ns(200));
  EXPECT_EQ(eng.lookahead(2, 3), sim::ns(200));
  EXPECT_EQ(eng.lookahead(0, 2), sim::ns(500));
  EXPECT_EQ(eng.lookahead(1, 3), sim::ns(500));
  EXPECT_EQ(eng.lookahead(2, 0), sim::ns(700));
  EXPECT_EQ(eng.lookahead(3, 1), sim::ns(700));
  EXPECT_EQ(eng.lookahead(), sim::ns(200));
}

TEST(EpochTopology, AffinityPlacementAlignsShardsWithGroups) {
  // 2 shards x 2 groups of 2 lanes: the greedy placement must put each
  // whole group on its own shard, so the cross-shard matrix entries are
  // the (wider) cross-group latencies, not the intra-group floor.
  sim::Engine eng;
  eng.configure_lanes(4, 2, two_leaf_topo(sim::ns(200), sim::ns(500),
                                          sim::ns(700)));
  EXPECT_EQ(eng.shard_of(0), 0u);
  EXPECT_EQ(eng.shard_of(1), 0u);
  EXPECT_EQ(eng.shard_of(2), 1u);
  EXPECT_EQ(eng.shard_of(3), 1u);
  EXPECT_EQ(eng.shard_lookahead(0, 1), sim::ns(500));
  EXPECT_EQ(eng.shard_lookahead(1, 0), sim::ns(700));
  EXPECT_EQ(eng.shard_lookahead(0, 0), sim::ns(200));
}

TEST(EpochTopology, UniformTopologyCollapsesToGlobalLookahead) {
  sim::Engine eng;
  eng.configure_lanes(5, 2);
  eng.set_lookahead(sim::ns(300));
  for (std::uint32_t a = 0; a < 5; ++a)
    for (std::uint32_t b = 0; b < 5; ++b)
      EXPECT_EQ(eng.lookahead(a, b), sim::ns(300));
  EXPECT_EQ(eng.shard_lookahead(0, 1), sim::ns(300));
}

TEST(EpochTopology, BoundaryExactAsymmetricPingPongMatchesSerial) {
  // Cross-group ping-pong where each direction pays a DIFFERENT exact
  // lookahead (500 out, 700 back) — boundary-exact events under an
  // asymmetric matrix.
  const auto topo = [] {
    return two_leaf_topo(sim::ns(200), sim::ns(500), sim::ns(700));
  };
  const auto walk = pingpong_walk(1, 2, 32);
  const auto serial = walk_run(4, 1, topo(), walk);
  for (const std::uint32_t s : {2u, 3u, 4u})
    EXPECT_EQ(walk_run(4, s, topo(), walk), serial) << "shards=" << s;
}

TEST(EpochTopology, SingleLaneShardsMatchSerial) {
  // shards == lanes: every shard holds exactly one lane (the driver lane
  // alone on shard 0), so every cross-lane hop is cross-shard and every
  // matrix entry is a single pair's latency. A ring walk touches all of
  // them.
  const auto topo = [] {
    return two_leaf_topo(sim::ns(250), sim::ns(400), sim::ns(600));
  };
  std::vector<std::uint32_t> walk{1};
  for (int i = 0; i < 24; ++i) walk.push_back((walk.back() + 1) % 4);
  const auto serial = walk_run(4, 1, topo(), walk);
  EXPECT_EQ(walk_run(4, 4, topo(), walk), serial);
}

TEST(EpochTopology, UniformTopologyPingPongMatchesSerial) {
  sim::LaneTopology flat;
  flat.groups = 1;
  flat.lane_group = {0, 0, 0};
  flat.group_latency = {sim::ns(200)};
  const auto walk = pingpong_walk(1, 2, 40);
  const auto serial = walk_run(3, 1, flat, walk);
  for (const std::uint32_t s : {2u, 3u})
    EXPECT_EQ(walk_run(3, s, flat, walk), serial) << "shards=" << s;
}

TEST(EpochTopology, ShardReachClosesOverChainsAndRoundTrips) {
  // Three single-lane shards with a triangle-inequality-violating matrix:
  // the direct 0->2 edge (900) is beaten by the chain 0->1->2 (200+300).
  // shard_reach must price the chain, and its diagonal must equal the
  // cheapest round trip through another shard — the earliest instant a
  // shard's own sends can come back at it.
  sim::LaneTopology topo;
  topo.groups = 3;
  topo.lane_group = {0, 1, 2};
  topo.group_latency = {sim::ns(100), sim::ns(200), sim::ns(900),   // g0 ->
                        sim::ns(800), sim::ns(100), sim::ns(300),   // g1 ->
                        sim::ns(600), sim::ns(700), sim::ns(100)};  // g2 ->
  sim::Engine eng;
  eng.configure_lanes(3, 3, topo);
  for (std::uint32_t l = 0; l < 3; ++l) ASSERT_EQ(eng.shard_of(l), l);
  // Direct matrix reads back the group matrix...
  EXPECT_EQ(eng.shard_lookahead(0, 2), sim::ns(900));
  // ...but reach closes over the cheaper two-hop chain.
  EXPECT_EQ(eng.shard_reach(0, 2), sim::ns(500));
  EXPECT_EQ(eng.shard_reach(0, 1), sim::ns(200));
  EXPECT_EQ(eng.shard_reach(1, 2), sim::ns(300));
  EXPECT_EQ(eng.shard_reach(1, 0), sim::ns(800));
  EXPECT_EQ(eng.shard_reach(2, 0), sim::ns(600));
  EXPECT_EQ(eng.shard_reach(2, 1), sim::ns(700));
  // reach(s, d) <= lookahead(s, d): the per-push assertion stays valid.
  for (std::uint32_t s = 0; s < 3; ++s)
    for (std::uint32_t d = 0; d < 3; ++d)
      if (s != d) EXPECT_LE(eng.shard_reach(s, d), eng.shard_lookahead(s, d));
  // Diagonals: min round trip. 0: 0->1->0 = 200+800. 1: via 0 = 800+200
  // (beats 300+700 == it; min is 1000 either way). 2: 2->1 then 1->2.
  EXPECT_EQ(eng.shard_reach(0, 0), sim::ns(1000));
  EXPECT_EQ(eng.shard_reach(1, 1), sim::ns(1000));
  EXPECT_EQ(eng.shard_reach(2, 2), sim::ns(1000));
}

namespace {

// Regression harness for the drained-peer reactivation hazard: lane 1
// carries a dense local ticker plus a ping task that sleeps long enough
// between rounds for lane 2's shard to drain COMPLETELY. A horizon that
// ignores empty peers would let shard(1) run unbounded past its own
// sends' round trip; lane 2's replies would then land in shard(1)'s
// virtual past and the digest would diverge from serial.
std::vector<std::uint64_t> drained_peer_run(std::uint32_t shards) {
  sim::Engine eng;
  sim::LaneTopology flat;
  flat.groups = 1;
  flat.lane_group = {0, 0, 0};
  flat.group_latency = {sim::ns(200)};
  eng.configure_lanes(3, shards, flat);
  // One log per coroutine: the two tasks run on different shards, so a
  // shared log's interleaving would vary with placement (and race).
  // Each coroutine's own sequence of observed clocks is the oracle.
  std::vector<std::uint64_t> tick_log, ping_log;
  auto ticker = [](sim::Engine& e, std::vector<std::uint64_t>& lg)
      -> sim::Task {
    for (int i = 0; i < 400; ++i) {
      co_await sim::delay(e, sim::ns(70));
      lg.push_back(e.now() ^ 0x1111u);
    }
  };
  auto ping = [](sim::Engine& e, std::vector<std::uint64_t>& lg)
      -> sim::Task {
    for (int i = 0; i < 12; ++i) {
      co_await sim::delay(e, sim::ns(1900));
      co_await sim::hop(e, 2, sim::ns(200));
      lg.push_back((e.now() << 1) ^ sim::current_lane());
      co_await sim::hop(e, 1, sim::ns(200));
      lg.push_back((e.now() << 1) ^ sim::current_lane());
    }
  };
  eng.spawn_on(1, ticker(eng, tick_log));
  eng.spawn_on(1, ping(eng, ping_log));
  eng.run();
  std::vector<std::uint64_t> log = std::move(tick_log);
  log.insert(log.end(), ping_log.begin(), ping_log.end());
  log.push_back(eng.now());
  log.push_back(eng.events_processed());
  return log;
}

}  // namespace

TEST(EpochTopology, DrainedPeerDoesNotUnboundTheEpoch) {
  const auto serial = drained_peer_run(1);
  for (const std::uint32_t s : {2u, 3u})
    EXPECT_EQ(drained_peer_run(s), serial) << "shards=" << s;
}

// ---------------------------------------------------------------------------
// Fuzz: random topologies. The conservative bound only holds if every
// (src, dst) matrix entry is <= the latency of EVERY lane pair actually
// placed on those shards; with all shards non-empty (shards <= lanes, as
// the placement guarantees) the rebuild computes exactly that minimum.

TEST(EpochFuzz, RandomTopologyMatrixBoundedByTrueMinCrossShardLatency) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    sim::Rng rng(seed * 7919 + 13);
    const auto lanes = static_cast<std::uint32_t>(4 + rng.uniform(9));
    const auto groups = static_cast<std::uint32_t>(1 + rng.uniform(4));
    sim::LaneTopology topo;
    topo.groups = groups;
    topo.lane_group.assign(lanes, 0);
    for (std::uint32_t l = 1; l < lanes; ++l)
      topo.lane_group[l] = static_cast<std::uint32_t>(rng.uniform(groups));
    topo.group_latency.assign(static_cast<std::size_t>(groups) * groups, 0);
    for (auto& d : topo.group_latency)
      d = sim::ns(100 + rng.uniform(900));
    const auto shards = static_cast<std::uint32_t>(
        2 + rng.uniform(std::min(lanes, 4u) - 1));

    sim::Engine eng;
    eng.configure_lanes(lanes, shards, topo);
    for (std::uint32_t src = 0; src < shards; ++src)
      for (std::uint32_t dst = 0; dst < shards; ++dst) {
        if (src == dst) continue;
        sim::Duration true_min = ~sim::Duration{0};
        for (std::uint32_t a = 0; a < lanes; ++a)
          for (std::uint32_t b = 0; b < lanes; ++b)
            if (eng.shard_of(a) == src && eng.shard_of(b) == dst)
              true_min = std::min(true_min, eng.lookahead(a, b));
        ASSERT_NE(true_min, ~sim::Duration{0})
            << "empty shard at seed=" << seed;
        EXPECT_LE(eng.shard_lookahead(src, dst), true_min)
            << "seed=" << seed << " src=" << src << " dst=" << dst;
        EXPECT_EQ(eng.shard_lookahead(src, dst), true_min)
            << "seed=" << seed << " src=" << src << " dst=" << dst;
      }
  }
}

TEST(EpochFuzz, RandomTopologyWalksMatchSerial) {
  // Random topology + random lane walk at exact per-pair lookaheads; the
  // digest must be byte-identical at every shard count.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    sim::Rng rng(seed * 104729 + 7);
    const auto lanes = static_cast<std::uint32_t>(3 + rng.uniform(6));
    const auto groups = static_cast<std::uint32_t>(1 + rng.uniform(3));
    sim::LaneTopology topo;
    topo.groups = groups;
    topo.lane_group.assign(lanes, 0);
    for (std::uint32_t l = 1; l < lanes; ++l)
      topo.lane_group[l] = static_cast<std::uint32_t>(rng.uniform(groups));
    topo.group_latency.assign(static_cast<std::size_t>(groups) * groups, 0);
    for (auto& d : topo.group_latency)
      d = sim::ns(100 + rng.uniform(600));
    std::vector<std::uint32_t> walk;
    walk.push_back(static_cast<std::uint32_t>(rng.uniform(lanes)));
    for (int i = 0; i < 20; ++i)
      walk.push_back(static_cast<std::uint32_t>(rng.uniform(lanes)));

    const auto serial = walk_run(lanes, 1, topo, walk);
    for (std::uint32_t s = 2; s <= std::min(lanes, 4u); ++s)
      EXPECT_EQ(walk_run(lanes, s, topo, walk), serial)
          << "seed=" << seed << " shards=" << s;
  }
}
