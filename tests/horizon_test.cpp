// Demand-driven horizons: drained peers must not pin the live bound and
// must come back when traffic resumes, fused rounds must re-split
// correctly when the poll budget runs out or the delivery ring spills,
// and — the acceptance oracle — output must be BYTE-IDENTICAL to the
// serial engine at every shard count. The digests fold (lane, time) at
// every step plus the final clock and event count, so any event
// delivered out of order or into a shard's past shows up as a one-word
// diff.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "sim/engine.hpp"
#include "sim/rng.hpp"

namespace sim = rdmasem::sim;

namespace {

// One run's observables: the event-order digest plus the summed
// demand-driven profile counters (host-race-dependent — asserted only as
// "reached at all", never for exact values).
struct RunResult {
  std::vector<std::uint64_t> log;
  std::uint64_t fused = 0;
  std::uint64_t resplit = 0;
  std::uint64_t spilled = 0;
  std::uint64_t widening_ps = 0;
};

void fold_profile(sim::Engine& eng, RunResult& r) {
  for (const sim::ShardProfile& s : eng.drain_profile().shard) {
    r.fused += s.fused_epochs;
    r.resplit += s.resplit_epochs;
    r.spilled += s.spilled_events;
    r.widening_ps += s.horizon_widening_ps;
  }
}

std::uint64_t stamp(const sim::Engine& e) {
  return (static_cast<std::uint64_t>(sim::current_lane()) << 48) ^ e.now();
}

// --- workload 1: quiescent pair + reactivation -----------------------------
//
// Lane 2 (own shard at shards=3) burns a local burst and then sits
// drained while lanes 0 and 1 ping-pong at exactly the pair lookahead.
// The drained shard publishes its refreshed bound, which chases the
// active peers' clocks, so its term drops out of the binding set and the
// ping-pong keeps fusing rounds. The walk then visits lane 2 — the pair
// must REACTIVATE: the visit and the reply land at exactly the serial
// times.
RunResult quiescence_run(std::uint32_t shards) {
  sim::Engine eng;
  eng.configure_lanes(3, shards);
  eng.set_lookahead(sim::ns(100));
  eng.set_profiling(true);
  RunResult r;
  auto burst = [](sim::Engine& e, std::vector<std::uint64_t>& lg) -> sim::Task {
    for (int i = 0; i < 6000; ++i) co_await sim::delay(e, 1);
    lg.push_back(stamp(e));
  };
  auto walk = [](sim::Engine& e, std::vector<std::uint64_t>& lg) -> sim::Task {
    for (int i = 0; i < 200; ++i) {
      co_await sim::hop(e, i % 2 == 0 ? 1 : 0, sim::ns(100));
      lg.push_back(stamp(e));
    }
    co_await sim::hop(e, 2, sim::ns(100));  // reactivate the drained shard
    lg.push_back(stamp(e));
    co_await sim::delay(e, sim::ns(5));
    co_await sim::hop(e, 0, sim::ns(100));
    lg.push_back(stamp(e));
  };
  eng.spawn_on(2, burst(eng, r.log));
  eng.spawn_on(0, walk(eng, r.log));
  eng.run();
  r.log.push_back(eng.now());
  r.log.push_back(eng.events_processed());
  fold_profile(eng, r);
  return r;
}

TEST(Horizon, QuiescentPairDropsOutAndReactivates) {
  const RunResult serial = quiescence_run(1);
  const RunResult par = quiescence_run(3);
  EXPECT_EQ(par.log, serial.log);
  EXPECT_GT(par.fused, 0u) << "drained peer pinned the live bound";
}

// --- workload 2: fine-grained ping-pong (the fusion target) ----------------
//
// Three lanes: at shards=2 the driver lane 0 and lane 1 share shard 0 and
// lane 2 sits alone on shard 1, so every leg of the 0 <-> 2 walk crosses
// shards.

RunResult pingpong_run(std::uint32_t shards, int hops,
                       sim::Duration far_event = 0) {
  sim::Engine eng;
  eng.configure_lanes(3, shards);
  eng.set_lookahead(sim::ns(100));
  eng.set_profiling(true);
  RunResult r;
  if (far_event != 0) eng.schedule_in(far_event, [] {});
  auto walk = [](sim::Engine& e, int n,
                 std::vector<std::uint64_t>& lg) -> sim::Task {
    for (int i = 0; i < n; ++i) {
      co_await sim::hop(e, i % 2 == 0 ? 2 : 0, sim::ns(100));
      lg.push_back(stamp(e));
    }
  };
  eng.spawn_on(0, walk(eng, hops, r.log));
  eng.run();
  r.log.push_back(eng.now());
  r.log.push_back(eng.events_processed());
  fold_profile(eng, r);
  return r;
}

TEST(Horizon, FusedRoundsMatchSerial) {
  const RunResult serial = pingpong_run(1, 300);
  const RunResult demand = pingpong_run(2, 300);
  EXPECT_EQ(demand.log, serial.log);
  // The whole point of the demand-driven bound: a starving ping-pong
  // fuses rounds, and every widening is accounted in virtual ps.
  EXPECT_GT(demand.fused, 0u);
  EXPECT_GT(demand.widening_ps, 0u);
}

TEST(Horizon, PollBudgetExhaustionResplitsWithPendingWork) {
  // The far-future self event keeps shard 0's queue non-empty once the
  // walk is over. Each poll then widens the two shards' bounds by about
  // one lookahead, so 10 ms lies far beyond what the poll budget can
  // reach: the round can only end by exhausting the budget (or the stall
  // cap) with work pending, which counts a resplit — and the output must
  // not move by a picosecond.
  const RunResult serial = pingpong_run(1, 100, sim::ms(10));
  const RunResult par = pingpong_run(2, 100, sim::ms(10));
  EXPECT_EQ(par.log, serial.log);
  EXPECT_GT(par.resplit, 0u);
}

// --- workload 3: delivery-ring overflow ------------------------------------

RunResult flood_run(std::uint32_t shards) {
  sim::Engine eng;
  eng.configure_lanes(3, shards);  // lane 2 alone on shard 1 (see above)
  eng.set_lookahead(sim::ns(100));
  eng.set_profiling(true);
  RunResult r;
  auto one = [](sim::Engine& e, std::vector<std::uint64_t>& lg) -> sim::Task {
    co_await sim::hop(e, 2, sim::ns(100));
    lg.push_back(stamp(e));
  };
  // 600 same-timestamp cross-shard pushes in one round: far past the
  // 256-slot SPSC ring, so the producer spills to the barrier-drained
  // outbox and freezes its published clock. Key order must carry the
  // whole flood in the serial order regardless of which route each event
  // took.
  for (int i = 0; i < 600; ++i) eng.spawn_on(0, one(eng, r.log));
  // Lane 2's only t = 0 event holds its shard inside a dispatch until
  // lane 0 has pushed the whole flood, so the consumer cannot drain the
  // ring mid-round and the spill route is taken on every host. Both
  // events are keyed after the spawns, so the serial run (which executes
  // the release first) never waits; neither touches simulated state.
  std::atomic<bool> flooded{false};
  eng.schedule_on(0, 0, [&flooded] {
    flooded.store(true, std::memory_order_release);
  });
  eng.schedule_on(2, 0, [&flooded] {
    while (!flooded.load(std::memory_order_acquire))
      std::this_thread::yield();
  });
  eng.run();
  r.log.push_back(eng.now());
  r.log.push_back(eng.events_processed());
  fold_profile(eng, r);
  return r;
}

TEST(Horizon, RingSpillKeepsFloodByteIdentical) {
  const RunResult serial = flood_run(1);
  const RunResult par = flood_run(2);
  EXPECT_EQ(par.log, serial.log);
  EXPECT_GT(par.spilled, 0u) << "the flood never overflowed the ring";
}

// --- 10-seed differential fuzz ---------------------------------------------
//
// Random multi-group topologies and random exact-or-slack walks, run at
// shards {1, 2, 4, 8}. Every configuration must produce the serial byte
// stream.

struct FuzzPlan {
  sim::LaneTopology topo;
  // Steps: (target lane, hop delay) with delay >= lookahead(cur, target);
  // a target equal to the current lane encodes a local delay instead.
  std::vector<std::pair<std::uint32_t, sim::Duration>> steps;
};

FuzzPlan make_plan(std::uint64_t seed) {
  sim::Rng rng(seed);
  FuzzPlan plan;
  const std::uint32_t lanes = 6;
  const std::uint32_t groups = 1 + static_cast<std::uint32_t>(seed % 3);
  plan.topo.groups = groups;
  for (std::uint32_t l = 0; l < lanes; ++l)
    plan.topo.lane_group.push_back(
        static_cast<std::uint32_t>(rng.uniform(groups)));
  for (std::uint32_t g = 0; g < groups * groups; ++g)
    plan.topo.group_latency.push_back(sim::ns(50) +
                                      static_cast<sim::Duration>(
                                          rng.uniform(sim::ns(450))));
  std::uint32_t cur = 0;
  for (int i = 0; i < 40; ++i) {
    if (rng.uniform(4) == 0) {
      plan.steps.emplace_back(cur, 1 + rng.uniform(sim::ns(300)));
    } else {
      std::uint32_t next = static_cast<std::uint32_t>(rng.uniform(lanes - 1));
      if (next >= cur) ++next;
      plan.steps.emplace_back(next, rng.uniform(sim::ns(200)));
      cur = next;
    }
  }
  return plan;
}

std::vector<std::uint64_t> fuzz_run(const FuzzPlan& plan,
                                    std::uint32_t shards) {
  sim::Engine eng;
  eng.configure_lanes(6, shards, plan.topo);
  std::vector<std::uint64_t> log;
  auto task = [](sim::Engine& e, const FuzzPlan& p,
                 std::vector<std::uint64_t>& lg) -> sim::Task {
    for (const auto& [target, d] : p.steps) {
      if (target == sim::current_lane()) {
        co_await sim::delay(e, d);
      } else {
        co_await sim::hop(e, target,
                          e.lookahead(sim::current_lane(), target) + d);
      }
      lg.push_back(stamp(e));
    }
  };
  eng.spawn_on(0, task(eng, plan, log));
  eng.run();
  log.push_back(eng.now());
  log.push_back(eng.events_processed());
  return log;
}

TEST(Horizon, TenSeedDifferentialFuzzAcrossShards) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const FuzzPlan plan = make_plan(seed);
    const auto serial = fuzz_run(plan, 1);
    for (const std::uint32_t shards : {2u, 4u, 8u})
      EXPECT_EQ(fuzz_run(plan, shards), serial)
          << "seed=" << seed << " shards=" << shards;
  }
}

}  // namespace
