// Chaos harness: randomized fault plans are pure functions of (seed, opts),
// whole runs under chaos are byte-identical when replayed with the same
// plan and seed, and the dlog replica-crash drill loses no acknowledged
// append (docs/FAULTS.md).

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "apps/dlog/dlog.hpp"
#include "apps/txkv/txkv.hpp"
#include "fault/fault.hpp"
#include "sync/sync.hpp"
#include "testbed.hpp"
#include "wl/microbench.hpp"

namespace v = rdmasem::verbs;
namespace sim = rdmasem::sim;
namespace fl = rdmasem::fault;
namespace dl = rdmasem::apps::dlog;
namespace kv = rdmasem::apps::txkv;
namespace sy = rdmasem::sync;
namespace wl = rdmasem::wl;
using rdmasem::test::Testbed;
using rdmasem::test::make_write;

namespace {

std::vector<v::Context*> ctx_ptrs(Testbed& tb) {
  std::vector<v::Context*> out;
  for (auto& c : tb.ctx) out.push_back(c.get());
  return out;
}

}  // namespace

TEST(ChaosPlan, PureFunctionOfSeed) {
  fl::ChaosOptions opts;
  opts.events = 32;
  opts.allow_crash = true;
  auto draw = [&](std::uint64_t seed) {
    sim::Rng rng(seed);
    return fl::FaultPlan::chaos(rng, sim::ms(5), 8, 2, opts);
  };

  const auto p1 = draw(42);
  const auto p2 = draw(42);
  ASSERT_EQ(p1.size(), p2.size());
  for (std::size_t i = 0; i < p1.events.size(); ++i) {
    const auto& a = p1.events[i];
    const auto& b = p2.events[i];
    EXPECT_EQ(a.kind, b.kind) << i;
    EXPECT_EQ(a.at, b.at) << i;
    EXPECT_EQ(a.duration, b.duration) << i;
    EXPECT_EQ(a.machine, b.machine) << i;
    EXPECT_EQ(a.port, b.port) << i;
    EXPECT_EQ(a.peer, b.peer) << i;
    EXPECT_DOUBLE_EQ(a.loss_prob, b.loss_prob) << i;
    EXPECT_EQ(a.extra_latency, b.extra_latency) << i;
  }
  const auto p3 = draw(43);
  EXPECT_NE(p3.events[0].at, p1.events[0].at);
}

TEST(ChaosPlan, SparesTheSparedMachine) {
  fl::ChaosOptions opts;
  opts.events = 64;
  opts.allow_crash = true;
  opts.spare_machine = 3;
  sim::Rng rng(7);
  const auto plan = fl::FaultPlan::chaos(rng, sim::ms(5), 8, 2, opts);
  for (const auto& ev : plan.events) {
    EXPECT_NE(ev.machine, 3u);
    if (ev.kind == fl::FaultKind::kPartition) {
      EXPECT_NE(ev.peer, 3u);
    }
  }
}

// A closed-loop write workload under a transient-fault chaos plan: every
// WR completes (infinite retry heals transient faults) and two runs with
// the same seed produce byte-identical stats.
TEST(ChaosRun, MicrobenchDeterministicUnderChaos) {
  auto once = [] {
    Testbed tb;
    sim::Rng plan_rng(1234);
    fl::ChaosOptions opts;
    opts.events = 24;
    opts.loss_prob_max = 0.4;
    opts.window_max = sim::us(200);
    const auto plan =
        fl::FaultPlan::chaos(plan_rng, sim::ms(1), tb.cluster.size(),
                             tb.cluster.params().rnic_ports, opts);
    tb.cluster.inject(plan);

    v::Buffer src(4096), dst(1 << 16);
    auto* lmr = tb.ctx[0]->register_buffer(src, 1);
    auto* rmr = tb.ctx[1]->register_buffer(dst, 1);
    wl::ClientSpec spec;
    for (int t = 0; t < 2; ++t) spec.qps.push_back(tb.connect(0, 1).local);
    spec.window = 4;
    spec.ops_per_client = 400;
    spec.make_wr = [lmr, rmr](std::uint32_t c, std::uint64_t) {
      return rdmasem::wl::make_write(*lmr, 0, *rmr, c * 64, 64);
    };
    const auto r = wl::run_closed_loop(tb.eng, spec);
    EXPECT_EQ(r.errors, 0u);  // transient faults only + infinite retry
    std::uint64_t retransmits = 0;
    for (auto* q : spec.qps) retransmits += q->retransmits();
    return std::tuple{r.mops, r.avg_latency_us, r.p99_latency_us,
                      r.elapsed, retransmits,
                      tb.cluster.fabric().messages(),
                      tb.cluster.fabric().drops(), tb.eng.now()};
  };

  const auto a = once();
  const auto b = once();
  EXPECT_EQ(a, b);                 // byte-identical replay
  EXPECT_GT(std::get<4>(a), 0u);   // the chaos actually bit
}

namespace {

struct DrillOutcome {
  dl::Result result;
  bool dense = false;
  bool replicas_ok = false;
  bool survivor_recovers = false;
  bool dead_recovers = true;
  bool dead_alive = true;
};

// Crash the host of replica 0 mid-run (replicas fill machines from the
// top: replica 0 lives on machine N-1, engines on 1..engines).
DrillOutcome replica_crash_drill(sim::Time crash_at) {
  Testbed tb;
  dl::Config cfg;
  cfg.engines = 4;
  cfg.records_per_engine = 256;
  cfg.batch_size = 8;
  cfg.replicas = 3;
  cfg.failover = true;
  fl::FaultPlan plan;
  plan.crash(crash_at, tb.cluster.size() - 1);
  tb.cluster.inject(plan);

  dl::DistributedLog log(ctx_ptrs(tb), cfg);
  DrillOutcome out;
  out.result = log.run();
  out.dense = log.verify_dense_and_intact();
  out.replicas_ok = log.verify_replicas_identical();
  out.survivor_recovers = log.recover_from_replica(1);
  out.dead_recovers = log.recover_from_replica(0);
  out.dead_alive = log.replica_alive(0);
  return out;
}

}  // namespace

// Acceptance: a fault plan that crashes a dlog replica mid-run completes
// with zero lost acknowledged appends, and the same plan + seed replays
// byte-identically.
TEST(ChaosDlog, ReplicaCrashLosesNoAcknowledgedAppend) {
  // Find mid-run on a clean rehearsal, then crash there.
  sim::Duration clean_elapsed;
  {
    Testbed tb;
    dl::Config cfg;
    cfg.engines = 4;
    cfg.records_per_engine = 256;
    cfg.batch_size = 8;
    cfg.replicas = 3;
    cfg.failover = true;
    dl::DistributedLog log(ctx_ptrs(tb), cfg);
    clean_elapsed = log.run().elapsed;
  }

  const auto out = replica_crash_drill(clean_elapsed / 2);
  EXPECT_EQ(out.result.records, 4u * 256u);  // every append acknowledged
  EXPECT_TRUE(out.dense);                    // ...and present on the primary
  EXPECT_GT(out.result.failovers, 0u);
  EXPECT_GT(out.result.first_failover_at, clean_elapsed / 2);
  EXPECT_FALSE(out.dead_alive);              // replica 0 was dropped
  EXPECT_TRUE(out.replicas_ok);              // survivors stayed identical
  EXPECT_TRUE(out.survivor_recovers);        // the log rebuilds from rep 1
  EXPECT_FALSE(out.dead_recovers);

  // Byte-identical replay of the whole crash drill.
  const auto again = replica_crash_drill(clean_elapsed / 2);
  EXPECT_EQ(out.result.records, again.result.records);
  EXPECT_EQ(out.result.elapsed, again.result.elapsed);
  EXPECT_EQ(out.result.mops, again.result.mops);
  EXPECT_EQ(out.result.failovers, again.result.failovers);
  EXPECT_EQ(out.result.first_failover_at, again.result.first_failover_at);
  EXPECT_EQ(out.result.log_bytes, again.result.log_bytes);
}

// Without failover the same crash must not be silently absorbed; with the
// crash scheduled after the run ends, failover mode changes nothing.
TEST(ChaosDlog, LateCrashIsHarmless) {
  Testbed tb;
  dl::Config cfg;
  cfg.engines = 2;
  cfg.records_per_engine = 64;
  cfg.batch_size = 4;
  cfg.replicas = 2;
  cfg.failover = true;
  fl::FaultPlan plan;
  plan.crash(sim::ms(500), tb.cluster.size() - 1);  // long after the run
  tb.cluster.inject(plan);
  dl::DistributedLog log(ctx_ptrs(tb), cfg);
  const auto r = log.run();
  EXPECT_EQ(r.failovers, 0u);
  EXPECT_TRUE(log.replica_alive(0));
  EXPECT_TRUE(log.verify_dense_and_intact());
  EXPECT_TRUE(log.verify_replicas_identical());
  EXPECT_TRUE(log.recover_from_replica(0));
}

// Chaos (loss + latency + short outages, no crashes) over replicated dlog:
// infinite-retry QPs deliver everything; both replicas stay intact.
TEST(ChaosDlog, SurvivesTransientChaos) {
  Testbed tb;
  sim::Rng plan_rng(99);
  fl::ChaosOptions opts;
  opts.events = 16;
  opts.loss_prob_max = 0.3;
  opts.window_max = sim::us(150);
  const auto plan =
      fl::FaultPlan::chaos(plan_rng, sim::ms(1), tb.cluster.size(),
                           tb.cluster.params().rnic_ports, opts);
  tb.cluster.inject(plan);

  dl::Config cfg;
  cfg.engines = 3;
  cfg.records_per_engine = 128;
  cfg.batch_size = 4;
  cfg.replicas = 2;
  dl::DistributedLog log(ctx_ptrs(tb), cfg);
  const auto r = log.run();
  EXPECT_EQ(r.records, 3u * 128u);
  EXPECT_TRUE(log.verify_dense_and_intact());
  EXPECT_TRUE(log.verify_replicas_identical());
}

// ------------------------------------------------- sync / txkv scenarios

namespace {

// Runs the serializability battery over a finished txkv store; returns a
// digest for byte-identical replay checks.
std::string txkv_battery(kv::TxKv& store, Testbed& tb) {
  std::string digest;
  const auto merged = store.history().merged();
  for (std::uint64_t k = 0; k < store.config().num_keys; ++k) {
    const auto audit = sy::audit_increments(
        sy::ops_for_key(merged, k), kv::TxKv::kInitialVersion,
        kv::TxKv::kInitialValue, store.key_version(k), store.key_value(k));
    EXPECT_TRUE(audit.ok()) << "key " << k << ": " << audit.render();
    EXPECT_TRUE(store.cell_quiescent(k)) << "key " << k;
    digest += std::to_string(store.key_version(k)) + ":" +
              std::to_string(store.key_value(k)) + ";";
  }
  EXPECT_TRUE(store.locks_free(tb.eng.now()));
  EXPECT_EQ(store.snapshot_integrity_failures(), 0u);
  digest += '|';
  digest += store.history().render();
  digest += '|';
  digest += std::to_string(tb.eng.now());
  digest += '|';
  digest += std::to_string(tb.eng.events_processed());
  return digest;
}

struct TxkvChaosOut {
  kv::Result result;
  std::string digest;
};

// Scenario A — link faults while spin locks are held and commits are in
// flight. Bounded retry surfaces the faults as errors; workers recover
// (reset + reconnect + re-land a consistent cell + release) and go on.
TxkvChaosOut txkv_link_fault_drill() {
  Testbed tb;
  fl::FaultPlan plan;
  // Loss bursts walking the server's ports plus hard link-down windows on
  // two worker machines: both sides of held-lock traffic get hit.
  for (int b = 0; b < 30; ++b)
    plan.loss_burst(sim::us(25 + 70 * b), sim::us(40), /*machine=*/0,
                    /*port=*/b % 2, 0.85);
  for (int d = 0; d < 6; ++d)
    plan.link_down(sim::us(120 + 340 * d), sim::us(130),
                   /*machine=*/1 + (d % 2), /*port=*/d % 2);
  tb.cluster.inject(plan);

  kv::Config cfg;
  cfg.workers = 6;
  cfg.ops_per_worker = 32;
  cfg.num_keys = 4;
  cfg.get_fraction = 0.4;
  cfg.lock = kv::LockMode::kSpin;
  cfg.recover_on_failure = true;
  cfg.retry_cnt = 3;
  cfg.seed = 31;
  kv::TxKv store(ctx_ptrs(tb), cfg);
  TxkvChaosOut out;
  out.result = store.run();
  out.digest = txkv_battery(store, tb);
  return out;
}

}  // namespace

// Acceptance: no lost updates under link faults; every lock drains free;
// the whole drill replays byte-identically.
TEST(ChaosTxkv, LinkFaultsDuringHeldLocksLoseNoUpdates) {
  const auto out = txkv_link_fault_drill();
  EXPECT_GT(out.result.commits, 0u);
  EXPECT_EQ(out.result.dead_workers, 0u);  // recovery, not death
  EXPECT_GT(out.result.recoveries, 0u);    // the faults actually bit

  const auto again = txkv_link_fault_drill();
  EXPECT_EQ(out.digest, again.digest);
  EXPECT_EQ(out.result.commits, again.result.commits);
  EXPECT_EQ(out.result.recoveries, again.result.recoveries);
}

// Scenario B — a worker machine crashes while lease-held transactions are
// in flight. The dead holder never recovers; its lease expires and the
// survivors take over (epoch bump) with no lost update and no stuck lock.
TEST(ChaosTxkv, HolderCrashUnderLeaseLocksIsTakenOver) {
  // Rehearse fault-free to find mid-run, then crash a worker host there.
  kv::Config cfg;
  cfg.workers = 4;
  cfg.ops_per_worker = 24;
  cfg.num_keys = 2;           // hot: holds mostly back-to-back
  cfg.get_fraction = 0.0;
  cfg.lock = kv::LockMode::kLease;
  cfg.hold_delay = sim::us(60);  // stretch holds; still inside the term
  cfg.retry_cnt = 3;
  cfg.seed = 32;
  sim::Duration clean_elapsed;
  {
    Testbed tb;
    kv::TxKv store(ctx_ptrs(tb), cfg);
    const auto clean = store.run();
    clean_elapsed = clean.elapsed;
    EXPECT_EQ(clean.dead_workers, 0u);
  }

  Testbed tb;
  fl::FaultPlan plan;
  plan.crash(clean_elapsed / 2, /*machine=*/1);  // worker 0's host
  tb.cluster.inject(plan);
  kv::TxKv store(ctx_ptrs(tb), cfg);
  const auto r = store.run();

  EXPECT_EQ(r.dead_workers, 1u);  // the crashed host's worker, no others
  EXPECT_GT(r.commits, 0u);
  // Survivors committed after the crash: total commits exceed what the
  // dead worker could have contributed before it.
  std::uint64_t total_value = 0;
  for (std::uint64_t k = 0; k < cfg.num_keys; ++k)
    total_value += store.key_value(k);
  EXPECT_EQ(total_value, r.commits);  // increment accounting holds
  (void)txkv_battery(store, tb);      // audit + quiescent + locks free
}
