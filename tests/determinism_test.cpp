// Seed-sweep determinism: a run is a pure function of (params, workload,
// seed). For every seed we execute the same workload twice in fresh
// clusters and require byte-identical observable output — the rendered
// StatsReport, the Chrome trace JSON, and every scalar the measurement
// layer produces. This is the acceptance gate for scheduler/allocator
// changes in sim/: any ordering drift in the engine shows up here as a
// one-byte diff.
//
// The Determinism.Golden* cases pin eight app scenarios to recorded
// outputs: a 64-bit FNV-1a digest of everything the run observes, the
// final virtual clock and the processed-event count. Replays only prove a
// run is repeatable; the pins also fail on any unintended change to the
// model or the engine's (at, key) order. A deliberate model change must
// re-record them.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "apps/dlog/dlog.hpp"
#include "apps/hashtable/hashtable.hpp"
#include "apps/join/join.hpp"
#include "apps/shuffle/shuffle.hpp"
#include "cluster/stats.hpp"
#include "fault/fault.hpp"
#include "sim/sync.hpp"
#include "svc/broker.hpp"
#include "testbed.hpp"
#include "verbs/srq.hpp"
#include "wl/microbench.hpp"

namespace v = rdmasem::verbs;
namespace sim = rdmasem::sim;
namespace hw = rdmasem::hw;
namespace fl = rdmasem::fault;
namespace dl = rdmasem::apps::dlog;
namespace ht = rdmasem::apps::hashtable;
namespace sh = rdmasem::apps::shuffle;
namespace jn = rdmasem::apps::join;
namespace svc = rdmasem::svc;
namespace wl = rdmasem::wl;
namespace cl = rdmasem::cluster;
using rdmasem::test::Testbed;

namespace {

struct RunOutput {
  std::string stats;        // StatsReport::render()
  std::string trace;        // Tracer::chrome_json()
  std::string rest;         // every other scalar, stringified
  std::uint64_t events = 0; // engine events_processed
};

// Closed-loop write/read mix under a seed-derived chaos plan, tracing on.
RunOutput microbench_run(std::uint64_t seed) {
  Testbed tb;
  tb.cluster.obs().tracer.set_enabled(true);

  sim::Rng plan_rng(seed * 2654435761u + 17);
  fl::ChaosOptions opts;
  opts.events = 16;
  opts.loss_prob_max = 0.3;
  opts.window_max = sim::us(150);
  tb.cluster.inject(fl::FaultPlan::chaos(plan_rng, sim::ms(1),
                                         tb.cluster.size(),
                                         tb.cluster.params().rnic_ports,
                                         opts));

  v::Buffer src(4096), dst(1 << 14);
  auto* lmr = tb.ctx[0]->register_buffer(src, 1);
  auto* rmr = tb.ctx[1]->register_buffer(dst, 1);
  wl::ClientSpec spec;
  for (int t = 0; t < 2; ++t) spec.qps.push_back(tb.connect(0, 1).local);
  spec.window = 4;
  spec.ops_per_client = 250;
  spec.make_wr = [lmr, rmr, seed](std::uint32_t, std::uint64_t s) {
    // Seed-dependent access pattern so different seeds genuinely differ.
    const auto off = ((s * 2654435761u + seed) % 255) * 64;
    return (s % 3 == 0) ? rdmasem::wl::make_read(*lmr, 0, *rmr, off, 64)
                        : rdmasem::wl::make_write(*lmr, 0, *rmr, off, 64);
  };
  const auto r = wl::run_closed_loop(tb.eng, spec);

  RunOutput out;
  out.stats = cl::StatsReport::capture(tb.cluster).render();
  out.trace = tb.cluster.obs().tracer.chrome_json();
  out.rest = std::to_string(r.mops) + "|" + std::to_string(r.avg_latency_us) +
             "|" + std::to_string(r.p99_latency_us) + "|" +
             std::to_string(r.elapsed) + "|" + std::to_string(r.errors) +
             "|" + std::to_string(tb.eng.now()) + "|" +
             std::to_string(tb.cluster.fabric().messages()) + "|" +
             std::to_string(tb.cluster.fabric().drops());
  out.events = tb.eng.events_processed();
  return out;
}

// The dlog app end to end (coroutine pipelines, sequencer atomics,
// batching) with stats capture.
RunOutput dlog_run(std::uint64_t seed) {
  Testbed tb;
  dl::Config cfg;
  cfg.engines = 3 + static_cast<std::uint32_t>(seed % 3);
  cfg.records_per_engine = 128;
  cfg.batch_size = 1u << (seed % 4);
  dl::DistributedLog log(tb.contexts(), cfg);
  const auto r = log.run();

  RunOutput out;
  out.stats = cl::StatsReport::capture(tb.cluster).render();
  out.rest = std::to_string(r.records) + "|" + std::to_string(r.mops) + "|" +
             std::to_string(r.elapsed) + "|" +
             std::to_string(log.verify_dense_and_intact()) + "|" +
             std::to_string(tb.eng.now());
  out.events = tb.eng.events_processed();
  return out;
}

}  // namespace

class SeedSweep : public ::testing::TestWithParam<int> {};

TEST_P(SeedSweep, MicrobenchReplaysByteIdentical) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const RunOutput a = microbench_run(seed);
  const RunOutput b = microbench_run(seed);
  EXPECT_EQ(a.stats, b.stats);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.rest, b.rest);
  EXPECT_EQ(a.events, b.events);
  EXPECT_FALSE(a.trace.empty());
}

TEST_P(SeedSweep, DlogReplaysByteIdentical) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const RunOutput a = dlog_run(seed);
  const RunOutput b = dlog_run(seed);
  EXPECT_EQ(a.stats, b.stats);
  EXPECT_EQ(a.rest, b.rest);
  EXPECT_EQ(a.events, b.events);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep, ::testing::Range(0, 10));

// Different seeds must produce different executions (otherwise the sweep
// above proves nothing).
TEST(SeedSweep, SeedsActuallyDiffer) {
  const RunOutput a = microbench_run(1);
  const RunOutput b = microbench_run(2);
  EXPECT_NE(a.rest, b.rest);
}

// ---------------------------------------------------------------------------
// Golden outputs.

namespace {

struct Golden {
  std::string text;  // every observable of the run, stringified
  sim::Time now = 0;
  std::uint64_t events = 0;
};

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

Golden finish(Testbed& tb, std::string text) {
  return {std::move(text), tb.eng.now(), tb.eng.events_processed()};
}

Golden shuffle_golden(sh::Direction dir) {
  Testbed tb;
  sh::Config cfg;
  cfg.executors = 8;
  cfg.entries_per_executor = 512;
  cfg.entry_size = 64;
  cfg.direction = dir;
  cfg.batch = sh::BatchMode::kSgl;
  cfg.batch_size = 8;
  cfg.machines = tb.cluster.size();
  cfg.seed = 42;
  sh::Shuffle shuffle(tb.contexts(), cfg);
  const auto r = shuffle.run();
  return finish(tb, std::to_string(r.checksum) + "|" +
                        std::to_string(shuffle.sent_checksum()) + "|" +
                        std::to_string(r.entries) + "|" +
                        std::to_string(r.elapsed) + "|" +
                        cl::StatsReport::capture(tb.cluster).render());
}

Golden join_golden() {
  Testbed tb;
  jn::Config cfg;
  cfg.tuples = 1 << 12;
  cfg.executors = 8;
  cfg.machines = tb.cluster.size();
  cfg.distributed = true;
  cfg.batch_size = 8;
  const auto r = jn::run_join(tb.contexts(), cfg);
  return finish(tb, std::to_string(r.matches) + "|" +
                        std::to_string(r.expected_matches) + "|" +
                        std::to_string(r.seconds) + "|" +
                        std::to_string(r.partition_seconds));
}

Golden dlog_golden() {
  Testbed tb;
  dl::Config cfg;
  cfg.engines = 6;
  cfg.records_per_engine = 128;
  cfg.batch_size = 4;
  cfg.replicas = 2;
  dl::DistributedLog log(tb.contexts(), cfg);
  const auto r = log.run();
  return finish(tb, std::to_string(r.records) + "|" +
                        std::to_string(r.elapsed) + "|" +
                        std::to_string(log.verify_dense_and_intact()) + "|" +
                        std::to_string(log.verify_replicas_identical()) + "|" +
                        cl::StatsReport::capture(tb.cluster).render());
}

// Two front-ends on different machines interleave puts and gets; the
// digest folds every byte read back.
Golden hashtable_golden() {
  Testbed tb;
  ht::Config cfg;
  cfg.num_keys = 1 << 10;
  cfg.numa_aware = true;
  cfg.consolidate = true;
  cfg.hot_fraction = 1.0 / 8;
  ht::DisaggHashTable table(*tb.ctx[0], cfg);
  auto fe1 = table.add_front_end(*tb.ctx[1], 1);
  auto fe2 = table.add_front_end(*tb.ctx[2], 0);
  std::uint64_t digest = 0;
  auto task = [](ht::FrontEnd& fa, ht::FrontEnd& fb, const ht::Config& c,
                 std::uint64_t& out) -> sim::Task {
    for (std::uint64_t k = 0; k < 96; ++k) {
      ht::FrontEnd& f = (k % 3 == 0) ? fb : fa;
      std::vector<std::byte> val(c.value_size);
      for (std::size_t i = 0; i < val.size(); ++i)
        val[i] = static_cast<std::byte>((k * 31 + i) & 0xff);
      co_await f.put(k, val);
      const auto got = co_await f.get(k);
      for (const std::byte b : got)
        out = out * 1099511628211ULL + static_cast<std::uint64_t>(b);
    }
    co_await fa.drain();
    co_await fb.drain();
  };
  tb.eng.spawn(task(*fe1, *fe2, cfg, digest));
  tb.eng.run();
  return finish(tb, std::to_string(digest) + "|" +
                        cl::StatsReport::capture(tb.cluster).render());
}

// The multi-tenant service tier end to end: two per-host brokers (token
// bucket, bounded queue, pooled RC QPs) feeding one server SRQ, plus DC
// initiators targeting a DCT on the same SRQ. Tallies merge in client
// order.
v::WorkRequest svc_wr(v::MemoryRegion* mr, v::MemoryRegion* rmr,
                      std::uint32_t id, std::uint32_t seq) {
  const std::uint32_t phase = (seq + id) % 4;
  v::WorkRequest wr;
  if (phase == 3) {
    wr.opcode = v::Opcode::kSend;
    wr.sg_list = {{mr->addr, 32, mr->key}};
  } else {
    wr.opcode = phase == 1 ? v::Opcode::kRead : v::Opcode::kWrite;
    wr.sg_list = {{mr->addr + 64, 64, mr->key}};
    wr.remote_addr = rmr->addr + ((id * 37u + seq) % 128) * 64;
    wr.rkey = rmr->key;
  }
  return wr;
}

struct SvcTally {
  std::uint64_t ok = 0;
  std::uint64_t queued = 0;
  std::uint64_t rejected = 0;
};

Golden broker_golden() {
  Testbed tb;
  constexpr std::uint32_t kHosts = 2, kTenantsPerHost = 8, kOps = 12;
  constexpr std::uint32_t kDcClients = 4;
  auto& sctx = *tb.ctx[0];
  auto* srq = sctx.create_srq();
  v::Buffer rbuf(1 << 14);
  auto* rmr = sctx.register_buffer(rbuf, 1);

  svc::BrokerConfig bcfg;
  bcfg.tokens_per_us = 0.2;  // 5 us/token: some ops throttle-queue
  bcfg.bucket_depth = 2.0;
  bcfg.max_queue = 3;  // and some bounce off the bounded queue
  std::vector<std::unique_ptr<svc::Broker>> brokers;
  for (std::uint32_t h = 0; h < kHosts; ++h) {
    std::vector<v::QueuePair*> pool;
    for (int i = 0; i < 2; ++i) {
      auto ca = tb.paper_qp();
      ca.cq = tb.ctx[1 + h]->create_cq();
      auto cb = tb.paper_qp();
      cb.cq = sctx.create_cq();
      cb.srq = srq;
      pool.push_back(tb.connect(1 + h, 0, ca, cb).local);
    }
    brokers.push_back(std::make_unique<svc::Broker>(std::move(pool), bcfg));
  }
  auto ct = tb.paper_qp();
  ct.transport = v::Transport::kDc;
  ct.cq = sctx.create_cq();
  ct.srq = srq;
  auto* dct = sctx.create_qp(ct);

  std::vector<std::unique_ptr<v::Buffer>> bufs;
  std::vector<v::MemoryRegion*> mrs;  // client machines 1..3
  for (std::uint32_t m = 1; m <= 3; ++m) {
    bufs.push_back(std::make_unique<v::Buffer>(4096));
    mrs.push_back(tb.ctx[m]->register_buffer(*bufs.back(), 1));
  }

  const std::uint32_t total = kHosts * kTenantsPerHost + kDcClients;
  // Each client's 12-op mix contains exactly three phase-3 SENDs.
  for (std::uint64_t i = 0; i < total * 3ull; ++i)
    srq->post({i, {rmr->addr + (i % 64) * 64, 64, rmr->key}});

  std::vector<SvcTally> tallies(total);
  sim::CountdownLatch done(tb.eng, total);

  auto tenant = [](svc::Broker* br, v::MemoryRegion* mr, v::MemoryRegion* rm,
                   std::uint32_t id, std::uint32_t ops, SvcTally* out,
                   sim::CountdownLatch* d) -> sim::Task {
    for (std::uint32_t seq = 0; seq < ops; ++seq) {
      auto r = co_await br->submit(id, svc_wr(mr, rm, id, seq));
      if (r.ok()) ++out->ok;
      if (r.admission == svc::Admission::kQueued) ++out->queued;
      if (r.admission == svc::Admission::kRejected) ++out->rejected;
    }
    d->count_down();
  };
  auto dc_client = [](v::QueuePair* q, v::QueuePair* tgt, v::MemoryRegion* mr,
                      v::MemoryRegion* rm, std::uint32_t id, std::uint32_t ops,
                      SvcTally* out, sim::CountdownLatch* d) -> sim::Task {
    for (std::uint32_t seq = 0; seq < ops; ++seq) {
      auto wr = svc_wr(mr, rm, id, seq);
      wr.ud_dest = tgt;
      if ((co_await q->execute(wr)).ok()) ++out->ok;
    }
    d->count_down();
  };

  std::uint32_t id = 0;
  for (std::uint32_t h = 0; h < kHosts; ++h)
    for (std::uint32_t t = 0; t < kTenantsPerHost; ++t, ++id)
      tb.eng.spawn_on(2 + h, tenant(brokers[h].get(), mrs[h], rmr, id, kOps,
                                    &tallies[id], &done));
  for (std::uint32_t c = 0; c < kDcClients; ++c, ++id) {
    auto ci = tb.paper_qp();
    ci.transport = v::Transport::kDc;
    ci.cq = tb.ctx[3]->create_cq();
    tb.eng.spawn_on(4, dc_client(tb.ctx[3]->create_qp(ci), dct, mrs[2], rmr,
                                 id, kOps, &tallies[id], &done));
  }
  tb.eng.run();

  std::string out;
  for (const SvcTally& t : tallies)
    out += std::to_string(t.ok) + "," + std::to_string(t.queued) + "," +
           std::to_string(t.rejected) + ";";
  for (const auto& b : brokers)
    out += "|b:" + std::to_string(b->admitted()) + "," +
           std::to_string(b->queued()) + "," + std::to_string(b->rejected());
  const auto& hub = tb.cluster.obs();
  out += "|srq:" + std::to_string(srq->posted()) + "," +
         std::to_string(srq->consumed()) + "," + std::to_string(srq->depth());
  out += "|dc:" + std::to_string(hub.dc_attaches.value());
  out += "|rnr:" + std::to_string(hub.srq_rnr.value());
  out += '|';
  out += cl::StatsReport::capture(tb.cluster).render();
  return finish(tb, std::move(out));
}

// Microbench under a chaos fault plan with tracing on: retransmits, the
// loss RNG and the span export all feed the digest.
Golden chaos_golden() {
  Testbed tb;
  tb.cluster.obs().tracer.set_enabled(true);
  sim::Rng plan_rng(777);
  fl::ChaosOptions opts;
  opts.events = 12;
  opts.loss_prob_max = 0.25;
  opts.window_max = sim::us(120);
  tb.cluster.inject(fl::FaultPlan::chaos(plan_rng, sim::ms(1),
                                         tb.cluster.size(),
                                         tb.cluster.params().rnic_ports,
                                         opts));
  v::Buffer src(4096), dst(1 << 14);
  auto* lmr = tb.ctx[0]->register_buffer(src, 1);
  auto* rmr = tb.ctx[3]->register_buffer(dst, 1);
  wl::ClientSpec spec;
  for (int t = 0; t < 3; ++t) spec.qps.push_back(tb.connect(0, 3).local);
  spec.window = 4;
  spec.ops_per_client = 200;
  spec.make_wr = [lmr, rmr](std::uint32_t, std::uint64_t s) {
    const auto off = ((s * 2654435761u) % 255) * 64;
    return (s % 3 == 0) ? wl::make_read(*lmr, 0, *rmr, off, 64)
                        : wl::make_write(*lmr, 0, *rmr, off, 64);
  };
  const auto r = wl::run_closed_loop(tb.eng, spec);
  return finish(tb, std::to_string(r.elapsed) + "|" +
                        std::to_string(r.errors) + "|" +
                        std::to_string(r.p99_latency_us) + "|" +
                        std::to_string(tb.cluster.fabric().drops()) + "|" +
                        cl::StatsReport::capture(tb.cluster).render() + "|" +
                        tb.cluster.obs().tracer.chrome_json());
}

// An 8-machine cluster on a two-tier leaf/spine fabric, 2 machines per
// leaf: the lane topology feeds the per-pair lookahead that settle() and
// the home-lane sync primitives route with.
Golden leaf_golden() {
  hw::ModelParams p = hw::ModelParams::connectx3_cluster();
  p.machines = 8;
  p.net_machines_per_leaf = 2;
  Testbed tb(p);
  sh::Config cfg;
  cfg.executors = 8;
  cfg.entries_per_executor = 256;
  cfg.entry_size = 64;
  cfg.batch = sh::BatchMode::kSgl;
  cfg.batch_size = 8;
  cfg.machines = tb.cluster.size();
  cfg.seed = 99;
  sh::Shuffle shuffle(tb.contexts(), cfg);
  const auto r = shuffle.run();
  return finish(tb, std::to_string(r.checksum) + "|" +
                        std::to_string(shuffle.sent_checksum()) + "|" +
                        std::to_string(r.elapsed) + "|" +
                        cl::StatsReport::capture(tb.cluster).render());
}

void expect_golden(const Golden& g, std::uint64_t digest, sim::Time now,
                   std::uint64_t events) {
  EXPECT_EQ(fnv1a(g.text), digest) << std::hex << fnv1a(g.text);
  EXPECT_EQ(g.now, now);
  EXPECT_EQ(g.events, events);
}

}  // namespace

TEST(Determinism, GoldenShufflePush) {
  expect_golden(shuffle_golden(sh::Direction::kPush), 0xac084487e1e786e9ULL,
                192515176, 16990);
}

TEST(Determinism, GoldenShufflePull) {
  expect_golden(shuffle_golden(sh::Direction::kPull), 0x8f53dce3076a44c5ULL,
                221788517, 14624);
}

TEST(Determinism, GoldenJoin) {
  expect_golden(join_golden(), 0x4270f6e843052158ULL,
                407477631, 34053);
}

TEST(Determinism, GoldenDlog) {
  expect_golden(dlog_golden(), 0xc19ae6218da68d04ULL,
                187046055, 9738);
}

TEST(Determinism, GoldenHashtable) {
  expect_golden(hashtable_golden(), 0xf0d9a210b7035071ULL,
                10020703271, 2758);
}

TEST(Determinism, GoldenBrokerSrqDc) {
  expect_golden(broker_golden(), 0x749a1a4e35bccf80ULL,
                52156200, 2816);
}

TEST(Determinism, GoldenChaosFaults) {
  expect_golden(chaos_golden(), 0x8aa120eb870c99baULL,
                1011048111, 10951);
}

TEST(Determinism, GoldenLeafTopology) {
  expect_golden(leaf_golden(), 0x6c40484fd379ff4cULL,
                132828642, 9209);
}
