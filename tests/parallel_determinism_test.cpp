// Parallel-vs-serial determinism: the conservative-epoch engine must be
// BYTE-IDENTICAL to the serial engine for every shard count. Each app runs
// once per shard count in a fresh cluster (RDMASEM_SHARDS is read at
// Cluster construction); every observable — results, virtual clock, event
// counts, rendered stats — must match the serial run exactly. This is the
// acceptance oracle for the parallel engine: any cross-shard ordering
// leak shows up here as a one-byte diff.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
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
#include "verbs/payload.hpp"
#include "verbs/srq.hpp"
#include "wl/microbench.hpp"

namespace v = rdmasem::verbs;
namespace sim = rdmasem::sim;
namespace hw = rdmasem::hw;
namespace fl = rdmasem::fault;
namespace cl = rdmasem::cluster;
namespace wl = rdmasem::wl;
namespace ht = rdmasem::apps::hashtable;
namespace sh = rdmasem::apps::shuffle;
namespace jn = rdmasem::apps::join;
namespace dl = rdmasem::apps::dlog;
namespace svc = rdmasem::svc;
using rdmasem::test::Testbed;

namespace {

constexpr std::uint32_t kShardCounts[] = {1, 2, 4, 8};

// Pins one env var for the lifetime of one run (clusters read
// RDMASEM_SHARDS at Cluster construction) and
// restores the previous value after.
class EnvPin {
 public:
  EnvPin(const char* name, const std::string& value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
    setenv(name, value.c_str(), 1);
  }
  ~EnvPin() {
    if (had_)
      setenv(name_, saved_.c_str(), 1);
    else
      unsetenv(name_);
  }

 private:
  const char* name_;
  std::string saved_;
  bool had_ = false;
};

class ShardEnv : public EnvPin {
 public:
  explicit ShardEnv(std::uint32_t shards)
      : EnvPin("RDMASEM_SHARDS", std::to_string(shards)) {}
};

std::string shuffle_run(std::uint32_t shards, sh::Direction dir,
                        sh::BatchMode batch) {
  ShardEnv env(shards);
  Testbed tb;
  sh::Config cfg;
  cfg.executors = 8;
  cfg.entries_per_executor = 512;
  cfg.entry_size = 64;
  cfg.direction = dir;
  cfg.batch = batch;
  cfg.batch_size = 8;
  cfg.machines = tb.cluster.size();
  cfg.seed = 42;
  sh::Shuffle shuffle(tb.contexts(), cfg);
  const auto r = shuffle.run();
  return std::to_string(r.checksum) + "|" +
         std::to_string(shuffle.sent_checksum()) + "|" +
         std::to_string(r.entries) + "|" + std::to_string(r.elapsed) + "|" +
         std::to_string(tb.eng.now()) + "|" +
         std::to_string(tb.eng.events_processed()) + "|" +
         cl::StatsReport::capture(tb.cluster).render();
}

std::string join_run(std::uint32_t shards) {
  ShardEnv env(shards);
  Testbed tb;
  jn::Config cfg;
  cfg.tuples = 1 << 12;
  cfg.executors = 8;
  cfg.machines = tb.cluster.size();
  cfg.distributed = true;
  cfg.batch_size = 8;
  const auto r = jn::run_join(tb.contexts(), cfg);
  return std::to_string(r.matches) + "|" +
         std::to_string(r.expected_matches) + "|" +
         std::to_string(r.seconds) + "|" +
         std::to_string(r.partition_seconds) + "|" +
         std::to_string(tb.eng.now()) + "|" +
         std::to_string(tb.eng.events_processed());
}

std::string dlog_run(std::uint32_t shards) {
  ShardEnv env(shards);
  Testbed tb;
  dl::Config cfg;
  cfg.engines = 6;
  cfg.records_per_engine = 128;
  cfg.batch_size = 4;
  cfg.replicas = 2;
  dl::DistributedLog log(tb.contexts(), cfg);
  const auto r = log.run();
  return std::to_string(r.records) + "|" + std::to_string(r.elapsed) + "|" +
         std::to_string(log.verify_dense_and_intact()) + "|" +
         std::to_string(log.verify_replicas_identical()) + "|" +
         std::to_string(tb.eng.now()) + "|" +
         std::to_string(tb.eng.events_processed()) + "|" +
         cl::StatsReport::capture(tb.cluster).render();
}

std::string hashtable_run(std::uint32_t shards) {
  ShardEnv env(shards);
  Testbed tb;
  ht::Config cfg;
  cfg.num_keys = 1 << 10;
  cfg.numa_aware = true;
  cfg.consolidate = true;
  cfg.hot_fraction = 1.0 / 8;
  ht::DisaggHashTable table(*tb.ctx[0], cfg);
  auto fe1 = table.add_front_end(*tb.ctx[1], 1);
  auto fe2 = table.add_front_end(*tb.ctx[2], 0);

  // Two front-ends on different machines interleave puts/gets; the digest
  // folds every byte read back plus the virtual completion time.
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
  return std::to_string(digest) + "|" + std::to_string(tb.eng.now()) + "|" +
         std::to_string(tb.eng.events_processed()) + "|" +
         cl::StatsReport::capture(tb.cluster).render();
}

// The multi-tenant service tier end to end: two per-host brokers (token
// bucket + bounded queue + pooled RC QPs) feeding one server SRQ, plus DC
// initiators targeting a DCT on the same SRQ. Admission decisions, SRQ
// buffer handout and DC attach/detach churn all have to replay
// identically at every shard count; tallies merge in client order so the
// digest is a pure function of virtual time.
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

std::string broker_run(std::uint32_t shards) {
  ShardEnv env(shards);
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
  out += "|" + std::to_string(tb.eng.now()) + "|" +
         std::to_string(tb.eng.events_processed()) + "|" +
         cl::StatsReport::capture(tb.cluster).render();
  return out;
}

// Microbench under a chaos fault plan, tracing on — retransmits, loss RNG
// and the span merge all have to be shard-invariant too.
std::string chaos_run(std::uint32_t shards) {
  ShardEnv env(shards);
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
  return std::to_string(r.elapsed) + "|" + std::to_string(r.errors) + "|" +
         std::to_string(r.p99_latency_us) + "|" +
         std::to_string(tb.cluster.fabric().drops()) + "|" +
         std::to_string(tb.eng.now()) + "|" +
         cl::StatsReport::capture(tb.cluster).render() + "|" +
         tb.cluster.obs().tracer.chrome_json();
}

}  // namespace

TEST(ParallelDeterminism, ShufflePushMatchesSerialAtEveryShardCount) {
  const std::string serial =
      shuffle_run(1, sh::Direction::kPush, sh::BatchMode::kSgl);
  for (const std::uint32_t s : kShardCounts)
    EXPECT_EQ(shuffle_run(s, sh::Direction::kPush, sh::BatchMode::kSgl),
              serial)
        << "shards=" << s;
}

TEST(ParallelDeterminism, ShufflePullMatchesSerialAtEveryShardCount) {
  const std::string serial =
      shuffle_run(1, sh::Direction::kPull, sh::BatchMode::kSgl);
  for (const std::uint32_t s : kShardCounts)
    EXPECT_EQ(shuffle_run(s, sh::Direction::kPull, sh::BatchMode::kSgl),
              serial)
        << "shards=" << s;
}

TEST(ParallelDeterminism, JoinMatchesSerialAtEveryShardCount) {
  const std::string serial = join_run(1);
  for (const std::uint32_t s : kShardCounts)
    EXPECT_EQ(join_run(s), serial) << "shards=" << s;
}

TEST(ParallelDeterminism, DlogMatchesSerialAtEveryShardCount) {
  const std::string serial = dlog_run(1);
  for (const std::uint32_t s : kShardCounts)
    EXPECT_EQ(dlog_run(s), serial) << "shards=" << s;
}

TEST(ParallelDeterminism, HashtableMatchesSerialAtEveryShardCount) {
  const std::string serial = hashtable_run(1);
  for (const std::uint32_t s : kShardCounts)
    EXPECT_EQ(hashtable_run(s), serial) << "shards=" << s;
}

TEST(ParallelDeterminism, BrokerSrqDcMatchesSerialAtEveryShardCount) {
  const std::string serial = broker_run(1);
  for (const std::uint32_t s : kShardCounts)
    EXPECT_EQ(broker_run(s), serial) << "shards=" << s;
}

TEST(ParallelDeterminism, ChaosFaultsMatchSerialAtFourShards) {
  const std::string serial = chaos_run(1);
  for (const std::uint32_t s : {2u, 4u})
    EXPECT_EQ(chaos_run(s), serial) << "shards=" << s;
}

namespace {

// An 8-machine cluster on a two-tier leaf/spine fabric (2 machines per
// leaf): the lane topology Cluster derives feeds the per-pair lookahead
// matrix, and leaf-aligned shard placement makes every cross-shard hop
// pay the spine. The digest must be byte-identical across shard counts.
std::string leaf_shuffle_run(std::uint32_t shards) {
  ShardEnv env(shards);
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
  return std::to_string(r.checksum) + "|" +
         std::to_string(shuffle.sent_checksum()) + "|" +
         std::to_string(r.elapsed) + "|" + std::to_string(tb.eng.now()) + "|" +
         std::to_string(tb.eng.events_processed()) + "|" +
         cl::StatsReport::capture(tb.cluster).render();
}

}  // namespace

TEST(ParallelDeterminism, LeafTopologyMatchesSerialAtEveryShardCount) {
  const std::string serial = leaf_shuffle_run(1);
  for (const std::uint32_t s : kShardCounts)
    EXPECT_EQ(leaf_shuffle_run(s), serial) << "shards=" << s;
}

TEST(ParallelDeterminism, LeafTopologyWidensCrossShardLookahead) {
  // With shards aligned to leaves, every cross-shard matrix entry must be
  // the spine latency, strictly wider than the flat-fabric floor — the
  // whole point of the per-pair matrix.
  ShardEnv env(4);
  hw::ModelParams p = hw::ModelParams::connectx3_cluster();
  p.machines = 8;
  p.net_machines_per_leaf = 2;
  Testbed tb(p);
  const sim::Duration flat = p.net_propagation + p.net_switch_hop;
  ASSERT_EQ(tb.eng.shards(), 4u);
  // The global floor stays the one-switch hop on both fabrics; the
  // demand-driven publication quantum is half of it.
  EXPECT_EQ(tb.eng.lookahead(), flat);
  EXPECT_EQ(Testbed().eng.lookahead(), flat);
  for (std::uint32_t s = 0; s < 4; ++s)
    for (std::uint32_t d = 0; d < 4; ++d) {
      if (s == d) continue;
      EXPECT_EQ(tb.eng.shard_lookahead(s, d), flat + p.net_spine_hop)
          << "src=" << s << " dst=" << d;
    }
}

TEST(ParallelDeterminism, ShardCountBeyondMachinesClamps) {
  // More shards than machines must degrade gracefully (clamped), not
  // crash or change results.
  const std::string serial =
      shuffle_run(1, sh::Direction::kPush, sh::BatchMode::kDoorbell);
  EXPECT_EQ(shuffle_run(64, sh::Direction::kPush, sh::BatchMode::kDoorbell),
            serial);
}

// ---------------------------------------------------------------------------
// Epoch-boundary edge cases at the raw engine level.

namespace {

// Executes a ping-pong between two lanes with hops of EXACTLY the
// lookahead — every cross-shard event lands precisely on an epoch
// boundary, the tightest legal case for the conservative window.
std::vector<std::uint64_t> pingpong_run(std::uint32_t shards,
                                        sim::Duration hop_d) {
  sim::Engine eng;
  eng.configure_lanes(3, shards);
  eng.set_lookahead(sim::ns(200));
  // One log per lane, appended only from that lane.
  std::vector<std::vector<std::uint64_t>> logs(3);
  auto bounce = [](sim::Engine& e, std::vector<std::vector<std::uint64_t>>& lg,
                   sim::Duration d) -> sim::Task {
    for (int i = 0; i < 32; ++i) {
      lg[sim::current_lane()].push_back(e.now());
      const std::uint32_t next = sim::current_lane() == 1 ? 2 : 1;
      co_await sim::hop(e, next, d);
    }
    lg[sim::current_lane()].push_back(e.now());
  };
  eng.spawn_on(1, bounce(eng, logs, hop_d));
  eng.run();
  std::vector<std::uint64_t> flat;
  for (const auto& lane_log : logs) {
    flat.push_back(lane_log.size());
    flat.insert(flat.end(), lane_log.begin(), lane_log.end());
  }
  flat.push_back(eng.now());
  flat.push_back(eng.events_processed());
  return flat;
}

}  // namespace

TEST(EpochEdge, CrossShardEventExactlyAtEpochBoundary) {
  const auto serial = pingpong_run(1, sim::ns(200));
  EXPECT_EQ(pingpong_run(2, sim::ns(200)), serial);
  EXPECT_EQ(pingpong_run(3, sim::ns(200)), serial);
}

TEST(EpochEdge, CrossShardEventBeyondLookahead) {
  const auto serial = pingpong_run(1, sim::ns(350));
  EXPECT_EQ(pingpong_run(2, sim::ns(350)), serial);
  EXPECT_EQ(pingpong_run(3, sim::ns(350)), serial);
}

TEST(EpochEdge, ShardsWithEmptyQueuesStillTerminate) {
  sim::Engine eng;
  eng.configure_lanes(9, 4);  // lanes 3..8 never see an event
  eng.set_lookahead(sim::ns(200));
  std::uint64_t ticks = 0;
  auto task = [](sim::Engine& e, std::uint64_t& t) -> sim::Task {
    for (int i = 0; i < 10; ++i) {
      co_await sim::delay(e, sim::us(1));
      ++t;
    }
  };
  eng.spawn_on(1, task(eng, ticks));
  eng.run();
  EXPECT_EQ(ticks, 10u);
  EXPECT_EQ(eng.now(), sim::us(10));
}

TEST(EpochEdge, RunUntilStopsMidEpochDeterministically) {
  auto run_split = [](std::uint32_t shards) {
    sim::Engine eng;
    eng.configure_lanes(3, shards);
    eng.set_lookahead(sim::ns(200));
    std::vector<std::vector<std::uint64_t>> logs(3);
    auto bounce = [](sim::Engine& e,
                     std::vector<std::vector<std::uint64_t>>& lg) -> sim::Task {
      for (int i = 0; i < 16; ++i) {
        lg[sim::current_lane()].push_back(e.now());
        const std::uint32_t next = sim::current_lane() == 1 ? 2 : 1;
        co_await sim::hop(e, next, sim::ns(300));
      }
    };
    eng.spawn_on(1, bounce(eng, logs));
    // Stop in the middle (not on any event time), then finish.
    const bool more = eng.run_until(sim::ns(1050));
    const sim::Time mid = eng.now();
    eng.run();
    std::vector<std::uint64_t> flat{more ? 1u : 0u, mid, eng.now()};
    for (const auto& lane_log : logs)
      flat.insert(flat.end(), lane_log.begin(), lane_log.end());
    return flat;
  };
  const auto serial = run_split(1);
  EXPECT_EQ(run_split(2), serial);
  EXPECT_EQ(run_split(3), serial);
}
