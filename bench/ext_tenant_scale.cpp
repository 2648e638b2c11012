// Extension — multi-tenant service scaling (the RDMAvisor experiment).
// Thousands of tenants (machines 1..7) drive hashtable puts/gets and
// dlog-style appends against one storage server (machine 0) through
// three service tiers:
//
//   RC      one private RC QP pair per tenant. Past mcache capacity
//           (rnic_sram_entries / rnic_weight_qp ≈ 256 QP contexts) the
//           server RNIC's SRAM thrashes and every inbound op pays
//           metadata-miss stalls — throughput collapses.
//   BROKER  per-host connection brokers (svc::Broker) multiplex all
//           tenants of a client machine over a few pooled RC QPs; the
//           server drains SENDs from one SRQ. Server QP state stays
//           O(hosts) however many tenants sign up.
//   DC      per-tenant dynamically-connected QPs targeting one server
//           DCT; initiator contexts attach per burst and detach when
//           idle, so SRAM pressure follows ACTIVE flows, not tenants.
//
// Op mix per tenant (seq % 8): one 32 B SEND (7), one dlog append =
// FAA tail claim + 64 B record WRITE (3), the rest alternating
// hashtable put (WRITE) / get (READ) against the app's cold-area
// layout. Throughput counts logical ops; p99 is per-op latency.
//
// Determinism: each tenant accumulates into its own per-tenant struct on
// its own machine's lane; the driver merges in tenant order after run().
// Receive buffers (per-QP RECVs and SRQ entries) are all pre-posted at
// setup — counts are a pure function of the op mix — so no cross-lane
// replenishment runs mid-measurement.

#include <memory>

#include "apps/hashtable/hashtable.hpp"
#include "bench_common.hpp"
#include "sim/sync.hpp"
#include "svc/broker.hpp"
#include "util/stats.hpp"
#include "verbs/srq.hpp"

namespace {

using namespace rdmasem;
using bench::FigureCollector;

FigureCollector collector(
    "Ext. tenant scaling: service MOPS & p99 vs tenant count "
    "(RC-per-tenant vs broker+SRQ vs DC)",
    {"tenants", "RC", "BROKER", "DC", "RC_p99us", "BR_p99us", "DC_p99us",
     "RC_srv_hit", "BR_rejected"});

constexpr std::uint32_t kTenantMachines = 7;  // clients on machines 1..7
constexpr std::uint32_t kValBytes = 64;       // ht value / dlog record
constexpr std::uint32_t kMsgBytes = 32;       // SEND payload
constexpr std::uint64_t kNumKeys = 4096;
constexpr std::uint64_t kDlogSlots = 2048;    // record ring on the server
constexpr std::size_t kBrokerPoolQps = 4;     // pooled QPs per client host
constexpr std::uint64_t kScratchStride = 256; // per-tenant client scratch

// Total logical ops per sweep point, split evenly across tenants.
std::uint64_t tenant_ops_total() {
  return util::env_u64("RDMASEM_TENANT_OPS", 48000);
}

enum class Mode { kRc, kBroker, kDc };

// Op kind for (tenant, seq). The phase is offset per tenant so the mix is
// de-synchronized across the fleet: without the offset, FIFO-fair service
// marches every tenant through the same seq in lockstep and the whole
// fleet bursts its atomics (or SENDs) at once — a thundering-herd artifact
// rather than a steady multi-tenant mix.
std::uint32_t op_phase(std::uint32_t tenant, std::uint64_t seq) {
  return static_cast<std::uint32_t>((seq + tenant) % 8);
}

// Exact number of SENDs tenant will issue in [0, ops) — phase 7 ops.
std::uint64_t sends_for(std::uint32_t tenant, std::uint64_t ops) {
  const std::uint64_t first = (7 + 8 - tenant % 8) % 8;  // smallest phase-7 seq
  return ops > first ? (ops - first + 7) / 8 : 0;
}

// The shared storage server: the hashtable app's backend image (all-cold
// layout), a dlog tail counter + record ring, and a SEND landing area.
struct Server {
  apps::hashtable::Config ht_cfg;
  std::unique_ptr<apps::hashtable::Backend> ht;
  verbs::Buffer dlog_buf{8 + kDlogSlots * kValBytes};
  verbs::MemoryRegion* dlog_mr = nullptr;
  verbs::Buffer recv_buf{1 << 15};
  verbs::MemoryRegion* recv_mr = nullptr;

  explicit Server(verbs::Context& ctx) {
    ht_cfg.num_keys = kNumKeys;
    ht_cfg.value_size = kValBytes;
    ht_cfg.versions = 1;
    ht_cfg.hot_fraction = 0.0;  // all keys in the cold (one-sided) area
    ht = std::make_unique<apps::hashtable::Backend>(ctx, ht_cfg);
    dlog_mr = ctx.register_buffer(dlog_buf, 1);
    recv_mr = ctx.register_buffer(recv_buf, 1);
  }

  verbs::Sge recv_sge(std::uint64_t i) const {
    const std::uint64_t slot = i % (recv_buf.size() / kValBytes);
    return {recv_mr->addr + slot * kValBytes, kMsgBytes, recv_mr->key};
  }
};

// Per-tenant accumulator, written only from the tenant's machine lane and
// merged by the driver in tenant order after the run.
struct TenantShared {
  util::Samples lat_us;
  std::uint64_t done = 0;
  std::uint64_t errors = 0;
  std::uint64_t rejected = 0;
  sim::Time end = 0;
};

struct TenantCtx {
  Mode mode = Mode::kRc;
  std::uint32_t tenant = 0;
  std::uint64_t ops = 0;
  verbs::QueuePair* qp = nullptr;   // RC pair / DC initiator
  verbs::QueuePair* dct = nullptr;  // DC target (per-WR ud_dest)
  svc::Broker* broker = nullptr;
  verbs::MemoryRegion* scratch_mr = nullptr;
  std::uint64_t scratch = 0;  // this tenant's slot base address
  Server* srv = nullptr;
  TenantShared* out = nullptr;
  sim::CountdownLatch* done = nullptr;
};

sim::TaskT<verbs::Completion> issue(TenantCtx& c, verbs::WorkRequest wr) {
  if (c.mode == Mode::kBroker) {
    svc::SubmitResult r = co_await c.broker->submit(c.tenant, std::move(wr));
    if (r.admission == svc::Admission::kRejected) {
      ++c.out->rejected;
      verbs::Completion fail;
      fail.status = verbs::Status::kWrFlushedError;
      co_return fail;
    }
    co_return r.completion;
  }
  if (c.mode == Mode::kDc) wr.ud_dest = c.dct;
  co_return co_await c.qp->execute(std::move(wr));
}

sim::Task tenant_loop(sim::Engine& eng, TenantCtx c) {
  auto& ht = *c.srv->ht;
  for (std::uint64_t seq = 0; seq < c.ops; ++seq) {
    const sim::Time t0 = eng.now();
    const std::uint32_t phase = op_phase(c.tenant, seq);
    verbs::Completion last;
    if (phase == 7) {
      // Two-sided RPC: 32 B SEND into per-QP RECVs (RC) or the SRQ.
      verbs::WorkRequest wr;
      wr.opcode = verbs::Opcode::kSend;
      wr.sg_list = {{c.scratch + 192, kMsgBytes, c.scratch_mr->key}};
      last = co_await issue(c, std::move(wr));
    } else if (phase == 3) {
      // dlog-style append: FAA claims the tail, WRITE lands the record.
      verbs::WorkRequest faa;
      faa.opcode = verbs::Opcode::kFetchAdd;
      faa.sg_list = {{c.scratch + 128, 8, c.scratch_mr->key}};
      faa.remote_addr = c.srv->dlog_mr->addr;
      faa.rkey = c.srv->dlog_mr->key;
      faa.swap_or_add = kValBytes;
      const verbs::Completion claimed = co_await issue(c, std::move(faa));
      if (!claimed.ok()) {
        ++c.out->errors;
        ++c.out->done;
        continue;
      }
      const std::uint64_t slot = (claimed.atomic_old / kValBytes) % kDlogSlots;
      verbs::WorkRequest wr;
      wr.opcode = verbs::Opcode::kWrite;
      wr.sg_list = {{c.scratch, kValBytes, c.scratch_mr->key}};
      wr.remote_addr = c.srv->dlog_mr->addr + 8 + slot * kValBytes;
      wr.rkey = c.srv->dlog_mr->key;
      last = co_await issue(c, std::move(wr));
    } else {
      // Hashtable cold-area op: put = WRITE the slot, get = READ it.
      const std::uint64_t key =
          (c.tenant * 2654435761ULL + seq) % kNumKeys;
      auto* reg = ht.region(ht.socket_of(key));
      verbs::WorkRequest wr;
      wr.opcode =
          phase % 2 == 0 ? verbs::Opcode::kWrite : verbs::Opcode::kRead;
      const std::uint64_t local =
          phase % 2 == 0 ? c.scratch : c.scratch + kValBytes;
      wr.sg_list = {{local, kValBytes, c.scratch_mr->key}};
      wr.remote_addr = ht.cold_slot_addr(key, 0);
      wr.rkey = reg->key;
      last = co_await issue(c, std::move(wr));
    }
    if (!last.ok()) ++c.out->errors;
    c.out->lat_us.add(sim::to_us(eng.now() - t0));
    ++c.out->done;
  }
  c.out->end = eng.now();
  c.done->count_down();
}

struct RunResult {
  wl::BenchResult bench;
  double srv_hit = 0;   // server mcache hit rate
  std::uint64_t rejected = 0;
  std::uint64_t srv_qps = 0;  // QP endpoints living on the server
};

RunResult run_mode(Mode mode, std::uint32_t tenants) {
  wl::Rig rig;
  auto& sctx = *rig.ctx[0];
  Server srv(sctx);

  const std::uint64_t total = tenant_ops_total();
  const std::uint64_t ops = std::max<std::uint64_t>(8, total / tenants);

  // Client-side scratch: one MR per client machine, one 256 B slot per
  // tenant (WRITE source, READ landing, FAA result, SEND source).
  std::vector<std::unique_ptr<verbs::Buffer>> scratch_bufs;
  std::vector<verbs::MemoryRegion*> scratch_mrs;
  for (std::uint32_t m = 0; m < kTenantMachines; ++m) {
    const std::uint64_t on_m = tenants / kTenantMachines + 1;
    scratch_bufs.push_back(
        std::make_unique<verbs::Buffer>(on_m * kScratchStride));
    scratch_mrs.push_back(rig.ctx[1 + m]->register_buffer(*scratch_bufs[m], 1));
  }

  // Service endpoint per mode.
  verbs::SharedReceiveQueue* srq = nullptr;
  verbs::QueuePair* dct = nullptr;
  std::vector<std::unique_ptr<svc::Broker>> brokers;
  std::uint64_t srv_qps = 0;
  if (mode == Mode::kBroker) {
    srq = sctx.create_srq();
    for (std::uint32_t m = 0; m < kTenantMachines; ++m) {
      std::vector<verbs::QueuePair*> pool;
      for (std::size_t i = 0; i < kBrokerPoolQps; ++i) {
        auto ca = rig.paper_qp();
        ca.cq = rig.ctx[1 + m]->create_cq();
        auto cb = rig.paper_qp();
        cb.cq = sctx.create_cq();
        cb.srq = srq;
        auto* cl = rig.ctx[1 + m]->create_qp(ca);
        auto* sv = sctx.create_qp(cb);
        verbs::Context::connect(*cl, *sv);
        pool.push_back(cl);
        ++srv_qps;
      }
      brokers.push_back(std::make_unique<svc::Broker>(std::move(pool)));
    }
  } else if (mode == Mode::kDc) {
    srq = sctx.create_srq();
    auto scfg = rig.paper_qp();
    scfg.transport = verbs::Transport::kDc;
    scfg.cq = sctx.create_cq();
    scfg.srq = srq;
    dct = sctx.create_qp(scfg);
    srv_qps = 1;
  }

  // Tenants, their endpoints, and every receive buffer the op mix will
  // consume — pre-posted now so the measurement loop never replenishes.
  std::vector<std::unique_ptr<TenantShared>> shared(tenants);
  std::vector<TenantCtx> ctxs(tenants);
  sim::CountdownLatch done(rig.eng, tenants);
  std::vector<std::uint32_t> next_slot(kTenantMachines, 0);
  std::uint64_t srq_sends = 0;
  for (std::uint32_t t = 0; t < tenants; ++t) {
    const std::uint32_t m = t % kTenantMachines;
    shared[t] = std::make_unique<TenantShared>();
    shared[t]->lat_us.reserve(ops);
    TenantCtx& c = ctxs[t];
    c.mode = mode;
    c.tenant = t;
    c.ops = ops;
    c.srv = &srv;
    c.out = shared[t].get();
    c.done = &done;
    c.scratch_mr = scratch_mrs[m];
    c.scratch = scratch_mrs[m]->addr + next_slot[m]++ * kScratchStride;
    if (mode == Mode::kRc) {
      auto ca = rig.paper_qp();
      ca.cq = rig.ctx[1 + m]->create_cq();
      auto cb = rig.paper_qp();
      cb.cq = sctx.create_cq();
      auto* cl = rig.ctx[1 + m]->create_qp(ca);
      auto* sv = sctx.create_qp(cb);
      verbs::Context::connect(*cl, *sv);
      c.qp = cl;
      ++srv_qps;
      for (std::uint64_t i = 0; i < sends_for(t, ops); ++i)
        sv->post_recv({i, srv.recv_sge(t + i)});
    } else if (mode == Mode::kBroker) {
      c.broker = brokers[m].get();
      srq_sends += sends_for(t, ops);
    } else {
      auto ca = rig.paper_qp();
      ca.transport = verbs::Transport::kDc;
      ca.cq = rig.ctx[1 + m]->create_cq();
      c.qp = rig.ctx[1 + m]->create_qp(ca);
      c.dct = dct;
      srq_sends += sends_for(t, ops);
    }
  }
  for (std::uint64_t i = 0; i < srq_sends; ++i)
    srq->post({i, srv.recv_sge(i)});

  for (std::uint32_t t = 0; t < tenants; ++t) {
    const std::uint32_t lane = 1 + t % kTenantMachines + 1;
    rig.eng.spawn_on(lane, tenant_loop(rig.eng, ctxs[t]));
  }
  rig.eng.run();

  // Merge in tenant order.
  RunResult out;
  out.srv_qps = srv_qps;
  util::Samples all;
  sim::Time end = 0;
  std::uint64_t logical = 0, errors = 0;
  for (std::uint32_t t = 0; t < tenants; ++t) {
    TenantShared& s = *shared[t];
    for (std::size_t i = 0; i < s.lat_us.count(); ++i)
      all.add(s.lat_us.sample(i));
    logical += s.done;
    errors += s.errors;
    out.rejected += s.rejected;
    end = std::max(end, s.end);
  }
  out.bench.elapsed = end;
  out.bench.mops =
      end > 0 ? static_cast<double>(logical) / sim::to_us(end) : 0.0;
  out.bench.per_thread_mops = out.bench.mops / tenants;
  out.bench.avg_latency_us = all.mean();
  out.bench.p50_latency_us = all.percentile(50.0);
  out.bench.p99_latency_us = all.percentile(99.0);
  out.bench.p999_latency_us = all.percentile(99.9);
  out.bench.errors = errors;
  out.srv_hit = rig.cluster.machine(0).rnic().mcache().hit_rate();
  if (util::env_u64("RDMASEM_TENANT_DEBUG", 0) != 0) {
    std::fprintf(stderr, "mode=%d tenants=%u cli1_hit=%.4f json=%s\n",
                 static_cast<int>(mode), tenants,
                 rig.cluster.machine(1).rnic().mcache().hit_rate(),
                 rig.cluster.obs().metrics.json().c_str());
  }
  bench::absorb(rig.cluster);
  return out;
}

void BM_tenant_scale(benchmark::State& state) {
  const auto tenants = static_cast<std::uint32_t>(state.range(0));
  RunResult rc, br, dc;
  for (auto _ : state) {
    rc = run_mode(Mode::kRc, tenants);
    br = run_mode(Mode::kBroker, tenants);
    dc = run_mode(Mode::kDc, tenants);
    state.SetIterationTime(sim::to_sec(rc.bench.elapsed + br.bench.elapsed +
                                       dc.bench.elapsed));
  }
  state.counters["RC_MOPS"] = rc.bench.mops;
  state.counters["BROKER_MOPS"] = br.bench.mops;
  state.counters["DC_MOPS"] = dc.bench.mops;
  state.counters["RC_srv_mcache_hit"] = rc.srv_hit;
  state.counters["RC_server_qps"] = static_cast<double>(rc.srv_qps);
  state.counters["BROKER_server_qps"] = static_cast<double>(br.srv_qps);
  const std::string x = std::to_string(tenants);
  bench::point("RC", x, rc.bench);
  bench::point("BROKER", x, br.bench);
  bench::point("DC", x, dc.bench);
  bench::point_mops("RC_srv_hit", x, rc.srv_hit);
  collector.add({x, util::fmt(rc.bench.mops), util::fmt(br.bench.mops),
                 util::fmt(dc.bench.mops), util::fmt(rc.bench.p99_latency_us),
                 util::fmt(br.bench.p99_latency_us),
                 util::fmt(dc.bench.p99_latency_us), util::fmt(rc.srv_hit, 3),
                 std::to_string(br.rejected)});
}

BENCHMARK(BM_tenant_scale)
    ->Arg(64)->Arg(128)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048)
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

RDMASEM_BENCH_MAIN(collector)
