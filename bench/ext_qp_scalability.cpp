// Extension — QP scalability (§II-B2): with many RC connections, the
// server RNIC's SRAM can no longer hold every QP context and throughput
// collapses (Chen et al. observe ~-50% from 40 to 120 clients). A UD
// server needs ONE QP for all clients and sidesteps the thrash.
//
// N clients (on machines 1..7) send 32 B messages to one server (machine
// 0); we sweep N and compare RC (N server QPs) against UD (1 server QP).

#include "bench_common.hpp"
#include "sim/sync.hpp"

namespace {

using namespace rdmasem;
using bench::FigureCollector;

FigureCollector collector(
    "Ext. QP scalability: server MOPS vs client count (32 B sends)",
    {"clients", "RC", "UD", "RC_srv_conns", "UD_srv_conns", "RC_mcache_hit",
     "RC_mcache_miss"});

constexpr std::uint32_t kMsg = 32;

struct Endpoint {
  verbs::Buffer buf{4096};
  verbs::MemoryRegion* mr;
  verbs::QueuePair* qp;
};

double run_rc(std::uint32_t clients, std::uint64_t ops, double* hit_rate) {
  wl::Rig rig;
  std::vector<std::unique_ptr<Endpoint>> sends, recvs;
  sim::CountdownLatch done(rig.eng, clients);
  sim::Time end = 0;
  for (std::uint32_t c = 0; c < clients; ++c) {
    auto snd = std::make_unique<Endpoint>();
    auto rcv = std::make_unique<Endpoint>();
    auto& cctx = *rig.ctx[1 + c % 7];
    auto& sctx = *rig.ctx[0];
    snd->mr = cctx.register_buffer(snd->buf, 1);
    rcv->mr = sctx.register_buffer(rcv->buf, 1);
    auto ca = rig.paper_qp();
    ca.cq = cctx.create_cq();
    auto cb = rig.paper_qp();
    cb.cq = sctx.create_cq();
    snd->qp = cctx.create_qp(ca);
    rcv->qp = sctx.create_qp(cb);
    verbs::Context::connect(*snd->qp, *rcv->qp);
    for (int i = 0; i < 64; ++i)
      rcv->qp->post_recv({static_cast<std::uint64_t>(i),
                          {rcv->mr->addr, kMsg, rcv->mr->key}});
    auto loop = [](wl::Rig& r, Endpoint* s, Endpoint* rv, std::uint64_t n,
                   sim::CountdownLatch& d, sim::Time& e) -> sim::Task {
      for (std::uint64_t i = 0; i < n; ++i) {
        verbs::WorkRequest wr;
        wr.opcode = verbs::Opcode::kSend;
        wr.sg_list = {{s->mr->addr, kMsg, s->mr->key}};
        (void)co_await s->qp->execute(wr);
        rv->qp->post_recv({i, {rv->mr->addr, kMsg, rv->mr->key}});
      }
      e = std::max(e, r.eng.now());
      d.count_down();
    };
    rig.eng.spawn(loop(rig, snd.get(), rcv.get(), ops, done, end));
    sends.push_back(std::move(snd));
    recvs.push_back(std::move(rcv));
  }
  rig.eng.run();
  if (hit_rate)
    *hit_rate = rig.cluster.machine(0).rnic().mcache().hit_rate();
  return static_cast<double>(clients) * static_cast<double>(ops) /
         sim::to_us(end);
}

double run_ud(std::uint32_t clients, std::uint64_t ops) {
  wl::Rig rig;
  // ONE server UD QP; per-client UD QPs on the client side.
  auto& sctx = *rig.ctx[0];
  auto scfg = rig.paper_qp();
  scfg.transport = verbs::Transport::kUD;
  scfg.cq = sctx.create_cq();
  scfg.sq_depth = 65536;
  auto* server = sctx.create_qp(scfg);
  verbs::Buffer rbuf(1 << 20);
  auto* rmr = sctx.register_buffer(rbuf, 1);
  for (int i = 0; i < 4096; ++i)
    server->post_recv({static_cast<std::uint64_t>(i),
                       {rmr->addr + static_cast<std::uint64_t>(i) * 64, kMsg,
                        rmr->key}});

  std::vector<std::unique_ptr<Endpoint>> sends;
  sim::CountdownLatch done(rig.eng, clients);
  sim::Time end = 0;
  for (std::uint32_t c = 0; c < clients; ++c) {
    auto snd = std::make_unique<Endpoint>();
    auto& cctx = *rig.ctx[1 + c % 7];
    snd->mr = cctx.register_buffer(snd->buf, 1);
    auto ca = rig.paper_qp();
    ca.transport = verbs::Transport::kUD;
    ca.cq = cctx.create_cq();
    snd->qp = cctx.create_qp(ca);
    auto loop = [](wl::Rig& r, Endpoint* s, verbs::QueuePair* srv,
                   verbs::MemoryRegion* srv_mr, std::uint64_t n,
                   sim::CountdownLatch& d, sim::Time& e) -> sim::Task {
      for (std::uint64_t i = 0; i < n; ++i) {
        verbs::WorkRequest wr;
        wr.opcode = verbs::Opcode::kSend;
        wr.sg_list = {{s->mr->addr, kMsg, s->mr->key}};
        wr.ud_dest = srv;
        (void)co_await s->qp->execute(wr);
        srv->post_recv({i, {srv_mr->addr, kMsg, srv_mr->key}});
      }
      e = std::max(e, r.eng.now());
      d.count_down();
    };
    rig.eng.spawn(loop(rig, snd.get(), server, rmr, ops, done, end));
    sends.push_back(std::move(snd));
  }
  rig.eng.run();
  return static_cast<double>(clients) * static_cast<double>(ops) /
         sim::to_us(end);
}

void sweep() {
  const std::uint64_t ops = bench::micro_ops(800) / 4 + 50;
  for (const std::uint32_t clients : {8, 40, 120, 240, 480}) {
    double hit = 0;
    const double rc = run_rc(clients, ops, &hit);
    const double ud = run_ud(clients, ops);
    // Connection count is the experiment's independent variable made
    // explicit: the RC server carries one QP per client while the UD
    // server always carries one, which is why only RC's metadata cache
    // degrades.
    const double miss = 1.0 - hit;
    const std::string x = std::to_string(clients);
    bench::point_mops("RC", x, rc);
    bench::point_mops("UD", x, ud);
    bench::point_mops("RC_srv_conns", x, static_cast<double>(clients));
    bench::point_mops("RC_mcache_miss", x, miss);
    collector.add({x, util::fmt(rc), util::fmt(ud), std::to_string(clients),
                   "1", util::fmt(hit, 3), util::fmt(miss, 3)});
  }
}

}  // namespace

int main(int argc, char** argv) {
  return rdmasem::bench::run_main(argc, argv, collector, sweep);
}
