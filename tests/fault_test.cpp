// Fault subsystem (docs/FAULTS.md): FaultState bookkeeping, the injector's
// virtual-clock windows, the QP state machine (RESET -> RTS -> ERROR with
// kWrFlushedError flushes), bounded/infinite transport retries, and the
// loss path of the fabric (RC retransmits, UC/UD silent drops, same-seed
// reproducibility).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <tuple>
#include <utility>

#include "fault/fault.hpp"
#include "fault/injector.hpp"
#include "sim/lane.hpp"
#include "testbed.hpp"

namespace v = rdmasem::verbs;
namespace sim = rdmasem::sim;
namespace fl = rdmasem::fault;
using rdmasem::test::Testbed;
using rdmasem::test::make_read;
using rdmasem::test::make_write;

namespace {

void run(Testbed& tb, sim::Task t) {
  tb.eng.spawn(std::move(t));
  tb.eng.run();
}

// The port every paper_qp() maps to (NIC socket's port).
rdmasem::rnic::PortId port_of(Testbed& tb) {
  return tb.cluster.params().rnic_socket;
}

}  // namespace

// ---------------------------------------------------------------------------
// FaultState bookkeeping
// ---------------------------------------------------------------------------

TEST(FaultState, CrashAndPartitionRefcountsNest) {
  fl::FaultState st(4, 2);
  EXPECT_FALSE(st.blocked(0, 0, 1, 0));

  st.crash(1);
  EXPECT_TRUE(st.machine_down(1));
  EXPECT_TRUE(st.blocked(0, 0, 1, 0));  // dst crashed
  EXPECT_TRUE(st.blocked(1, 0, 2, 0));  // src crashed
  st.crash(1);     // overlapping second crash window
  st.restore(1);   // first window lifts: still down
  EXPECT_TRUE(st.machine_down(1));
  st.restore(1);
  EXPECT_FALSE(st.machine_down(1));
  EXPECT_FALSE(st.blocked(0, 0, 1, 0));

  st.add_partition(2, 3);
  EXPECT_TRUE(st.partitioned(3, 2));  // pair is normalized
  EXPECT_TRUE(st.blocked(2, 1, 3, 0));
  EXPECT_FALSE(st.blocked(0, 0, 2, 0));  // other pairs unaffected
  st.remove_partition(3, 2);
  EXPECT_FALSE(st.partitioned(2, 3));
}

TEST(FaultState, LinkDownBlocksEitherEndpoint) {
  fl::FaultState st(3, 2);
  ++st.link(0, 1).down;
  EXPECT_TRUE(st.blocked(0, 1, 1, 0));  // as source link
  EXPECT_TRUE(st.blocked(1, 0, 0, 1));  // as destination link
  EXPECT_FALSE(st.blocked(0, 0, 1, 0));  // the other port still up
  --st.link(0, 1).down;
  EXPECT_FALSE(st.blocked(0, 1, 1, 0));
}

TEST(FaultState, LossOverrideWorseEndpointWinsAndLatencySums) {
  fl::FaultState st(2, 1);
  EXPECT_LT(st.loss_override(0, 0, 1, 0), 0.0);  // no override
  st.link(0, 0).loss_prob = 0.1;
  st.link(1, 0).loss_prob = 0.4;
  EXPECT_DOUBLE_EQ(st.loss_override(0, 0, 1, 0), 0.4);
  st.link(0, 0).extra_latency = sim::us(3);
  st.link(1, 0).extra_latency = sim::us(2);
  EXPECT_EQ(st.extra_latency(0, 0, 1, 0), sim::us(5));
}

// ---------------------------------------------------------------------------
// FaultInjector windows on the virtual clock
// ---------------------------------------------------------------------------

TEST(FaultInjector, WindowBeginsAndEndsAtPlannedTimes) {
  sim::Engine eng;
  fl::FaultState st(2, 2);
  fl::FaultInjector inj(eng, st);
  std::vector<std::pair<sim::Time, bool>> edges;
  inj.add_listener([&](const fl::FaultEvent& ev, bool begin) {
    EXPECT_EQ(ev.kind, fl::FaultKind::kLossBurst);
    edges.emplace_back(eng.now(), begin);
  });

  fl::FaultPlan plan;
  plan.loss_burst(sim::us(10), sim::us(5), 0, 0, 0.8);
  inj.schedule(plan);

  // Probe the state before, inside and after the window.
  double during = -2, after = -2;
  eng.schedule_at(sim::us(12),
                  [&] { during = st.loss_override(0, 0, 1, 0); });
  eng.schedule_at(sim::us(20), [&] { after = st.loss_override(0, 0, 1, 0); });
  eng.run();

  EXPECT_DOUBLE_EQ(during, 0.8);
  EXPECT_LT(after, 0.0);
  EXPECT_FALSE(st.active());  // fast path restored once the window lifts
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0], (std::pair<sim::Time, bool>{sim::us(10), true}));
  EXPECT_EQ(edges[1], (std::pair<sim::Time, bool>{sim::us(15), false}));
  EXPECT_EQ(inj.injected(), 1u);
}

// ---------------------------------------------------------------------------
// QP state machine
// ---------------------------------------------------------------------------

TEST(QpStateMachine, ResetUntilConnectedUdBornRts) {
  Testbed tb;
  auto cfg = tb.paper_qp();
  cfg.cq = tb.ctx[0]->create_cq();
  EXPECT_EQ(tb.ctx[0]->create_qp(cfg)->state(), v::QpState::kReset);

  auto conn = tb.connect(0, 1);
  EXPECT_EQ(conn.local->state(), v::QpState::kRts);
  EXPECT_EQ(conn.remote->state(), v::QpState::kRts);

  auto ud = tb.paper_qp();
  ud.transport = v::Transport::kUD;
  ud.cq = tb.ctx[0]->create_cq();
  EXPECT_EQ(tb.ctx[0]->create_qp(ud)->state(), v::QpState::kRts);
}

TEST(QpStateMachine, ToErrorFlushesPostedRecvs) {
  Testbed tb;
  auto conn = tb.connect(0, 1);
  v::Buffer buf(256);
  auto* mr = tb.ctx[1]->register_buffer(buf, 1);
  conn.remote->post_recv({1, {mr->addr, 64, mr->key}});
  conn.remote->post_recv({2, {mr->addr + 64, 64, mr->key}});

  conn.remote->to_error();
  conn.remote->to_error();  // idempotent
  EXPECT_EQ(conn.remote->state(), v::QpState::kError);
  EXPECT_EQ(conn.remote->flushed_wrs(), 2u);
  EXPECT_EQ(conn.remote->recv_queue_depth(), 0u);

  auto* cq = conn.remote->config().cq;
  for (std::uint64_t id = 1; id <= 2; ++id) {
    auto c = cq->poll();
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(c->wr_id, id);
    EXPECT_EQ(c->opcode, v::Opcode::kRecv);
    EXPECT_EQ(c->status, v::Status::kWrFlushedError);
  }
  EXPECT_FALSE(cq->poll().has_value());
}

TEST(QpStateMachine, ResetAllowsReconnect) {
  Testbed tb;
  v::Buffer src(64), dst(64);
  auto* lmr = tb.ctx[0]->register_buffer(src, 1);
  auto* rmr = tb.ctx[1]->register_buffer(dst, 1);
  auto conn = tb.connect(0, 1);
  conn.local->to_error();
  conn.local->reset();
  conn.remote->reset();
  EXPECT_EQ(conn.local->state(), v::QpState::kReset);
  EXPECT_FALSE(conn.local->connected());

  v::Context::connect(*conn.local, *conn.remote);
  EXPECT_EQ(conn.local->state(), v::QpState::kRts);
  std::memcpy(src.data(), "again", 5);
  run(tb, [](v::QueuePair* q, v::MemoryRegion* l,
             v::MemoryRegion* r) -> sim::Task {
    auto c = co_await q->execute(make_write(*l, 0, *r, 0, 5));
    EXPECT_TRUE(c.ok());
  }(conn.local, lmr, rmr));
  EXPECT_EQ(std::memcmp(dst.data(), "again", 5), 0);
}

// ---------------------------------------------------------------------------
// Transport retries under injected faults
// ---------------------------------------------------------------------------

// Acceptance: retry exhaustion produces kRetryExceeded, moves the QP to
// ERROR, and later WRs flush with kWrFlushedError instead of aborting.
TEST(FaultRetry, ExhaustionErrorsQpAndFlushesFollowers) {
  Testbed tb;
  v::Buffer src(4096), dst(4096);
  auto* lmr = tb.ctx[0]->register_buffer(src, 1);
  auto* rmr = tb.ctx[1]->register_buffer(dst, 1);
  auto cfg = tb.paper_qp();
  cfg.retry_cnt = 2;  // bounded budget: detect the dead link
  auto conn = tb.connect(0, 1, cfg, tb.paper_qp());

  fl::FaultPlan plan;
  plan.link_down(0, sim::ms(50), 1, port_of(tb));
  tb.cluster.inject(plan);

  run(tb, [](v::QueuePair* q, v::MemoryRegion* l,
             v::MemoryRegion* r) -> sim::Task {
    auto c1 = co_await q->execute(make_write(*l, 0, *r, 0, 8));
    EXPECT_EQ(c1.status, v::Status::kRetryExceeded);
    EXPECT_EQ(q->state(), v::QpState::kError);
    auto c2 = co_await q->execute(make_write(*l, 8, *r, 8, 8));
    EXPECT_EQ(c2.status, v::Status::kWrFlushedError);
  }(conn.local, lmr, rmr));

  EXPECT_EQ(conn.local->retransmits(), 2u);  // exactly the budget
  EXPECT_GE(conn.local->flushed_wrs(), 1u);
  EXPECT_GE(tb.cluster.fabric().drops(), 3u);  // initial try + 2 retries
}

TEST(FaultRetry, InfiniteRetryRidesOutTransientOutage) {
  Testbed tb;
  v::Buffer src(64), dst(64);
  auto* lmr = tb.ctx[0]->register_buffer(src, 1);
  auto* rmr = tb.ctx[1]->register_buffer(dst, 1);
  auto conn = tb.connect(0, 1);  // default: infinite retry

  fl::FaultPlan plan;
  plan.link_down(0, sim::us(60), 1, port_of(tb));
  tb.cluster.inject(plan);

  std::memcpy(src.data(), "heal", 4);
  run(tb, [](Testbed& t, v::QueuePair* q, v::MemoryRegion* l,
             v::MemoryRegion* r) -> sim::Task {
    auto c = co_await q->execute(make_write(*l, 0, *r, 0, 4));
    EXPECT_TRUE(c.ok());
    EXPECT_GE(t.eng.now(), sim::us(60));  // could not finish mid-outage
  }(tb, conn.local, lmr, rmr));

  EXPECT_EQ(conn.local->state(), v::QpState::kRts);
  EXPECT_GT(conn.local->retransmits(), 0u);
  EXPECT_EQ(std::memcmp(dst.data(), "heal", 4), 0);
}

TEST(FaultRetry, PartitionHealsWithBackoff) {
  Testbed tb;
  v::Buffer src(64), dst(64);
  auto* lmr = tb.ctx[0]->register_buffer(src, 1);
  auto* rmr = tb.ctx[1]->register_buffer(dst, 1);
  auto conn = tb.connect(0, 1);

  fl::FaultPlan plan;
  plan.partition(0, sim::us(100), 0, 1);
  tb.cluster.inject(plan);

  run(tb, [](Testbed& t, v::QueuePair* q, v::MemoryRegion* l,
             v::MemoryRegion* r) -> sim::Task {
    auto c = co_await q->execute(make_write(*l, 0, *r, 0, 8));
    EXPECT_TRUE(c.ok());
    EXPECT_GE(t.eng.now(), sim::us(100));
  }(tb, conn.local, lmr, rmr));
  EXPECT_GT(conn.local->retransmits(), 0u);
}

TEST(FaultFabric, LossBurstOverridesLosslessKnob) {
  Testbed tb;  // net_loss_prob = 0: all loss below comes from the burst
  v::Buffer src(64), dst(4096);
  auto* lmr = tb.ctx[0]->register_buffer(src, 1);
  auto* rmr = tb.ctx[1]->register_buffer(dst, 1);
  auto conn = tb.connect(0, 1);

  fl::FaultPlan plan;
  plan.loss_burst(0, sim::ms(50), 1, port_of(tb), 0.5);
  tb.cluster.inject(plan);

  run(tb, [](v::QueuePair* q, v::MemoryRegion* l,
             v::MemoryRegion* r) -> sim::Task {
    for (int i = 0; i < 50; ++i) {
      auto c = co_await q->execute(
          make_write(*l, 0, *r, static_cast<std::uint64_t>(i) * 8, 8));
      EXPECT_TRUE(c.ok());
    }
  }(conn.local, lmr, rmr));

  EXPECT_GT(conn.local->retransmits(), 0u);
  EXPECT_GT(tb.cluster.fabric().drops(), 0u);
}

TEST(FaultFabric, LatencySpikeSlowsTransits) {
  auto latency_with = [](fl::FaultPlan plan) {
    Testbed tb;
    v::Buffer src(64), dst(64);
    auto* lmr = tb.ctx[0]->register_buffer(src, 1);
    auto* rmr = tb.ctx[1]->register_buffer(dst, 1);
    auto conn = tb.connect(0, 1);
    tb.cluster.inject(plan);
    double us = 0;
    run(tb, [](Testbed& t, v::QueuePair* q, v::MemoryRegion* l,
               v::MemoryRegion* r, double& out) -> sim::Task {
      for (int i = 0; i < 3; ++i)  // warm metadata caches
        (void)co_await q->execute(make_write(*l, 0, *r, 0, 8));
      co_await sim::delay(t.eng, sim::us(100));  // inside any spike window
      const sim::Time t0 = t.eng.now();
      auto c = co_await q->execute(make_write(*l, 0, *r, 0, 8));
      EXPECT_TRUE(c.ok());
      out = sim::to_us(t.eng.now() - t0);
    }(tb, conn.local, lmr, rmr, us));
    return us;
  };

  const double clean = latency_with({});
  fl::FaultPlan spike;
  spike.latency_spike(0, sim::ms(10), 1, 1, sim::us(5));
  // Request and ACK legs both cross the spiked link: ~2x extra.
  EXPECT_GT(latency_with(spike), clean + 8.0);
}

TEST(FaultNic, StallFreezesRemotePipeline) {
  Testbed tb;
  v::Buffer src(64), dst(64);
  auto* lmr = tb.ctx[0]->register_buffer(src, 1);
  auto* rmr = tb.ctx[1]->register_buffer(dst, 1);
  auto conn = tb.connect(0, 1);

  fl::FaultPlan plan;
  plan.nic_stall(0, sim::us(80), 1);
  tb.cluster.inject(plan);

  run(tb, [](Testbed& t, v::QueuePair* q, v::MemoryRegion* l,
             v::MemoryRegion* r) -> sim::Task {
    auto c = co_await q->execute(make_write(*l, 0, *r, 0, 8));
    EXPECT_TRUE(c.ok());
    // Inbound processing on machine 1 was frozen for the stall window.
    EXPECT_GE(t.eng.now(), sim::us(80));
  }(tb, conn.local, lmr, rmr));
}

// A fault edge and transits at the same instant on other machines' lanes:
// transit events the driver scheduled before the plan see the state before
// the edge, those scheduled after it see the state after it, whatever lane
// they run on. Listeners fire once per edge, on the faulted machine's lane.
TEST(FaultEdges, VisibleAcrossLanesInSchedulingOrder) {
  Testbed tb;
  ASSERT_EQ(tb.cluster.size(), 8u);
  ASSERT_EQ(tb.eng.lanes(), 9u);
  constexpr fl::MachineId kDown = 3, kLossy = 6;
  constexpr fl::PortId kPort = 1;
  const sim::Time t = sim::us(10);
  const sim::Duration window = sim::us(5);

  struct Edge {
    fl::MachineId machine;
    bool begin;
    sim::Time at;
    std::uint32_t lane;
  };
  std::vector<Edge> edges;
  tb.cluster.injector().add_listener(
      [&](const fl::FaultEvent& ev, bool begin) {
        edges.push_back({ev.machine, begin, tb.eng.now(), sim::current_lane()});
      });

  // Each probe asks the fabric, on machine `dst`'s lane, whether a message
  // from the faulted machine `src` is lost at exactly `at`.
  struct Probe {
    fl::MachineId src, dst;
    sim::Time at;
    bool after_plan;
    int dropped = -1;
  };
  std::vector<Probe> probes;
  for (const bool after_plan : {false, true})
    for (const fl::MachineId src : {kDown, kLossy})
      for (const fl::MachineId dst : {0u, 2u, 5u, 7u})
        for (const sim::Time at : {t, t + window})
          probes.push_back({src, dst, at, after_plan});
  auto schedule_probes = [&](bool after_plan) {
    for (Probe& p : probes) {
      if (p.after_plan != after_plan) continue;
      tb.eng.schedule_on(p.dst + 1, p.at, [&tb, &p] {
        p.dropped = tb.cluster.fabric().dropped(p.src, kPort, p.dst, kPort);
      });
    }
  };

  schedule_probes(/*after_plan=*/false);
  fl::FaultPlan plan;
  plan.link_down(t, window, kDown, kPort)
      .loss_burst(t, window, kLossy, kPort, 1.0);
  tb.cluster.inject(plan);
  schedule_probes(/*after_plan=*/true);
  tb.eng.run();

  for (const Probe& p : probes) {
    // Before the plan's events: the onset is not yet visible at t, the
    // lift not yet at t + window. After them: both are.
    const bool in_window = p.at == t ? p.after_plan : !p.after_plan;
    EXPECT_EQ(p.dropped, in_window ? 1 : 0)
        << "src " << p.src << " dst " << p.dst << " at " << p.at
        << (p.after_plan ? " (after plan)" : " (before plan)");
  }

  ASSERT_EQ(edges.size(), 4u);
  for (const Edge& e : edges) {
    EXPECT_EQ(e.lane, e.machine + 1);
    EXPECT_EQ(e.at, e.begin ? t : t + window);
  }
  for (const fl::MachineId m : {kDown, kLossy})
    for (const bool begin : {true, false})
      EXPECT_EQ(std::count_if(edges.begin(), edges.end(),
                              [&](const Edge& e) {
                                return e.machine == m && e.begin == begin;
                              }),
                1);
  EXPECT_EQ(tb.cluster.injector().injected(), 2u);
  EXPECT_FALSE(tb.cluster.faults().active());
}

// ---------------------------------------------------------------------------
// Global loss path (net_loss_prob): coverage the pre-fault simulator lacked
// ---------------------------------------------------------------------------

TEST(LossPath, RcCompletesEverythingAndCountsRetransmits) {
  rdmasem::hw::ModelParams p;
  p.net_loss_prob = 0.2;
  Testbed tb(p);
  v::Buffer src(64), dst(4096);
  auto* lmr = tb.ctx[0]->register_buffer(src, 1);
  auto* rmr = tb.ctx[1]->register_buffer(dst, 1);
  auto conn = tb.connect(0, 1);
  std::memcpy(src.data(), "RRRRRRRR", 8);

  const int n = 100;
  run(tb, [](v::QueuePair* q, v::MemoryRegion* l, v::MemoryRegion* r,
             int count) -> sim::Task {
    for (int i = 0; i < count; ++i) {
      auto c = co_await q->execute(
          make_write(*l, 0, *r, static_cast<std::uint64_t>(i) * 8, 8));
      EXPECT_TRUE(c.ok());
    }
  }(conn.local, lmr, rmr, n));

  for (int i = 0; i < n; ++i)
    EXPECT_EQ(std::memcmp(dst.data() + i * 8, "RRRRRRRR", 8), 0) << i;
  EXPECT_GT(conn.local->retransmits(), 0u);
  EXPECT_EQ(tb.cluster.fabric().drops(), conn.local->retransmits());
  EXPECT_EQ(conn.local->state(), v::QpState::kRts);
}

// Bounded RC retries under loss, pinned to exact values: retransmits,
// the summed backoff, the failing WR's status and its completion time.
// A request leg that exhausts its retries lands on the responder's lane
// and takes the backoff hop home before the WR fails.
TEST(LossPath, BoundedRetriesPinned) {
  struct Outcome {
    int ok = 0;
    v::Completion failed;
  };
  auto drive = [](double loss) {
    rdmasem::hw::ModelParams p;
    p.net_loss_prob = loss;
    Testbed tb(p);
    v::Buffer src(4096), dst(4096);
    auto* lmr = tb.ctx[0]->register_buffer(src, 1);
    auto* rmr = tb.ctx[1]->register_buffer(dst, 1);
    auto cfg = tb.paper_qp();
    cfg.retry_cnt = 2;
    auto conn = tb.connect(0, 1, cfg, tb.paper_qp());
    Outcome out;
    // Alternating WRITEs and READs until the first one fails for good.
    run(tb, [](v::QueuePair* q, v::MemoryRegion* l, v::MemoryRegion* r,
               Outcome& o) -> sim::Task {
      for (int i = 0; i < 400; ++i) {
        const std::uint64_t off = static_cast<std::uint64_t>(i % 64) * 64;
        const v::Completion c =
            co_await q->execute(i % 2 == 0 ? make_write(*l, off, *r, off, 64)
                                           : make_read(*l, off, *r, off, 64));
        if (!c.ok()) {
          o.failed = c;
          co_return;
        }
        ++o.ok;
      }
    }(conn.local, lmr, rmr, out));
    return std::tuple{out.ok, out.failed.status, out.failed.completed_at,
                      conn.local->retransmits(),
                      tb.cluster.obs().backoff_ps.value()};
  };

  // Every message drops: the first WRITE is sent 1 + retry_cnt times,
  // backs off 8 + 16 us and fails home after the last 32 us timeout.
  EXPECT_EQ(drive(1.0), std::tuple(0, v::Status::kRetryExceeded,
                                   sim::Time{58107101}, std::uint64_t{2},
                                   std::uint64_t{sim::us(24)}));
  // Half the messages drop: a mix of healed legs, then exhaustion.
  EXPECT_EQ(drive(0.5), std::tuple(11, v::Status::kRetryExceeded,
                                   sim::Time{174151822}, std::uint64_t{11},
                                   std::uint64_t{sim::us(120)}));
}

// Every responder NAK reason and RNR exhaustion, pinned to exact values:
// the WR's status and completion time plus the RNR counters. RC sends the
// header-only NAK home; UC/UD drop the faulty packet and keep the local
// success they reported when it left the NIC. A NAKed WR never touches
// the responder's memory and leaves the QP in RTS.
TEST(NakPath, EveryReasonPinned) {
  enum class Rq : std::uint8_t { kNone, kSmall, kSrq };
  struct Case {
    const char* name;
    v::Opcode op;
    std::uint64_t remote_off = 0;
    std::uint32_t len = 8;
    bool bad_rkey = false;
    v::Transport tp = v::Transport::kRC;
    std::uint32_t rnr_retry = 0;
    Rq rq = Rq::kNone;
  };
  using Pin = std::tuple<v::Status, sim::Time, std::uint64_t, std::uint64_t>;
  auto drive = [](const Case& k) {
    Testbed tb;
    v::Buffer src(4096), dst(4096);
    std::memset(dst.data(), 0x5a, 4096);
    auto* lmr = tb.ctx[0]->register_buffer(src, 1);
    auto* rmr = tb.ctx[1]->register_buffer(dst, 1);
    auto cfg = tb.paper_qp();
    cfg.transport = k.tp;
    cfg.rnr_retry = k.rnr_retry;
    auto rcfg = tb.paper_qp();
    rcfg.transport = k.tp;
    if (k.rq == Rq::kSrq) rcfg.srq = tb.ctx[1]->create_srq();
    auto conn = tb.connect(0, 1, cfg, rcfg);
    if (k.rq == Rq::kSmall)
      conn.remote->post_recv({1, {rmr->addr, k.len - 1, rmr->key}});
    v::WorkRequest wr;
    wr.opcode = k.op;
    wr.sg_list = {{lmr->addr, k.len, lmr->key}};
    wr.remote_addr = rmr->addr + k.remote_off;
    wr.rkey = k.bad_rkey ? rmr->key + 1000 : rmr->key;
    // The CAS would match the fill, so an atomic that ran despite its NAK
    // shows up as changed memory.
    wr.compare = 0x5a5a5a5a5a5a5a5aull;
    wr.swap_or_add = 1;
    if (k.tp == v::Transport::kUD || k.tp == v::Transport::kDc)
      wr.ud_dest = conn.remote;
    v::Completion c;
    run(tb, [](v::QueuePair* q, v::WorkRequest w,
               v::Completion& out) -> sim::Task {
      out = co_await q->execute(std::move(w));
    }(conn.local, std::move(wr), c));
    EXPECT_TRUE(std::all_of(dst.data(), dst.data() + 4096,
                            [](std::byte b) { return b == std::byte{0x5a}; }))
        << k.name;
    EXPECT_EQ(conn.local->state(), v::QpState::kRts) << k.name;
    if (!c.ok() && (k.op == v::Opcode::kCompSwap ||
                    k.op == v::Opcode::kFetchAdd)) {
      EXPECT_EQ(c.atomic_old, v::kPoisonedAtomicOld) << k.name;
    }
    return Pin{c.status, c.completed_at, tb.cluster.obs().rnr_naks.value(),
               tb.cluster.obs().srq_rnr.value()};
  };

  using S = v::Status;
  using O = v::Opcode;
  using T = v::Transport;
  const std::pair<Case, Pin> cases[] = {
      {{"write bad rkey", O::kWrite, 0, 64, true},
       {S::kRemoteAccessError, 1926501, 0, 0}},
      {{"write out of range", O::kWrite, 4090, 64},
       {S::kRemoteAccessError, 1926501, 0, 0}},
      {{"read bad rkey", O::kRead, 0, 64, true},
       {S::kRemoteAccessError, 1823200, 0, 0}},
      {{"read out of range", O::kRead, 4000, 200},
       {S::kRemoteAccessError, 1823200, 0, 0}},
      {{"faa out of range", O::kFetchAdd, 4092},
       {S::kRemoteAccessError, 1828000, 0, 0}},
      {{"cas bad rkey", O::kCompSwap, 0, 8, true},
       {S::kRemoteAccessError, 1828000, 0, 0}},
      {{"faa misaligned", O::kFetchAdd, 4},
       {S::kRemoteInvalidRequest, 1828000, 0, 0}},
      {{"cas short result sge", O::kCompSwap, 0, 4},
       {S::kRemoteInvalidRequest, 1828000, 0, 0}},
      {{"dc cas misaligned", O::kCompSwap, 12, 8, false, T::kDc},
       {S::kRemoteInvalidRequest, 1948000, 0, 0}},
      {{"send recv too small", O::kSend, 0, 64, false, T::kRC, 0, Rq::kSmall},
       {S::kRemoteInvalidRequest, 1926501, 0, 0}},
      {{"send rnr retry 0", O::kSend, 0, 64},
       {S::kRnrRetryExceeded, 1926501, 0, 0}},
      {{"send rnr retry 2", O::kSend, 0, 64, false, T::kRC, 2},
       {S::kRnrRetryExceeded, 11005301, 2, 0}},
      {{"srq rnr retry 0", O::kSend, 0, 64, false, T::kRC, 0, Rq::kSrq},
       {S::kRnrRetryExceeded, 1926501, 0, 1}},
      {{"srq rnr retry 2", O::kSend, 0, 64, false, T::kRC, 2, Rq::kSrq},
       {S::kRnrRetryExceeded, 11005301, 2, 3}},
      {{"uc write bad rkey", O::kWrite, 0, 64, true, T::kUC},
       {S::kSuccess, 1387101, 0, 0}},
      {{"uc send recv too small", O::kSend, 0, 64, false, T::kUC, 0,
        Rq::kSmall},
       {S::kSuccess, 1387101, 0, 0}},
      {{"ud send rnr", O::kSend, 0, 64, false, T::kUD, 2},
       {S::kSuccess, 1387101, 0, 0}},
  };
  for (const auto& [k, pin] : cases) EXPECT_EQ(drive(k), pin) << k.name;
}

TEST(LossPath, UdDatagramsDropSilently) {
  rdmasem::hw::ModelParams p;
  p.net_loss_prob = 0.5;
  Testbed tb(p);
  v::Buffer sbuf(64), rbuf(1 << 14);
  auto* smr = tb.ctx[0]->register_buffer(sbuf, 1);
  auto* rmr = tb.ctx[1]->register_buffer(rbuf, 1);
  auto cfg = tb.paper_qp();
  cfg.transport = v::Transport::kUD;
  auto rcfg = cfg;
  cfg.cq = tb.ctx[0]->create_cq();
  rcfg.cq = tb.ctx[1]->create_cq();
  auto* sender = tb.ctx[0]->create_qp(cfg);
  auto* receiver = tb.ctx[1]->create_qp(rcfg);

  const int n = 100;
  for (int i = 0; i < n; ++i)
    receiver->post_recv({static_cast<std::uint64_t>(i) + 1,
                         {rmr->addr + static_cast<std::uint64_t>(i) * 64, 64,
                          rmr->key}});

  run(tb, [](v::QueuePair* s, v::QueuePair* d, v::MemoryRegion* l,
             int count) -> sim::Task {
    for (int i = 0; i < count; ++i) {
      v::WorkRequest wr;
      wr.opcode = v::Opcode::kSend;
      wr.sg_list = {{l->addr, 8, l->key}};
      wr.ud_dest = d;
      auto c = co_await s->execute(wr);
      EXPECT_TRUE(c.ok());  // UD completes locally even when dropped
    }
  }(sender, receiver, smr, n));

  int delivered = 0;
  while (receiver->config().cq->poll().has_value()) ++delivered;
  EXPECT_GT(delivered, n / 4);  // ~half land
  EXPECT_LT(delivered, n * 3 / 4);
  EXPECT_EQ(receiver->recv_queue_depth(),
            static_cast<std::size_t>(n - delivered));
  EXPECT_GT(tb.cluster.fabric().drops(), 0u);
}

TEST(LossPath, SameSeedSameTraceDifferentSeedDiverges) {
  auto trace = [](std::uint64_t seed) {
    rdmasem::hw::ModelParams p;
    p.net_loss_prob = 0.2;
    Testbed tb(p);
    tb.eng.seed(seed);
    v::Buffer src(64), dst(4096);
    auto* lmr = tb.ctx[0]->register_buffer(src, 1);
    auto* rmr = tb.ctx[1]->register_buffer(dst, 1);
    auto conn = tb.connect(0, 1);
    run(tb, [](v::QueuePair* q, v::MemoryRegion* l,
               v::MemoryRegion* r) -> sim::Task {
      for (int i = 0; i < 60; ++i)
        (void)co_await q->execute(
            make_write(*l, 0, *r, static_cast<std::uint64_t>(i) * 8, 8));
    }(conn.local, lmr, rmr));
    return std::tuple{tb.cluster.fabric().messages(),
                      tb.cluster.fabric().drops(),
                      conn.local->retransmits(), tb.eng.now()};
  };

  const auto a = trace(11);
  EXPECT_EQ(a, trace(11));    // byte-identical replay
  EXPECT_NE(a, trace(12));    // the seed is the only entropy source
}
