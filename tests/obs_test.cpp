#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "obs/bench_export.hpp"
#include "obs/hub.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "testbed.hpp"
#include "wl/microbench.hpp"

namespace obs = rdmasem::obs;
namespace sim = rdmasem::sim;
namespace v = rdmasem::verbs;
namespace wl = rdmasem::wl;
using rdmasem::test::Testbed;
using rdmasem::test::make_read;
using rdmasem::test::make_write;

// --- json helpers ----------------------------------------------------------

TEST(ObsJson, EscapeAndNum) {
  EXPECT_EQ(obs::json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
  EXPECT_EQ(obs::json_num(1.5, 2), "1.50");
  EXPECT_EQ(obs::json_num(0.0, 3), "0.000");
}

TEST(ObsJson, UsFromPsIsExactIntegerMath) {
  EXPECT_EQ(obs::us_from_ps(0), "0.000000");
  EXPECT_EQ(obs::us_from_ps(1), "0.000001");  // 1 ps = 1e-6 us
  EXPECT_EQ(obs::us_from_ps(1'000'000), "1.000000");
  EXPECT_EQ(obs::us_from_ps(1'234'567), "1.234567");
}

// --- metrics registry ------------------------------------------------------

TEST(MetricsRegistry, CounterRefsAreStableAndShared) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("x.events");
  obs::Counter& b = reg.counter("x.events");
  EXPECT_EQ(&a, &b);
  a.inc();
  b.inc(4);
  EXPECT_EQ(a.value(), 5u);
  EXPECT_DOUBLE_EQ(reg.read("x.events"), 5.0);
  EXPECT_TRUE(reg.has("x.events"));
  EXPECT_FALSE(reg.has("missing"));
  EXPECT_DOUBLE_EQ(reg.read("missing"), 0.0);
}

TEST(MetricsRegistry, GaugesArePolledAtReadTime) {
  obs::MetricsRegistry reg;
  double live = 1.0;
  reg.gauge("g", [&live] { return live; });
  EXPECT_DOUBLE_EQ(reg.read("g"), 1.0);
  live = 2.5;
  EXPECT_DOUBLE_EQ(reg.read("g"), 2.5);
}

TEST(MetricsRegistry, SampleBuildsSeriesAndExports) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("ops");
  reg.gauge("util", [] { return 0.5; });
  reg.histogram("lat").add(100);
  c.inc(3);
  reg.sample(sim::us(1));
  c.inc(2);
  reg.sample(sim::us(2));
  EXPECT_EQ(reg.sample_count(), 2u);

  const std::string j = reg.json();
  EXPECT_NE(j.find("\"ops\""), std::string::npos);
  EXPECT_NE(j.find("\"util\""), std::string::npos);
  EXPECT_NE(j.find("\"lat\""), std::string::npos);
  EXPECT_NE(j.find("\"series\""), std::string::npos);
}

TEST(MetricsRegistry, ExportIsDeterministic) {
  auto build = [] {
    obs::MetricsRegistry reg;
    reg.counter("b").inc(2);
    reg.counter("a").inc(1);
    reg.gauge("z", [] { return 1.25; });
    reg.sample(sim::us(3));
    return reg.json();
  };
  EXPECT_EQ(build(), build());
}

// --- tracer ----------------------------------------------------------------

TEST(Tracer, DisabledRecordsNothing) {
  obs::Tracer t;
  t.span(obs::Stage::kExec, 0, 100, 1, 1, 0, 0);
  EXPECT_TRUE(t.spans().empty());
  t.set_enabled(true);
  t.span(obs::Stage::kExec, 0, 100, 1, 1, 0, 0);
  EXPECT_EQ(t.spans().size(), 1u);
}

TEST(Tracer, CapacityCapCountsDrops) {
  obs::Tracer t;
  t.set_enabled(true);
  t.set_capacity(2);
  for (int i = 0; i < 5; ++i) t.instant(obs::Stage::kCqe, i, i, 1, 0, 0);
  EXPECT_EQ(t.spans().size(), 2u);
  EXPECT_EQ(t.dropped(), 3u);
  t.clear();
  EXPECT_TRUE(t.spans().empty());
  EXPECT_EQ(t.dropped(), 0u);

  // The cap is per tracer, not per lane: spans and attribution spans
  // recorded on three lanes of one cluster share it.
  Testbed tb;
  auto& ct = tb.cluster.obs().tracer;
  ct.set_enabled(true);
  ct.set_capacity(4);
  for (const std::uint32_t lane : {1u, 2u, 3u})
    for (int i = 0; i < 2; ++i)
      tb.eng.schedule_on(lane, sim::Time(i), [&ct, i] {
        ct.instant(obs::Stage::kCqe, i, i, 1, 0, 0);
        ct.attr(obs::Tracer::kResWire, i, i, i, i, 1, 0, 0, 0);
      });
  tb.eng.run();
  EXPECT_EQ(ct.spans().size(), 4u);
  EXPECT_EQ(ct.dropped(), 2u);
  EXPECT_EQ(ct.attr_spans().size(), 4u);
  EXPECT_EQ(ct.attr_dropped(), 2u);
}

// Spans with equal begin export in lane order, then in record order within
// a lane, whatever order the lanes recorded them in.
TEST(Tracer, EqualBeginsExportInLaneThenRecordOrder) {
  Testbed tb;
  auto& t = tb.cluster.obs().tracer;
  t.set_enabled(true);
  const sim::Time at = sim::us(1);
  // (lane, wr_id, begin) in record order; events on one timestamp run in
  // scheduling order.
  const std::vector<std::tuple<std::uint32_t, std::uint64_t, sim::Time>> recs{
      {3, 1, 500}, {1, 2, 500}, {2, 3, 500}, {3, 4, 500},
      {2, 5, 100}, {1, 6, 900}, {1, 7, 500}};
  for (const auto& [lane, wr, begin] : recs)
    tb.eng.schedule_on(lane, at, [&t, wr = wr, begin = begin] {
      t.span(obs::Stage::kExec, begin, begin + 10, wr, 1, 0, 0);
      t.attr(obs::Tracer::kResWire, begin, begin, begin + 10, wr, 1, 0, 0, 0);
    });
  tb.eng.run();

  const std::vector<std::uint64_t> want{5, 2, 7, 3, 1, 4, 6};
  std::vector<std::uint64_t> got, got_attr;
  for (const auto& s : t.spans()) got.push_back(s.wr_id);
  for (const auto& a : t.attr_spans()) got_attr.push_back(a.wr_id);
  EXPECT_EQ(got, want);
  EXPECT_EQ(got_attr, want);
  got.clear();
  for (const auto& s : t.drain()) got.push_back(s.wr_id);
  EXPECT_EQ(got, want);
  EXPECT_TRUE(t.spans().empty());
  EXPECT_EQ(t.attr_spans().size(), want.size());
}

TEST(StageBreakdown, AddMergeAndRender) {
  obs::StageBreakdown a;
  a.add({0, 1000, 1, 1, 0, 0, obs::Stage::kExec, 0});
  a.add({0, 0, 1, 1, 0, 0, obs::Stage::kCqe, 0});  // instant: zero duration
  obs::StageBreakdown b;
  b.add({500, 2500, 2, 1, 0, 0, obs::Stage::kExec, 0});
  a.merge(b);
  EXPECT_EQ(a.spans, 3u);
  const auto exec = static_cast<std::size_t>(obs::Stage::kExec);
  EXPECT_EQ(a.rows[exec].count, 2u);
  EXPECT_EQ(a.rows[exec].total, 3000u);
  EXPECT_EQ(a.grand_total(), 3000u);
  const std::string r = a.render();
  EXPECT_NE(r.find("exec"), std::string::npos);
  EXPECT_NE(r.find("cqe"), std::string::npos);
  EXPECT_TRUE(obs::StageBreakdown{}.render().empty());
}

TEST(Tracer, ChromeJsonShape) {
  obs::Tracer t;
  t.set_enabled(true);
  t.span(obs::Stage::kWire, 1'000'000, 3'000'000, 7, 42, 3, 1);
  t.instant(obs::Stage::kCqe, 3'000'000, 7, 42, 3, 1);
  const std::string j = t.chrome_json();
  EXPECT_NE(j.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(j.find("\"name\": \"wire\""), std::string::npos);
  EXPECT_NE(j.find("\"cat\": \"READ\""), std::string::npos);  // opcode 1
  EXPECT_NE(j.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(j.find("\"dur\": 2.000000"), std::string::npos);
  EXPECT_NE(j.find("\"pid\": 3"), std::string::npos);
  EXPECT_NE(j.find("\"tid\": 42"), std::string::npos);
  EXPECT_NE(j.find("\"args\": {\"wr\": 7}"), std::string::npos);
}

// The obs layer cannot include verbs headers, so its default opcode naming
// duplicates verbs::Opcode. This pins the two enums together.
TEST(Tracer, OpcodeNamesMatchVerbsEnum) {
  auto cat_for = [](v::Opcode op) {
    obs::Tracer t;
    t.set_enabled(true);
    t.instant(obs::Stage::kCqe, 0, 1, 1, 0, static_cast<std::uint8_t>(op));
    const std::string j = t.chrome_json();
    const auto pos = j.find("\"cat\": \"") + 8;
    const auto end = j.find('"', pos);
    return j.substr(pos, end - pos);
  };
  EXPECT_EQ(cat_for(v::Opcode::kWrite), "WRITE");
  EXPECT_EQ(cat_for(v::Opcode::kRead), "READ");
  EXPECT_EQ(cat_for(v::Opcode::kCompSwap), "CMP_SWAP");
  EXPECT_EQ(cat_for(v::Opcode::kFetchAdd), "FETCH_ADD");
  EXPECT_EQ(cat_for(v::Opcode::kSend), "SEND");
  EXPECT_EQ(cat_for(v::Opcode::kRecv), "RECV");
}

// --- end-to-end through the simulated stack --------------------------------

namespace {

struct RunOutcome {
  sim::Time final_clock = 0;
  std::uint64_t fabric_messages = 0;
  std::uint64_t wr_posted = 0;
  std::uint64_t wr_completed = 0;
  std::string trace_json;
  obs::StageBreakdown breakdown;
};

RunOutcome run_writes(bool traced, std::uint64_t ops = 200) {
  Testbed tb;
  tb.cluster.obs().tracer.set_enabled(traced);
  v::Buffer src(4096), dst(4096);
  auto* lmr = tb.ctx[0]->register_buffer(src, 1);
  auto* rmr = tb.ctx[1]->register_buffer(dst, 1);
  auto conn = tb.connect(0, 1);
  wl::ClientSpec spec;
  spec.qps = {conn.local};
  spec.window = 8;
  spec.ops_per_client = ops;
  spec.make_wr = [&](std::uint32_t, std::uint64_t) {
    return make_write(*lmr, 0, *rmr, 0, 64);
  };
  (void)wl::run_closed_loop(tb.eng, spec);
  RunOutcome out;
  out.final_clock = tb.eng.now();
  out.fabric_messages = tb.cluster.fabric().messages();
  out.wr_posted = tb.cluster.obs().wr_posted.value();
  out.wr_completed = tb.cluster.obs().wr_completed.value();
  out.trace_json = tb.cluster.obs().tracer.chrome_json();
  out.breakdown = tb.cluster.obs().tracer.breakdown();
  return out;
}

}  // namespace

// The zero-cost contract: enabling tracing must not move the virtual
// clock by a single picosecond.
TEST(ObsEndToEnd, TracingIsTimelineInvisible) {
  const RunOutcome off = run_writes(false);
  const RunOutcome on = run_writes(true);
  EXPECT_EQ(off.final_clock, on.final_clock);
  EXPECT_EQ(off.fabric_messages, on.fabric_messages);
  EXPECT_EQ(off.wr_posted, on.wr_posted);
  EXPECT_EQ(off.wr_completed, on.wr_completed);
  EXPECT_TRUE(off.breakdown.spans == 0);
  EXPECT_GT(on.breakdown.spans, 0u);
}

// Two identical runs must serialize to byte-identical trace files.
TEST(ObsEndToEnd, TraceBytesAreDeterministic) {
  const RunOutcome a = run_writes(true);
  const RunOutcome b = run_writes(true);
  ASSERT_FALSE(a.trace_json.empty());
  EXPECT_EQ(a.trace_json, b.trace_json);
}

TEST(ObsEndToEnd, CountersAndStagesCoverTheWorkload) {
  const std::uint64_t ops = 200;
  const RunOutcome r = run_writes(true, ops);
  EXPECT_EQ(r.wr_posted, ops);
  EXPECT_EQ(r.wr_completed, ops);
  // Every WR leaves a full pipeline: post span, doorbell + cqe instants,
  // and the wire stage exactly once (no retransmits on a clean fabric).
  auto count = [&r](obs::Stage s) {
    return r.breakdown.rows[static_cast<std::size_t>(s)].count;
  };
  EXPECT_EQ(count(obs::Stage::kPost), ops);
  EXPECT_EQ(count(obs::Stage::kDoorbell), ops);
  // BlueFlame is on in the calibrated params, so the descriptor-ring
  // fetch is elided for directly posted WRs.
  EXPECT_EQ(count(obs::Stage::kWqeFetch), 0u);
  EXPECT_EQ(count(obs::Stage::kExec), ops);
  EXPECT_EQ(count(obs::Stage::kLocalDma), ops);  // payload gather
  EXPECT_EQ(count(obs::Stage::kWire), ops);
  EXPECT_EQ(count(obs::Stage::kRemoteRx), ops);
  EXPECT_EQ(count(obs::Stage::kRemoteDram), ops);
  EXPECT_EQ(count(obs::Stage::kResponse), ops);
  EXPECT_EQ(count(obs::Stage::kCqe), ops);
  // Interval stages accumulate real simulated time.
  EXPECT_GT(r.breakdown.grand_total(), 0u);
}

TEST(ObsEndToEnd, HubGaugesSeeTheFabric) {
  Testbed tb;
  v::Buffer src(4096), dst(4096);
  auto* lmr = tb.ctx[0]->register_buffer(src, 1);
  auto* rmr = tb.ctx[1]->register_buffer(dst, 1);
  auto conn = tb.connect(0, 1);
  wl::ClientSpec spec;
  spec.qps = {conn.local};
  spec.window = 4;
  spec.ops_per_client = 100;
  spec.make_wr = [&](std::uint32_t, std::uint64_t) {
    return make_write(*lmr, 0, *rmr, 0, 64);
  };
  (void)wl::run_closed_loop(tb.eng, spec);
  auto& m = tb.cluster.obs().metrics;
  EXPECT_DOUBLE_EQ(m.read("fabric.messages"),
                   static_cast<double>(tb.cluster.fabric().messages()));
  EXPECT_DOUBLE_EQ(m.read("fabric.drops"), 0.0);
  EXPECT_GT(m.read("m0.p1.eu_util"), 0.0);
  EXPECT_GT(m.read("m0.p1.eu_requests"), 0.0);
  // Latency histogram saw every completion.
  EXPECT_EQ(tb.cluster.obs().wr_latency_ns.count(), 100u);
  EXPECT_GT(tb.cluster.obs().wr_latency_ns.quantile_bound(0.5), 0u);
}

// A WR posted at virtual time 0 is timed like any other: t = 0 is a real
// doorbell instant, not "never posted".
TEST(ObsEndToEnd, WrPostedAtTimeZeroIsTimed) {
  for (const bool batch : {false, true}) {
    Testbed tb;
    v::Buffer src(4096), dst(4096);
    auto* lmr = tb.ctx[0]->register_buffer(src, 1);
    auto* rmr = tb.ctx[1]->register_buffer(dst, 1);
    auto conn = tb.connect(0, 1);
    if (batch)
      conn.local->post_send_batch(std::vector<v::WorkRequest>{
          make_write(*lmr, 0, *rmr, 0, 64), make_write(*lmr, 0, *rmr, 64, 64)});
    else
      conn.local->post_send(make_write(*lmr, 0, *rmr, 0, 64));
    tb.eng.run();
    EXPECT_EQ(tb.cluster.obs().wr_latency_ns.count(), batch ? 2u : 1u)
        << (batch ? "post_send_batch" : "post_send");
    EXPECT_GT(tb.cluster.obs().wr_latency_ns.quantile_bound(0.5), 0u);
  }
}

// The payload-staging counters are pure predicates of WR shape and the
// tuning knobs (never of free-list state), so exact values are asserted:
// one per route the datapath can take.
TEST(ObsEndToEnd, PayloadStagingCountersTrackRoutes) {
  Testbed tb;
  v::Buffer src(256 << 10), dst(256 << 10);
  auto* lmr = tb.ctx[0]->register_buffer(src, 1);
  auto* rmr = tb.ctx[1]->register_buffer(dst, 1);
  auto conn = tb.connect(0, 1);
  auto& hub = tb.cluster.obs();

  tb.eng.spawn([](Testbed& t, v::QueuePair* qp, v::MemoryRegion* l,
                  v::MemoryRegion* r) -> sim::Task {
    obs::Hub& h = t.cluster.obs();

    // Single-SGE cross-machine RC WRITE: borrowed view, no staging copy.
    (void)co_await qp->execute(make_write(*l, 0, *r, 0, 4096));
    EXPECT_EQ(h.zero_copy_wrs.value(), 1u);
    EXPECT_EQ(h.payload_pool_hits.value(), 0u);
    EXPECT_EQ(h.payload_pool_misses.value(), 0u);

    // Multi-SGE WRITE above the inline arm: staged through the pool.
    v::WorkRequest multi;
    multi.opcode = v::Opcode::kWrite;
    multi.sg_list = {{l->addr + 0, 512, l->key}, {l->addr + 512, 512, l->key}};
    multi.remote_addr = r->addr;
    multi.rkey = r->key;
    (void)co_await qp->execute(multi);
    EXPECT_EQ(h.zero_copy_wrs.value(), 1u);
    EXPECT_EQ(h.payload_pool_hits.value(), 1u);

    // READ: the response snapshot always stages (on the responder's
    // lane); 64 bytes fits the in-frame inline arm.
    (void)co_await qp->execute(make_read(*l, 0, *r, 0, 64));
    EXPECT_EQ(h.zero_copy_wrs.value(), 1u);
    EXPECT_EQ(h.payload_pool_hits.value(), 2u);
    EXPECT_EQ(h.payload_pool_misses.value(), 0u);

    // Multi-SGE WRITE beyond the pooled range (2 x 40 KB): heap, a miss.
    v::WorkRequest big;
    big.opcode = v::Opcode::kWrite;
    big.sg_list = {{l->addr + 0, 40 << 10, l->key},
                   {l->addr + (40 << 10), 40 << 10, l->key}};
    big.remote_addr = r->addr;
    big.rkey = r->key;
    (void)co_await qp->execute(big);
    EXPECT_EQ(h.payload_pool_misses.value(), 1u);
  }(tb, conn.local, lmr, rmr));
  tb.eng.run();

  EXPECT_EQ(hub.zero_copy_wrs.value(), 1u);
  EXPECT_EQ(hub.payload_pool_hits.value(), 2u);
  EXPECT_EQ(hub.payload_pool_misses.value(), 1u);
  // The counters export under their registry names.
  const std::string j = hub.metrics.json();
  EXPECT_NE(j.find("\"verbs.payload.zero_copy\""), std::string::npos);
  EXPECT_NE(j.find("\"verbs.payload.pool_hits\""), std::string::npos);
  EXPECT_NE(j.find("\"verbs.payload.pool_misses\""), std::string::npos);
}

// --- bench export ----------------------------------------------------------

TEST(BenchReport, JsonShapeAndDeterminism) {
  auto build = [] {
    obs::BenchReport r;
    r.set_name("unit");
    r.set_table("T", {"c1", "c2"}, {{"a", "1.0"}});
    obs::BenchRow row;
    row.series = "write";
    row.x = "64B";
    row.mops = 4.5;
    row.p50_us = 1.25;
    row.errors = 0;
    r.add(row);
    obs::StageBreakdown b;
    b.add({0, 2000, 1, 1, 0, 0, obs::Stage::kWire, 0});
    r.absorb(b);
    r.set_trace_file("trace_unit.json");
    return r.json();
  };
  const std::string j = build();
  EXPECT_NE(j.find("\"schema\": \"rdmasem-bench-v1\""), std::string::npos);
  EXPECT_NE(j.find("\"bench\": \"unit\""), std::string::npos);
  EXPECT_NE(j.find("\"series\": \"write\""), std::string::npos);
  EXPECT_NE(j.find("\"stage\": \"wire\""), std::string::npos);
  EXPECT_NE(j.find("\"trace_file\": \"trace_unit.json\""), std::string::npos);
  EXPECT_EQ(j, build());
}
