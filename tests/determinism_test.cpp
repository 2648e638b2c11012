// Seed-sweep determinism: a run is a pure function of (params, workload,
// seed). For every seed we execute the same workload twice in fresh
// clusters and require byte-identical observable output — the rendered
// StatsReport, the Chrome trace JSON, and every scalar the measurement
// layer produces. This is the acceptance gate for scheduler/allocator
// changes in sim/: any ordering drift in the engine shows up here as a
// one-byte diff.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "apps/dlog/dlog.hpp"
#include "cluster/stats.hpp"
#include "fault/fault.hpp"
#include "testbed.hpp"
#include "wl/microbench.hpp"

namespace v = rdmasem::verbs;
namespace sim = rdmasem::sim;
namespace fl = rdmasem::fault;
namespace dl = rdmasem::apps::dlog;
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
