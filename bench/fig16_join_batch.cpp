// Fig. 16 — Distributed join:
//   (a) execution time vs batch size (1..32), theta in {4,16}, +/- NUMA
//   (b) 1/time vs executor count vs the ideal linear-scaling line,
//       unbatched and batch 4/16.
//
// Paper shape: batching cuts time by up to ~37%; NUMA-awareness by
// 12-30%; batch 16 stays within ~22% of ideal scaling.

#include "apps/join/join.hpp"
#include "bench_common.hpp"

namespace {

using namespace rdmasem;
namespace jn = apps::join;
using bench::FigureCollector;

FigureCollector collector(
    "Fig. 16  Distributed join: batch size (a) and thread scaling (b)",
    {"panel", "x", "config", "seconds", "inv_seconds"});

jn::Result run_join_cfg(std::uint32_t executors, std::uint32_t batch,
                        bool numa) {
  wl::Rig rig;
  jn::Config cfg;
  cfg.tuples = util::env_u64("RDMASEM_JOIN_TUPLES", 1 << 17);
  cfg.executors = executors;
  cfg.batch_size = batch;
  cfg.numa_aware = numa;
  const auto r = jn::run_join(rig.contexts(), cfg);
  RDMASEM_CHECK_MSG(r.verified(), "join produced wrong match count");
  return r;
}

void add_row(const char* panel, std::uint32_t x, const std::string& config,
             double secs) {
  collector.add({panel, std::to_string(x), config, util::fmt(secs, 3),
                 util::fmt(1.0 / secs, 3)});
}

// Panel a runs batch innermost, then theta, then NUMA; panel b runs
// executors innermost, then batch: the committed table's row order.
void sweep() {
  for (const bool numa : {false, true})
    for (const std::uint32_t theta : {4, 16})
      for (const std::uint32_t batch : {1, 2, 4, 8, 16, 32})
        add_row("a:batch", batch,
                std::string(numa ? "NUMA" : "noNUMA") +
                    ",theta=" + std::to_string(theta),
                run_join_cfg(theta, batch, numa).seconds);
  for (const std::uint32_t batch : {1, 4, 16})
    for (const std::uint32_t execs : {1, 2, 4, 8, 12, 16})
      add_row("b:threads", execs,
              batch <= 1 ? "w/o batch" : "lambda=" + std::to_string(batch),
              run_join_cfg(execs, batch, true).seconds);
}

}  // namespace

int main(int argc, char** argv) {
  return rdmasem::bench::run_main(argc, argv, collector, sweep);
}
