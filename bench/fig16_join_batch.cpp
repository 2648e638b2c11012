// Fig. 16 — Distributed join:
//   (a) execution time vs batch size (1..32), theta in {4,16}, +/- NUMA
//   (b) 1/time vs executor count vs the ideal linear-scaling line,
//       unbatched and batch 4/16.
//
// Paper shape: batching cuts time by up to ~37%; NUMA-awareness by
// 12-30%; batch 16 stays within ~22% of ideal scaling.

#include <map>
#include <tuple>

#include "bench_common.hpp"

namespace {

using namespace rdmasem;
using bench::FigureCollector;

FigureCollector collector(
    "Fig. 16  Distributed join: batch size (a) and thread scaling (b)",
    {"panel", "x", "config", "seconds", "inv_seconds"});

void add_row(const char* panel, std::uint32_t x, const std::string& config,
             double secs) {
  collector.add({panel, std::to_string(x), config, util::fmt(secs, 3),
                 util::fmt(1.0 / secs, 3)});
}

// Panel a runs batch innermost, then theta, then NUMA; panel b runs
// executors innermost, then batch: the committed table's row order.
// Panel b's points at 4 and 16 executors and batch 1/4/16 repeat panel-a
// NUMA configs: each distinct config is simulated once.
void sweep() {
  std::map<std::tuple<std::uint32_t, std::uint32_t, bool>, double> seconds;
  auto run = [&seconds](std::uint32_t execs, std::uint32_t batch, bool numa) {
    auto [it, fresh] = seconds.try_emplace({execs, batch, numa});
    if (fresh)
      it->second = bench::join_seconds(
          {.tuples = util::env_u64("RDMASEM_JOIN_TUPLES", 1 << 17),
           .executors = execs,
           .batch_size = batch,
           .numa_aware = numa});
    return it->second;
  };
  for (const bool numa : {false, true})
    for (const std::uint32_t theta : {4, 16})
      for (const std::uint32_t batch : {1, 2, 4, 8, 16, 32})
        add_row("a:batch", batch,
                std::string(numa ? "NUMA" : "noNUMA") +
                    ",theta=" + std::to_string(theta),
                run(theta, batch, numa));
  for (const std::uint32_t batch : {1, 4, 16})
    for (const std::uint32_t execs : {1, 2, 4, 8, 12, 16})
      add_row("b:threads", execs,
              batch <= 1 ? "w/o batch" : "lambda=" + std::to_string(batch),
              run(execs, batch, true));
}

}  // namespace

int main(int argc, char** argv) {
  return rdmasem::bench::run_main(argc, argv, collector, sweep);
}
