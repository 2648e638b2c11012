// Fig. 12 — Disaggregated hashtable optimization breakdown: throughput vs
// front-end count for Basic / +NUMA / +Reorder(theta=4) / +Reorder(theta=16).
// Zipf(0.99) keys, 100% writes, 64 B values.
//
// Paper shape: +NUMA ~ +14% over basic; +Reorder peaks at ~1.85-2.7x,
// around 24 MOPS near 6 front-ends.

#include "bench_common.hpp"

namespace {

using namespace rdmasem;
using bench::FigureCollector;

FigureCollector collector(
    "Fig. 12  Disaggregated hashtable optimizations (MOPS vs front-ends)",
    {"front_ends", "Basic", "+NUMA", "+Reorder(t=4)", "+Reorder(t=16)"});

std::string run_config(std::uint32_t fes, bool numa, bool consolidate,
                  std::uint32_t theta) {
  return util::fmt(bench::hashtable_mops(
      {.numa_aware = numa, .consolidate = consolidate, .theta = theta}, fes,
      100));
}

void sweep() {
  for (const std::uint32_t fes : {1, 2, 4, 6, 8, 10, 12, 14})
    collector.add({std::to_string(fes), run_config(fes, false, false, 16),
                   run_config(fes, true, false, 16),
                   run_config(fes, true, true, 4),
                   run_config(fes, true, true, 16)});
}

}  // namespace

int main(int argc, char** argv) {
  return rdmasem::bench::run_main(argc, argv, collector, sweep);
}
