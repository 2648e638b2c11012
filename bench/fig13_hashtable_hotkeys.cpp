// Fig. 13 — Consolidation sensitivity in the disaggregated hashtable:
//   (a) throughput vs hot-key proportion (1/4 .. 1/32)
//   (b) throughput vs consolidation batch size theta (1 .. 16)
//
// Paper shape: (a) degrades gently (~6 MOPS drop from 1/4 to 1/32);
// (b) grows sublinearly with theta.

#include <map>
#include <utility>

#include "bench_common.hpp"

namespace {

using namespace rdmasem;
using bench::FigureCollector;

FigureCollector collector(
    "Fig. 13  Hashtable consolidation: hot proportion (a) and theta (b)",
    {"panel", "x", "MOPS"});

// Both panels run 6 front-ends on the optimized table; their shared
// (hot 1/4, theta 16) point is simulated once.
void sweep() {
  std::map<std::pair<std::uint32_t, std::uint32_t>, double> mops;
  auto run = [&mops](std::uint32_t hot_denom, std::uint32_t theta) {
    auto [it, fresh] = mops.try_emplace({hot_denom, theta});
    if (fresh)
      it->second = bench::hashtable_mops({.hot_fraction = 1.0 / hot_denom,
                                          .numa_aware = true,
                                          .consolidate = true,
                                          .theta = theta},
                                         6, 300);
    return util::fmt(it->second);
  };
  for (const std::uint32_t denom : {4, 8, 16, 32})
    collector.add({"a:hot-prop", "1/" + std::to_string(denom), run(denom, 16)});
  for (const std::uint32_t theta : {1, 2, 4, 8, 16})
    collector.add({"b:theta", std::to_string(theta), run(4, theta)});
}

}  // namespace

int main(int argc, char** argv) {
  return rdmasem::bench::run_main(argc, argv, collector, sweep);
}
