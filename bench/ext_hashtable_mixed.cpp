// Extension — mixed read/write workloads on the disaggregated hashtable.
// The paper evaluates 100% writes (Fig. 12); real KV front-ends serve
// YCSB-style mixes. Sweeps the write fraction and compares the basic
// table against the fully optimized one.
//
// Reads interact with consolidation in both directions: dirty hot blocks
// are served from the front-end's burst buffer (no network!), clean ones
// need a remote read, and cold reads pay version + slot round trips.

#include "bench_common.hpp"

namespace {

using namespace rdmasem;
using bench::FigureCollector;

FigureCollector collector(
    "Ext. hashtable mixed workloads (MOPS, 6 front-ends)",
    {"write_pct", "Basic", "Optimized", "speedup"});

double run_mixed(double write_fraction, bool optimized) {
  return bench::hashtable_mops(
      {.numa_aware = optimized, .consolidate = optimized}, 6, 500,
      write_fraction);
}

void sweep() {
  for (const int write_pct : {100, 50, 20, 5}) {
    const double wf = static_cast<double>(write_pct) / 100.0;
    const double basic = run_mixed(wf, false);
    const double opt = run_mixed(wf, true);
    collector.add({std::to_string(write_pct) + "%", util::fmt(basic),
                   util::fmt(opt), util::fmt(opt / basic) + "x"});
  }
}

}  // namespace

int main(int argc, char** argv) {
  return rdmasem::bench::run_main(argc, argv, collector, sweep);
}
