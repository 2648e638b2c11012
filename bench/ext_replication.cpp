// Extension — one-sided log replication (§IV-A class III): sweep the
// replication factor and measure the append throughput cost plus the
// recovery guarantee. All replica writes are issued in parallel with the
// primary (Tailwind-style), so the marginal cost is bandwidth + the
// slowest copy, not extra round trips.

#include "bench_common.hpp"

namespace {

using namespace rdmasem;
using bench::FigureCollector;

FigureCollector collector(
    "Ext. log replication factor (7 engines, batch 16)",
    {"replicas", "MOPS", "vs_unreplicated", "replicas_identical"});

// The first (unreplicated) row is the baseline the others are relative to.
void sweep() {
  double base = 0;
  for (const std::uint32_t replicas : {1, 2, 3, 4}) {
    bool identical = false;
    const double mops = bench::dlog_mops(
        {.engines = 7,
         .records_per_engine = util::env_u64("RDMASEM_DLOG_RECORDS", 2048),
         .batch_size = 16,
         .replicas = replicas},
        [&identical](wl::Rig&, apps::dlog::DistributedLog& log) {
          identical = log.verify_replicas_identical();
        });
    if (replicas == 1) base = mops;
    collector.add({std::to_string(replicas), util::fmt(mops),
                   base > 0 ? util::fmt(mops / base) + "x" : "-",
                   identical ? "yes" : "NO"});
  }
}

}  // namespace

int main(int argc, char** argv) {
  return rdmasem::bench::run_main(argc, argv, collector, sweep);
}
