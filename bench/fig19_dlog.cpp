// Fig. 19 — Distributed log throughput vs batch size (1..32) for 4/7/14
// transaction engines, with and without NUMA awareness.
//
// Paper shape: batch 32 reaches ~9.1x the unbatched throughput (7 engines);
// NUMA-awareness adds ~14% at 14 engines; ~17.7 MOPS peak.

#include "bench_common.hpp"

namespace {

using namespace rdmasem;
using bench::FigureCollector;

FigureCollector collector(
    "Fig. 19  Distributed log (MOPS vs batch size)",
    {"batch", "4eng*", "7eng*", "14eng*", "4eng", "7eng", "14eng"});

std::string run_log(std::uint32_t engines, std::uint32_t batch, bool numa) {
  const double mops = bench::dlog_mops(
      {.engines = engines,
       .records_per_engine = util::env_u64("RDMASEM_DLOG_RECORDS", 2048),
       .batch_size = batch,
       .numa_aware = numa},
      [](wl::Rig& rig, auto&) { bench::absorb(rig.cluster); });
  bench::point_mops(std::to_string(engines) + "eng" + (numa ? "" : "*"),
                    std::to_string(batch), mops);
  return util::fmt(mops);
}

void sweep() {
  for (const std::uint32_t batch : {1, 2, 4, 8, 16, 32}) {
    std::vector<std::string> row{std::to_string(batch)};
    for (const bool numa : {false, true})
      for (const std::uint32_t engines : {4, 7, 14})
        row.push_back(run_log(engines, batch, numa));
    collector.add(std::move(row));
  }
}

}  // namespace

int main(int argc, char** argv) {
  return rdmasem::bench::run_main(argc, argv, collector, sweep);
}
