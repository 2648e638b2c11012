// Fig. 19 — Distributed log throughput vs batch size (1..32) for 4/7/14
// transaction engines, with and without NUMA awareness.
//
// Paper shape: batch 32 reaches ~9.1x the unbatched throughput (7 engines);
// NUMA-awareness adds ~14% at 14 engines; ~17.7 MOPS peak.

#include "apps/dlog/dlog.hpp"
#include "bench_common.hpp"

namespace {

using namespace rdmasem;
namespace dl = apps::dlog;
using bench::FigureCollector;

FigureCollector collector(
    "Fig. 19  Distributed log (MOPS vs batch size)",
    {"batch", "4eng*", "7eng*", "14eng*", "4eng", "7eng", "14eng"});

double run_log(std::uint32_t engines, std::uint32_t batch, bool numa) {
  wl::Rig rig;
  dl::Config cfg;
  cfg.engines = engines;
  cfg.records_per_engine = util::env_u64("RDMASEM_DLOG_RECORDS", 2048);
  cfg.batch_size = batch;
  cfg.numa_aware = numa;
  dl::DistributedLog log(rig.contexts(), cfg);
  const auto r = log.run();
  RDMASEM_CHECK_MSG(log.verify_dense_and_intact(), "log corrupted");
  bench::absorb(rig.cluster);
  bench::point_mops(std::to_string(engines) + "eng" + (numa ? "" : "*"),
                    std::to_string(batch), r.mops);
  return r.mops;
}

void sweep() {
  const std::uint32_t engines[3] = {4, 7, 14};
  for (const std::uint32_t batch : {1, 2, 4, 8, 16, 32}) {
    double v[6] = {};
    for (int i = 0; i < 3; ++i) v[i] = run_log(engines[i], batch, false);
    for (int i = 0; i < 3; ++i) v[3 + i] = run_log(engines[i], batch, true);
    collector.add({std::to_string(batch), util::fmt(v[0]), util::fmt(v[1]),
                   util::fmt(v[2]), util::fmt(v[3]), util::fmt(v[4]),
                   util::fmt(v[5])});
  }
}

}  // namespace

int main(int argc, char** argv) {
  return rdmasem::bench::run_main(argc, argv, collector, sweep);
}
