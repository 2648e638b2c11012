// Fig. 15 — Distributed shuffle: throughput vs executor count for Basic /
// +SGL(4) / +SGL(16) / +SP(4) / +SP(16).
//
// Paper shape: at 16 executors and batch 16, SGL/SP reach ~4.8x/5.8x the
// basic shuffle; SGL scales worse at large batch sizes.

#include "bench_common.hpp"

namespace {

using namespace rdmasem;
namespace sh = apps::shuffle;
using bench::FigureCollector;

FigureCollector collector(
    "Fig. 15  Distributed shuffle (MOPS vs executors)",
    {"executors", "Basic", "+SGL(4)", "+SGL(16)", "+SP(4)", "+SP(16)"});

std::string run_shuffle(std::uint32_t executors, sh::BatchMode mode,
                        std::uint32_t batch) {
  sh::Config cfg;
  cfg.executors = executors;
  cfg.entries_per_executor = util::env_u64("RDMASEM_SHUFFLE_ENTRIES", 6000);
  cfg.batch = mode;
  cfg.batch_size = batch;
  // Engine-profile drain only (not the full obs absorb): under
  // RDMASEM_PROF=1 the report carries the engine's host-time profile;
  // disabled snapshots are skipped, so unprofiled reports are unaffected.
  return util::fmt(bench::shuffle_mops(cfg, [](wl::Rig& rig, auto&) {
    bench::engine_profile().absorb(rig.eng.drain_profile());
  }));
}

void sweep() {
  for (const std::uint32_t execs : {2, 4, 6, 8, 10, 12, 14, 16})
    collector.add({std::to_string(execs),
                   run_shuffle(execs, sh::BatchMode::kNone, 1),
                   run_shuffle(execs, sh::BatchMode::kSgl, 4),
                   run_shuffle(execs, sh::BatchMode::kSgl, 16),
                   run_shuffle(execs, sh::BatchMode::kSp, 4),
                   run_shuffle(execs, sh::BatchMode::kSp, 16)});
}

}  // namespace

int main(int argc, char** argv) {
  return rdmasem::bench::run_main(argc, argv, collector, sweep);
}
