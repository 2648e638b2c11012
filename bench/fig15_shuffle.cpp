// Fig. 15 — Distributed shuffle: throughput vs executor count for Basic /
// +SGL(4) / +SGL(16) / +SP(4) / +SP(16).
//
// Paper shape: at 16 executors and batch 16, SGL/SP reach ~4.8x/5.8x the
// basic shuffle; SGL scales worse at large batch sizes.

#include "apps/shuffle/shuffle.hpp"
#include "bench_common.hpp"

namespace {

using namespace rdmasem;
namespace sh = apps::shuffle;
using bench::FigureCollector;

FigureCollector collector(
    "Fig. 15  Distributed shuffle (MOPS vs executors)",
    {"executors", "Basic", "+SGL(4)", "+SGL(16)", "+SP(4)", "+SP(16)"});

double run_shuffle(std::uint32_t executors, sh::BatchMode mode,
                   std::uint32_t batch) {
  wl::Rig rig;
  sh::Config cfg;
  cfg.executors = executors;
  cfg.entries_per_executor = util::env_u64("RDMASEM_SHUFFLE_ENTRIES", 6000);
  cfg.batch = mode;
  cfg.batch_size = batch;
  cfg.numa_aware = true;
  sh::Shuffle s(rig.contexts(), cfg);
  const auto r = s.run();
  RDMASEM_CHECK_MSG(s.received_checksum() == s.sent_checksum(),
                    "shuffle corrupted data");
  // Engine-profile drain only (not the full obs absorb): under
  // RDMASEM_PROF=1 the report carries the engine's host-time profile;
  // disabled snapshots are skipped, so unprofiled reports are unaffected.
  bench::engine_profile().absorb(rig.eng.drain_profile());
  return r.mops;
}

void sweep() {
  for (const std::uint32_t execs : {2, 4, 6, 8, 10, 12, 14, 16}) {
    const double basic = run_shuffle(execs, sh::BatchMode::kNone, 1);
    const double sgl4 = run_shuffle(execs, sh::BatchMode::kSgl, 4);
    const double sgl16 = run_shuffle(execs, sh::BatchMode::kSgl, 16);
    const double sp4 = run_shuffle(execs, sh::BatchMode::kSp, 4);
    const double sp16 = run_shuffle(execs, sh::BatchMode::kSp, 16);
    collector.add({std::to_string(execs), util::fmt(basic), util::fmt(sgl4),
                   util::fmt(sgl16), util::fmt(sp4), util::fmt(sp16)});
  }
}

}  // namespace

int main(int argc, char** argv) {
  return rdmasem::bench::run_main(argc, argv, collector, sweep);
}
