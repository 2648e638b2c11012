// Fig. 17 — Join time vs data scale (paper: 2^24..2^26 tuples; scaled by
// default, override with RDMASEM_JOIN_SCALE_SHIFT for paper scale):
// single machine vs distributed configurations.
//
// Paper shape: all-optimizations is ~5.3x the single machine and ~10.3x a
// naive distributed run; the gap stays roughly constant across scales.

#include "apps/join/join.hpp"
#include "bench_common.hpp"

namespace {

using namespace rdmasem;
namespace jn = apps::join;
using bench::FigureCollector;

FigureCollector collector(
    "Fig. 17  Join execution time vs data scale (seconds)",
    {"tuples", "single", "t4_l1_noNUMA", "t4_l1", "t4_l16", "t16_l16"});

double run_one(std::uint64_t tuples, bool distributed, std::uint32_t execs,
               std::uint32_t batch, bool numa) {
  wl::Rig rig;
  jn::Config cfg;
  cfg.tuples = tuples;
  cfg.distributed = distributed;
  cfg.executors = execs;
  cfg.batch_size = batch;
  cfg.numa_aware = numa;
  const auto r = jn::run_join(rig.contexts(), cfg);
  RDMASEM_CHECK_MSG(r.verified(), "join produced wrong match count");
  return r.seconds;
}

void sweep() {
  // Paper sweeps 2^24..2^26; default scale-down keeps the same 4x spread.
  const auto shift = util::env_u64("RDMASEM_JOIN_SCALE_SHIFT", 16);
  for (std::uint64_t exp = shift; exp <= shift + 2; ++exp) {
    const std::uint64_t tuples = 1ull << exp;
    const double single = run_one(tuples, false, 1, 1, true);
    const double naive = run_one(tuples, true, 4, 1, false);
    const double t4l1 = run_one(tuples, true, 4, 1, true);
    const double t4l16 = run_one(tuples, true, 4, 16, true);
    const double t16l16 = run_one(tuples, true, 16, 16, true);
    collector.add({"2^" + std::to_string(exp), util::fmt(single, 3),
                   util::fmt(naive, 3), util::fmt(t4l1, 3),
                   util::fmt(t4l16, 3), util::fmt(t16l16, 3)});
  }
}

}  // namespace

int main(int argc, char** argv) {
  return rdmasem::bench::run_main(argc, argv, collector, sweep);
}
