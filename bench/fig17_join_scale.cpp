// Fig. 17 — Join time vs data scale (paper: 2^24..2^26 tuples; scaled by
// default, override with RDMASEM_JOIN_SCALE_SHIFT for paper scale):
// single machine vs distributed configurations.
//
// Paper shape: all-optimizations is ~5.3x the single machine and ~10.3x a
// naive distributed run; the gap stays roughly constant across scales.

#include "bench_common.hpp"

namespace {

using namespace rdmasem;
using bench::FigureCollector;

FigureCollector collector(
    "Fig. 17  Join execution time vs data scale (seconds)",
    {"tuples", "single", "t4_l1_noNUMA", "t4_l1", "t4_l16", "t16_l16"});

std::string run_one(std::uint64_t tuples, bool distributed,
                    std::uint32_t execs, std::uint32_t batch, bool numa) {
  return util::fmt(bench::join_seconds({.tuples = tuples,
                                        .executors = execs,
                                        .batch_size = batch,
                                        .numa_aware = numa,
                                        .distributed = distributed}),
                   3);
}

void sweep() {
  // Paper sweeps 2^24..2^26; default scale-down keeps the same 4x spread.
  const auto shift = util::env_u64("RDMASEM_JOIN_SCALE_SHIFT", 16);
  for (std::uint64_t exp = shift; exp <= shift + 2; ++exp) {
    const std::uint64_t tuples = 1ull << exp;
    collector.add({"2^" + std::to_string(exp),
                   run_one(tuples, false, 1, 1, true),
                   run_one(tuples, true, 4, 1, false),
                   run_one(tuples, true, 4, 1, true),
                   run_one(tuples, true, 4, 16, true),
                   run_one(tuples, true, 16, 16, true)});
  }
}

}  // namespace

int main(int argc, char** argv) {
  return rdmasem::bench::run_main(argc, argv, collector, sweep);
}
