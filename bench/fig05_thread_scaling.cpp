// Fig. 5 — Per-thread throughput vs thread count (1..8), batch size 4,
// 32 B payload, all threads sharing one RNIC port.
//
// Paper shape: SP > SGL > Doorbell; SP/SGL lose ~25% per-thread from 1 to
// 8 threads, Doorbell loses ~60% (it spends one WQE per logical op, so the
// shared execution unit saturates first).

#include "bench_common.hpp"

namespace {

using namespace rdmasem;
using bench::FigureCollector;

FigureCollector collector(
    "Fig. 5  Per-thread MOPS vs thread count (batch 4, 32 B)",
    {"threads", "Doorbell", "SGL", "SP"});

constexpr std::uint32_t kSize = 32;
constexpr std::uint32_t kBatch = 4;

void sweep() {
  const std::uint64_t reps = bench::micro_ops(2000) / kBatch + 1;
  for (std::uint32_t threads = 1; threads <= 8; ++threads) {
    auto per_thread = [&](remem::BatchMode mode) {
      return bench::batcher_mops(mode, kSize, kBatch, threads, reps);
    };
    const double db = per_thread(remem::BatchMode::kDoorbell);
    const double sgl = per_thread(remem::BatchMode::kSgl);
    const double sp = per_thread(remem::BatchMode::kSp);
    collector.add({std::to_string(threads), util::fmt(db), util::fmt(sgl),
                   util::fmt(sp)});
  }
}

}  // namespace

int main(int argc, char** argv) {
  return rdmasem::bench::run_main(argc, argv, collector, sweep);
}
