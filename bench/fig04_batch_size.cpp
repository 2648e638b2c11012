// Fig. 4 — Throughput vs batch size (1..32), 32 B payload, plus local
// readv/writev baselines.
//
// Paper shape: SP and SGL scale strongly with batch size; Doorbell gains
// little (~2.5x over the whole range); SP tops out near ~44%/117% of the
// local write/read baselines.

#include "bench_common.hpp"
#include "hw/dram.hpp"

namespace {

using namespace rdmasem;
using bench::FigureCollector;

FigureCollector collector(
    "Fig. 4  Batch strategies vs batch size (32 B payload, MOPS)",
    {"batch", "Doorbell", "SGL", "SP", "Local-W", "Local-R"});

constexpr std::uint32_t kSize = 32;

double local_rw(bool write, std::uint32_t batch, std::uint64_t reps) {
  hw::ModelParams p;
  hw::DramModel dram(p);
  sim::Duration total = 0;
  std::uint64_t addr = 0;
  const auto op = write ? hw::DramModel::Op::kWrite : hw::DramModel::Op::kRead;
  for (std::uint64_t i = 0; i < reps; ++i) {
    total += p.cpu_memcpy_overhead * 4;  // one readv/writev call
    for (std::uint32_t b = 0; b < batch; ++b) {
      total += dram.access(addr, kSize, op);
      addr += 4096;
    }
  }
  return static_cast<double>(batch) * static_cast<double>(reps) /
         sim::to_us(total);
}

void sweep() {
  for (const std::uint32_t batch : {1, 2, 4, 8, 16, 32}) {
    const std::uint64_t reps = bench::micro_ops(4000) / batch + 1;
    auto remote = [&](remem::BatchMode mode) {
      return bench::batcher_mops(mode, kSize, batch, 1, reps);
    };
    const double db = remote(remem::BatchMode::kDoorbell);
    const double sgl = remote(remem::BatchMode::kSgl);
    const double sp = remote(remem::BatchMode::kSp);
    const double lw = local_rw(true, batch, reps);
    const double lr = local_rw(false, batch, reps);
    collector.add({std::to_string(batch), util::fmt(db), util::fmt(sgl),
                   util::fmt(sp), util::fmt(lw), util::fmt(lr)});
  }
}

}  // namespace

int main(int argc, char** argv) {
  return rdmasem::bench::run_main(argc, argv, collector, sweep);
}
