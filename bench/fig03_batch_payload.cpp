// Fig. 3 — Vector-IO batch strategies (Doorbell / SGL / SP / Local) vs
// payload size, batch sizes 4 and 16, one-to-one connection.
//
// Paper shape: flat below ~128 B; SGL/SP decay linearly as payload grows;
// Doorbell stays flat (and low). Local = batched local memory writes.

#include "bench_common.hpp"
#include "hw/dram.hpp"

namespace {

using namespace rdmasem;
using bench::FigureCollector;

FigureCollector collector(
    "Fig. 3  Batch strategies vs payload size (MOPS, batch 4 and 16)",
    {"size", "batch", "Doorbell", "SGL", "SP", "Local"});

// Local baseline: batched local memory writes (writev-style) through the
// DRAM model.
double local_mops(std::uint32_t size, std::uint32_t batch,
                  std::uint64_t reps) {
  hw::ModelParams p;
  hw::DramModel dram(p);
  sim::Duration total = 0;
  std::uint64_t addr = 0;
  for (std::uint64_t i = 0; i < reps; ++i) {
    // One syscall-ish overhead per writev, then `batch` scattered writes.
    total += p.cpu_memcpy_overhead * 4;
    for (std::uint32_t b = 0; b < batch; ++b) {
      total += dram.access(addr, size, hw::DramModel::Op::kWrite);
      addr += 4096;
    }
  }
  return static_cast<double>(batch) * static_cast<double>(reps) /
         sim::to_us(total);
}

// One (size, batch) point: Doorbell, SGL and SP on fresh rigs, then the
// local baseline.
void run_point(std::uint32_t size, std::uint32_t batch) {
  const std::uint64_t reps = bench::micro_ops(2000) / batch + 1;
  auto remote = [&](remem::BatchMode mode) {
    return bench::batcher_mops(mode, size, batch, 1, reps);
  };
  const double db = remote(remem::BatchMode::kDoorbell);
  const double sgl = remote(remem::BatchMode::kSgl);
  const double sp = remote(remem::BatchMode::kSp);
  const double local = local_mops(size, batch, reps);
  collector.add({util::fmt_bytes(size), std::to_string(batch),
                 util::fmt(db), util::fmt(sgl), util::fmt(sp),
                 util::fmt(local)});
}

// Batch outer, size inner: the committed table's row order.
void sweep() {
  for (const std::uint32_t batch : {4, 16})
    for (const std::uint32_t size :
         {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048})
      run_point(size, batch);
}

}  // namespace

int main(int argc, char** argv) {
  return rdmasem::bench::run_main(argc, argv, collector, sweep);
}
