// Fig. 6 — Sequential vs random access:
//   (a) RDMA Read throughput, src x dst patterns, vs payload size
//   (b) RDMA Write throughput, src x dst patterns, vs payload size
//   (c) local DRAM read/write seq vs rand
//   (d) 32 B random/seq writes vs registered-region size (4 KB .. 1 GB)
//
// Paper shape: seq-seq > mixed > rand-rand (write gap > 2x); no asymmetry
// below ~4 MB registered (the RNIC SRAM knee); local asymmetry ~2.9x.

#include "bench_common.hpp"
#include "hw/dram.hpp"

namespace {

using namespace rdmasem;
using bench::FigureCollector;

FigureCollector collector(
    "Fig. 6  Sequential vs random access (MOPS)",
    {"panel", "x", "seq-seq", "seq-rand", "rand-seq", "rand-rand"});

// (src_random, dst_random) patterned ops over `region`-sized MRs. Records
// a structured point under "<panel>:<pattern>" and folds the rig's
// observability state into the bench report.
double pattern_mops(const char* panel, const char* pattern,
                    const std::string& x, verbs::Opcode op, bool src_random,
                    bool dst_random, std::size_t region, std::uint32_t size,
                    std::uint64_t ops) {
  bench::MicroRig rig(region, region, 4);
  sim::Rng rng(13);
  std::uint64_t seq = 0;
  const std::uint64_t slots = region / size;
  wl::ClientSpec spec;
  spec.qps = rig.qps;
  spec.window = 16;
  spec.ops_per_client = ops;
  spec.make_wr = [&](std::uint32_t, std::uint64_t) {
    const std::uint64_t s = ++seq;
    const std::uint64_t src_off =
        (src_random ? rng.uniform(slots) : s % slots) * size;
    const std::uint64_t dst_off =
        (dst_random ? rng.uniform(slots) : s % slots) * size;
    return op == verbs::Opcode::kWrite
               ? wl::make_write(*rig.lmr, src_off, *rig.rmr, dst_off, size)
               : wl::make_read(*rig.lmr, src_off, *rig.rmr, dst_off, size);
  };
  const wl::BenchResult r = wl::run_closed_loop(rig.rig.eng, spec);
  bench::absorb(rig.rig.cluster);
  bench::point(std::string(panel) + ":" + pattern, x, r);
  return r.mops;
}

// One row of panels a, b and d: the four src x dst patterns.
void pattern_row(const char* panel, verbs::Opcode op, std::size_t region,
                 std::uint32_t size, const std::string& x) {
  const std::uint64_t ops = bench::micro_ops(4000);
  const double ss =
      pattern_mops(panel, "seq-seq", x, op, false, false, region, size, ops);
  const double sr =
      pattern_mops(panel, "seq-rand", x, op, false, true, region, size, ops);
  const double rs =
      pattern_mops(panel, "rand-seq", x, op, true, false, region, size, ops);
  const double rr =
      pattern_mops(panel, "rand-rand", x, op, true, true, region, size, ops);
  collector.add({panel, x, util::fmt(ss), util::fmt(sr), util::fmt(rs),
                 util::fmt(rr)});
}

// (c) Local DRAM seq vs rand.
void local_row(std::uint32_t size) {
  const std::uint64_t n = bench::micro_ops(20000);
  const std::uint64_t region = 1u << 30;
  auto run_local = [&](bool write, bool random) {
    hw::ModelParams p;
    hw::DramModel dram(p);
    sim::Rng rng(5);
    sim::Duration total = 0;
    std::uint64_t addr = 0;
    const auto op =
        write ? hw::DramModel::Op::kWrite : hw::DramModel::Op::kRead;
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t a =
          random ? rng.uniform(region / size) * size : (addr += size) % region;
      total += dram.access(a, size, op);
    }
    return static_cast<double>(n) / sim::to_us(total);
  };
  const double ws = run_local(true, false);
  const double wr = run_local(true, true);
  const double rs = run_local(false, false);
  const double rr = run_local(false, true);
  collector.add({"c:local", util::fmt_bytes(size), util::fmt(ws) + "/w",
                 util::fmt(rs) + "/r", util::fmt(wr) + "/w",
                 util::fmt(rr) + "/r"});
}

void sweep() {
  const std::size_t region = util::env_u64("RDMASEM_FIG6_REGION", 256u << 20);
  for (const std::uint32_t size : {1, 8, 64, 512, 2048, 8192})
    pattern_row("a:read", verbs::Opcode::kRead, region, size,
                util::fmt_bytes(size));
  for (const std::uint32_t size : {1, 8, 64, 512, 2048, 8192})
    pattern_row("b:write", verbs::Opcode::kWrite, region, size,
                util::fmt_bytes(size));
  for (const std::uint32_t size : {8, 64, 512, 4096}) local_row(size);
  // (d) 32 B writes vs registered-region size: 4 KB, 4 MB .. 1 GB.
  for (const std::size_t kb : {4, 4096, 16384, 65536, 262144, 1048576}) {
    const std::size_t r = kb << 10;
    pattern_row("d:region", verbs::Opcode::kWrite, r, 32, util::fmt_bytes(r));
  }
}

}  // namespace

int main(int argc, char** argv) {
  return rdmasem::bench::run_main(argc, argv, collector, sweep);
}
