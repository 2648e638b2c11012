// Extension — MR pressure (§II-B2): "with a large number of MRs the
// performance degrades greatly. We use 10x MRs; the access latency of
// 32 bytes drops about 60%." Many registered regions thrash the RNIC's
// SRAM (each MR costs a state entry + its translation entries).
//
// Sweep the MR count at fixed total footprint and measure 32 B write
// latency round-robin across the MRs.

#include "bench_common.hpp"
#include "sim/sync.hpp"

namespace {

using namespace rdmasem;
using bench::FigureCollector;

FigureCollector collector(
    "Ext. MR pressure: 32 B write latency vs registered-MR count",
    {"MRs", "lat_us", "vs_baseline", "server_mcache_hit"});

double latency_with_mrs(std::uint32_t mr_count, std::uint64_t ops,
                        double* hit) {
  wl::Rig rig;
  verbs::Buffer src(4096);
  auto* lmr = rig.ctx[0]->register_buffer(src, 1);
  // mr_count remote regions, one page each.
  std::vector<verbs::Buffer> bufs;
  std::vector<verbs::MemoryRegion*> mrs;
  bufs.reserve(mr_count);
  for (std::uint32_t i = 0; i < mr_count; ++i) {
    bufs.emplace_back(8192);
    mrs.push_back(rig.ctx[1]->register_buffer(bufs.back(), 1));
  }
  auto conn = rig.connect(0, 1);
  wl::ClientSpec spec;
  spec.qps = {conn.local};
  spec.window = 1;
  spec.ops_per_client = ops;
  std::uint64_t i = 0;
  spec.make_wr = [&](std::uint32_t, std::uint64_t) {
    auto* mr = mrs[i++ % mrs.size()];
    return wl::make_write(*lmr, 0, *mr, 0, 32);
  };
  const auto r = wl::run_closed_loop(rig.eng, spec);
  if (hit) *hit = rig.cluster.machine(1).rnic().mcache().hit_rate();
  return r.avg_latency_us;
}

// The first (64-MR) row is the baseline the others are relative to.
void sweep() {
  const std::uint64_t ops = bench::micro_ops(3000);
  double baseline = 0;
  for (const std::uint32_t mrs : {64, 128, 256, 640, 1280}) {
    double hit = 0;
    const double lat = latency_with_mrs(mrs, ops, &hit);
    if (mrs == 64) baseline = lat;
    collector.add({std::to_string(mrs), util::fmt(lat),
                   baseline > 0 ? util::fmt(lat / baseline) + "x" : "-",
                   util::fmt(hit, 3)});
  }
}

}  // namespace

int main(int argc, char** argv) {
  return rdmasem::bench::run_main(argc, argv, collector, sweep);
}
