// Table II — local vs remote-socket DRAM latency/bandwidth (Intel MLC
// style, via the host memory model).
//
// Paper anchors: 92 ns / 3.70 GB/s local socket; 162 ns / 2.27 GB/s
// remote socket.

#include "bench_common.hpp"
#include "hw/dram.hpp"

namespace {

using namespace rdmasem;
using bench::FigureCollector;

FigureCollector collector(
    "Table II  Local vs remote socket DRAM (MLC-style)",
    {"type", "latency_ns", "bandwidth_GBps"});

void sweep() {
  for (const bool remote : {false, true}) {
    hw::ModelParams p;
    hw::DramModel dram(p);
    const double lat = sim::to_ns(dram.idle_latency(!remote));
    // Streaming bandwidth: time N MB of sequential traffic.
    const std::size_t chunk = 1 << 20;
    const int chunks = 64;
    sim::Duration total = 0;
    for (int i = 0; i < chunks; ++i) total += dram.stream(chunk, !remote);
    const double bw =
        static_cast<double>(chunk) * chunks / sim::to_sec(total) / 1e9;
    collector.add({remote ? "remote socket" : "local socket",
                   util::fmt(lat, 0), util::fmt(bw)});
  }
}

}  // namespace

int main(int argc, char** argv) {
  return rdmasem::bench::run_main(argc, argv, collector, sweep);
}
