// Extension — ablations over the simulator's design-choice knobs called
// out in DESIGN.md:
//   * RNIC SRAM capacity (moves the Fig. 6d knee)
//   * BlueFlame WQE-with-doorbell (small-write latency)
//   * inline payloads (small-write latency)
//   * transport type (RC vs UC write latency; RC vs UD send latency)

#include "bench_common.hpp"

namespace {

using namespace rdmasem;
using bench::FigureCollector;

FigureCollector collector("Ext. ablations", {"knob", "setting", "metric",
                                             "value"});

double rand_write_mops(std::size_t sram_entries) {
  hw::ModelParams p;
  p.rnic_sram_entries = sram_entries;
  bench::MicroRig rig(64u << 20, 64u << 20, 4, p);
  sim::Rng rng(17);
  wl::ClientSpec spec;
  spec.qps = rig.qps;
  spec.window = 16;
  spec.ops_per_client = bench::micro_ops(3000);
  spec.make_wr = [&](std::uint32_t, std::uint64_t) {
    const std::uint64_t off = rng.uniform((64u << 20) / 32) * 32;
    return wl::make_write(*rig.lmr, 0, *rig.rmr, off, 32);
  };
  return wl::run_closed_loop(rig.rig.eng, spec).mops;
}

double small_write_lat(bool blueflame, bool inline_data) {
  hw::ModelParams p;
  p.rnic_blueflame = blueflame;
  bench::MicroRig rig(4096, 4096, 1, p);
  auto wr = wl::make_write(*rig.lmr, 0, *rig.rmr, 0, 32);
  wr.inline_data = inline_data;
  return rig.run(wr, 1, 500).avg_latency_us;
}

double transport_lat(verbs::Transport tp, verbs::Opcode op) {
  wl::Rig rig;
  verbs::Buffer src(4096), dst(4096);
  auto* lmr = rig.ctx[0]->register_buffer(src, 1);
  auto* rmr = rig.ctx[1]->register_buffer(dst, 1);
  auto cfg = rig.paper_qp();
  cfg.transport = tp;
  auto conn = rig.connect(0, 1, cfg, cfg);
  if (op == verbs::Opcode::kSend)
    for (int i = 0; i < 1024; ++i)
      conn.remote->post_recv({static_cast<std::uint64_t>(i),
                              {rmr->addr, 64, rmr->key}});
  wl::ClientSpec spec;
  spec.qps = {conn.local};
  spec.window = 1;
  spec.ops_per_client = 500;
  spec.make_wr = [&](std::uint32_t, std::uint64_t) {
    verbs::WorkRequest wr;
    wr.opcode = op;
    wr.sg_list = {{lmr->addr, 32, lmr->key}};
    if (op == verbs::Opcode::kWrite) {
      wr.remote_addr = rmr->addr;
      wr.rkey = rmr->key;
    }
    if (tp == verbs::Transport::kUD) wr.ud_dest = conn.remote;
    return wr;
  };
  return wl::run_closed_loop(rig.eng, spec).avg_latency_us;
}

void sweep() {
  for (const std::size_t entries : {256, 1024, 4096, 16384})
    collector.add({"sram_entries", std::to_string(entries),
                   "rand 32B write MOPS (64MB region)",
                   util::fmt(rand_write_mops(entries))});

  const double bf_inl = small_write_lat(true, true);
  const double bf = small_write_lat(true, false);
  const double plain = small_write_lat(false, false);
  collector.add({"fastpath", "blueflame+inline", "32B write lat us",
                 util::fmt(bf_inl)});
  collector.add({"fastpath", "blueflame", "32B write lat us",
                 util::fmt(bf)});
  collector.add({"fastpath", "wqe-fetch (no BF)", "32B write lat us",
                 util::fmt(plain)});

  using verbs::Opcode;
  using verbs::Transport;
  const double rc_w = transport_lat(Transport::kRC, Opcode::kWrite);
  const double uc_w = transport_lat(Transport::kUC, Opcode::kWrite);
  const double rc_s = transport_lat(Transport::kRC, Opcode::kSend);
  const double ud_s = transport_lat(Transport::kUD, Opcode::kSend);
  collector.add({"transport", "RC", "32B write lat us", util::fmt(rc_w)});
  collector.add({"transport", "UC", "32B write lat us", util::fmt(uc_w)});
  collector.add({"transport", "RC", "32B send lat us", util::fmt(rc_s)});
  collector.add({"transport", "UD", "32B send lat us", util::fmt(ud_s)});
}

}  // namespace

int main(int argc, char** argv) {
  return rdmasem::bench::run_main(argc, argv, collector, sweep);
}
