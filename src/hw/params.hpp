#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/time.hpp"

namespace rdmasem::hw {

using sim::Duration;
using sim::ns;
using sim::us;

// Default ConnectX-3 inline-send ceiling. Named (rather than a bare 256 in
// ModelParams) because the verbs payload staging sizes its in-frame inline
// arm to it.
inline constexpr std::size_t kMaxInlineDefault = 256;

// ModelParams — every timing constant in the simulator, in one place.
//
// The defaults are calibrated so that the testbed of the paper (dual-socket
// Xeon E5-2640 v2, ConnectX-3 40 Gbps, InfiniScale-IV switch) reproduces the
// paper's §II-B/§III anchor measurements (see DESIGN.md §6). Nothing else in
// the codebase hard-codes a nanosecond.
struct ModelParams {
  // ---- CPU ---------------------------------------------------------------
  // Building one work-queue entry in the send queue (stores + fences,
  // libibverbs bookkeeping). Charged per WR on the posting thread.
  Duration cpu_wqe_prep = ns(110);
  // CPU-visible cost of one MMIO doorbell (uncacheable write-combining
  // store + sfence on an E5-2640 v2). This is the per-doorbell cost that
  // doorbell batching amortizes (§III-A). The WQE is considered visible to
  // the RNIC when the post completes (BlueFlame-style for single posts).
  Duration cpu_mmio = ns(350);
  // Extra MMIO cost when the issuing core sits on the socket the RNIC is
  // NOT attached to (one QPI hop each way on the posted-write path).
  Duration cpu_mmio_alt_socket = ns(140);
  // CPU-side memcpy for SP gather: per-buffer fixed overhead + bandwidth.
  Duration cpu_memcpy_overhead = ns(20);
  double cpu_memcpy_gbps = 12.0;
  // Polling a completion queue entry out of host memory.
  Duration cpu_cq_poll = ns(40);
  // One hop through a shared-memory message queue between sockets (the
  // proxy-socket IPC of §III-D): a cache-line handoff across QPI.
  Duration cpu_ipc = ns(120);
  // One hash computation over a small key (applications).
  Duration cpu_hash = ns(18);
  // Generic per-tuple CPU touch cost in app inner loops.
  Duration cpu_tuple_work = ns(8);

  // ---- PCIe (gen3 x8 to the RNIC) ----------------------------------------
  double pcie_gbps = 7.9 * 8.0;  // ~7.9 GB/s usable
  // RNIC-initiated DMA read round trip for a descriptor / WQE fetch.
  // Paid per WQE of a doorbell batch; single posts push the WQE with the
  // doorbell (BlueFlame) and skip it.
  Duration pcie_dma_read_latency = ns(100);
  // DMA write posting latency (payload landing in host DRAM, or CQE write).
  Duration pcie_dma_write_latency = ns(90);
  // Additional DMA descriptor fetch for every scatter/gather element past
  // the first in a WQE (the RNIC walks the SGL with separate reads).
  Duration pcie_sge_fetch = ns(40);
  // Extra latency when the DMA target memory hangs off the other socket
  // (PCIe root -> QPI -> remote memory controller).
  Duration pcie_dma_alt_socket = ns(95);

  // ---- RNIC --------------------------------------------------------------
  // Send-side execution unit occupancy per WQE. 1/213ns = 4.69 MOPS,
  // the Fig. 1 small-write ceiling.
  Duration rnic_eu_write = ns(213);
  // Responder-side occupancy for serving a READ (DMA read of payload,
  // response packetization). 1/238ns = 4.20 MOPS, the Fig. 1 read ceiling.
  Duration rnic_eu_read = ns(238);
  // Receive-side processing per inbound packet (header parse, MR check).
  // Inbound translation-cache misses stall this unit.
  Duration rnic_rx_proc = ns(85);
  // SEND/RECV (channel semantics) extra receive cost: RQ WQE consumption
  // and CQE generation on the remote CPU path.
  Duration rnic_recv_extra = ns(120);
  // Atomic execution unit: serialized per port; 1/420ns = 2.38 MOPS,
  // the §III-E "2.2~2.5 MOPS" anchor.
  Duration rnic_atomic_unit = ns(420);
  // On-device SRAM metadata cache (shared by PTEs, QP state, MR state).
  std::size_t rnic_sram_entries = 1024;  // 1024 x 4 KB pages = 4 MB knee
  // Cost of servicing a metadata-cache miss: fetch the entry from host
  // DRAM over PCIe. Charged as extra execution-unit occupancy (the WQE
  // stalls the pipeline) plus PCIe usage.
  Duration rnic_mcache_miss = ns(210);
  // DC (dynamically-connected) transport: cost of the initiator-side
  // attach handshake when a WR burst begins and the DC context is not
  // resident — the half-handshake that materializes the connection state
  // on the device. Charged ON TOP of rnic_mcache_miss (the context fetch
  // itself) at the send-EU qp-touch point; the context is invalidated
  // again when the QP goes idle (docs/MODEL.md §9).
  Duration rnic_dc_attach = ns(120);
  // Weight of one cached object, in SRAM "entry" units.
  std::size_t rnic_weight_pte = 1;
  std::size_t rnic_weight_mr = 2;
  std::size_t rnic_weight_qp = 4;
  // Pages covered by one translation entry.
  std::size_t rnic_page_size = 4096;
  // Max SGEs a single WQE may carry (hardware limit).
  std::size_t rnic_max_sge = 32;
  // Max payload the NIC accepts as "inlined" in the WQE (skips one DMA).
  // The verbs payload-staging inline arm (verbs::PayloadBuf::kInlineBytes)
  // is sized to this default so every inline-eligible payload also stages
  // without touching the allocator; a static_assert in verbs/payload.cpp
  // keeps the two in sync.
  std::size_t rnic_max_inline = kMaxInlineDefault;
  // BlueFlame: single posts push the WQE with the doorbell and skip the
  // descriptor-fetch DMA. Disable for ablation.
  bool rnic_blueflame = true;

  // ---- Network (40 Gbps InfiniBand, one switch) ---------------------------
  double link_gbps = 40.0;
  // One-way propagation host->switch->host (cables + switch crossbar).
  Duration net_propagation = ns(100);
  // Per-hop switch processing.
  Duration net_switch_hop = ns(100);
  // Per-message wire overhead (headers, CRC) in bytes, added to payload
  // for serialization purposes.
  std::size_t net_header_bytes = 36;
  // ACK turn-around on the responder RNIC (RC reliability).
  Duration net_ack_proc = ns(40);
  // Packet loss probability (per message). RC retransmits after a
  // timeout; UC/UD silently drop. Default 0 (lossless IB fabric); raise
  // it for failure-injection experiments.
  double net_loss_prob = 0.0;
  // RC retransmission delay after the first lost packet (timeout +
  // resend). Consecutive losses of the same transfer back off
  // exponentially (doubling per attempt) up to rc_retransmit_cap.
  Duration rc_retransmit = us(8.0);
  Duration rc_retransmit_cap = us(512.0);
  // Receiver-not-ready pause before a SEND retransmit (QpConfig::rnr_retry).
  Duration rnr_timer = us(4.0);
  // Global-routing-header overhead carried by every UD datagram.
  std::size_t ud_grh_bytes = 40;
  // Payloads at or above this size move through host memory as streaming
  // DMA (bandwidth model); smaller ones through the row-buffer model.
  std::size_t dma_stream_threshold = 1024;
  // ---- Fabric topology. 0 machines-per-leaf keeps the paper's flat
  // single-switch fabric (every pair one crossbar away); > 0 arranges
  // machines into leaf groups of that size under a spine, and cross-leaf
  // messages pay net_spine_hop extra (leaf -> spine -> leaf: one more
  // crossbar plus two cable segments). The engine's per-lane-pair
  // lookahead (docs/PERF.md), which settle() and the home-lane sync
  // primitives route with, is derived from these per-pair latencies.
  std::uint32_t net_machines_per_leaf = 0;
  Duration net_spine_hop = ns(300);

  // ---- Host memory / NUMA (Table II anchors) ------------------------------
  Duration mem_local_latency = ns(92);
  Duration mem_remote_socket_latency = ns(162);
  double mem_local_gbps = 3.70 * 8.0;          // MLC single-thread numbers
  double mem_remote_socket_gbps = 2.27 * 8.0;
  // DRAM row-buffer model (drives local seq/rand asymmetry, Fig. 6c).
  Duration dram_line_hit = ns(10);    // access within the open cache line
  Duration dram_row_hit = ns(26);     // open row, new line
  Duration dram_row_miss = ns(76);    // precharge + activate
  std::size_t dram_row_bytes = 8192;
  std::size_t dram_line_bytes = 64;
  std::size_t dram_banks = 16;
  // Effective memory-level parallelism for pipelined access streams.
  std::uint32_t dram_mlp = 4;

  // ---- Cache coherence (local atomics, Fig. 10) ---------------------------
  // Uncontended locked RMW on an exclusive line.
  Duration coh_atomic_base = ns(8);
  // Added cost per concurrent contender on the same line (line ping-pong).
  // CAS pays the full exclusive-transfer storm; FAA degrades gracefully.
  Duration coh_atomic_per_contender = ns(55);
  Duration coh_faa_per_contender = ns(6);
  // Extra if the line's home is the other socket.
  Duration coh_cross_socket = ns(60);
  // Plain load on a contended line (spin-wait read).
  Duration coh_spin_read = ns(4);

  // ---- Topology ------------------------------------------------------------
  std::uint32_t sockets_per_machine = 2;
  std::uint32_t rnic_ports = 2;          // ConnectX-3 dual port
  std::uint32_t rnic_socket = 1;         // the paper: NIC on socket 1
  std::uint32_t machines = 8;

  // Named preset matching the paper's testbed (== the defaults).
  static ModelParams connectx3_cluster() { return ModelParams{}; }

  // Convenience: serialization time of `bytes` at `gbps`.
  static Duration ser_time(std::size_t bytes, double gbps) {
    return static_cast<Duration>(static_cast<double>(bytes) * 8.0 /
                                 gbps * static_cast<double>(sim::kNanosecond));
  }
  Duration wire_time(std::size_t payload) const {
    return ser_time(payload + net_header_bytes, link_gbps);
  }
  // Leaf switch of a machine under the two-tier topology (leaf 0 for the
  // flat single-switch default).
  std::uint32_t leaf_of(std::uint32_t machine) const {
    return net_machines_per_leaf == 0 ? 0 : machine / net_machines_per_leaf;
  }
  // One-way propagation + switching latency between two machines' NICs
  // (the serialization-free part of a message's flight time). This is the
  // per-pair quantity both the fabric's transit hop and the engine's
  // lookahead matrix are built from — keeping them one function means a
  // routed sync signal costs exactly the pair's fabric latency.
  Duration hop_latency(std::uint32_t src, std::uint32_t dst) const {
    Duration d = net_propagation + net_switch_hop;
    if (leaf_of(src) != leaf_of(dst)) d += net_spine_hop;
    return d;
  }
  Duration pcie_time(std::size_t bytes) const {
    return ser_time(bytes, pcie_gbps);
  }
  Duration memcpy_time(std::size_t bytes) const {
    return cpu_memcpy_overhead +
           ser_time(bytes, cpu_memcpy_gbps * 8.0);
  }
};

}  // namespace rdmasem::hw
