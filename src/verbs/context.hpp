#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/cluster.hpp"
#include "verbs/buffer.hpp"
#include "verbs/cq.hpp"
#include "verbs/types.hpp"

namespace rdmasem::verbs {

class QueuePair;
class SharedReceiveQueue;

// MemoryRegion — a registered slice of host memory. lkey == rkey == id
// (the simulator does not model protection-key randomization). The region
// remembers which NUMA socket its pages live on: all DMA cost accounting
// is derived from that.
struct MemoryRegion {
  std::uint32_t key = 0;
  std::uint64_t addr = 0;
  std::size_t length = 0;
  hw::SocketId socket = 0;
  std::byte* data = nullptr;

  bool contains(std::uint64_t a, std::size_t len) const {
    return a >= addr && len <= length && a - addr <= length - len;
  }
  std::byte* at(std::uint64_t a) { return data + (a - addr); }
  const std::byte* at(std::uint64_t a) const { return data + (a - addr); }
};

// QueuePair placement attributes (§III-D: which port, which core socket)
// and transport type (§II-A).
struct QpConfig {
  rnic::PortId port = 0;
  hw::SocketId core_socket = 0;   // socket of the CPU issuing doorbells
  CompletionQueue* cq = nullptr;  // send+recv completions
  std::uint32_t sq_depth = 4096;
  Transport transport = Transport::kRC;
  // RC reliability budget: packet-loss retransmissions per transfer leg
  // before the WR fails with kRetryExceeded and the QP enters ERROR.
  // kInfiniteRetry (7, the IBV sentinel) retries forever — the right
  // model for a lossy-but-alive fabric; bound it (1..6) when the workload
  // has a failover story and must detect dead peers.
  std::uint32_t retry_cnt = kInfiniteRetry;
  // Receiver-not-ready retries for SEND: each RNR NAK costs one wait of
  // ModelParams::rnr_timer before the retransmit. 0 fails fast with
  // kRnrRetryExceeded (the pre-fault behavior); kInfiniteRetry waits
  // until a RECV shows up.
  std::uint32_t rnr_retry = 0;
  // When set, arriving SENDs consume buffers from this shared pool
  // instead of the QP's private receive queue (ibv_srq semantics). The
  // QP then has no RQ of its own: post_recv() on it is an error. The
  // SRQ must belong to the same Context as the QP.
  SharedReceiveQueue* srq = nullptr;
};

// Context — the per-machine verbs endpoint (ibv_context + ibv_pd rolled
// into one). Owns memory regions, completion queues and queue pairs for
// one machine.
class Context {
 public:
  Context(cluster::Cluster& cluster, cluster::MachineId machine);
  ~Context();
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  // Registers `buf` as RDMA-accessible memory homed on `socket`. The
  // region's RDMA address comes from the cluster's simulated address
  // space (Cluster::next_mr_addr), never from the host pointer, so
  // registering one Buffer twice gives two disjoint address ranges over
  // the same bytes.
  MemoryRegion* register_buffer(Buffer& buf, hw::SocketId socket);
  // Keys are dense and never reused: the n-th registration gets key n.
  // Deregistering an unknown or already deregistered key is a no-op.
  void deregister(std::uint32_t key);
  // nullptr for key 0, keys never issued and deregistered keys.
  MemoryRegion* lookup(std::uint32_t key) {
    const std::size_t i = std::size_t{key} - 1;
    return i < mrs_.size() ? mrs_[i].get() : nullptr;
  }
  std::size_t mr_count() const { return mr_count_; }

  CompletionQueue* create_cq();
  QueuePair* create_qp(const QpConfig& cfg);
  SharedReceiveQueue* create_srq();

  // Wires two QPs into an RC connection (both directions).
  static void connect(QueuePair& a, QueuePair& b);

  cluster::Cluster& cluster() { return cluster_; }
  cluster::Machine& machine() { return machine_; }
  sim::Engine& engine() { return cluster_.engine(); }
  const hw::ModelParams& params() const { return cluster_.params(); }

  std::uint64_t next_wr_id() { return ++wr_id_; }

 private:
  cluster::Cluster& cluster_;
  cluster::Machine& machine_;
  std::uint64_t wr_id_ = 0;
  // Indexed by key - 1; a deregistered key leaves a null slot.
  std::vector<std::unique_ptr<MemoryRegion>> mrs_;
  std::size_t mr_count_ = 0;
  std::vector<std::unique_ptr<CompletionQueue>> cqs_;
  std::vector<std::unique_ptr<QueuePair>> qps_;
  std::vector<std::unique_ptr<SharedReceiveQueue>> srqs_;
};

}  // namespace rdmasem::verbs
