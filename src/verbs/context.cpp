#include "verbs/context.hpp"

#include "util/assert.hpp"
#include "verbs/qp.hpp"
#include "verbs/srq.hpp"

namespace rdmasem::verbs {

Context::Context(cluster::Cluster& cluster, cluster::MachineId machine)
    : cluster_(cluster), machine_(cluster.machine(machine)) {}

Context::~Context() = default;

MemoryRegion* Context::register_buffer(Buffer& buf, hw::SocketId socket) {
  RDMASEM_CHECK_MSG(buf.size() > 0, "empty registration");
  RDMASEM_CHECK_MSG(socket < params().sockets_per_machine, "bad socket");
  RDMASEM_CHECK_MSG(mrs_.size() < ~std::uint32_t{0}, "MR keys exhausted");
  auto mr = std::make_unique<MemoryRegion>();
  mr->key = static_cast<std::uint32_t>(mrs_.size() + 1);
  mr->addr = cluster_.next_mr_addr(buf.size());
  mr->length = buf.size();
  mr->socket = socket;
  mr->data = buf.data();
  MemoryRegion* out = mr.get();
  mrs_.push_back(std::move(mr));
  ++mr_count_;
  return out;
}

void Context::deregister(std::uint32_t key) {
  const MemoryRegion* mr = lookup(key);
  if (mr == nullptr) return;
  machine_.rnic().invalidate_mr(key, mr->addr, mr->length);
  mrs_[key - 1].reset();
  --mr_count_;
}

CompletionQueue* Context::create_cq() {
  cqs_.push_back(std::make_unique<CompletionQueue>(engine()));
  return cqs_.back().get();
}

QueuePair* Context::create_qp(const QpConfig& cfg) {
  RDMASEM_CHECK_MSG(cfg.port < machine_.rnic().port_count(), "bad port");
  RDMASEM_CHECK_MSG(cfg.core_socket < params().sockets_per_machine,
                    "bad core socket");
  RDMASEM_CHECK_MSG(cfg.srq == nullptr || &cfg.srq->context() == this,
                    "SRQ belongs to a different Context");
  qps_.push_back(std::make_unique<QueuePair>(*this, cfg, cluster_.next_qp_id()));
  return qps_.back().get();
}

SharedReceiveQueue* Context::create_srq() {
  srqs_.push_back(std::make_unique<SharedReceiveQueue>(
      *this, static_cast<std::uint32_t>(srqs_.size() + 1)));
  return srqs_.back().get();
}

void Context::connect(QueuePair& a, QueuePair& b) {
  RDMASEM_CHECK_MSG(a.peer_ == nullptr && b.peer_ == nullptr,
                    "QP already connected");
  RDMASEM_CHECK_MSG(a.state_ == QpState::kReset && b.state_ == QpState::kReset,
                    "connect needs both QPs in RESET");
  a.peer_ = &b;
  b.peer_ = &a;
  // The simulator collapses the INIT/RTR handshake: both ends go
  // ready-to-send in one step.
  a.state_ = QpState::kRts;
  b.state_ = QpState::kRts;
}

}  // namespace rdmasem::verbs
