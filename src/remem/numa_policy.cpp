#include "remem/numa_policy.hpp"

#include <cstring>

#include "cluster/cluster.hpp"
#include "obs/hub.hpp"
#include "util/assert.hpp"

namespace rdmasem::remem {

ProxySocketRouter::ProxySocketRouter(sim::Engine& engine,
                                     const hw::ModelParams& p)
    : engine_(engine), p_(p) {
  routes_.resize(p.sockets_per_machine);
  for (auto& per_socket : routes_) per_socket.resize(p.machines);
}

ProxySocketRouter::~ProxySocketRouter() = default;

void ProxySocketRouter::add_route(hw::SocketId socket,
                                  std::uint32_t remote_machine,
                                  verbs::QueuePair* qp) {
  Route& r = routes_.at(socket).at(remote_machine);
  RDMASEM_CHECK_MSG(r.qp == nullptr, "route already registered");
  r.qp = qp;
  r.staging = verbs::Buffer(kSlotBytes * kSlots);
  // Staging lives on the proxy's socket: this is the point of the design.
  r.staging_mr = qp->context().register_buffer(r.staging, socket);
  r.inbox = std::make_unique<sim::Channel<Request>>(engine_);
  r.slot_sem = std::make_unique<sim::Semaphore>(engine_, kSlots);
  r.free_slots.reserve(kSlots);
  for (std::uint32_t s = 0; s < kSlots; ++s) r.free_slots.push_back(s);
  // The proxy worker belongs to the QP's machine: park it on that lane so
  // the whole request/response path stays lane-local.
  engine_.spawn_on(qp->context().machine().id() + 1, worker(&r));
}

ProxySocketRouter::Route* ProxySocketRouter::route_for(hw::SocketId socket,
                                                       std::uint32_t machine) {
  Route& r = routes_.at(socket).at(machine);
  RDMASEM_CHECK_MSG(r.qp != nullptr, "no route for (socket, machine)");
  return &r;
}

sim::Task ProxySocketRouter::serve_one(Route* route, Request req) {
  const verbs::Completion c = co_await route->qp->execute(std::move(req.wr));

  // READ/atomic results land in staging; copy them back to the caller's
  // buffers on the response hop.
  auto& ctx = route->qp->context();
  if (c.ok() && (req.original.opcode == verbs::Opcode::kRead ||
                 req.original.opcode == verbs::Opcode::kCompSwap ||
                 req.original.opcode == verbs::Opcode::kFetchAdd)) {
    const std::byte* src =
        route->staging.data() + req.slot * kSlotBytes;
    sim::Duration cpu = 0;
    for (const auto& sge : req.original.sg_list) {
      verbs::MemoryRegion* mr = ctx.lookup(sge.lkey);
      RDMASEM_CHECK(mr != nullptr);
      std::memcpy(mr->at(sge.addr), src, sge.length);
      src += sge.length;
      cpu += p_.memcpy_time(sge.length);
    }
    co_await sim::delay(engine_, cpu);
  }

  route->free_slots.push_back(req.slot);
  route->slot_sem->release();

  // Response hop back through the second shm queue.
  co_await sim::delay(engine_, p_.cpu_ipc);
  req.reply->push(c);
}

sim::Task ProxySocketRouter::worker(Route* route) {
  // Proxy-socket worker: drains its shm inbox forever (it parks on the
  // empty channel between bursts). Requests are pipelined — the worker
  // pays the dequeue cost and spawns the round trip, like a real proxy
  // thread keeping many WRs in flight.
  for (;;) {
    Request req = co_await route->inbox->pop();
    co_await sim::delay(engine_, p_.cpu_ipc / 2);
    engine_.spawn(serve_one(route, std::move(req)));
  }
}

sim::TaskT<verbs::Completion> ProxySocketRouter::submit(
    hw::SocketId caller_socket, hw::SocketId target_socket,
    std::uint32_t remote_machine, verbs::WorkRequest wr) {
  Route* route = route_for(target_socket, remote_machine);
  // All router state lives on the local machine's lane.
  co_await sim::settle(engine_, route->qp->context().machine().id() + 1);
  obs::Hub& hub = route->qp->context().cluster().obs();
  if (caller_socket == target_socket) {
    ++direct_;
    hub.proxy_direct.inc();
    co_return co_await route->qp->execute(std::move(wr));
  }
  ++proxied_;
  hub.proxy_hops.inc();
  auto& ctx = route->qp->context();
  const std::size_t total = wr.total_length();
  RDMASEM_CHECK_MSG(total <= kSlotBytes, "proxied WR exceeds staging slot");

  // Reserve a staging slot on the proxy's socket.
  co_await route->slot_sem->acquire();
  RDMASEM_CHECK(!route->free_slots.empty());
  const std::uint32_t slot = route->free_slots.back();
  route->free_slots.pop_back();

  Request req;
  req.original = wr;
  req.slot = slot;
  std::byte* dst = route->staging.data() + slot * kSlotBytes;

  if (wr.opcode == verbs::Opcode::kWrite ||
      wr.opcode == verbs::Opcode::kSend) {
    // Payload crosses with the message: gather into the staging slot.
    sim::Duration cpu = 0;
    std::size_t off = 0;
    for (const auto& sge : wr.sg_list) {
      verbs::MemoryRegion* mr = ctx.lookup(sge.lkey);
      RDMASEM_CHECK_MSG(mr != nullptr, "proxied WR: bad lkey");
      std::memcpy(dst + off, mr->at(sge.addr), sge.length);
      off += sge.length;
      cpu += p_.memcpy_time(sge.length);
    }
    co_await sim::delay(engine_, cpu);
  }
  // Rewrite the WR to use the staging slot (one contiguous SGE).
  req.wr = std::move(wr);
  req.wr.sg_list = {{route->staging_mr->addr + slot * kSlotBytes,
                     static_cast<std::uint32_t>(total ? total : 8),
                     route->staging_mr->key}};

  // Request hop into the proxy socket's inbox.
  co_await sim::delay(engine_, p_.cpu_ipc);
  sim::Channel<verbs::Completion> reply(engine_);
  req.reply = &reply;
  route->inbox->push(std::move(req));
  co_return co_await reply.pop();
}

}  // namespace rdmasem::remem
