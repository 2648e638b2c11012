// Fig. 10 — local vs remote vs RPC atomic primitives vs thread count:
//   (a) spinlock (lock-unlock pairs/s), with and without exponential
//       backoff for the remote lock
//   (b) sequencer (tickets/s)
//
// Paper shape: local collapses hardest under contention (cache-line
// ping-pong); remote degrades least and backoff holds it up; remote
// sequencer flat at ~2.4-2.6 MOPS; RPC lowest (server-CPU-bound).

#include <deque>
#include <type_traits>

#include "bench_common.hpp"
#include "remem/atomics.hpp"
#include "remem/rpc.hpp"

namespace {

using namespace rdmasem;
using bench::FigureCollector;

FigureCollector collector(
    "Fig. 10  Atomic primitives vs thread count (MOPS)",
    {"threads", "lock:local", "lock:remote", "lock:remote+bo", "lock:rpc",
     "seq:local", "seq:remote", "seq:rpc"});

constexpr int kOpsPerThread = 400;

// One thread's closed loop: kOpsPerThread ops, then its end time.
template <typename Op>
sim::Task thread_loop(wl::Rig& rig, Op op, sim::Time& end) {
  for (int i = 0; i < kOpsPerThread; ++i) co_await op();
  end = std::max(end, rig.eng.now());
}

// One point on a fresh rig: primitive P is built, then each thread t in
// turn gets its op from P::client(rig, t) (one lock-unlock pair or one
// ticket) and is spawned. Returns ops per simulated microsecond.
template <typename P, typename... Args>
double ops_per_us(std::uint32_t threads, Args... args) {
  wl::Rig rig;
  P primitive(rig, threads, args...);
  sim::Time end = 0;
  for (std::uint32_t t = 0; t < threads; ++t)
    rig.eng.spawn(thread_loop(rig, primitive.client(rig, t), end));
  rig.eng.run();
  bench::absorb(rig.cluster);
  return static_cast<double>(threads) * kOpsPerThread / sim::to_us(end);
}

// Local primitives: one cache line on machine 0 (every thread counts as a
// contender on the sequencer's); thread t runs on socket t % 2.
template <bool kLock>
struct Local {
  std::conditional_t<kLock, remem::LocalSpinlock, remem::LocalSequencer> word;
  Local(wl::Rig& rig, std::uint32_t threads)
      : word(rig.eng, rig.cluster.machine(0), kLock ? 1 : 2) {
    if constexpr (!kLock)
      for (std::uint32_t t = 0; t < threads; ++t) word.add_contender();
  }
  auto client(wl::Rig&, std::uint32_t t) {
    return [this, sock = static_cast<hw::SocketId>(t % 2)]() -> sim::Task {
      if constexpr (kLock) {
        co_await word.lock(sock);
        co_await word.unlock(sock);
      } else {
        (void)co_await word.next(sock);
      }
    };
  }
};

// Remote primitives: the word lives in a 4 KiB buffer on machine 0
// (socket 1); thread t reaches it over its own QP from machine 1 + t % 7.
template <bool kLock>
struct Remote {
  verbs::Buffer mem{4096};
  verbs::MemoryRegion* mr;
  remem::BackoffPolicy backoff;
  std::deque<std::conditional_t<kLock, remem::RemoteLockClient,
                                remem::RemoteSequencer>>
      clients;
  Remote(wl::Rig& rig, std::uint32_t, bool exponential_backoff = false)
      : mr(rig.ctx[0]->register_buffer(mem, 1)),
        backoff(exponential_backoff ? remem::BackoffPolicy::exponential()
                                    : remem::BackoffPolicy::none()) {}
  auto client(wl::Rig& rig, std::uint32_t t) {
    auto& qp = *rig.connect(1 + t % 7, 0).local;
    if constexpr (kLock) {
      return [&l = clients.emplace_back(qp, backoff), m = mr]() -> sim::Task {
        co_await l.lock(m->addr, m->key);
        co_await l.unlock(m->addr, m->key);
      };
    } else {
      return [&s = clients.emplace_back(qp, mr->addr, mr->key)]()
                 -> sim::Task { (void)co_await s.next(); };
    }
  }
};

// RPC primitives: one lock/sequencer service on machine 0; thread t calls
// it from machine 1 + t % 7 over its own endpoint.
template <bool kLock>
struct Rpc {
  remem::RpcLockServiceState st;
  remem::RpcServer server;
  std::deque<remem::RpcClient> clients;
  Rpc(wl::Rig& rig, std::uint32_t)
      : server(*rig.ctx[0], [this](std::uint64_t op, std::uint64_t arg) {
          return st.handle(op, arg);
        }) {}
  auto client(wl::Rig& rig, std::uint32_t t) {
    auto& c = clients.emplace_back(*rig.ctx[1 + t % 7], rig.paper_qp());
    verbs::Context::connect(*server.add_endpoint(), *c.qp());
    return [&c]() -> sim::Task {
      if constexpr (kLock) {
        while (co_await c.call(remem::kRpcTryLock, 0) == 0) {
        }
        (void)co_await c.call(remem::kRpcUnlock, 0);
      } else {
        (void)co_await c.call(remem::kRpcSeqNext, 0);
      }
    };
  }
};

// The runs go in column order; their points follow, named by the header.
void sweep() {
  for (const std::uint32_t threads : {1, 2, 4, 6, 8, 10, 12, 14}) {
    const double mops[] = {ops_per_us<Local<true>>(threads),
                           ops_per_us<Remote<true>>(threads, false),
                           ops_per_us<Remote<true>>(threads, true),
                           ops_per_us<Rpc<true>>(threads),
                           ops_per_us<Local<false>>(threads),
                           ops_per_us<Remote<false>>(threads),
                           ops_per_us<Rpc<false>>(threads)};
    std::vector<std::string> row{std::to_string(threads)};
    for (std::size_t i = 0; i < std::size(mops); ++i) {
      bench::point_mops(collector.header()[1 + i], row[0], mops[i]);
      row.push_back(util::fmt(mops[i]));
    }
    collector.add(std::move(row));
  }
}

}  // namespace

int main(int argc, char** argv) {
  return rdmasem::bench::run_main(argc, argv, collector, sweep);
}
