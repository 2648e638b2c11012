// Quickstart: bring up a simulated two-machine RDMA pair and use the
// memory-semantic verbs — WRITE, READ, FETCH_ADD — plus the batch and
// consolidation helpers from the remem library.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>
#include <cstring>

#include "remem/batch.hpp"
#include "sim/task.hpp"
#include "wl/rig.hpp"

using namespace rdmasem;

namespace {

sim::Task demo(wl::Rig& rig, verbs::QueuePair* qp, verbs::MemoryRegion* lmr,
               verbs::MemoryRegion* rmr, verbs::Buffer& local,
               verbs::Buffer& remote, bool& ok) {
  // Every completion must succeed and every byte land where it was sent.
  // `ok` is set only once the demo has run to its end.
  bool good = true;
  auto check = [&good](bool cond) { good = good && cond; };

  // --- one-sided WRITE: push bytes into the remote machine's memory ----
  static constexpr char kMsg[] = "hello, remote memory!";
  std::memcpy(local.data(), kMsg, sizeof kMsg);
  auto wc = co_await qp->execute(wl::make_write(*lmr, 0, *rmr, 64, 22));
  std::printf("WRITE  : status=%s, %u bytes, remote now holds \"%s\"\n",
              verbs::to_string(wc.status), wc.byte_len,
              reinterpret_cast<const char*>(remote.data() + 64));
  check(wc.ok() && std::memcmp(remote.data() + 64, kMsg, sizeof kMsg) == 0);

  // --- one-sided READ: pull them back somewhere else ------------------
  auto rc = co_await qp->execute(wl::make_read(*lmr, 1024, *rmr, 64, 22));
  std::printf("READ   : status=%s, local copy    \"%s\"\n",
              verbs::to_string(rc.status),
              reinterpret_cast<const char*>(local.data() + 1024));
  check(rc.ok() && std::memcmp(local.data() + 1024, kMsg, sizeof kMsg) == 0);

  // --- one-sided FETCH_ADD: a remote sequencer in three lines ---------
  verbs::WorkRequest faa;
  faa.opcode = verbs::Opcode::kFetchAdd;
  faa.sg_list = {{lmr->addr + 2048, 8, lmr->key}};
  faa.remote_addr = rmr->addr;  // counter word at remote offset 0
  faa.rkey = rmr->key;
  faa.swap_or_add = 1;
  for (int i = 0; i < 3; ++i) {
    const sim::Time posted = rig.eng.now();
    auto ac = co_await qp->execute(faa);
    std::printf("FAA    : ticket %llu (latency %.2f us)\n",
                static_cast<unsigned long long>(ac.atomic_old),
                sim::to_us(ac.completed_at - posted));
    check(ac.ok() && ac.atomic_old == static_cast<std::uint64_t>(i));
  }

  // --- vector IO: gather three scattered pieces with one SGL write ----
  std::memcpy(local.data() + 100, "AAA", 3);
  std::memcpy(local.data() + 300, "BBB", 3);
  std::memcpy(local.data() + 500, "CCC", 3);
  remem::Batcher sgl(*qp, remem::BatchMode::kSgl);
  std::vector<remem::BatchItem> items = {
      {{lmr->addr + 100, 3, lmr->key}, 0},
      {{lmr->addr + 300, 3, lmr->key}, 0},
      {{lmr->addr + 500, 3, lmr->key}, 0},
  };
  auto sc = co_await sgl.flush(verbs::Opcode::kWrite, items, rmr->addr + 256,
                               rmr->key);
  std::printf("SGL    : status=%s, remote gathered \"%.9s\"\n",
              verbs::to_string(sc.status),
              reinterpret_cast<const char*>(remote.data() + 256));
  check(sc.ok() && std::memcmp(remote.data() + 256, "AAABBBCCC", 9) == 0);

  std::printf("\nsimulated time elapsed: %.2f us\n",
              sim::to_us(rig.eng.now()));
  ok = good;
}

}  // namespace

int main() {
  // An eight-machine simulated cluster calibrated to the paper's testbed
  // (dual-socket Xeon + ConnectX-3 @ 40 Gbps).
  wl::Rig rig;

  // Register 8 KB of RDMA-accessible memory on each side (socket 1, where
  // the NIC lives).
  verbs::Buffer local(8192), remote(8192);
  auto* lmr = rig.ctx[0]->register_buffer(local, 1);
  auto* rmr = rig.ctx[1]->register_buffer(remote, 1);

  // One reliable connection between machine 0 and machine 1.
  auto conn = rig.connect(0, 1);

  bool ok = false;
  rig.eng.spawn(demo(rig, conn.local, lmr, rmr, local, remote, ok));
  rig.eng.run();
  std::printf("verify : %s\n", ok ? "OK" : "MISMATCH");
  return ok ? 0 : 1;
}
