// kv_cache: the paper's §IV-B scenario — a disaggregated hashtable whose
// storage lives on a memory blade (machine 0) while stateless front-ends
// on other machines serve a skewed, write-heavy workload purely with
// one-sided RDMA.
//
// Runs the same workload three times: basic, +NUMA-aware placement,
// +hot-entry consolidation, and prints the throughput ladder.

#include <cstdio>
#include <cstring>
#include <vector>

#include "apps/hashtable/hashtable.hpp"
#include "wl/rig.hpp"
#include "wl/zipf.hpp"

using namespace rdmasem;
namespace ht = apps::hashtable;

namespace {

double run_workload(bool numa, bool consolidate) {
  wl::Rig rig;
  ht::Config cfg;
  cfg.num_keys = 1 << 14;
  cfg.numa_aware = numa;
  cfg.consolidate = consolidate;
  ht::DisaggHashTable table(*rig.ctx[0], cfg);

  const std::uint32_t front_ends = 6, pipeline = 4;
  const std::uint64_t ops = 800;
  std::vector<std::unique_ptr<ht::FrontEnd>> fes;
  sim::Time end = 0;
  std::vector<std::byte> value(cfg.value_size);

  for (std::uint32_t i = 0; i < front_ends; ++i) {
    fes.push_back(table.add_front_end(*rig.ctx[1 + i % 7], i % 2));
    for (std::uint32_t w = 0; w < pipeline; ++w) {
      auto loop = [](wl::Rig& r, ht::FrontEnd& f, const ht::Config& c,
                     std::uint32_t id, std::uint64_t n,
                     std::vector<std::byte>& v, sim::Time& e) -> sim::Task {
        wl::ZipfGenerator zipf(c.num_keys, 0.99, id + 1);
        for (std::uint64_t k = 0; k < n; ++k) co_await f.put(zipf.next(), v);
        e = std::max(e, r.eng.now());
      };
      rig.eng.spawn(
          loop(rig, *fes.back(), cfg, i * pipeline + w, ops, value, end));
    }
  }
  rig.eng.run();
  return front_ends * pipeline * static_cast<double>(ops) / sim::to_us(end);
}

// Sets `ok` once the value read back equals the one put.
sim::Task sanity_get(ht::FrontEnd& fe, const ht::Config& cfg, bool& ok) {
  std::vector<std::byte> v(cfg.value_size);
  std::memcpy(v.data(), "cached-value", 12);
  co_await fe.put(12345, v);
  const auto got = co_await fe.get(12345);
  ok = got == v;
  std::printf("get(12345) after put -> \"%.12s\" (%zu bytes), %s\n",
              reinterpret_cast<const char*>(got.data()), got.size(),
              ok ? "OK" : "MISMATCH");
}

}  // namespace

int main() {
  std::printf("disaggregated KV cache: 6 front-ends x 4 in-flight requests,"
              " zipf(0.99), 100%% writes, 64 B values\n\n");

  const double basic = run_workload(false, false);
  std::printf("basic hashtable        : %6.2f MOPS\n", basic);
  const double numa = run_workload(true, false);
  std::printf("+ NUMA-aware placement : %6.2f MOPS (%.2fx)\n", numa,
              numa / basic);
  const double full = run_workload(true, true);
  std::printf("+ hot-entry reorder    : %6.2f MOPS (%.2fx)\n\n", full,
              full / basic);

  // Correctness spot-check on a fresh deployment.
  wl::Rig rig;
  ht::Config cfg;
  cfg.num_keys = 1 << 14;
  cfg.numa_aware = true;
  cfg.consolidate = true;
  ht::DisaggHashTable table(*rig.ctx[0], cfg);
  auto fe = table.add_front_end(*rig.ctx[1], 1);
  bool ok = false;
  rig.eng.spawn(sanity_get(*fe, cfg, ok));
  rig.eng.run();
  return ok ? 0 : 1;
}
