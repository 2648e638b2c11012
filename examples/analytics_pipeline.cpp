// analytics_pipeline: the paper's §IV-C/§IV-D scenario — a two-operator
// analytics job. Stage 1 shuffles two relations across the cluster with
// the SGL batch schedule; stage 2 joins each partition locally
// (build-probe over the from-scratch concurrent hash map).
//
// Prints per-stage simulated times and verifies the join output exactly.

#include <cstdio>

#include "apps/join/join.hpp"
#include "apps/shuffle/shuffle.hpp"
#include "wl/rig.hpp"

using namespace rdmasem;
namespace sh = apps::shuffle;
namespace jn = apps::join;

int main() {
  bool ok = true;
  // --- standalone shuffle: move 64 B records all-to-all ----------------
  {
    wl::Rig rig;
    sh::Config cfg;
    cfg.executors = 8;
    cfg.entries_per_executor = 4000;
    cfg.batch = sh::BatchMode::kSgl;
    cfg.batch_size = 16;
    sh::Shuffle shuffle(rig.contexts(), cfg);
    const auto r = shuffle.run();
    const bool sums_match =
        shuffle.received_checksum() == shuffle.sent_checksum();
    ok = sums_match;
    std::printf("shuffle: %llu entries in %.2f ms -> %.1f MOPS, checksum %s\n",
                static_cast<unsigned long long>(r.entries),
                sim::to_us(r.elapsed) / 1e3, r.mops,
                sums_match ? "OK" : "MISMATCH");
  }

  // --- the full join, single machine vs distributed --------------------
  jn::Config cfg;
  cfg.tuples = 1 << 17;
  cfg.executors = 8;
  cfg.batch_size = 16;

  wl::Rig rig_single;
  auto single_cfg = cfg;
  single_cfg.distributed = false;
  const auto single = jn::run_join(rig_single.contexts(), single_cfg);

  wl::Rig rig_dist;
  const auto dist = jn::run_join(rig_dist.contexts(), cfg);

  std::printf("\njoin over 2 x %llu tuples (exact expected matches: %llu)\n",
              static_cast<unsigned long long>(cfg.tuples),
              static_cast<unsigned long long>(dist.expected_matches));
  std::printf("  single machine : %.3f s  (matches %s)\n", single.seconds,
              single.verified() ? "OK" : "WRONG");
  std::printf("  distributed    : %.3f s  (partition %.3f s + build-probe"
              " %.3f s, matches %s)\n",
              dist.seconds, dist.partition_seconds,
              dist.build_probe_seconds, dist.verified() ? "OK" : "WRONG");
  std::printf("  speedup        : %.2fx\n", single.seconds / dist.seconds);
  return ok && single.verified() && dist.verified() ? 0 : 1;
}
