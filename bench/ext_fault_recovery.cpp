// Extension — fault recovery (docs/FAULTS.md): crash the host of dlog
// replica 0 mid-run and measure what the failover costs. Each engine's
// replica QP exhausts its bounded retry budget, flips to ERROR, and the
// engine drops the dead replica and keeps appending to the survivors —
// no acknowledged append is lost.
//
// Reported per retry budget (`failover_retry_cnt`):
//   MOPS        goodput of the whole run, crash included
//   vs_clean    that goodput relative to the same run without the crash
//   recovery_us virtual time from the crash to the first engine dropping
//               the dead replica (detection = retries + backoff)
//   failovers   engine->replica connections dropped (one per engine)

#include "apps/dlog/dlog.hpp"
#include "bench_common.hpp"
#include "fault/fault.hpp"

namespace {

using namespace rdmasem;
namespace dl = apps::dlog;
using bench::FigureCollector;

FigureCollector collector(
    "Ext. fault recovery (4 engines, 3 replicas, replica-0 host crash)",
    {"retry_cnt", "MOPS", "vs_clean", "recovery_us", "failovers", "intact",
     "survivor_ok"});

dl::Config base_config(std::uint32_t retry_cnt) {
  dl::Config cfg;
  cfg.engines = 4;
  cfg.records_per_engine = util::env_u64("RDMASEM_DLOG_RECORDS", 2048);
  cfg.batch_size = 8;
  cfg.replicas = 3;
  cfg.failover = true;
  cfg.failover_retry_cnt = retry_cnt;
  return cfg;
}

// retry_cnt == 0: clean rehearsal (no crash) — the baseline row and the
// source of the mid-run crash time for the rows that follow.
void sweep() {
  dl::Result clean;
  for (const std::uint32_t retry_cnt : {0, 1, 2, 3, 4, 6}) {
    const bool crash = retry_cnt > 0;
    const sim::Time crash_at = crash ? clean.elapsed / 2 : 0;
    wl::Rig rig;
    const auto cfg = base_config(crash ? retry_cnt : 3);
    if (crash) {
      fault::FaultPlan plan;
      plan.crash(crash_at, rig.cluster.size() - 1);  // replica 0's host
      rig.cluster.inject(plan);
    }
    dl::DistributedLog log(rig.contexts(), cfg);
    const dl::Result r = log.run();
    const bool intact = log.verify_dense_and_intact();
    const bool survivor_ok = !crash || log.recover_from_replica(1);
    if (!crash) clean = r;
    const double recovery_us =
        r.first_failover_at > crash_at
            ? sim::to_us(r.first_failover_at - crash_at)
            : 0;
    collector.add({crash ? std::to_string(retry_cnt) : "no crash",
                   util::fmt(r.mops),
                   clean.mops > 0 ? util::fmt(r.mops / clean.mops) + "x" : "-",
                   crash ? util::fmt(recovery_us) : "-",
                   std::to_string(r.failovers), intact ? "yes" : "NO",
                   survivor_ok ? "yes" : "NO"});
  }
}

}  // namespace

int main(int argc, char** argv) {
  return rdmasem::bench::run_main(argc, argv, collector, sweep);
}
