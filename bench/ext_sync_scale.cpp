// Extension — sync primitive scaling (docs/SYNC.md): the txkv flagship
// app under hot-key skew (zipf 0.99), swept over worker counts for every
// lock family. What the paper's §III-E microbenchmarks show for bare
// CAS/FAA words, this shows end to end: how the spinlock's retry storm,
// the backoff variant's damped storm, the MCS queue's FIFO handoffs and
// the lease's term-bounded grants translate into commit throughput and
// abort rate when an actual read-validate-write protocol sits on top.
//
// Reported per (lock, workers):
//   MOPS        committed txns + validated gets per simulated microsecond
//   abort_rate  aborts / (commits + aborts) — validation + fence failures
//   p50/p99 ns  lock-wait (request -> grant) from the virtual clock
//
// The BENCH json carries a "sync" section: per-point abort rates plus the
// merged lock-wait log2 histogram (validated by check_bench_json.py).

#include <cmath>

#include "apps/txkv/txkv.hpp"
#include "bench_common.hpp"

namespace {

using namespace rdmasem;
namespace kv = apps::txkv;
using bench::FigureCollector;

FigureCollector collector(
    "Ext. sync scaling (txkv, zipf 0.99, 16 keys, 50% gets)",
    {"lock", "workers", "MOPS", "abort_rate", "p50_wait_ns", "p99_wait_ns",
     "commits", "aborts"});

// Merged-across-runs lock-wait histogram + the per-point abort rows the
// json "sync" section carries.
struct SyncAgg {
  std::uint64_t buckets[util::Log2Histogram::kBuckets] = {};
  std::uint64_t count = 0;
  std::string abort_rows;

  void fold(const util::Log2Histogram& h) {
    for (std::size_t i = 0; i < util::Log2Histogram::kBuckets; ++i)
      buckets[i] += h.bucket(i);
    count += h.count();
  }
  std::uint64_t quantile_bound(double q) const {
    if (count == 0) return 0;
    auto target = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(count)));
    if (target == 0) target = 1;
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < util::Log2Histogram::kBuckets; ++i) {
      acc += buckets[i];
      if (acc >= target) return i == 0 ? 0 : (std::uint64_t{1} << i) - 1;
    }
    return ~std::uint64_t{0};
  }
  std::string json() const {
    std::string out = "{\n    \"abort_rates\": [" + abort_rows + "\n    ],\n";
    out += "    \"lock_wait_ns\": {\"count\": " + std::to_string(count) +
           ", \"p50_bound_ns\": " + std::to_string(quantile_bound(0.5)) +
           ", \"p99_bound_ns\": " + std::to_string(quantile_bound(0.99)) +
           ", \"buckets\": [";
    bool first = true;
    for (std::size_t i = 0; i < util::Log2Histogram::kBuckets; ++i) {
      if (buckets[i] == 0) continue;
      out += first ? "" : ", ";
      first = false;
      out += "{\"le_ns\": " +
             std::to_string(i == 0 ? 0 : (std::uint64_t{1} << i) - 1) +
             ", \"count\": " + std::to_string(buckets[i]) + "}";
    }
    out += "]}\n  }";
    return out;
  }
};

SyncAgg g_agg;

struct LockSeries {
  const char* name;
  kv::LockMode mode;
};

constexpr LockSeries kSeries[] = {
    {"spin", kv::LockMode::kSpin},
    {"spin+bo", kv::LockMode::kSpinBackoff},
    {"mcs", kv::LockMode::kMcs},
    {"lease", kv::LockMode::kLease},
};

void run_point(const LockSeries& series, std::uint32_t workers) {
  wl::Rig rig;
  kv::Config cfg;
  cfg.workers = workers;
  cfg.ops_per_worker = util::env_u64("RDMASEM_SYNC_OPS", 384);
  cfg.num_keys = util::env_u64("RDMASEM_SYNC_KEYS", 16);
  cfg.zipf_theta = 0.99;
  cfg.get_fraction = 0.5;
  cfg.lock = series.mode;
  cfg.mcs_max_clients = workers;
  cfg.seed = 42 + workers;
  cfg.record_history = false;  // perf run: no oracle bookkeeping
  kv::TxKv store(rig.contexts(), cfg);
  const kv::Result r = store.run();
  const std::uint64_t p50 = store.lock_wait_ns().quantile_bound(0.5);
  const std::uint64_t p99 = store.lock_wait_ns().quantile_bound(0.99);
  g_agg.fold(store.lock_wait_ns());
  bench::absorb(rig.cluster);

  const std::string x = std::to_string(workers);
  bench::point_mops(series.name, x, r.mops);
  collector.add({series.name, x, util::fmt(r.mops), util::fmt(r.abort_rate),
                 std::to_string(p50), std::to_string(p99),
                 std::to_string(r.commits), std::to_string(r.aborts)});
  if (!g_agg.abort_rows.empty()) g_agg.abort_rows += ",";
  g_agg.abort_rows += "\n      {\"series\": \"" + std::string(series.name) +
                      "\", \"x\": \"" + x +
                      "\", \"abort_rate\": " + util::fmt(r.abort_rate) +
                      ", \"commits\": " + std::to_string(r.commits) +
                      ", \"aborts\": " + std::to_string(r.aborts) + "}";
  bench::report().set_sync_json(g_agg.json());
}

// Series outer, workers inner: the committed table's row order.
void sweep() {
  for (const LockSeries& series : kSeries)
    for (const std::uint32_t workers : {2, 4, 8, 16})
      run_point(series, workers);
}

}  // namespace

int main(int argc, char** argv) {
  return rdmasem::bench::run_main(argc, argv, collector, sweep);
}
