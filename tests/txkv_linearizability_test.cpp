// TxKv linearizability/serializability battery (docs/SYNC.md): the
// flagship app's recorded histories run through both checkers — the
// Wing & Gong register search on small per-key histories and the
// scale-free increment audit on everything — for every lock mode, under
// the chaos/fault battery, and byte-identically across replays.
// The correct variant must come out clean everywhere; the broken
// siblings are hunted in sync_test.cpp's negative matrix.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/txkv/txkv.hpp"
#include "cluster/stats.hpp"
#include "fault/fault.hpp"
#include "sim/sync.hpp"
#include "sync/sync.hpp"
#include "testbed.hpp"

namespace sy = rdmasem::sync;
namespace kv = rdmasem::apps::txkv;
namespace fl = rdmasem::fault;
namespace cl = rdmasem::cluster;
namespace sim = rdmasem::sim;
using rdmasem::test::Testbed;

namespace {

std::vector<rdmasem::verbs::Context*> ctx_ptrs(Testbed& tb) {
  std::vector<rdmasem::verbs::Context*> out;
  for (auto& c : tb.ctx) out.push_back(c.get());
  return out;
}

// Chaos plan the battery runs under: loss/latency/link churn across the
// cluster. No crashes — crash takeover is its own drill below — and the
// server machine is spared link-downs so the run always terminates.
fl::FaultPlan battery_plan(std::uint64_t seed, Testbed& tb) {
  sim::Rng rng(seed);
  fl::ChaosOptions opts;
  opts.events = 14;
  opts.loss_prob_max = 0.4;
  opts.window_max = sim::us(200);
  opts.latency_max = sim::us(15);
  opts.allow_crash = false;
  opts.spare_machine = 0;  // the server: keep its links alive
  return fl::FaultPlan::chaos(rng, sim::ms(2), tb.cluster.size(),
                              tb.cluster.params().rnic_ports, opts);
}

// Runs the FULL battery over one finished store: per-key increment audit,
// register linearizability where the history fits the 64-op search,
// quiescent cells, free locks. Every violation is a test failure with the
// checker's own diagnostic attached.
void expect_battery_clean(kv::TxKv& store, Testbed& tb) {
  const auto merged = store.history().merged();
  std::size_t lin_checked = 0;
  for (std::uint64_t k = 0; k < store.config().num_keys; ++k) {
    const auto key_ops = sy::ops_for_key(merged, k);
    const auto audit = sy::audit_increments(
        key_ops, kv::TxKv::kInitialVersion, kv::TxKv::kInitialValue,
        store.key_version(k), store.key_value(k));
    EXPECT_TRUE(audit.ok()) << "key " << k << ": " << audit.render();
    const auto lin = sy::check_linearizable_register(key_ops,
                                                     kv::TxKv::kInitialValue);
    if (lin.ops <= 64) {
      EXPECT_TRUE(lin.ok) << "key " << k << ": " << lin.diag;
      ++lin_checked;
    }
    EXPECT_TRUE(store.cell_quiescent(k)) << "key " << k;
  }
  EXPECT_GT(lin_checked, 0u) << "no key small enough for the register search";
  EXPECT_TRUE(store.locks_free(tb.eng.now()));
  EXPECT_EQ(store.snapshot_integrity_failures(), 0u);
}

struct RunOut {
  kv::Result result;
  std::string digest;
};

// One full txkv run; the digest folds every observable (history, final
// cells, virtual clock, event count, cluster stats) so a replay check
// is byte-exact.
RunOut txkv_run(const kv::Config& cfg, bool chaos, bool battery) {
  Testbed tb;
  if (chaos) tb.cluster.inject(battery_plan(cfg.seed * 3 + 1, tb));
  kv::TxKv store(ctx_ptrs(tb), cfg);
  RunOut out;
  out.result = store.run();
  if (battery) expect_battery_clean(store, tb);
  out.digest = store.history().render() + "|";
  for (std::uint64_t k = 0; k < cfg.num_keys; ++k)
    out.digest += std::to_string(store.key_version(k)) + ":" +
                  std::to_string(store.key_value(k)) + ";";
  out.digest += "|" + std::to_string(out.result.commits) + "," +
                std::to_string(out.result.gets) + "," +
                std::to_string(out.result.aborts) + "," +
                std::to_string(out.result.recoveries) + "|" +
                std::to_string(tb.eng.now()) + "|" +
                std::to_string(tb.eng.events_processed()) + "|" +
                cl::StatsReport::capture(tb.cluster).render();
  return out;
}

kv::Config battery_cfg(kv::LockMode mode) {
  kv::Config cfg;
  cfg.workers = 6;
  cfg.ops_per_worker = 40;
  cfg.num_keys = 8;
  cfg.zipf_theta = 0.99;  // hot-key skew: most contention on one key
  cfg.get_fraction = 0.5;
  cfg.lock = mode;
  cfg.seed = 21;
  return cfg;
}

}  // namespace

// ------------------------------------------ per-lock-mode serializability

TEST(TxkvLinearizability, SpinLockHistoryPassesTheFullBattery) {
  const auto r = txkv_run(battery_cfg(kv::LockMode::kSpin), false, true);
  EXPECT_GT(r.result.commits, 0u);
  EXPECT_GT(r.result.gets, 0u);
  EXPECT_EQ(r.result.dead_workers, 0u);
}

TEST(TxkvLinearizability, SpinBackoffHistoryPassesTheFullBattery) {
  const auto r =
      txkv_run(battery_cfg(kv::LockMode::kSpinBackoff), false, true);
  EXPECT_GT(r.result.commits, 0u);
  EXPECT_EQ(r.result.dead_workers, 0u);
}

TEST(TxkvLinearizability, McsHistoryPassesTheFullBattery) {
  const auto r = txkv_run(battery_cfg(kv::LockMode::kMcs), false, true);
  EXPECT_GT(r.result.commits, 0u);
  EXPECT_EQ(r.result.dead_workers, 0u);
}

TEST(TxkvLinearizability, LeaseHistoryPassesTheFullBattery) {
  const auto r = txkv_run(battery_cfg(kv::LockMode::kLease), false, true);
  EXPECT_GT(r.result.commits, 0u);
  EXPECT_EQ(r.result.dead_workers, 0u);
}

// ------------------------------------------------- register-search drill

TEST(TxkvLinearizability, SmallHistoriesLinearizeAsAtomicRegisters) {
  // Sized so every key's completed history fits the 64-op Wing & Gong
  // search — the strongest per-key oracle we have runs on ALL of them.
  kv::Config cfg;
  cfg.workers = 4;
  cfg.ops_per_worker = 12;
  cfg.num_keys = 4;
  cfg.zipf_theta = 0.6;  // flatter: spread ops under the search bound
  cfg.get_fraction = 0.5;
  cfg.seed = 22;
  Testbed tb;
  kv::TxKv store(ctx_ptrs(tb), cfg);
  (void)store.run();
  const auto merged = store.history().merged();
  for (std::uint64_t k = 0; k < cfg.num_keys; ++k) {
    const auto key_ops = sy::ops_for_key(merged, k);
    const auto lin =
        sy::check_linearizable_register(key_ops, kv::TxKv::kInitialValue);
    EXPECT_LE(lin.ops, 64u) << "key " << k << " outgrew the search bound";
    EXPECT_TRUE(lin.ok) << "key " << k << ": " << lin.diag;
  }
}

// --------------------------------------------------- chaos/fault battery

TEST(TxkvLinearizability, ChaosBatteryWithRecoveryLosesNoUpdates) {
  // Loss bursts, latency spikes and link churn while locks are held and
  // commits are in flight; workers recover (reset + reconnect + re-land)
  // instead of dying. The audit proves no update was lost and no torn
  // state was served; the post-run probes prove every lock drained free.
  auto cfg = battery_cfg(kv::LockMode::kSpin);
  cfg.ops_per_worker = 32;
  cfg.recover_on_failure = true;
  cfg.retry_cnt = 3;  // surface transport failures into recovery
  cfg.seed = 23;
  const auto r = txkv_run(cfg, true, true);
  EXPECT_GT(r.result.commits, 0u);
  EXPECT_EQ(r.result.dead_workers, 0u);
}

TEST(TxkvLinearizability, ChaosBatteryOnLeaseLocksStaysSerializable) {
  auto cfg = battery_cfg(kv::LockMode::kLease);
  cfg.ops_per_worker = 32;
  cfg.recover_on_failure = true;
  cfg.retry_cnt = 3;
  cfg.seed = 24;
  const auto r = txkv_run(cfg, true, true);
  EXPECT_GT(r.result.commits, 0u);
  EXPECT_EQ(r.result.dead_workers, 0u);
}

// ------------------------------------------------------------- replays

TEST(TxkvLinearizability, SpinDigestReplaysByteIdentical) {
  const auto cfg = battery_cfg(kv::LockMode::kSpin);
  EXPECT_EQ(txkv_run(cfg, false, false).digest,
            txkv_run(cfg, false, false).digest);
}

TEST(TxkvLinearizability, McsDigestReplaysByteIdentical) {
  const auto cfg = battery_cfg(kv::LockMode::kMcs);
  EXPECT_EQ(txkv_run(cfg, false, false).digest,
            txkv_run(cfg, false, false).digest);
}

TEST(TxkvLinearizability, LeaseDigestReplaysByteIdentical) {
  const auto cfg = battery_cfg(kv::LockMode::kLease);
  EXPECT_EQ(txkv_run(cfg, false, false).digest,
            txkv_run(cfg, false, false).digest);
}

TEST(TxkvLinearizability, ChaosDigestReplaysByteIdentical) {
  auto cfg = battery_cfg(kv::LockMode::kSpin);
  cfg.ops_per_worker = 24;
  cfg.recover_on_failure = true;
  cfg.retry_cnt = 3;
  cfg.seed = 25;
  EXPECT_EQ(txkv_run(cfg, true, false).digest,
            txkv_run(cfg, true, false).digest);
}
