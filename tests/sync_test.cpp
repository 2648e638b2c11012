// Tentpole battery for src/sync (docs/SYNC.md): the correct one-sided
// synchronization primitives must pass, and EVERY deliberately broken
// sync::Variant sibling must be caught — zero silent passes. The
// NegativeMatrix test at the bottom prints the must-fail table CI lifts
// into the job summary.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "apps/txkv/txkv.hpp"
#include "fault/fault.hpp"
#include "obs/hub.hpp"
#include "sim/sync.hpp"
#include "sync/sync.hpp"
#include "testbed.hpp"

namespace sy = rdmasem::sync;
namespace kv = rdmasem::apps::txkv;
namespace fl = rdmasem::fault;
namespace v = rdmasem::verbs;
namespace sim = rdmasem::sim;
using rdmasem::test::Testbed;

namespace {

std::vector<rdmasem::verbs::Context*> ctx_ptrs(Testbed& tb) {
  std::vector<rdmasem::verbs::Context*> out;
  for (auto& c : tb.ctx) out.push_back(c.get());
  return out;
}

// Derived payload for the primitive-level tests: word i of the cell whose
// counter is `value`. Inconsistent words == a torn snapshot.
std::uint64_t derive(std::uint64_t value, std::uint32_t i) {
  return i == 0 ? value : value * 0x9e3779b97f4a7c15ull + i;
}

sy::Op mk(sy::OpKind k, std::uint32_t w, std::uint64_t value,
          std::uint64_t version, std::uint64_t rver, sim::Time inv,
          sim::Time resp, bool ok = true) {
  sy::Op op;
  op.kind = k;
  op.worker = w;
  op.key = 0;
  op.value = value;
  op.version = version;
  op.read_version = rver;
  op.ok = ok;
  op.invoke = inv;
  op.response = resp;
  return op;
}

}  // namespace

// ---------------------------------------------------------------- cells

TEST(SyncCell, FormatProducesAQuiescentValidCell) {
  sy::CellLayout layout{4};
  std::vector<std::byte> mem(layout.bytes());
  std::uint64_t payload[4] = {7, 8, 9, 10};
  sy::cell_format(mem.data(), layout, 6, payload);
  const auto* w = reinterpret_cast<const std::uint64_t*>(mem.data());
  EXPECT_EQ(w[0], 6u);
  EXPECT_EQ(w[5], 6u);
  EXPECT_EQ(w[6], sy::cell_checksum(6, payload, 4));
  EXPECT_EQ(w[1], 7u);
  // Checksum is version- and payload-sensitive.
  EXPECT_NE(sy::cell_checksum(6, payload, 4), sy::cell_checksum(8, payload, 4));
  payload[2] ^= 1;
  EXPECT_NE(w[6], sy::cell_checksum(6, payload, 4));
}

// -------------------------------------------------------------- checkers

TEST(SyncChecker, AcceptsASequentialRegisterHistory) {
  std::vector<sy::Op> h{
      mk(sy::OpKind::kPut, 0, 5, 4, 0, 10, 20),
      mk(sy::OpKind::kGet, 1, 5, 4, 0, 30, 40),
      mk(sy::OpKind::kPut, 0, 9, 6, 0, 50, 60),
      mk(sy::OpKind::kGet, 1, 9, 6, 0, 70, 80),
  };
  const auto r = sy::check_linearizable_register(h, 0);
  EXPECT_TRUE(r.ok) << r.diag;
}

TEST(SyncChecker, AcceptsConcurrentOverlapWithAValidOrder) {
  // get overlaps the put and may land on either side of it.
  std::vector<sy::Op> h{
      mk(sy::OpKind::kPut, 0, 5, 4, 0, 10, 50),
      mk(sy::OpKind::kGet, 1, 0, 2, 0, 20, 40),
  };
  const auto r = sy::check_linearizable_register(h, 0);
  EXPECT_TRUE(r.ok) << r.diag;
}

TEST(SyncChecker, RejectsAStaleReadAfterAPutCompleted) {
  // put(5) finished before the get began, yet the get saw the initial 0.
  std::vector<sy::Op> h{
      mk(sy::OpKind::kPut, 0, 5, 4, 0, 10, 20),
      mk(sy::OpKind::kGet, 1, 0, 2, 0, 30, 40),
  };
  const auto r = sy::check_linearizable_register(h, 0);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.diag.find("no linearization"), std::string::npos);
}

TEST(SyncChecker, RejectsPhantomValuesBeforeSearching) {
  std::vector<sy::Op> h{
      mk(sy::OpKind::kPut, 0, 5, 4, 0, 10, 20),
      mk(sy::OpKind::kGet, 1, 77, 4, 0, 30, 40),  // nobody ever wrote 77
  };
  const auto r = sy::check_linearizable_register(h, 0);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.diag.find("phantom"), std::string::npos);
}

TEST(SyncChecker, AuditAcceptsACleanIncrementHistory) {
  std::vector<sy::Op> h{
      mk(sy::OpKind::kTxn, 0, 1, 4, 2, 10, 20),
      mk(sy::OpKind::kTxn, 1, 2, 6, 4, 30, 40),
      mk(sy::OpKind::kGet, 2, 1, 4, 0, 21, 29),
      mk(sy::OpKind::kTxn, 0, 0, 0, 0, 50, 60, /*ok=*/false),
      mk(sy::OpKind::kTxn, 2, 3, 8, 6, 70, 80),
  };
  const auto a = sy::audit_increments(h, 2, 0, 8, 3);
  EXPECT_TRUE(a.ok()) << a.render();
  EXPECT_EQ(a.commits, 3u);
  EXPECT_EQ(a.aborts, 1u);
}

TEST(SyncChecker, AuditCatchesALostUpdate) {
  // Two commits validated against the same version: classic lost update.
  std::vector<sy::Op> h{
      mk(sy::OpKind::kTxn, 0, 1, 4, 2, 10, 20),
      mk(sy::OpKind::kTxn, 1, 1, 4, 2, 15, 25),
  };
  const auto a = sy::audit_increments(h, 2, 0, 4, 1);
  EXPECT_FALSE(a.ok());
  EXPECT_NE(a.render().find("lost update"), std::string::npos);
}

TEST(SyncChecker, AuditCatchesATornGet) {
  std::vector<sy::Op> h{
      mk(sy::OpKind::kTxn, 0, 1, 4, 2, 10, 20),
      // (version 4, value 0): a state no commit ever produced.
      mk(sy::OpKind::kGet, 1, 0, 4, 0, 30, 40),
  };
  const auto a = sy::audit_increments(h, 2, 0, 4, 1);
  EXPECT_FALSE(a.ok());
  EXPECT_NE(a.render().find("torn read"), std::string::npos);
}

TEST(SyncHistory, MergedOrderIsCanonical) {
  sy::HistoryRecorder rec(2);
  rec.record(1, mk(sy::OpKind::kGet, 1, 0, 2, 0, 30, 50));
  rec.record(0, mk(sy::OpKind::kPut, 0, 5, 4, 0, 10, 20));
  rec.record(0, mk(sy::OpKind::kGet, 0, 5, 4, 0, 30, 50));
  const auto m = rec.merged();
  ASSERT_EQ(m.size(), 3u);
  EXPECT_EQ(m[0].invoke, 10u);
  EXPECT_EQ(m[1].worker, 0u);  // (invoke, response) ties break by worker id
  EXPECT_EQ(m[2].worker, 1u);
  EXPECT_FALSE(rec.render().empty());
}

// ------------------------------------------- optimistic reads vs writer

namespace {

// One writer streams seqlock commits into a cell on machine 0; `readers`
// optimistic readers race it. Returns (valid snapshots, torn-but-admitted
// snapshots) summed over readers.
struct OptReadResult {
  std::uint64_t valid = 0;
  std::uint64_t torn_admitted = 0;
  std::uint64_t retries = 0;
};

OptReadResult run_opt_read(sy::Variant reader_variant, std::uint32_t readers,
                           std::uint32_t writes, std::uint32_t reads) {
  Testbed tb;
  sy::CellLayout layout{8};
  v::Buffer cell_mem(layout.bytes());
  auto* mr = tb.ctx[0]->register_buffer(cell_mem,
                                        tb.cluster.params().rnic_socket);
  std::vector<std::uint64_t> init(layout.payload_words);
  for (std::uint32_t i = 0; i < layout.payload_words; ++i)
    init[i] = derive(0, i);
  sy::cell_format(cell_mem.data(), layout, 2, init.data());

  auto writer_conn = tb.connect(1, 0);
  sy::RemoteVersionedCell writer(*writer_conn.local, mr->addr, mr->key,
                                 layout);
  std::vector<std::unique_ptr<sy::RemoteVersionedCell>> cells;
  std::vector<Testbed::Conn> conns;
  for (std::uint32_t r = 0; r < readers; ++r) {
    conns.push_back(tb.connect(2 + r, 0));
    cells.push_back(std::make_unique<sy::RemoteVersionedCell>(
        *conns.back().local, mr->addr, mr->key, layout,
        sy::Validation::kChecksum, reader_variant));
  }

  sim::CountdownLatch done(tb.eng, 1 + readers);
  auto write_loop = [&]() -> sim::Task {
    std::vector<std::uint64_t> payload(layout.payload_words);
    for (std::uint64_t n = 1; n <= writes; ++n) {
      for (std::uint32_t i = 0; i < layout.payload_words; ++i)
        payload[i] = derive(n, i);
      const auto st = co_await writer.write(2 * n, payload.data());
      EXPECT_EQ(st, v::Status::kSuccess);
    }
    done.count_down();
  };
  // Per-reader tallies, each touched only by its reader's lane.
  std::vector<std::uint64_t> valid(readers, 0), torn(readers, 0);
  auto read_loop = [&](std::uint32_t r) -> sim::Task {
    for (std::uint32_t n = 0; n < reads; ++n) {
      const auto o = co_await cells[r]->read();
      EXPECT_TRUE(o.ok());
      const auto& s = o.value();
      if (!s.valid) continue;
      ++valid[r];
      bool consistent = true;
      for (std::uint32_t i = 0; i < layout.payload_words; ++i)
        consistent = consistent && s.payload[i] == derive(s.payload[0], i);
      // A consistent snapshot must also be version-coherent: the writer
      // commits value n at version 2n + 2.
      consistent = consistent && s.version == 2 * s.payload[0] + 2;
      if (!consistent) ++torn[r];
    }
    done.count_down();
  };
  tb.eng.spawn_on(2, write_loop());
  for (std::uint32_t r = 0; r < readers; ++r)
    tb.eng.spawn_on(3 + r, read_loop(r));
  tb.eng.run();
  OptReadResult out;
  for (std::uint32_t r = 0; r < readers; ++r) {
    out.valid += valid[r];
    out.torn_admitted += torn[r];
  }
  for (auto& c : cells) out.retries += c->retries();
  return out;
}

}  // namespace

TEST(SyncOptimistic, ValidatedReadsAreNeverTorn) {
  const auto r = run_opt_read(sy::Variant::kCorrect, 3, 400, 400);
  EXPECT_GT(r.valid, 0u);
  EXPECT_EQ(r.torn_admitted, 0u);
  // The recheck actually fired: mid-commit snapshots were caught and
  // retried, not returned.
  EXPECT_GT(r.retries, 0u);
}

TEST(SyncOptimistic, TornReadVariantAdmitsTornSnapshots) {
  const auto r = run_opt_read(sy::Variant::kTornRead, 3, 400, 400);
  // BROKEN sibling: without the recheck, mid-commit states leak out as
  // "valid" — the signature the history checkers catch downstream.
  EXPECT_GT(r.torn_admitted, 0u);
}

// ------------------------------------------------------------- MCS lock

TEST(SyncMcs, MutualExclusionUnderContention) {
  Testbed tb;
  constexpr std::uint32_t kWorkers = 6;
  constexpr std::uint32_t kIters = 40;
  sy::McsLock::Layout layout{kWorkers};
  // Server image: [mcs area][counter word].
  v::Buffer mem(layout.bytes() + 8);
  std::memset(mem.data(), 0, mem.size());
  auto* mr = tb.ctx[0]->register_buffer(mem, tb.cluster.params().rnic_socket);
  const std::uint64_t counter_addr = mr->addr + layout.bytes();

  std::vector<Testbed::Conn> conns;
  std::vector<std::unique_ptr<sy::McsLock>> locks;
  std::vector<v::Buffer> scratch;
  std::vector<v::MemoryRegion*> scratch_mrs;
  scratch.reserve(kWorkers);
  for (std::uint32_t w = 0; w < kWorkers; ++w) {
    conns.push_back(tb.connect(1 + w, 0));
    locks.push_back(std::make_unique<sy::McsLock>(
        *conns.back().local, mr->addr, mr->key, layout, w + 1));
    scratch.emplace_back(16);
    scratch_mrs.push_back(tb.ctx[1 + w]->register_buffer(
        scratch.back(), tb.cluster.params().rnic_socket));
  }

  sim::CountdownLatch done(tb.eng, kWorkers);
  auto worker = [&](std::uint32_t w) -> sim::Task {
    auto* qp = conns[w].local;
    for (std::uint32_t i = 0; i < kIters; ++i) {
      const auto a = co_await locks[w]->acquire();
      EXPECT_TRUE(a.ok());
      // Non-atomic remote RMW: READ counter, bump, WRITE back. Any mutual
      // exclusion hole shows up as a lost increment.
      v::WorkRequest rd;
      rd.opcode = v::Opcode::kRead;
      rd.sg_list = {{scratch_mrs[w]->addr, 8, scratch_mrs[w]->key}};
      rd.remote_addr = counter_addr;
      rd.rkey = mr->key;
      auto c = co_await qp->execute(std::move(rd));
      EXPECT_TRUE(c.ok());
      *scratch[w].as<std::uint64_t>(0) += 1;
      v::WorkRequest wr;
      wr.opcode = v::Opcode::kWrite;
      wr.sg_list = {{scratch_mrs[w]->addr, 8, scratch_mrs[w]->key}};
      wr.remote_addr = counter_addr;
      wr.rkey = mr->key;
      c = co_await qp->execute(std::move(wr));
      EXPECT_TRUE(c.ok());
      const auto st = co_await locks[w]->release();
      EXPECT_EQ(st, v::Status::kSuccess);
    }
    done.count_down();
  };
  for (std::uint32_t w = 0; w < kWorkers; ++w)
    tb.eng.spawn_on(2 + w, worker(w));
  tb.eng.run();
  EXPECT_EQ(done.remaining(), 0u);

  std::uint64_t final = 0;
  std::memcpy(&final, mem.data() + layout.bytes(), 8);
  EXPECT_EQ(final, static_cast<std::uint64_t>(kWorkers) * kIters);
  std::uint64_t queued = 0, acquired = 0;
  for (auto& l : locks) {
    queued += l->queued_acquisitions();
    acquired += l->acquisitions();
    EXPECT_FALSE(l->held());
  }
  EXPECT_EQ(acquired, static_cast<std::uint64_t>(kWorkers) * kIters);
  // Contention actually exercised the queue handoff path.
  EXPECT_GT(queued, 0u);
  // Tail word back to nil: the lock is free.
  std::uint64_t tail = 0;
  std::memcpy(&tail, mem.data(), 8);
  EXPECT_EQ(tail, sy::McsLock::kNil);
}

// ------------------------------------------ spinlock release fencing

namespace {

// `workers` RMW-increment a remote counter under a SpinLock, committing
// through commit_and_release, under a lossy network. Returns the final
// counter value (expected = workers * iters when no update is lost).
std::uint64_t run_spin_commit(sy::Variant variant, std::uint32_t workers,
                              std::uint32_t iters) {
  Testbed tb;
  // Loss bursts on the server links through most of the run: lost data
  // writes back off in per-WR retransmit while later (release) writes sail
  // through — the reordering the fenced release exists to mask.
  fl::FaultPlan plan;
  for (int burst = 0; burst < 40; ++burst)
    plan.loss_burst(sim::us(20 + 50 * burst), sim::us(35), /*machine=*/0,
                    /*port=*/burst % 2, 0.9);
  tb.cluster.inject(plan);

  v::Buffer mem(16);  // [lock][counter]
  std::memset(mem.data(), 0, mem.size());
  auto* mr = tb.ctx[0]->register_buffer(mem, tb.cluster.params().rnic_socket);

  std::vector<Testbed::Conn> conns;
  std::vector<std::unique_ptr<sy::SpinLock>> locks;
  std::vector<v::Buffer> scratch;
  std::vector<v::MemoryRegion*> scratch_mrs;
  scratch.reserve(workers);
  for (std::uint32_t w = 0; w < workers; ++w) {
    conns.push_back(tb.connect(1 + w, 0));
    locks.push_back(std::make_unique<sy::SpinLock>(
        *conns.back().local, mr->addr, mr->key, rdmasem::remem::BackoffPolicy{},
        variant));
    scratch.emplace_back(16);
    scratch_mrs.push_back(tb.ctx[1 + w]->register_buffer(
        scratch.back(), tb.cluster.params().rnic_socket));
  }

  sim::CountdownLatch done(tb.eng, workers);
  auto worker = [&](std::uint32_t w) -> sim::Task {
    auto* qp = conns[w].local;
    for (std::uint32_t i = 0; i < iters; ++i) {
      const auto a = co_await locks[w]->acquire();
      EXPECT_TRUE(a.ok());
      v::WorkRequest rd;
      rd.opcode = v::Opcode::kRead;
      rd.sg_list = {{scratch_mrs[w]->addr, 8, scratch_mrs[w]->key}};
      rd.remote_addr = mr->addr + 8;
      rd.rkey = mr->key;
      const auto c = co_await qp->execute(std::move(rd));
      EXPECT_TRUE(c.ok());
      *scratch[w].as<std::uint64_t>(0) += 1;
      v::WorkRequest wr;
      wr.opcode = v::Opcode::kWrite;
      wr.sg_list = {{scratch_mrs[w]->addr, 8, scratch_mrs[w]->key}};
      wr.remote_addr = mr->addr + 8;
      wr.rkey = mr->key;
      std::vector<v::WorkRequest> data;
      data.push_back(wr);
      const auto st = co_await locks[w]->commit_and_release(std::move(data));
      EXPECT_EQ(st, v::Status::kSuccess);
    }
    done.count_down();
  };
  for (std::uint32_t w = 0; w < workers; ++w)
    tb.eng.spawn_on(2 + w, worker(w));
  tb.eng.run();
  EXPECT_EQ(done.remaining(), 0u);
  std::uint64_t final = 0;
  std::memcpy(&final, mem.data() + 8, 8);
  return final;
}

}  // namespace

TEST(SyncSpin, FencedCommitSurvivesLoss) {
  EXPECT_EQ(run_spin_commit(sy::Variant::kCorrect, 4, 30), 4u * 30u);
}

TEST(SyncSpin, UnfencedReleaseLosesUpdatesUnderLoss) {
  // BROKEN sibling: the release overtakes a lost data write's retransmit,
  // the next holder reads the stale value, and the late retransmit
  // clobbers its update.
  EXPECT_NE(run_spin_commit(sy::Variant::kUnfencedRelease, 4, 30), 4u * 30u);
}

// ------------------------------------------------------------- leases

namespace {

// A acquires a short lease and stalls past its expiry; B takes over and
// lands `b_commits` increments; A wakes and tries to finish its write.
// Returns the final counter value (B's commits + maybe A's clobber).
struct LeaseDrill {
  std::uint64_t final_value = 0;
  std::uint64_t final_version = 0;
  std::uint64_t a_fence_aborts = 0;
  std::uint64_t b_epoch = 0;
};

LeaseDrill run_lease_drill(sy::Variant a_variant, std::uint32_t b_commits) {
  Testbed tb;
  sy::CellLayout layout{2};
  v::Buffer mem(sy::LeaseLock::kBytes + layout.bytes());
  std::memset(mem.data(), 0, mem.size());
  auto* mr = tb.ctx[0]->register_buffer(mem, tb.cluster.params().rnic_socket);
  std::uint64_t init[2] = {derive(0, 0), derive(0, 1)};
  sy::cell_format(mem.data() + sy::LeaseLock::kBytes, layout, 2, init);
  const std::uint64_t cell_addr = mr->addr + sy::LeaseLock::kBytes;

  sy::LeaseConfig cfg;
  cfg.duration = sim::us(120);
  cfg.margin = sim::us(20);
  auto ca = tb.connect(1, 0);
  auto cb = tb.connect(2, 0);
  sy::LeaseLock lease_a(*ca.local, mr->addr, mr->key, cfg, a_variant);
  sy::LeaseLock lease_b(*cb.local, mr->addr, mr->key, cfg);
  sy::RemoteVersionedCell cell_a(*ca.local, cell_addr, mr->key, layout);
  sy::RemoteVersionedCell cell_b(*cb.local, cell_addr, mr->key, layout);

  sim::CountdownLatch done(tb.eng, 2);
  auto a_task = [&]() -> sim::Task {
    const auto e = co_await lease_a.acquire();
    EXPECT_TRUE(e.ok());
    const auto s = co_await cell_a.read();
    EXPECT_TRUE(s.ok() && s.value().valid);
    // Stall far past the lease term (GC pause, scheduling glitch, ...).
    co_await sim::delay(tb.eng, sim::us(500));
    const auto f = co_await lease_a.fence();
    EXPECT_TRUE(f.ok());
    if (f.value()) {
      // Write license claimed — land the (now stale) increment.
      std::uint64_t payload[2];
      payload[0] = s.value().payload[0] + 1;
      payload[1] = derive(payload[0], 1);
      (void)co_await cell_a.write(s.value().version, payload);
    }
    done.count_down();
  };
  auto b_task = [&]() -> sim::Task {
    // Wait out A's term, then take over.
    co_await sim::delay(tb.eng, sim::us(200));
    for (std::uint32_t n = 0; n < b_commits; ++n) {
      const auto e = co_await lease_b.acquire();
      EXPECT_TRUE(e.ok());
      const auto s = co_await cell_b.read();
      EXPECT_TRUE(s.ok() && s.value().valid);
      const auto f = co_await lease_b.fence();
      EXPECT_TRUE(f.ok());
      EXPECT_TRUE(f.value());
      std::uint64_t payload[2];
      payload[0] = s.value().payload[0] + 1;
      payload[1] = derive(payload[0], 1);
      const auto st = co_await cell_b.write(s.value().version, payload);
      EXPECT_EQ(st, v::Status::kSuccess);
      (void)co_await lease_b.release();
    }
    done.count_down();
  };
  tb.eng.spawn_on(2, a_task());
  tb.eng.spawn_on(3, b_task());
  tb.eng.run();

  LeaseDrill out;
  const auto* w = reinterpret_cast<const std::uint64_t*>(
      mem.data() + sy::LeaseLock::kBytes);
  out.final_version = w[0];
  out.final_value = w[1];
  out.a_fence_aborts = lease_a.fence_aborts();
  out.b_epoch = lease_b.epoch();
  return out;
}

}  // namespace

TEST(SyncLease, FenceStopsAStaleHolder) {
  const auto r = run_lease_drill(sy::Variant::kCorrect, 3);
  // A's license expired while it stalled; the fence refused the write, so
  // the cell reflects exactly B's commits.
  EXPECT_EQ(r.a_fence_aborts, 1u);
  EXPECT_EQ(r.final_value, 3u);
  EXPECT_EQ(r.final_version, 2u + 2u * 3u);
  EXPECT_GE(r.b_epoch, 2u);  // every takeover bumps the epoch
}

TEST(SyncLease, StaleLeaseVariantClobbersTheNextEpoch) {
  const auto r = run_lease_drill(sy::Variant::kStaleLease, 3);
  // BROKEN sibling: A wrote from a stale snapshot — B's increments are
  // (partially) wiped out, the exact lost update the audit flags.
  EXPECT_NE(r.final_value, 3u);
  EXPECT_NE(r.final_version, 2u + 2u * 3u);
}

// ------------------------------------------------ negative-variant matrix

namespace {

struct MatrixRow {
  const char* variant;
  const char* scenario;
  bool caught = false;
  std::string witness;
};

// Runs txkv under `cfg` (plus optional faults) and applies the FULL
// battery; returns (caught, first witness line).
MatrixRow run_matrix_case(const char* scenario, kv::Config cfg,
                          bool with_loss) {
  Testbed tb;
  if (with_loss) {
    fl::FaultPlan plan;
    for (int burst = 0; burst < 60; ++burst)
      plan.loss_burst(sim::us(30 + 60 * burst), sim::us(40),
                      /*machine=*/0, /*port=*/burst % 2, 0.9);
    tb.cluster.inject(plan);
  }
  kv::TxKv store(ctx_ptrs(tb), cfg);
  (void)store.run();

  MatrixRow row{sy::to_string(cfg.variant), scenario, false, ""};
  const auto merged = store.history().merged();
  for (std::uint64_t k = 0; k < cfg.num_keys && !row.caught; ++k) {
    const auto key_ops = sy::ops_for_key(merged, k);
    const auto audit = sy::audit_increments(
        key_ops, kv::TxKv::kInitialVersion, kv::TxKv::kInitialValue,
        store.key_version(k), store.key_value(k));
    if (!audit.ok()) {
      row.caught = true;
      row.witness = audit.issues.empty() ? "audit violation" : audit.issues[0];
    }
    if (!row.caught && !store.cell_quiescent(k)) {
      row.caught = true;
      row.witness = "cell not quiescent after drain";
    }
  }
  if (!row.caught && store.snapshot_integrity_failures() > 0) {
    row.caught = true;
    row.witness = "torn snapshot admitted as valid";
  }
  return row;
}

}  // namespace

TEST(SyncNegativeMatrix, EveryKnownIncorrectVariantIsCaught) {
  std::vector<MatrixRow> rows;

  {
    kv::Config cfg;
    cfg.workers = 6;
    cfg.ops_per_worker = 48;
    cfg.num_keys = 2;  // white-hot keys: maximal read/commit overlap
    cfg.payload_words = 8;
    cfg.get_fraction = 0.6;
    cfg.variant = sy::Variant::kTornRead;
    cfg.seed = 11;
    rows.push_back(run_matrix_case("hot-key gets during commits", cfg,
                                   /*with_loss=*/false));
  }
  {
    kv::Config cfg;
    cfg.workers = 6;
    cfg.ops_per_worker = 48;
    cfg.num_keys = 2;
    cfg.get_fraction = 0.25;
    cfg.variant = sy::Variant::kUnfencedRelease;
    cfg.seed = 12;
    rows.push_back(run_matrix_case("loss bursts during commits", cfg,
                                   /*with_loss=*/true));
  }
  {
    kv::Config cfg;
    cfg.workers = 4;
    cfg.ops_per_worker = 24;
    cfg.num_keys = 2;
    cfg.get_fraction = 0.0;
    cfg.lock = kv::LockMode::kLease;
    cfg.lease.duration = sim::us(120);
    cfg.lease.margin = sim::us(20);
    cfg.hold_delay = sim::us(400);  // every hold outlives the lease term
    cfg.variant = sy::Variant::kStaleLease;
    cfg.seed = 13;
    rows.push_back(run_matrix_case("holds outliving the lease term", cfg,
                                   /*with_loss=*/false));
  }

  // The must-fail matrix (CI lifts this block into the job summary).
  printf("NEGATIVE-MATRIX-BEGIN\n");
  printf("| variant | scenario | caught | witness |\n");
  printf("|---|---|---|---|\n");
  for (const auto& r : rows)
    printf("| %s | %s | %s | %s |\n", r.variant, r.scenario,
           r.caught ? "yes" : "**SILENT PASS**",
           r.witness.empty() ? "-" : r.witness.c_str());
  printf("NEGATIVE-MATRIX-END\n");

  for (const auto& r : rows)
    EXPECT_TRUE(r.caught) << r.variant << " slipped past the battery ("
                          << r.scenario << ")";
}
