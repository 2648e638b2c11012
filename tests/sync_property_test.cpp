// Randomized property battery for the sync layer (satellite of the
// docs/SYNC.md tentpole): across many seeds and worker mixes, every lock
// family must uphold its contract — mutual exclusion (disjoint critical
// sections AND a lossless non-atomic counter), bounded overtaking for the
// MCS queue, strictly monotone lease epochs — and the whole randomized
// workload must replay byte-identically.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "sim/rng.hpp"
#include "sim/sync.hpp"
#include "sync/sync.hpp"
#include "testbed.hpp"

namespace sy = rdmasem::sync;
namespace v = rdmasem::verbs;
namespace sim = rdmasem::sim;
using rdmasem::test::Testbed;

namespace {

constexpr std::uint32_t kSeeds = 10;

enum class Mode { kSpin, kMcs, kLease };

struct Grant {
  std::uint32_t worker;
  std::uint32_t seq;
  sim::Time request;  // acquire() entered
  sim::Time grant;    // acquire() returned
  sim::Time exit;     // last CS action done (before release posts)
  std::uint64_t epoch = 0;  // lease mode only
};

struct PropOut {
  std::uint64_t counter = 0;
  std::uint64_t expected = 0;
  std::vector<Grant> grants;  // merged, sorted by grant time
  std::string digest;
};

// One randomized mutual-exclusion run: `workers` remote clients RMW a
// non-atomic counter under the chosen lock family with random think/hold
// times. All randomness comes from per-worker streams seeded off `seed`,
// so the run is a pure function of (mode, seed).
PropOut prop_run(Mode mode, std::uint64_t seed) {
  Testbed tb;
  sim::Rng shape(seed * 0x9e3779b97f4a7c15ull + 1);
  const std::uint32_t workers = 3 + static_cast<std::uint32_t>(shape.uniform(4));
  std::vector<std::uint32_t> iters(workers);
  std::uint64_t expected = 0;
  for (auto& it : iters) {
    it = 6 + static_cast<std::uint32_t>(shape.uniform(8));
    expected += it;
  }

  sy::McsLock::Layout mcs_layout{workers};
  const std::uint64_t lock_area =
      mode == Mode::kMcs ? mcs_layout.bytes() : sy::LeaseLock::kBytes;
  v::Buffer mem(lock_area + 8);  // [lock area][counter]
  std::memset(mem.data(), 0, mem.size());
  auto* mr = tb.ctx[0]->register_buffer(mem, tb.cluster.params().rnic_socket);
  const std::uint64_t counter_addr = mr->addr + lock_area;

  std::vector<Testbed::Conn> conns;
  std::vector<std::unique_ptr<sy::SpinLock>> spins;
  std::vector<std::unique_ptr<sy::McsLock>> mcss;
  std::vector<std::unique_ptr<sy::LeaseLock>> leases;
  std::vector<v::Buffer> scratch;
  std::vector<v::MemoryRegion*> scratch_mrs;
  scratch.reserve(workers);
  for (std::uint32_t w = 0; w < workers; ++w) {
    conns.push_back(tb.connect(1 + w, 0));
    auto& qp = *conns.back().local;
    if (mode == Mode::kSpin)
      spins.push_back(std::make_unique<sy::SpinLock>(
          qp, mr->addr, mr->key, rdmasem::remem::BackoffPolicy{}));
    else if (mode == Mode::kMcs)
      mcss.push_back(std::make_unique<sy::McsLock>(qp, mr->addr, mr->key,
                                                   mcs_layout, w + 1));
    else
      leases.push_back(
          std::make_unique<sy::LeaseLock>(qp, mr->addr, mr->key));
    scratch.emplace_back(16);
    scratch_mrs.push_back(tb.ctx[1 + w]->register_buffer(
        scratch.back(), tb.cluster.params().rnic_socket));
  }

  std::vector<std::vector<Grant>> logs(workers);
  std::vector<std::uint32_t> failures(workers, 0);
  sim::CountdownLatch done(tb.eng, workers);
  auto worker = [&](std::uint32_t w) -> sim::Task {
    sim::Rng rng(seed * 0x2545f4914f6cdd1dull + 17 * (w + 1));
    auto* qp = conns[w].local;
    for (std::uint32_t i = 0; i < iters[w]; ++i) {
      // Random think time between attempts: varied interleavings.
      co_await sim::delay(tb.eng, sim::ns(100 + rng.uniform(3000)));
      Grant g{w, i, tb.eng.now(), 0, 0, 0};
      if (mode == Mode::kSpin) {
        if (!(co_await spins[w]->acquire()).ok()) ++failures[w];
      } else if (mode == Mode::kMcs) {
        if (!(co_await mcss[w]->acquire()).ok()) ++failures[w];
      } else {
        const auto a = co_await leases[w]->acquire();
        if (!a.ok()) ++failures[w];
        g.epoch = leases[w]->epoch();
      }
      g.grant = tb.eng.now();

      // Non-atomic RMW of the shared counter — the canary for any mutual
      // exclusion hole — plus a random hold stretching the window.
      v::WorkRequest rd;
      rd.opcode = v::Opcode::kRead;
      rd.sg_list = {{scratch_mrs[w]->addr, 8, scratch_mrs[w]->key}};
      rd.remote_addr = counter_addr;
      rd.rkey = mr->key;
      if (!(co_await qp->execute(std::move(rd))).ok()) ++failures[w];
      co_await sim::delay(tb.eng, sim::ns(50 + rng.uniform(2000)));
      *scratch[w].as<std::uint64_t>(0) += 1;
      if (mode == Mode::kLease) {
        const auto f = co_await leases[w]->fence();
        if (!f.ok() || !f.value()) ++failures[w];
      }
      v::WorkRequest wr;
      wr.opcode = v::Opcode::kWrite;
      wr.sg_list = {{scratch_mrs[w]->addr, 8, scratch_mrs[w]->key}};
      wr.remote_addr = counter_addr;
      wr.rkey = mr->key;
      if (!(co_await qp->execute(std::move(wr))).ok()) ++failures[w];
      g.exit = tb.eng.now();
      logs[w].push_back(g);

      if (mode == Mode::kSpin) {
        if (co_await spins[w]->release() != v::Status::kSuccess) ++failures[w];
      } else if (mode == Mode::kMcs) {
        if (co_await mcss[w]->release() != v::Status::kSuccess) ++failures[w];
      } else {
        if (co_await leases[w]->release() != v::Status::kSuccess)
          ++failures[w];
      }
    }
    done.count_down();
  };
  for (std::uint32_t w = 0; w < workers; ++w)
    tb.eng.spawn_on(2 + w, worker(w));
  tb.eng.run();
  EXPECT_EQ(done.remaining(), 0u) << "seed " << seed;
  for (std::uint32_t w = 0; w < workers; ++w)
    EXPECT_EQ(failures[w], 0u) << "seed " << seed << " worker " << w;

  PropOut out;
  out.expected = expected;
  std::memcpy(&out.counter, mem.data() + lock_area, 8);
  for (const auto& lg : logs)
    out.grants.insert(out.grants.end(), lg.begin(), lg.end());
  std::sort(out.grants.begin(), out.grants.end(),
            [](const Grant& a, const Grant& b) { return a.grant < b.grant; });
  out.digest = std::to_string(out.counter) + "|";
  for (const auto& g : out.grants)
    out.digest += std::to_string(g.worker) + "," + std::to_string(g.seq) +
                  "," + std::to_string(g.request) + "," +
                  std::to_string(g.grant) + "," + std::to_string(g.exit) +
                  "," + std::to_string(g.epoch) + ";";
  out.digest += "|" + std::to_string(tb.eng.now()) + "|" +
                std::to_string(tb.eng.events_processed());
  return out;
}

// Critical sections must be pairwise disjoint: sorted by grant time, each
// grant may only happen after the previous holder's last CS action.
void expect_disjoint(const PropOut& r, std::uint64_t seed) {
  for (std::size_t i = 1; i < r.grants.size(); ++i)
    EXPECT_GE(r.grants[i].grant, r.grants[i - 1].exit)
        << "seed " << seed << ": overlapping critical sections ("
        << r.grants[i - 1].worker << "#" << r.grants[i - 1].seq << " vs "
        << r.grants[i].worker << "#" << r.grants[i].seq << ")";
}

}  // namespace

TEST(SyncProperty, SpinLockMutualExclusionAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const auto r = prop_run(Mode::kSpin, seed);
    EXPECT_EQ(r.counter, r.expected) << "seed " << seed << ": lost increments";
    expect_disjoint(r, seed);
  }
}

TEST(SyncProperty, McsLockMutualExclusionAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const auto r = prop_run(Mode::kMcs, seed);
    EXPECT_EQ(r.counter, r.expected) << "seed " << seed << ": lost increments";
    expect_disjoint(r, seed);
  }
}

TEST(SyncProperty, LeaseLockMutualExclusionAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const auto r = prop_run(Mode::kLease, seed);
    EXPECT_EQ(r.counter, r.expected) << "seed " << seed << ": lost increments";
    expect_disjoint(r, seed);
  }
}

TEST(SyncProperty, McsOvertakingIsBounded) {
  // FIFO handoff, observed from outside: while one acquisition waits
  // (request -> grant), any single rival can be granted at most twice —
  // once for a CS it had already queued for when our tail swap was still
  // in flight, and once more at the head of the queue. Unbounded
  // overtaking (the spinlock's failure mode) trips this immediately.
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const auto r = prop_run(Mode::kMcs, seed);
    for (const auto& a : r.grants) {
      std::vector<std::uint32_t> overtakes(16, 0);
      for (const auto& g : r.grants) {
        if (g.worker == a.worker) continue;
        if (g.grant > a.request && g.grant < a.grant)
          ++overtakes[g.worker];
      }
      for (std::size_t w = 0; w < overtakes.size(); ++w)
        EXPECT_LE(overtakes[w], 2u)
            << "seed " << seed << ": worker " << w << " overtook "
            << a.worker << "#" << a.seq << " " << overtakes[w] << " times";
    }
  }
}

TEST(SyncProperty, LeaseEpochsAreStrictlyMonotone) {
  // Every acquisition CAS-bumps the epoch, so the grant-ordered epoch
  // sequence must be strictly increasing — a repeat or regression is an
  // ABA/takeover bug.
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const auto r = prop_run(Mode::kLease, seed);
    for (std::size_t i = 1; i < r.grants.size(); ++i)
      EXPECT_GT(r.grants[i].epoch, r.grants[i - 1].epoch)
          << "seed " << seed << ": epoch not monotone at grant " << i;
    if (!r.grants.empty()) EXPECT_GE(r.grants.front().epoch, 1u);
  }
}

TEST(SyncProperty, RandomizedRunsReplayByteIdentical) {
  // The whole randomized workload — grant order, timestamps, epochs,
  // event count — replays exactly.
  for (const std::uint64_t seed : {3ull, 7ull}) {
    for (const Mode mode : {Mode::kSpin, Mode::kMcs, Mode::kLease}) {
      EXPECT_EQ(prop_run(mode, seed).digest, prop_run(mode, seed).digest)
          << "seed " << seed;
    }
  }
}
