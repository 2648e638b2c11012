// Cross-module integration tests: several subsystems sharing one cluster,
// fault injection through the whole app stack, read-side batchers, and
// the stats snapshot.

#include <gtest/gtest.h>

#include <cstring>

#include "apps/dlog/dlog.hpp"
#include "apps/hashtable/hashtable.hpp"
#include "apps/shuffle/shuffle.hpp"
#include "cluster/stats.hpp"
#include "remem/batch.hpp"
#include "testbed.hpp"
#include "wl/zipf.hpp"

namespace v = rdmasem::verbs;
namespace sim = rdmasem::sim;
namespace remem = rdmasem::remem;
namespace ht = rdmasem::apps::hashtable;
namespace dl = rdmasem::apps::dlog;
namespace sh = rdmasem::apps::shuffle;
using rdmasem::test::Testbed;
using rdmasem::test::make_write;

namespace {
std::vector<rdmasem::verbs::Context*> ctx_ptrs(Testbed& tb) {
  std::vector<rdmasem::verbs::Context*> out;
  for (auto& c : tb.ctx) out.push_back(c.get());
  return out;
}
}  // namespace

TEST(Integration, HashtableAndLogShareTheCluster) {
  // A KV service and a transaction log run concurrently on one fabric;
  // both must stay correct while contending for the same NICs.
  Testbed tb;
  ht::Config hcfg;
  hcfg.num_keys = 1 << 10;
  hcfg.numa_aware = true;
  hcfg.consolidate = true;
  ht::DisaggHashTable table(*tb.ctx[0], hcfg);
  auto fe = table.add_front_end(*tb.ctx[1], 1);

  dl::Config lcfg;
  lcfg.engines = 4;
  lcfg.records_per_engine = 256;
  lcfg.log_machine = 0;
  dl::DistributedLog log(ctx_ptrs(tb), lcfg);

  // Hashtable traffic as a detached task; the log run() drives the engine.
  bool kv_ok = false;
  tb.eng.spawn([](ht::FrontEnd& f, const ht::Config& c,
                  bool& ok) -> sim::Task {
    rdmasem::wl::ZipfGenerator zipf(c.num_keys, 0.99, 9);
    std::vector<std::byte> val(c.value_size);
    std::memcpy(val.data(), "integration", 11);
    for (int i = 0; i < 300; ++i) co_await f.put(zipf.next(), val);
    co_await f.put(77, val);
    co_await f.drain();
    const auto got = co_await f.get(77);
    ok = got.size() == c.value_size &&
         std::memcmp(got.data(), "integration", 11) == 0;
  }(*fe, hcfg, kv_ok));

  const auto r = log.run();  // runs the engine to idle
  EXPECT_TRUE(kv_ok);
  EXPECT_TRUE(log.verify_dense_and_intact());
  EXPECT_EQ(r.records, 1024u);

  // The stats snapshot sees the combined traffic.
  auto stats = rdmasem::cluster::StatsReport::capture(tb.cluster);
  EXPECT_GT(stats.fabric_messages, 1000u);
  ASSERT_NE(stats.hottest_port(), nullptr);
  EXPECT_GT(stats.hottest_port()->eu_requests, 100u);
  EXPECT_FALSE(stats.render().empty());
}

TEST(Integration, ShuffleSurvivesLossyRcFabric) {
  // RC retransmission makes the shuffle exactly correct even on a fabric
  // dropping 2% of packets — only slower.
  rdmasem::hw::ModelParams lossy;
  lossy.net_loss_prob = 0.02;
  Testbed tb(lossy);
  sh::Config cfg;
  cfg.executors = 4;
  cfg.entries_per_executor = 800;
  cfg.batch = sh::BatchMode::kSgl;
  cfg.batch_size = 8;
  sh::Shuffle s(ctx_ptrs(tb), cfg);
  const auto r = s.run();
  EXPECT_EQ(s.received_checksum(), s.sent_checksum());

  Testbed tb2;  // lossless reference
  sh::Shuffle s2(ctx_ptrs(tb2), cfg);
  const auto r2 = s2.run();
  EXPECT_GT(sim::to_us(r.elapsed), sim::to_us(r2.elapsed));  // retransmits cost
}

TEST(Integration, DlogSurvivesLossyRcFabric) {
  rdmasem::hw::ModelParams lossy;
  lossy.net_loss_prob = 0.05;
  Testbed tb(lossy);
  dl::Config cfg;
  cfg.engines = 7;
  cfg.records_per_engine = 128;
  cfg.batch_size = 8;
  dl::DistributedLog log(ctx_ptrs(tb), cfg);
  (void)log.run();
  EXPECT_TRUE(log.verify_dense_and_intact());
}

// ---------------------------------------------------------------------------
// Read-side batchers

namespace {

struct ReadRig {
  Testbed tb;
  v::Buffer local;
  v::Buffer remote;
  v::MemoryRegion* lmr;
  v::MemoryRegion* rmr;
  Testbed::Conn conn;

  ReadRig() : local(1 << 16), remote(1 << 16), conn(tb.connect(0, 1)) {
    lmr = tb.ctx[0]->register_buffer(local, 1);
    rmr = tb.ctx[1]->register_buffer(remote, 1);
    for (std::size_t i = 0; i < remote.size(); ++i)
      remote.data()[i] = static_cast<std::byte>(i * 31 + 7);
  }

  // n local scatter targets of 32 B at stride 512; remote source is the
  // contiguous range at `remote_off` (SGL/SP) or per-item offsets
  // (Doorbell).
  std::vector<remem::BatchItem> items(std::size_t n,
                                      std::uint64_t remote_off) {
    std::vector<remem::BatchItem> out;
    for (std::size_t i = 0; i < n; ++i)
      out.push_back({{lmr->addr + i * 512, 32, lmr->key},
                     rmr->addr + remote_off + i * 32});
    return out;
  }

  bool local_matches(std::size_t n, std::uint64_t remote_off) {
    for (std::size_t i = 0; i < n; ++i)
      if (std::memcmp(local.data() + i * 512,
                      remote.data() + remote_off + i * 32, 32) != 0)
        return false;
    return true;
  }

  void flush_read(remem::Batcher& b, std::size_t n, std::uint64_t off) {
    tb.eng.spawn([](ReadRig& r, remem::Batcher& bb, std::size_t nn,
                    std::uint64_t o) -> sim::Task {
      auto its = r.items(nn, o);
      auto c = co_await bb.flush(v::Opcode::kRead, its, r.rmr->addr + o,
                                 r.rmr->key);
      EXPECT_TRUE(c.ok());
    }(*this, b, n, off));
    tb.eng.run();
  }
};

}  // namespace

TEST(BatchersRead, SglScattersReadCorrectly) {
  ReadRig rig;
  remem::Batcher sgl(*rig.conn.local, remem::BatchMode::kSgl);
  rig.flush_read(sgl, 8, 4096);
  EXPECT_TRUE(rig.local_matches(8, 4096));
}

TEST(BatchersRead, SpScattersReadCorrectly) {
  ReadRig rig;
  remem::Batcher sp(*rig.conn.local, remem::BatchMode::kSp, 1 << 12);
  rig.flush_read(sp, 8, 8192);
  EXPECT_TRUE(rig.local_matches(8, 8192));
}

TEST(BatchersRead, DoorbellReadsPerItemSources) {
  ReadRig rig;
  remem::Batcher db(*rig.conn.local, remem::BatchMode::kDoorbell);
  rig.flush_read(db, 8, 0);
  EXPECT_TRUE(rig.local_matches(8, 0));
}

TEST(BatchersRead, BatchedReadFasterThanSingles) {
  ReadRig rig;
  remem::Batcher sgl(*rig.conn.local, remem::BatchMode::kSgl);
  sim::Time t_batched = 0, t_single = 0;
  rig.tb.eng.spawn([](ReadRig& r, remem::Batcher& b, sim::Time& tb_,
                      sim::Time& ts) -> sim::Task {
    auto its = r.items(16, 0);
    sim::Time t0 = r.tb.eng.now();
    for (int k = 0; k < 50; ++k)
      (void)co_await b.flush(v::Opcode::kRead, its, r.rmr->addr, r.rmr->key);
    tb_ = r.tb.eng.now() - t0;
    t0 = r.tb.eng.now();
    for (int k = 0; k < 50; ++k)
      for (auto& it : its) {
        v::WorkRequest wr;
        wr.opcode = v::Opcode::kRead;
        wr.sg_list = {it.local};
        wr.remote_addr = it.remote_addr;
        wr.rkey = r.rmr->key;
        (void)co_await r.conn.local->execute(std::move(wr));
      }
    ts = r.tb.eng.now() - t0;
  }(rig, sgl, t_batched, t_single));
  rig.tb.eng.run();
  EXPECT_LT(t_batched * 3, t_single);  // >3x faster batched
}

TEST(Integration, IncastSharesTheBottleneckLink) {
  // Seven senders blast one receiver with large writes: the receiver's
  // single rx link is the bottleneck, so aggregate goodput pins near the
  // host's memory-bandwidth ceiling and each flow gets a fair share.
  Testbed tb;
  v::Buffer src(1 << 16);
  v::Buffer dst(1 << 20);
  auto* lmr = tb.ctx[1]->register_buffer(src, 1);
  std::vector<v::MemoryRegion*> lmrs{lmr};
  for (int m = 2; m <= 7; ++m) {
    lmrs.push_back(tb.ctx[m]->register_buffer(src, 1));  // alias view ok
  }
  auto* rmr = tb.ctx[0]->register_buffer(dst, 1);

  const int kFlows = 7, kOps = 200;
  const std::uint32_t kSize = 8192;
  std::vector<sim::Time> finish(kFlows, 0);
  for (int f = 0; f < kFlows; ++f) {
    auto conn = tb.connect(static_cast<std::uint32_t>(1 + f), 0);
    tb.eng.spawn([](Testbed& t, v::QueuePair* qp, v::MemoryRegion* l,
                    v::MemoryRegion* r, int idx,
                    std::vector<sim::Time>& out) -> sim::Task {
      for (int i = 0; i < kOps; ++i) {
        auto wr = make_write(*l, 0, *r,
                             static_cast<std::uint64_t>(idx) * kSize, kSize);
        (void)co_await qp->execute(wr);
      }
      out[static_cast<std::size_t>(idx)] = t.eng.now();
    }(tb, conn.local, lmrs[static_cast<std::size_t>(f)], rmr, f, finish));
  }
  tb.eng.run();

  const sim::Time slowest = *std::max_element(finish.begin(), finish.end());
  const sim::Time fastest = *std::min_element(finish.begin(), finish.end());
  // Fairness: contending flows finish within ~15% of each other.
  EXPECT_LT(static_cast<double>(slowest) / static_cast<double>(fastest),
            1.15);
  // Aggregate goodput pinned at a hardware ceiling: above 2 GB/s (shared
  // bottleneck engaged), below the 5 GB/s line rate.
  const double gbps = static_cast<double>(kFlows) * kOps * kSize * 8 /
                      sim::to_sec(slowest) / 1e9;
  EXPECT_GT(gbps, 16.0);
  EXPECT_LT(gbps, 40.0);
}
