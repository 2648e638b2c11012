// The three benchmark workloads. Each drives the library's public API
// directly and times every call into a layer from outside.

#include <algorithm>
#include <array>
#include <memory>
#include <span>
#include <vector>

#include "apps/hashtable/hashtable.hpp"
#include "apps/shuffle/shuffle.hpp"
#include "common.hpp"
#include "sim/rng.hpp"
#include "sim/sync.hpp"
#include "wl/microbench.hpp"
#include "wl/rig.hpp"
#include "wl/zipf.hpp"

namespace perfbench {

namespace rs = rdmasem;

namespace {

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// ---------------------------------------------------------------------------
// shuffle16: one long 16-machine, 16-executor all-to-all push shuffle with
// SGL batch 16, NUMA-aware placement, on a 4x4 leaf/spine fabric.

constexpr std::uint32_t kShuffleExecutors = 16;
constexpr std::uint64_t kShuffleEntries = 50000;  // per executor

class Shuffle16 final : public Workload {
 public:
  void generate(std::uint64_t seed) override {
    rs::sim::Rng rng(seed);
    keys_.resize(kShuffleExecutors * kShuffleEntries);
    for (auto& k : keys_) k = rng.next();
    expected_.assign(kShuffleExecutors, 0);
    for (const std::uint64_t k : keys_)
      ++expected_[rs::apps::shuffle::Shuffle::dest_of(k, kShuffleExecutors)];
  }

  // Measured 1.1 to 1.8 over four sets of ten runs; the shuffle copies
  // every entry through host memory, which the reference loop does not.
  double host_sensitivity() const override { return 1.5; }

  void pass(PassStats& st, bool /*corrupt*/) override {
    rs::hw::ModelParams p = rs::hw::ModelParams::connectx3_cluster();
    p.machines = kShuffleExecutors;
    p.net_machines_per_leaf = 4;
    const double setup0 = st.setup_s();
    std::unique_ptr<rs::wl::Rig> rig;
    {
      ScopedTimer t(st.cluster_setup_s);
      rig = std::make_unique<rs::wl::Rig>(p);
    }
    set_tracing(rig->cluster, st.traced);

    rs::apps::shuffle::Config cfg;
    cfg.machines = kShuffleExecutors;
    cfg.executors = kShuffleExecutors;
    cfg.entries_per_executor = kShuffleEntries;
    cfg.batch = rs::apps::shuffle::BatchMode::kSgl;
    cfg.batch_size = 16;
    cfg.numa_aware = true;
    cfg.keygen = [this](std::uint32_t e, std::uint64_t i) {
      return keys_[e * kShuffleEntries + i];
    };
    std::unique_ptr<rs::apps::shuffle::Shuffle> shuffle;
    {
      ScopedTimer t(st.apps_setup_s);
      shuffle = std::make_unique<rs::apps::shuffle::Shuffle>(rig->contexts(),
                                                             cfg);
    }
    st.point_setup_s.push_back(st.setup_s() - setup0);

    double run_s = 0;
    rs::apps::shuffle::Result r;
    {
      ScopedTimer t(run_s);
      r = shuffle->run();
    }
    st.run_s += run_s;
    st.point_run_s.push_back(run_s);
    st.ops += r.entries;
    absorb(rig->cluster, st);

    ScopedTimer t(st.verify_s);
    bool ok = shuffle->received_checksum() == shuffle->sent_checksum();
    std::uint64_t received = 0;
    for (std::uint32_t e = 0; e < kShuffleExecutors; ++e) {
      ok = ok && shuffle->received_count(e) == expected_[e];
      received += shuffle->received_count(e);
    }
    ok = ok && received == keys_.size();
    if (!ok) ++st.check_failures;
    st.digest.add(static_cast<std::uint64_t>(r.elapsed));
    st.digest.add(r.mops);
    st.digest.add(r.checksum);
  }

 private:
  std::vector<std::uint64_t> keys_;      // [executor * entries + i]
  std::vector<std::uint64_t> expected_;  // entries bound for each executor
};

// ---------------------------------------------------------------------------
// randseq_sweep: fig06-style sweep of small independent simulations. READ
// and WRITE, 4 src x dst seq/rand patterns, 4 QPs at window 16, 32 B ops,
// registered regions on both sides of the ~4 MB SRAM knee.

constexpr std::uint32_t kRsClients = 4;
constexpr std::uint32_t kRsWindow = 16;
constexpr std::uint32_t kRsSize = 32;
constexpr std::uint64_t kRsOpsPerClient = 4000;
constexpr std::uint64_t kRsOps = kRsClients * kRsOpsPerClient;
constexpr std::array<std::size_t, 5> kRsRegions = {
    1u << 20, 4u << 20, 16u << 20, 64u << 20, 256u << 20};
constexpr std::uint32_t kRsChecked = 32;  // sampled ops checked per point

struct RsPoint {
  rs::verbs::Opcode op = rs::verbs::Opcode::kWrite;
  std::size_t region = 0;
  std::uint64_t salt = 0;
  // Slot (offset / kRsSize) of op client * kRsOpsPerClient + i.
  std::vector<std::uint32_t> src, dst;
  // Ops whose written slot no other op of the point writes.
  std::vector<std::uint32_t> checked;
};

// The bytes a checked op's source slot is stamped with before the run.
void stamp(std::byte* slot, std::uint64_t salt, std::uint32_t index) {
  for (std::uint32_t w = 0; w < kRsSize / 8; ++w) {
    const std::uint64_t v = mix64(salt ^ (std::uint64_t{index} << 8) ^ w);
    std::memcpy(slot + 8 * w, &v, 8);
  }
}

class RandSeqSweep final : public Workload {
 public:
  void generate(std::uint64_t seed) override {
    rs::sim::Rng rng(seed);
    using rs::verbs::Opcode;
    for (const std::size_t region : kRsRegions)
      for (const Opcode op : {Opcode::kRead, Opcode::kWrite})
        for (int pattern = 0; pattern < 4; ++pattern)
          points_.push_back(make_point(rng, op, region, pattern & 2,
                                       pattern & 1));
  }

  void pass(PassStats& st, bool corrupt) override {
    for (std::size_t i = 0; i < points_.size(); ++i)
      run_point(points_[i], st, corrupt && i == 0);
  }

 private:
  static RsPoint make_point(rs::sim::Rng& rng, rs::verbs::Opcode op,
                            std::size_t region, bool src_rand,
                            bool dst_rand) {
    RsPoint pt;
    pt.op = op;
    pt.region = region;
    pt.salt = rng.next();
    const auto slots = static_cast<std::uint32_t>(region / kRsSize);
    pt.src.resize(kRsOps);
    pt.dst.resize(kRsOps);
    for (std::uint64_t k = 0; k < kRsOps; ++k) {
      const auto seq = static_cast<std::uint32_t>(k % slots);
      pt.src[k] = src_rand ? static_cast<std::uint32_t>(rng.uniform(slots))
                           : seq;
      pt.dst[k] = dst_rand ? static_cast<std::uint32_t>(rng.uniform(slots))
                           : seq;
    }
    // A READ writes its local (src) slot, a WRITE its remote (dst) slot.
    const auto& target = op == rs::verbs::Opcode::kRead ? pt.src : pt.dst;
    std::vector<std::uint8_t> writers(slots, 0);
    for (const std::uint32_t s : target)
      writers[s] = static_cast<std::uint8_t>(std::min(writers[s] + 1, 2));
    const std::uint64_t stride = kRsOps / (4 * kRsChecked);
    for (std::uint64_t k = 0; k < kRsOps && pt.checked.size() < kRsChecked;
         k += stride)
      if (writers[target[k]] == 1)
        pt.checked.push_back(static_cast<std::uint32_t>(k));
    return pt;
  }

  static void run_point(const RsPoint& pt, PassStats& st, bool corrupt) {
    const double setup0 = st.setup_s();
    std::unique_ptr<rs::wl::Rig> rig;
    {
      ScopedTimer t(st.cluster_setup_s);
      rig = std::make_unique<rs::wl::Rig>();
    }
    rs::verbs::Buffer local, remote;
    rs::verbs::MemoryRegion* lmr = nullptr;
    rs::verbs::MemoryRegion* rmr = nullptr;
    {
      ScopedTimer t(st.mr_setup_s);
      local = rs::verbs::Buffer(pt.region);
      remote = rs::verbs::Buffer(pt.region);
      lmr = rig->ctx[0]->register_buffer(local, 1);
      rmr = rig->ctx[1]->register_buffer(remote, 1);
    }
    rs::wl::ClientSpec spec;
    {
      ScopedTimer t(st.qp_setup_s);
      for (std::uint32_t c = 0; c < kRsClients; ++c)
        spec.qps.push_back(rig->connect(0, 1).local);
    }
    st.point_setup_s.push_back(st.setup_s() - setup0);
    set_tracing(rig->cluster, st.traced);

    // The checked ops' sources carry distinct bytes; everything else is 0.
    const bool is_read = pt.op == rs::verbs::Opcode::kRead;
    auto src_of = [&](std::uint32_t k) {
      return is_read ? remote.data() + std::uint64_t{pt.dst[k]} * kRsSize
                     : local.data() + std::uint64_t{pt.src[k]} * kRsSize;
    };
    auto dst_of = [&](std::uint32_t k) {
      return is_read ? local.data() + std::uint64_t{pt.src[k]} * kRsSize
                     : remote.data() + std::uint64_t{pt.dst[k]} * kRsSize;
    };
    {
      ScopedTimer t(st.verify_s);
      for (const std::uint32_t k : pt.checked)
        stamp(src_of(k), pt.salt, is_read ? pt.dst[k] : pt.src[k]);
    }

    spec.window = kRsWindow;
    spec.ops_per_client = kRsOpsPerClient;
    spec.make_wr = [&](std::uint32_t client, std::uint64_t i) {
      const std::uint64_t k = client * kRsOpsPerClient + i;
      const std::uint64_t src_off = std::uint64_t{pt.src[k]} * kRsSize;
      const std::uint64_t dst_off = std::uint64_t{pt.dst[k]} * kRsSize;
      return is_read
                 ? rs::wl::make_read(*lmr, src_off, *rmr, dst_off, kRsSize)
                 : rs::wl::make_write(*lmr, src_off, *rmr, dst_off, kRsSize);
    };
    double run_s = 0;
    rs::wl::BenchResult r;
    {
      ScopedTimer t(run_s);
      r = rs::wl::run_closed_loop(rig->eng, spec);
    }
    st.run_s += run_s;
    st.point_run_s.push_back(run_s);
    st.ops += kRsOps;
    absorb(rig->cluster, st);

    if (corrupt && !pt.checked.empty()) dst_of(pt.checked.front())[3] ^=
        std::byte{0x5a};
    ScopedTimer t(st.verify_s);
    for (const std::uint32_t k : pt.checked)
      if (std::memcmp(src_of(k), dst_of(k), kRsSize) != 0) {
        ++st.check_failures;
        break;
      }
    if (pt.checked.empty()) ++st.check_failures;  // nothing was checkable
    st.digest.add(static_cast<std::uint64_t>(r.elapsed));
    st.digest.add(r.mops);
    st.digest.add(r.avg_latency_us);
    st.digest.add(r.p99_latency_us);
  }

  std::vector<RsPoint> points_;
};

// ---------------------------------------------------------------------------
// kv_mixed: 6 front-ends x pipeline 4 issue zipf-0.99 gets and puts at 50%
// writes against the optimised disaggregated hashtable (numa_aware +
// consolidate, 10 ms burst-buffer lease).

constexpr std::uint32_t kKvFrontEnds = 6;
constexpr std::uint32_t kKvPipeline = 4;
constexpr std::uint32_t kKvWorkers = kKvFrontEnds * kKvPipeline;
constexpr std::uint64_t kKvKeys = 1u << 14;
constexpr std::uint64_t kKvOpsPerWorker = 8000;
constexpr double kKvWriteFraction = 0.5;
constexpr std::uint32_t kKvValueSize = 64;

namespace ht = rs::apps::hashtable;

// A value names its key, its writer and the writer's put sequence number,
// and ends with a checksum of the rest, so a get can tell a well-formed
// value for its key from anything else.
std::uint64_t value_checksum(std::span<const std::byte> v) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i + 8 < v.size(); ++i)
    h = (h ^ std::to_integer<std::uint64_t>(v[i])) * 1099511628211ULL;
  return h;
}

void fill_value(std::vector<std::byte>& v, std::uint64_t key,
                std::uint64_t seq, std::uint64_t writer) {
  const std::uint64_t head[3] = {key, seq, writer};
  std::memcpy(v.data(), head, sizeof head);
  for (std::size_t off = sizeof head; off + 8 < v.size(); off += 8) {
    const std::uint64_t w = mix64(key ^ (seq << 20) ^ off);
    std::memcpy(v.data() + off, &w, 8);
  }
  const std::uint64_t sum = value_checksum(v);
  std::memcpy(v.data() + v.size() - 8, &sum, 8);
}

struct KvStream {
  std::vector<std::uint64_t> keys;
  std::vector<bool> put;
};

struct KvWorker {
  std::uint64_t id = 0;
  std::uint64_t seq = 0;
  std::vector<std::byte> value = std::vector<std::byte>(kKvValueSize);
  std::vector<std::uint64_t> get_keys;
  std::vector<std::vector<std::byte>> got;  // checked after the run
};

rs::sim::Task kv_loop(ht::FrontEnd& fe, const KvStream& in, KvWorker& w,
                      std::vector<std::unique_ptr<ht::FrontEnd>>& all,
                      rs::sim::CountdownLatch& done) {
  for (std::size_t k = 0; k < in.keys.size(); ++k) {
    const std::uint64_t key = in.keys[k];
    if (in.put[k]) {
      fill_value(w.value, key, ++w.seq, w.id);
      co_await fe.put(key, w.value);
    } else {
      w.get_keys.push_back(key);
      w.got.push_back(co_await fe.get(key));
    }
  }
  done.count_down();
  // The last worker to finish pushes out every front-end's burst buffer.
  if (done.remaining() == 0)
    for (auto& f : all) co_await f->drain();
}

// Found (a well-formed value for `key`), not found (empty or all zero),
// or neither.
enum class GetOutcome { kFound, kMissing, kBad };

GetOutcome classify_get(std::uint64_t key, std::span<const std::byte> v) {
  if (v.empty() || std::all_of(v.begin(), v.end(),
                               [](std::byte b) { return b == std::byte{0}; }))
    return GetOutcome::kMissing;
  if (v.size() != kKvValueSize) return GetOutcome::kBad;
  std::uint64_t got_key = 0, sum = 0;
  std::memcpy(&got_key, v.data(), 8);
  std::memcpy(&sum, v.data() + v.size() - 8, 8);
  return got_key == key && sum == value_checksum(v) ? GetOutcome::kFound
                                                    : GetOutcome::kBad;
}

class KvMixed final : public Workload {
 public:
  void generate(std::uint64_t seed) override {
    streams_.resize(kKvWorkers);
    for (std::uint32_t w = 0; w < kKvWorkers; ++w) {
      rs::wl::ZipfGenerator zipf(kKvKeys, 0.99, mix64(seed) + w);
      rs::sim::Rng coin(mix64(seed ^ 0x5eed) + w);
      KvStream& s = streams_[w];
      for (std::uint64_t k = 0; k < kKvOpsPerWorker; ++k) {
        s.keys.push_back(zipf.next());
        s.put.push_back(coin.chance(kKvWriteFraction));
      }
    }
  }

  void pass(PassStats& st, bool /*corrupt*/) override {
    const double setup0 = st.setup_s();
    std::unique_ptr<rs::wl::Rig> rig;
    {
      ScopedTimer t(st.cluster_setup_s);
      rig = std::make_unique<rs::wl::Rig>();
    }
    ht::Config cfg;
    cfg.num_keys = kKvKeys;
    cfg.value_size = kKvValueSize;
    cfg.numa_aware = true;
    cfg.consolidate = true;
    cfg.lease = rs::sim::ms(10);
    std::unique_ptr<ht::DisaggHashTable> table;
    std::vector<std::unique_ptr<ht::FrontEnd>> fes;
    {
      ScopedTimer t(st.apps_setup_s);
      table = std::make_unique<ht::DisaggHashTable>(*rig->ctx[0], cfg);
      for (std::uint32_t i = 0; i < kKvFrontEnds; ++i)
        fes.push_back(table->add_front_end(*rig->ctx[1 + i % 7], (i / 7) % 2));
    }
    st.point_setup_s.push_back(st.setup_s() - setup0);
    set_tracing(rig->cluster, st.traced);

    std::vector<KvWorker> workers(kKvWorkers);
    for (std::uint32_t w = 0; w < kKvWorkers; ++w) {
      workers[w].id = w;
      workers[w].got.reserve(kKvOpsPerWorker);
      workers[w].get_keys.reserve(kKvOpsPerWorker);
    }
    rs::sim::CountdownLatch done(rig->eng, kKvWorkers);
    double run_s = 0;
    {
      ScopedTimer t(run_s);
      for (std::uint32_t w = 0; w < kKvWorkers; ++w)
        rig->eng.spawn(kv_loop(*fes[w / kKvPipeline], streams_[w], workers[w],
                               fes, done));
      rig->eng.run();
    }
    st.run_s += run_s;
    st.point_run_s.push_back(run_s);
    st.ops += kKvWorkers * kKvOpsPerWorker;
    absorb(rig->cluster, st);

    ScopedTimer t(st.verify_s);
    std::uint64_t found = 0, missing = 0, bad = 0;
    for (const KvWorker& w : workers)
      for (std::size_t i = 0; i < w.got.size(); ++i)
        switch (classify_get(w.get_keys[i], w.got[i])) {
          case GetOutcome::kFound: ++found; break;
          case GetOutcome::kMissing: ++missing; break;
          case GetOutcome::kBad: ++bad; break;
        }
    if (done.remaining() != 0 || bad != 0) ++st.check_failures;
    st.digest.add(found);
    st.digest.add(missing);
  }

 private:
  std::vector<KvStream> streams_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "shuffle16") return std::make_unique<Shuffle16>();
  if (name == "randseq_sweep") return std::make_unique<RandSeqSweep>();
  if (name == "kv_mixed") return std::make_unique<KvMixed>();
  return nullptr;
}

}  // namespace perfbench
