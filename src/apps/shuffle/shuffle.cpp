#include "apps/shuffle/shuffle.hpp"

#include <cstring>
#include <utility>

#include "sim/sync.hpp"
#include "util/assert.hpp"
#include "wl/zipf.hpp"

namespace rdmasem::apps::shuffle {

namespace {
// One entry of `size` bytes (at least the 8-byte key): the key, then
// payload words key ^ (offset * golden ratio), the last one cut short when
// the size is not a multiple of 8. Whole words are fixed 8-byte copies, so
// they compile to single stores.
void fill_entry(std::byte* rec, std::uint64_t key, std::size_t size) {
  std::memcpy(rec, &key, 8);
  std::size_t b = 8;
  for (; b + 8 <= size; b += 8) {
    const std::uint64_t w = key ^ (b * 0x9e3779b97f4a7c15ULL);
    std::memcpy(rec + b, &w, 8);
  }
  if (b < size) {
    const std::uint64_t w = key ^ (b * 0x9e3779b97f4a7c15ULL);
    std::memcpy(rec + b, &w, size - b);
  }
}

// Order-independent checksum of one entry's bytes: FNV-1a over 8-byte
// little-endian words, a short tail zero-extended to a word. Whole words
// are fixed 8-byte loads.
std::uint64_t entry_checksum(const std::byte* p, std::size_t n) {
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  std::uint64_t h = 1469598103934665603ULL;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, 8);
    h = (h ^ w) * kPrime;
  }
  if (i < n) {
    std::uint64_t w = 0;
    std::memcpy(&w, p + i, n - i);
    h = (h ^ w) * kPrime;
  }
  return h;
}
}  // namespace

struct Shuffle::Executor {
  std::uint32_t id;
  std::uint32_t machine;
  hw::SocketId socket;
  verbs::Context* ctx;
  verbs::Buffer send_buf;
  verbs::MemoryRegion* send_mr;
  verbs::Buffer recv_buf;
  verbs::MemoryRegion* recv_mr;
  // Pull mode: per-destination staging on the SENDER + a control array on
  // the RECEIVER where producers post their entry counts.
  verbs::Buffer stage_buf;
  verbs::MemoryRegion* stage_mr = nullptr;
  verbs::Buffer ctrl_buf;
  verbs::MemoryRegion* ctrl_mr = nullptr;
  std::uint64_t pair_capacity;  // entries per (src,dst) sub-region
  // Outgoing QPs: one per destination executor.
  std::vector<verbs::QueuePair*> qps;
  // Inbound endpoints: in_qps[src] lives on THIS executor's machine and is
  // connected to src (pull mode READs through it).
  std::vector<verbs::QueuePair*> in_qps;
  std::vector<remem::Batcher> batchers;  // one per destination
  std::vector<std::unique_ptr<remem::RemoteSequencer>> done_counters;
  // Per-destination state.
  std::vector<std::vector<remem::BatchItem>> pending;
  std::vector<std::uint64_t> cursor;       // entries already shipped per dst
  std::vector<std::uint64_t> sent_count;   // ground truth for verification
  std::uint64_t gen_off = 0;               // next free byte in send_buf

  // Offset of (src,dst) pair sub-region inside dst's recv_buf.
  std::uint64_t pair_off(std::uint32_t src, std::size_t entry_size) const {
    return 64 + static_cast<std::uint64_t>(src) * pair_capacity * entry_size;
  }
};

Shuffle::~Shuffle() = default;

Shuffle::Shuffle(std::vector<verbs::Context*> ctxs, const Config& cfg)
    : ctxs_(std::move(ctxs)), cfg_(cfg) {
  RDMASEM_CHECK_MSG(!ctxs_.empty(), "no contexts");
  RDMASEM_CHECK_MSG(cfg_.entry_size >= 8, "an entry holds its 8-byte key");
  const std::uint32_t n = cfg_.executors;
  const auto& p = ctxs_[0]->params();

  // Expected entries per pair plus generous slack (workload is seeded and
  // deterministic: if it fits once, it always fits).
  const std::uint64_t expected = cfg_.entries_per_executor / n;
  const std::uint64_t cap = expected + expected / 2 + 256;

  for (std::uint32_t e = 0; e < n; ++e) {
    auto ex = std::make_unique<Executor>();
    ex->id = e;
    ex->machine = e % std::min<std::uint32_t>(
                          cfg_.machines,
                          static_cast<std::uint32_t>(ctxs_.size()));
    // The executor's thread alternates sockets regardless of the policy —
    // numa_aware decides whether its port/memory MATCH that socket below.
    ex->socket = e % p.sockets_per_machine;
    ex->ctx = ctxs_[ex->machine];
    ex->pair_capacity = cap;
    ex->send_buf =
        verbs::Buffer(cfg_.entries_per_executor * cfg_.entry_size);
    ex->send_mr = ex->ctx->register_buffer(ex->send_buf, ex->socket);
    // Recv region: [done counter (64 B)] [n pair sub-regions].
    ex->recv_buf = verbs::Buffer(64 + static_cast<std::size_t>(n) * cap *
                                          cfg_.entry_size);
    ex->recv_mr = ex->ctx->register_buffer(ex->recv_buf, ex->socket);
    if (cfg_.direction == Direction::kPull) {
      ex->stage_buf = verbs::Buffer(static_cast<std::size_t>(n) * cap *
                                    cfg_.entry_size);
      ex->stage_mr = ex->ctx->register_buffer(ex->stage_buf, ex->socket);
      ex->ctrl_buf = verbs::Buffer(static_cast<std::size_t>(n) * 64);
      ex->ctrl_mr = ex->ctx->register_buffer(ex->ctrl_buf, ex->socket);
    }
    ex->batchers.reserve(n);
    ex->pending.resize(n);
    ex->cursor.assign(n, 0);
    ex->sent_count.assign(n, 0);
    executors_.push_back(std::move(ex));
  }

  // Full-mesh QPs: src -> dst, port bound to each side's socket when
  // NUMA-aware (matched placement), default port otherwise.
  for (auto& src : executors_) {
    for (auto& dst : executors_) {
      verbs::QpConfig a{.port = cfg_.numa_aware ? src->socket : p.rnic_socket,
                        .core_socket = src->socket,
                        .cq = src->ctx->create_cq()};
      verbs::QpConfig b{.port = cfg_.numa_aware ? dst->socket : p.rnic_socket,
                        .core_socket = dst->socket,
                        .cq = dst->ctx->create_cq()};
      auto* qa = src->ctx->create_qp(a);
      auto* qb = dst->ctx->create_qp(b);
      verbs::Context::connect(*qa, *qb);
      src->qps.push_back(qa);
      dst->in_qps.push_back(qb);  // indexed by src id (outer loop order)
      src->batchers.emplace_back(*qa, cfg_.batch,
                                 cfg_.batch_size * cfg_.entry_size);
      src->done_counters.push_back(std::make_unique<remem::RemoteSequencer>(
          *qa, dst->recv_mr->addr, dst->recv_mr->key));
    }
  }
}

sim::Task Shuffle::run_executor(Executor* ex, sim::CountdownLatch& done) {
  auto& eng = ex->ctx->engine();
  const auto& p = ex->ctx->params();
  const std::uint32_t n = cfg_.executors;
  sim::Rng rng(cfg_.seed * 1000003 + ex->id);

  // Entry CPU time is paid at the next flush, the first step others see. A
  // zero delay would still yield, so nothing owed pays nothing.
  sim::Duration owed = 0;
  auto flush = [this, ex, &eng, &owed](std::uint32_t dst) -> sim::TaskT<void> {
    auto& items = ex->pending[dst];
    if (items.empty()) co_return;
    if (owed > 0) co_await sim::delay(eng, std::exchange(owed, 0));
    Executor* d = executors_[dst].get();
    const std::uint64_t remote_base =
        d->recv_mr->addr + d->pair_off(ex->id, cfg_.entry_size) +
        ex->cursor[dst] * cfg_.entry_size;
    RDMASEM_CHECK_MSG(ex->cursor[dst] + items.size() <= ex->pair_capacity,
                      "pair sub-region overflow");
    const auto c = co_await ex->batchers[dst].flush(
        verbs::Opcode::kWrite, items, remote_base, d->recv_mr->key);
    RDMASEM_CHECK(c.ok());
    ex->cursor[dst] += items.size();
    items.clear();
  };

  for (std::uint64_t i = 0; i < cfg_.entries_per_executor; ++i) {
    // Generate the entry: key + payload, written into the send buffer.
    const std::uint64_t key = cfg_.keygen ? cfg_.keygen(ex->id, i)
                                          : rng.next();
    const std::uint32_t dst = dest_of(key, n);
    std::byte* rec = ex->send_buf.data() + ex->gen_off;
    fill_entry(rec, key, cfg_.entry_size);
    sent_checksum_ += entry_checksum(rec, cfg_.entry_size);
    owed += p.cpu_tuple_work + p.cpu_hash;

    Executor* d = executors_[dst].get();
    const std::uint64_t slot = ex->cursor[dst] + ex->pending[dst].size();
    ex->pending[dst].push_back(remem::BatchItem{
        {ex->send_mr->addr + ex->gen_off, cfg_.entry_size, ex->send_mr->key},
        d->recv_mr->addr + d->pair_off(ex->id, cfg_.entry_size) +
            slot * cfg_.entry_size});
    ex->gen_off += cfg_.entry_size;
    ++ex->sent_count[dst];

    const std::uint32_t trip =
        cfg_.batch == BatchMode::kNone ? 1 : cfg_.batch_size;
    if (ex->pending[dst].size() >= trip) co_await flush(dst);
  }
  for (std::uint32_t dst = 0; dst < n; ++dst) co_await flush(dst);

  // Stage hand-off: one-sided verbs are invisible to the next stage, so
  // signal completion with remote fetch-and-add on every destination's
  // done-counter (§IV-C Atomic operation).
  for (std::uint32_t dst = 0; dst < n; ++dst)
    (void)co_await ex->done_counters[dst]->next();

  done.count_down();
}

// Pull mode, stage 1: partition entries into per-destination staging runs
// on the sender (CPU copies, like a map task's spill), then post each
// destination's count into its control array (one small WRITE).
sim::Task Shuffle::run_producer(Executor* ex) {
  auto& eng = ex->ctx->engine();
  const auto& p = ex->ctx->params();
  const std::uint32_t n = cfg_.executors;
  sim::Rng rng(cfg_.seed * 1000003 + ex->id);

  sim::Duration owed = 0;
  for (std::uint64_t i = 0; i < cfg_.entries_per_executor; ++i) {
    const std::uint64_t key = cfg_.keygen ? cfg_.keygen(ex->id, i)
                                          : rng.next();
    const std::uint32_t dst = dest_of(key, n);
    RDMASEM_CHECK_MSG(ex->sent_count[dst] < ex->pair_capacity,
                      "staging sub-region overflow");
    std::byte* rec = ex->stage_buf.data() +
                     (static_cast<std::uint64_t>(dst) * ex->pair_capacity +
                      ex->sent_count[dst]) * cfg_.entry_size;
    fill_entry(rec, key, cfg_.entry_size);
    sent_checksum_ += entry_checksum(rec, cfg_.entry_size);
    ++ex->sent_count[dst];
    owed += p.cpu_tuple_work + p.cpu_hash + p.memcpy_time(cfg_.entry_size);
  }
  // The staging runs stay private until the counts go out: pay once.
  if (owed > 0) co_await sim::delay(eng, owed);
  // Publish counts (count+1 so "0 entries" is distinguishable from
  // "not yet published").
  for (std::uint32_t dst = 0; dst < n; ++dst) {
    Executor* d = executors_[dst].get();
    std::byte* slot = ex->ctrl_buf.data() + 56;  // scratch word for the WR
    const std::uint64_t v = ex->sent_count[dst] + 1;
    std::memcpy(slot, &v, 8);
    verbs::WorkRequest wr;
    wr.opcode = verbs::Opcode::kWrite;
    wr.sg_list = {{ex->ctrl_mr->addr + 56, 8, ex->ctrl_mr->key}};
    wr.remote_addr = d->ctrl_mr->addr + static_cast<std::uint64_t>(ex->id) * 64;
    wr.rkey = d->ctrl_mr->key;
    const auto c = co_await ex->qps[dst]->execute(std::move(wr));
    RDMASEM_CHECK(c.ok());
  }
}

// Pull mode, stage 2: the receiver polls its control array and READs each
// producer's staged run in batch_size-entry chunks (out-bound READ — the
// path the paper argues against).
sim::Task Shuffle::run_puller(Executor* ex, sim::CountdownLatch& done) {
  auto& eng = ex->ctx->engine();
  const std::uint32_t n = cfg_.executors;
  const std::uint32_t chunk =
      std::max<std::uint32_t>(1, cfg_.batch == BatchMode::kNone
                                     ? 1
                                     : cfg_.batch_size);
  for (std::uint32_t src = 0; src < n; ++src) {
    // Poll local memory until src's count arrives (its WRITE lands in our
    // control array).
    std::uint64_t published = 0;
    for (;;) {
      std::memcpy(&published,
                  ex->ctrl_buf.data() + static_cast<std::uint64_t>(src) * 64,
                  8);
      if (published != 0) break;
      co_await sim::delay(eng, sim::ns(500));
    }
    const std::uint64_t count = published - 1;
    Executor* s = executors_[src].get();
    for (std::uint64_t off = 0; off < count; off += chunk) {
      const auto entries =
          static_cast<std::uint32_t>(std::min<std::uint64_t>(chunk,
                                                             count - off));
      verbs::WorkRequest wr;
      wr.opcode = verbs::Opcode::kRead;
      wr.sg_list = {{ex->recv_mr->addr + ex->pair_off(src, cfg_.entry_size) +
                         off * cfg_.entry_size,
                     entries * cfg_.entry_size, ex->recv_mr->key}};
      wr.remote_addr = s->stage_mr->addr +
                       (static_cast<std::uint64_t>(ex->id) *
                            s->pair_capacity +
                        off) *
                           cfg_.entry_size;
      wr.rkey = s->stage_mr->key;
      const auto c = co_await ex->in_qps[src]->execute(std::move(wr));
      RDMASEM_CHECK(c.ok());
    }
  }
  done.count_down();
}

Result Shuffle::run() {
  auto& eng = ctxs_[0]->engine();
  sim::CountdownLatch done(eng, cfg_.executors);
  const sim::Time start = eng.now();
  // Each executor's coroutine runs on its machine's lane end to end (its
  // QPs are local, so verb completions resume it on the same lane).
  if (cfg_.direction == Direction::kPull) {
    for (auto& ex : executors_)
      eng.spawn_on(ex->machine + 1, run_producer(ex.get()));
    for (auto& ex : executors_)
      eng.spawn_on(ex->machine + 1, run_puller(ex.get(), done));
  } else {
    for (auto& ex : executors_)
      eng.spawn_on(ex->machine + 1, run_executor(ex.get(), done));
  }
  eng.run();
  RDMASEM_CHECK_MSG(done.remaining() == 0, "executors did not finish");

  Result r;
  r.elapsed = eng.now() - start;
  r.entries = static_cast<std::uint64_t>(cfg_.executors) *
              cfg_.entries_per_executor;
  r.mops = static_cast<double>(r.entries) / sim::to_us(r.elapsed);
  r.checksum = received_checksum();
  return r;
}

std::uint64_t Shuffle::received_checksum() const {
  std::uint64_t sum = 0;
  for (const auto& dst : executors_) {
    for (const auto& src : executors_) {
      const std::uint64_t count = src->sent_count[dst->id];
      const std::byte* base =
          dst->recv_buf.data() +
          (dst->pair_off(src->id, cfg_.entry_size) );
      for (std::uint64_t i = 0; i < count; ++i)
        sum += entry_checksum(base + i * cfg_.entry_size, cfg_.entry_size);
    }
  }
  return sum;
}

std::uint64_t Shuffle::received_count(std::uint32_t executor) const {
  std::uint64_t count = 0;
  for (const auto& src : executors_) count += src->sent_count[executor];
  return count;
}

void Shuffle::visit_received(
    std::uint32_t dst,
    const std::function<void(std::span<const std::byte>)>& fn) const {
  const Executor* d = executors_.at(dst).get();
  for (const auto& src : executors_) {
    const std::uint64_t count = src->sent_count[dst];
    const std::byte* base =
        d->recv_buf.data() + d->pair_off(src->id, cfg_.entry_size);
    for (std::uint64_t i = 0; i < count; ++i)
      fn({base + i * cfg_.entry_size, cfg_.entry_size});
  }
}

std::pair<std::uint32_t, hw::SocketId> Shuffle::placement(
    std::uint32_t e) const {
  const Executor* ex = executors_.at(e).get();
  return {ex->machine, ex->socket};
}

}  // namespace rdmasem::apps::shuffle
