#include "apps/dlog/dlog.hpp"

#include <cstring>

#include "sim/sync.hpp"
#include "util/assert.hpp"

namespace rdmasem::apps::dlog {

namespace {
// Record layout: [engine u64 | seq u64 | payload ... | checksum u64].
std::uint64_t record_checksum(const std::byte* rec, std::size_t n) {
  std::uint64_t h = 0x9ddfea08eb382d69ULL;
  for (std::size_t i = 0; i + 8 <= n - 8; i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, rec + i, 8);
    h = (h ^ w) * 0x2545f4914f6cdd1dULL;
    h ^= h >> 29;
  }
  return h;
}
}  // namespace

struct DistributedLog::Engine {
  std::uint32_t id;
  std::uint32_t machine;
  hw::SocketId socket;       // where this engine's thread runs
  hw::SocketId table_socket; // where its data tables live
  verbs::Context* ctx;
  verbs::Buffer table;       // the "data tables" records are taken from
  verbs::MemoryRegion* table_mr;
  verbs::Buffer staging;     // NUMA-friendly coalescing buffer
  verbs::MemoryRegion* staging_mr;
  verbs::QueuePair* qp;
  std::vector<verbs::QueuePair*> replica_qps;  // one per replica image
  std::unique_ptr<remem::RemoteSequencer> tail;
  std::uint64_t appended = 0;
};

DistributedLog::~DistributedLog() = default;

DistributedLog::DistributedLog(std::vector<verbs::Context*> ctxs,
                               const Config& cfg)
    : ctxs_(std::move(ctxs)), cfg_(cfg) {
  const auto& p = ctxs_[0]->params();
  auto* log_ctx = ctxs_.at(cfg_.log_machine);

  // Global log: [tail u64 | pad to 64 | records...].
  const std::uint64_t log_bytes =
      64 + static_cast<std::uint64_t>(cfg_.engines) *
               cfg_.records_per_engine * cfg_.record_size;
  log_mem_ = verbs::Buffer(log_bytes);
  log_mr_ = log_ctx->register_buffer(log_mem_, p.rnic_socket);

  // Replica images fill machines from the top of the cluster (replication
  // is one-sided so their CPUs stay idle). Engines fill from the bottom,
  // so crash drills can kill a replica host without killing writers.
  RDMASEM_CHECK_MSG(cfg_.replicas >= 1, "need at least the primary");
  auto replica_host = [this](std::uint32_t r) {
    return static_cast<std::uint32_t>(
        (cfg_.log_machine + ctxs_.size() - 1 - r) % ctxs_.size());
  };
  for (std::uint32_t r = 0; r + 1 < cfg_.replicas; ++r) {
    replica_mem_.emplace_back(log_bytes);
    replica_mrs_.push_back(ctxs_.at(replica_host(r))
                               ->register_buffer(replica_mem_.back(),
                                                 p.rnic_socket));
  }
  replica_dead_.assign(cfg_.replicas - 1, false);

  const auto writers = static_cast<std::uint32_t>(ctxs_.size()) - 1;
  for (std::uint32_t e = 0; e < cfg_.engines; ++e) {
    auto en = std::make_unique<Engine>();
    en->id = e;
    en->machine = 1 + e % writers;  // engines live off the log machine
    en->socket = (e / writers) % p.sockets_per_machine;
    // Data tables sit on the engine's alternate socket half the time —
    // the situation the paper's NUMA-aware copy path exists for.
    en->table_socket = (e % 2 == 0) ? en->socket : (1 - en->socket);
    en->ctx = ctxs_.at(en->machine);
    en->table = verbs::Buffer(cfg_.records_per_engine * cfg_.record_size);
    en->table_mr = en->ctx->register_buffer(en->table, en->table_socket);
    en->staging =
        verbs::Buffer(static_cast<std::size_t>(cfg_.batch_size) *
                      cfg_.record_size);
    en->staging_mr = en->ctx->register_buffer(en->staging, en->socket);

    // NUMA-aware: the engine posts on its own socket's port; the log
    // machine always terminates on the socket that owns the log memory.
    verbs::QpConfig a{.port = cfg_.numa_aware ? en->socket : p.rnic_socket,
                      .core_socket = en->socket,
                      .cq = en->ctx->create_cq()};
    verbs::QpConfig b{.port = p.rnic_socket,
                      .core_socket = p.rnic_socket,
                      .cq = log_ctx->create_cq()};
    auto* qa = en->ctx->create_qp(a);
    auto* qb = log_ctx->create_qp(b);
    verbs::Context::connect(*qa, *qb);
    en->qp = qa;
    // One extra QP per replica image (engine machine -> replica machine).
    for (std::uint32_t r = 0; r + 1 < cfg_.replicas; ++r) {
      const std::uint32_t m = replica_host(r);
      verbs::QpConfig ra = a;
      ra.cq = en->ctx->create_cq();
      // Failover needs dead-peer detection: bound the retry budget so a
      // crashed replica host turns into kRetryExceeded instead of
      // retrying forever.
      if (cfg_.failover) ra.retry_cnt = cfg_.failover_retry_cnt;
      verbs::QpConfig rb = b;
      rb.cq = ctxs_.at(m)->create_cq();
      auto* rqa = en->ctx->create_qp(ra);
      auto* rqb = ctxs_.at(m)->create_qp(rb);
      verbs::Context::connect(*rqa, *rqb);
      en->replica_qps.push_back(rqa);
    }
    en->tail = std::make_unique<remem::RemoteSequencer>(*qa, log_mr_->addr,
                                                        log_mr_->key);
    engines_.push_back(std::move(en));
  }

  // Pre-fill every engine's data table with checksummed records.
  for (auto& en : engines_) {
    for (std::uint64_t i = 0; i < cfg_.records_per_engine; ++i) {
      std::byte* rec = en->table.data() + i * cfg_.record_size;
      const std::uint64_t id64 = en->id;
      std::memcpy(rec, &id64, 8);
      std::memcpy(rec + 8, &i, 8);
      for (std::size_t b = 16; b + 8 <= cfg_.record_size - 8; b += 8) {
        const std::uint64_t w = (id64 << 32) ^ i ^ b;
        std::memcpy(rec + b, &w, 8);
      }
      const std::uint64_t sum = record_checksum(rec, cfg_.record_size);
      std::memcpy(rec + cfg_.record_size - 8, &sum, 8);
    }
  }
}

sim::Task DistributedLog::run_engine(Engine* en, sim::CountdownLatch& done) {
  auto& eng = en->ctx->engine();
  const auto& p = en->ctx->params();
  const std::uint32_t bs = cfg_.batch_size;

  for (std::uint64_t i = 0; i < cfg_.records_per_engine; i += bs) {
    const std::uint32_t count = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(bs, cfg_.records_per_engine - i));
    const std::uint32_t bytes = count * cfg_.record_size;

    // 0. Execute the transactions that produce these records.
    co_await sim::delay(eng, cfg_.record_cpu * count);

    // 1. Reserve consecutive space in the global log (remote FAA).
    const std::uint64_t offset = co_await en->tail->next(bytes);

    // 2. Assemble the write.
    verbs::WorkRequest wr;
    wr.opcode = verbs::Opcode::kWrite;
    wr.remote_addr = log_mr_->addr + 64 + offset;
    wr.rkey = log_mr_->key;
    const bool tables_remote = en->table_socket != en->socket;
    if (cfg_.numa_aware && tables_remote) {
      // SP copy path: coalesce the batch's records from the alternate-
      // socket tables into the NUMA-friendly staging buffer (one
      // streaming copy — the records are adjacent here), then write
      // from there so the RNIC's gather DMA never crosses sockets.
      std::memcpy(en->staging.data(),
                  en->table.data() + i * cfg_.record_size, bytes);
      co_await sim::delay(
          eng, p.memcpy_time(bytes) +
                   en->ctx->machine().topo().cpu_mem_penalty(
                       en->socket, en->table_socket));
      wr.sg_list = {{en->staging_mr->addr, bytes, en->staging_mr->key}};
    } else {
      // SGL coalescing straight from the data tables (contiguous here,
      // so one SGE covers the batch; scattered tables would add SGEs).
      wr.sg_list = {{en->table_mr->addr + i * cfg_.record_size, bytes,
                     en->table_mr->key}};
    }
    if (en->replica_qps.empty()) {
      const auto c = co_await en->qp->execute(std::move(wr));
      RDMASEM_CHECK_MSG(c.ok(), "log append failed");
    } else {
      // Tailwind-style replication: the primary and every live replica
      // write go out in parallel (waiters registered before posting); the
      // append is acknowledged when ALL of them have landed. A replica
      // whose connection died (host crash -> retry exhaustion) is dropped
      // from the set — the failover path — so later appends stream to the
      // survivors only; without failover any failure aborts.
      std::uint32_t live = 0;
      for (auto* q : en->replica_qps) live += (q != nullptr) ? 1u : 0u;
      sim::CountdownLatch landed(eng, 1 + live);
      auto arm = [&](verbs::QueuePair* q, verbs::WorkRequest w,
                     int replica) {
        w.wr_id = q->context().next_wr_id();
        w.signaled = true;
        auto waiter = [](DistributedLog* log, Engine* e,
                         verbs::QueuePair* qq, std::uint64_t wid,
                         int rep, sim::CountdownLatch& d) -> sim::Task {
          const auto c = co_await qq->wait(wid);
          if (!c.ok()) {
            RDMASEM_CHECK_MSG(log->cfg_.failover && rep >= 0,
                              "replicated append failed");
            log->drop_replica(e, static_cast<std::uint32_t>(rep));
          }
          d.count_down();
        };
        eng.spawn(waiter(this, en, q, w.wr_id, replica, landed));
        return w;
      };
      // Primary.
      co_await en->qp->post(arm(en->qp, wr, -1));
      // Replicas: same extent offset in each replica image.
      for (std::size_t r = 0; r < en->replica_qps.size(); ++r) {
        auto* rq = en->replica_qps[r];
        if (rq == nullptr) continue;  // dropped by an earlier append
        verbs::WorkRequest rep = wr;
        rep.remote_addr = replica_mrs_[r]->addr + 64 + offset;
        rep.rkey = replica_mrs_[r]->key;
        co_await rq->post(arm(rq, rep, static_cast<int>(r)));
      }
      co_await landed.wait();
    }
    en->appended += count;
  }
  done.count_down();
}

void DistributedLog::drop_replica(Engine* en, std::uint32_t r) {
  if (en->replica_qps[r] == nullptr) return;
  en->replica_qps[r] = nullptr;  // this engine stops replicating to r
  // r is no longer a recovery candidate.
  replica_dead_[r] = true;
  ++failovers_;
  const sim::Time now = en->ctx->engine().now();
  if (first_failover_at_ == 0 || now < first_failover_at_)
    first_failover_at_ = now;
}

Result DistributedLog::run() {
  auto& eng = ctxs_[0]->engine();
  sim::CountdownLatch done(eng, cfg_.engines);
  const sim::Time start = eng.now();
  // Each engine runs on its machine's lane end to end (its QPs are local).
  for (auto& en : engines_)
    eng.spawn_on(en->machine + 1, run_engine(en.get(), done));
  eng.run();
  RDMASEM_CHECK_MSG(done.remaining() == 0, "engines did not finish");

  Result r;
  r.elapsed = eng.now() - start;
  r.records = static_cast<std::uint64_t>(cfg_.engines) *
              cfg_.records_per_engine;
  r.mops = static_cast<double>(r.records) / sim::to_us(r.elapsed);
  r.log_bytes = tail();
  r.failovers = failovers_;
  r.first_failover_at = first_failover_at_;
  return r;
}

std::uint64_t DistributedLog::tail() const {
  std::uint64_t t = 0;
  std::memcpy(&t, log_mem_.data(), 8);
  return t;
}

bool DistributedLog::verify_image(const std::byte* records_base,
                                  std::uint64_t record_bytes) const {
  // Every record slot in [0, record_bytes) must hold an intact record;
  // count per engine must match what it appended.
  std::vector<std::uint64_t> per_engine(cfg_.engines, 0);
  for (std::uint64_t off = 0; off < record_bytes; off += cfg_.record_size) {
    const std::byte* rec = records_base + off;
    std::uint64_t id = 0, sum = 0;
    std::memcpy(&id, rec, 8);
    std::memcpy(&sum, rec + cfg_.record_size - 8, 8);
    if (id >= cfg_.engines) return false;
    if (sum != record_checksum(rec, cfg_.record_size)) return false;
    ++per_engine[id];
  }
  for (std::uint32_t e = 0; e < cfg_.engines; ++e)
    if (per_engine[e] != cfg_.records_per_engine) return false;
  return true;
}

bool DistributedLog::verify_dense_and_intact() const {
  const std::uint64_t expect_records =
      static_cast<std::uint64_t>(cfg_.engines) * cfg_.records_per_engine;
  if (tail() != expect_records * cfg_.record_size) return false;
  return verify_image(log_mem_.data() + 64, tail());
}

bool DistributedLog::verify_replicas_identical() const {
  for (std::size_t r = 0; r < replica_mem_.size(); ++r) {
    if (replica_dead_[r]) continue;  // dropped by failover; image is stale
    if (std::memcmp(replica_mem_[r].data() + 64, log_mem_.data() + 64,
                    tail()) != 0)
      return false;
  }
  return true;
}

bool DistributedLog::recover_from_replica(std::uint32_t r) const {
  if (r >= replica_mem_.size() || replica_dead_[r]) return false;
  // The tail word lives only on the primary (it is the FAA target); a
  // recovering node learns the extent from the replica's record area.
  return verify_image(replica_mem_[r].data() + 64, tail());
}

}  // namespace rdmasem::apps::dlog
