#include "apps/join/join.hpp"

#include <cstring>

#include "apps/join/chmap.hpp"
#include "sim/sync.hpp"
#include "util/assert.hpp"

namespace rdmasem::apps::join {

namespace {

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Per-tuple CPU cost of one hash-map operation during build/probe:
// key hash + one dependent cache/DRAM touch.
sim::Duration tuple_op_cost(const hw::ModelParams& p) {
  return p.cpu_hash + p.cpu_tuple_work + sim::ns(45);
}

}  // namespace

std::uint64_t r_key(std::uint64_t global_index) {
  return splitmix(global_index) | 1;  // avoid key 0 (empty-slot sentinel)
}

std::uint64_t s_key(std::uint64_t global_index, std::uint64_t tuples) {
  if (global_index < tuples / 2) return r_key(global_index);  // match
  return splitmix(global_index + (1ULL << 40)) | 1;  // miss (w.h.p.)
}

Result run_join(std::vector<verbs::Context*> ctxs, const Config& cfg) {
  RDMASEM_CHECK_MSG(!ctxs.empty(), "no contexts");
  auto& eng = ctxs[0]->engine();
  const auto& p = ctxs[0]->params();
  Result res;
  res.expected_matches = cfg.tuples / 2;
  const sim::Time t0 = eng.now();

  if (!cfg.distributed) {
    // Single-machine baseline: scan R building the map, then probe S,
    // all on one core. Real data structure, modeled CPU time.
    ConcurrentHashMap map(cfg.tuples);
    std::uint64_t matches = 0;
    auto task = [](sim::Engine& e, const hw::ModelParams& pp,
                   const Config& c, ConcurrentHashMap& m,
                   std::uint64_t& out) -> sim::Task {
      // Nothing else runs, so the CPU time is charged once at the end.
      sim::Duration owed = 0;
      for (std::uint64_t i = 0; i < c.tuples; ++i) {
        m.insert(r_key(i), i);
        owed += tuple_op_cost(pp);
      }
      for (std::uint64_t i = 0; i < c.tuples; ++i) {
        out += m.count(s_key(i, c.tuples));
        owed += tuple_op_cost(pp);
      }
      co_await sim::delay(e, owed);
    };
    eng.spawn(task(eng, p, cfg, map, matches));
    eng.run();
    res.matches = matches;
    res.seconds = sim::to_sec(eng.now() - t0);
    res.build_probe_seconds = res.seconds;
    return res;
  }

  // ---- Partition phase: shuffle R, then S, with the SGL batch schedule.
  const std::uint64_t per_exec = cfg.tuples / cfg.executors;
  shuffle::Config sc;
  sc.executors = cfg.executors;
  sc.entries_per_executor = per_exec;
  sc.entry_size = 16;  // key u64 + payload u64
  sc.batch = cfg.batch_size <= 1 ? shuffle::BatchMode::kNone : cfg.batch;
  sc.batch_size = cfg.batch_size;
  sc.numa_aware = cfg.numa_aware;
  sc.machines = cfg.machines;
  sc.seed = cfg.seed;
  sc.keygen = [per_exec](std::uint32_t e, std::uint64_t i) {
    return r_key(e * per_exec + i);
  };
  shuffle::Shuffle shuffle_r(ctxs, sc);
  (void)shuffle_r.run();

  sc.keygen = [per_exec, &cfg](std::uint32_t e, std::uint64_t i) {
    return s_key(e * per_exec + i, cfg.tuples);
  };
  shuffle::Shuffle shuffle_s(ctxs, sc);
  (void)shuffle_s.run();
  res.partition_seconds = sim::to_sec(eng.now() - t0);

  // ---- Build-probe phase: every executor joins its partition locally.
  const sim::Time t1 = eng.now();
  // One slot per executor, written only from that executor's lane; summed
  // in index order after the run.
  std::vector<std::uint64_t> matches(cfg.executors, 0);
  sim::CountdownLatch done(eng, cfg.executors);
  std::vector<std::unique_ptr<ConcurrentHashMap>> maps;
  for (std::uint32_t e = 0; e < cfg.executors; ++e)
    maps.push_back(std::make_unique<ConcurrentHashMap>(
        shuffle_r.received_count(e) + 64));

  for (std::uint32_t e = 0; e < cfg.executors; ++e) {
    auto worker = [](sim::Engine& en, const hw::ModelParams& pp,
                     const shuffle::Shuffle& sr, const shuffle::Shuffle& ss,
                     std::uint32_t ex, ConcurrentHashMap& map,
                     std::uint64_t& out, sim::CountdownLatch& d) -> sim::Task {
      // Build from the R partition (real bytes received over the fabric).
      // Map and matches are the worker's own: charge its CPU time once.
      sim::Duration owed = 0;
      std::vector<std::pair<std::uint64_t, std::uint64_t>> rows;
      sr.visit_received(ex, [&](std::span<const std::byte> rec) {
        std::uint64_t key = 0, payload = 0;
        std::memcpy(&key, rec.data(), 8);
        std::memcpy(&payload, rec.data() + 8, 8);
        rows.emplace_back(key, payload);
      });
      for (const auto& [key, payload] : rows) {
        map.insert(key, payload);
        owed += tuple_op_cost(pp);
      }
      // Probe with the S partition.
      rows.clear();
      ss.visit_received(ex, [&](std::span<const std::byte> rec) {
        std::uint64_t key = 0;
        std::memcpy(&key, rec.data(), 8);
        rows.emplace_back(key, 0);
      });
      std::uint64_t local_matches = 0;
      for (const auto& [key, unused] : rows) {
        (void)unused;
        local_matches += map.count(key);
        owed += tuple_op_cost(pp);
      }
      co_await sim::delay(en, owed);
      out += local_matches;
      d.count_down();
    };
    eng.spawn_on(shuffle_r.placement(e).first + 1,
                 worker(eng, p, shuffle_r, shuffle_s, e, *maps[e], matches[e],
                        done));
  }
  eng.run();
  RDMASEM_CHECK_MSG(done.remaining() == 0, "join workers did not finish");

  res.build_probe_seconds = sim::to_sec(eng.now() - t1);
  res.matches = 0;
  for (const std::uint64_t m : matches) res.matches += m;
  res.seconds = sim::to_sec(eng.now() - t0);
  return res;
}

}  // namespace rdmasem::apps::join
