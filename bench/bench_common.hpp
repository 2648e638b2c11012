#pragma once

// Shared pieces of the figure/table reproduction harness.
//
// Every bench binary follows the same pattern:
//   * a plain sweep() runs each sweep point's simulation once, in a fixed
//     order, and appends the point's paper-style table row to a collector
//     (plus structured points via bench::point);
//   * main() hands the collector and sweep() to run_main(), which runs the
//     sweep, prints the table — the rows a reader compares against the
//     paper's figure — and writes BENCH_<name>.json.
//
// Points run in declaration order only because each report's committed
// table row order pins it: a point's results depend on its config alone.
//
// The closed loops the figures share are written once, here:
// batcher_mops (Figs. 3-5), hashtable_mops (Figs. 12, 13,
// ext_hashtable_mixed), join_seconds (Figs. 16, 17), shuffle_mops
// (Fig. 15, ext_push_pull) and dlog_mops (Fig. 19, ext_replication).
//
// Workload sizes honor the RDMASEM_* environment knobs (README) so the
// paper-scale runs are reproducible on bigger machines.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "apps/dlog/dlog.hpp"
#include "apps/hashtable/hashtable.hpp"
#include "apps/join/join.hpp"
#include "apps/shuffle/shuffle.hpp"
#include "obs/attr.hpp"
#include "obs/bench_export.hpp"
#include "obs/critical_path.hpp"
#include "obs/engine_profile.hpp"
#include "obs/json.hpp"
#include "remem/batch.hpp"
#include "sim/rng.hpp"
#include "util/env.hpp"
#include "util/table.hpp"
#include "wl/microbench.hpp"
#include "wl/rig.hpp"
#include "wl/zipf.hpp"

namespace rdmasem::bench {

// The paper-style table: a title, a header and the rows in the order the
// sweep appended them.
class FigureCollector {
 public:
  explicit FigureCollector(std::string title, std::vector<std::string> header)
      : title_(std::move(title)), header_(std::move(header)) {}

  void add(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  void print() const {
    util::Table t(header_);
    t.set_title(title_);
    for (const auto& r : rows_) t.add_row(r);
    t.print();
  }

  bool empty() const { return rows_.empty(); }

  const std::string& title() const { return title_; }
  const std::vector<std::string>& header() const { return header_; }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

// Process-wide structured report (BENCH_<name>.json) and the merged
// lifecycle-trace sink. Sweep points run on short-lived clusters, so each
// run's spans and stage totals are folded in here before the cluster dies.
inline obs::BenchReport& report() {
  static obs::BenchReport r;
  return r;
}
inline std::vector<obs::Span>& trace_spans() {
  static std::vector<obs::Span> s;
  return s;
}
// Attribution-record sink and the PROCESS-WIDE resource-name table the
// sunk records index into. Every cluster interns names in its own order,
// so absorb() remaps each batch before sinking it.
inline std::vector<obs::AttrSpan>& trace_attrs() {
  static std::vector<obs::AttrSpan> a;
  return a;
}
inline std::vector<std::string>& trace_res_names() {
  static std::vector<std::string> n;
  return n;
}
inline std::uint16_t intern_trace_res(const std::string& name) {
  auto& names = trace_res_names();
  for (std::size_t i = 0; i < names.size(); ++i)
    if (names[i] == name) return static_cast<std::uint16_t>(i);
  names.push_back(name);
  return static_cast<std::uint16_t>(names.size() - 1);
}
// Plane-1 aggregates (per-resource queueing waits, per-WR critical path)
// and the Plane-2 host-time engine profile, all merged across the
// process's sweep-point clusters.
inline obs::ResourceWaits& resource_waits() {
  static obs::ResourceWaits w;
  return w;
}
inline obs::CriticalPath& critical_path() {
  static obs::CriticalPath c;
  return c;
}
inline obs::EngineProfileAccum& engine_profile() {
  static obs::EngineProfileAccum a;
  return a;
}

// Folds one finished cluster's observability state into the process-wide
// report: stage totals merge, trace spans + attribution records move into
// the shared sinks (critical path folded first, while the attribution ids
// are still cluster-local), every live resource's wait counters fold into
// the bottleneck table, the engine's host-time profile is drained, and
// the metrics registry is sampled once so the report carries a final
// counter/gauge snapshot (last absorbed cluster wins). Call once per
// cluster: resource counters are cumulative and would double-fold.
inline void absorb(cluster::Cluster& c) {
  obs::Hub& hub = c.obs();
  report().absorb(hub.tracer.breakdown());
  if (hub.tracer.enabled()) {
    auto spans = hub.tracer.drain();
    auto attrs = hub.tracer.drain_attrs();
    const auto& names = hub.tracer.res_names();
    critical_path().fold(spans, attrs, names);
    std::vector<std::uint16_t> remap(names.size());
    for (std::size_t i = 0; i < names.size(); ++i)
      remap[i] = intern_trace_res(names[i]);
    for (auto& a : attrs)
      if (a.res < remap.size()) a.res = remap[a.res];
    auto& asink = trace_attrs();
    asink.insert(asink.end(), attrs.begin(), attrs.end());
    auto& sink = trace_spans();
    sink.insert(sink.end(), spans.begin(), spans.end());
  }
  c.for_each_resource([](sim::Resource& r) { resource_waits().add(r); });
  engine_profile().absorb(c.engine().drain_profile());
  hub.metrics.sample(c.engine().now());
  report().set_metrics_json(hub.metrics.json());
}

// Records one structured sweep point alongside the human-readable table
// row the bench also emits.
inline void point(const std::string& series, const std::string& x,
                  const wl::BenchResult& r) {
  obs::BenchRow row;
  row.series = series;
  row.x = x;
  row.mops = r.mops;
  row.avg_us = r.avg_latency_us;
  row.p50_us = r.p50_latency_us;
  row.p99_us = r.p99_latency_us;
  row.p999_us = r.p999_latency_us;
  row.errors = r.errors;
  report().add(std::move(row));
}

// Throughput-only variant for benches that measure outside run_closed_loop
// (e.g. the lock/sequencer loops of fig10).
inline void point_mops(const std::string& series, const std::string& x,
                       double mops) {
  obs::BenchRow row;
  row.series = series;
  row.x = x;
  row.mops = mops;
  report().add(std::move(row));
}

// Called by run_main after the paper table prints: names the
// report after the binary, mirrors the table, writes the merged Chrome
// trace (when tracing ran) and BENCH_<name>.json into RDMASEM_BENCH_OUT
// (default "." when unset; set to the empty string to disable file output).
inline void finish(const char* argv0, const FigureCollector& collector) {
  // Read directly: util::env_str treats an empty value as unset.
  const char* out_env = std::getenv("RDMASEM_BENCH_OUT");
  const std::string dir = out_env != nullptr ? out_env : ".";
  if (dir.empty()) return;
  std::string name = argv0 != nullptr ? argv0 : "bench";
  const auto slash = name.find_last_of('/');
  if (slash != std::string::npos) name = name.substr(slash + 1);
  obs::BenchReport& r = report();
  r.set_name(name);
  r.set_table(collector.title(), collector.header(), collector.rows());
  const std::string stages = r.stages().render();
  if (!stages.empty()) std::fputs(stages.c_str(), stdout);
  const std::string waits = resource_waits().render();
  if (!waits.empty()) std::fputs(waits.c_str(), stdout);
  const std::string cpath = critical_path().render();
  if (!cpath.empty()) std::fputs(cpath.c_str(), stdout);
  const std::string eprof = engine_profile().render();
  if (!eprof.empty()) std::fputs(eprof.c_str(), stdout);
  if (!resource_waits().empty())
    r.set_resource_waits_json(resource_waits().json());
  if (!critical_path().empty())
    r.set_critical_path_json(critical_path().json());
  if (!engine_profile().empty()) {
    const std::string ejson = engine_profile().json();
    r.set_engine_profile_json(ejson);
    const std::string epath =
        util::env_str("RDMASEM_PROF_OUT", dir + "/ENGINE_PROFILE.json");
    if (!epath.empty() && obs::write_text_file(epath, ejson))
      std::fprintf(stderr, "engine profile: %s\n", epath.c_str());
  }
  if (!trace_spans().empty()) {
    const std::string tpath = dir + "/trace_" + name + ".json";
    if (obs::write_text_file(
            tpath, obs::chrome_trace_json(trace_spans(), trace_attrs(),
                                          trace_res_names())))
      r.set_trace_file(tpath);
  }
  const std::string out = r.write(dir);
  if (!out.empty()) std::fprintf(stderr, "bench report: %s\n", out.c_str());
}

// A microbench rig: machine0 -> machine1 with per-thread QPs over one
// src/dst buffer pair (the §III experiments).
struct MicroRig {
  wl::Rig rig;
  verbs::Buffer src;
  verbs::Buffer dst;
  verbs::MemoryRegion* lmr;
  verbs::MemoryRegion* rmr;
  std::vector<verbs::QueuePair*> qps;

  MicroRig(std::size_t src_size, std::size_t dst_size, std::uint32_t threads,
           hw::ModelParams params = hw::ModelParams::connectx3_cluster())
      : rig(params), src(src_size), dst(dst_size) {
    lmr = rig.ctx[0]->register_buffer(src, 1);
    rmr = rig.ctx[1]->register_buffer(dst, 1);
    for (std::uint32_t t = 0; t < threads; ++t)
      qps.push_back(rig.connect(0, 1).local);
  }

  wl::BenchResult run(const verbs::WorkRequest& proto, std::uint32_t window,
                      std::uint64_t ops_per_client) {
    wl::ClientSpec spec;
    spec.qps = qps;
    spec.window = window;
    spec.ops_per_client = ops_per_client;
    spec.make_wr = [proto](std::uint32_t, std::uint64_t) { return proto; };
    wl::BenchResult r = wl::run_closed_loop(rig.eng, spec);
    absorb(rig.cluster);
    return r;
  }
};

// Standard env-scaled op count (per client) for microbench sweeps.
inline std::uint64_t micro_ops(std::uint64_t def = 8000) {
  return util::env_u64("RDMASEM_MICRO_OPS", def);
}

// The batch figures' closed loop (Figs. 3-5): `threads` clients on one
// rig, each with its own QP and Batcher, flush `reps` WRITEs of `batch`
// pieces of `size` bytes (4 KiB apart locally; SP stages size * batch)
// from machine 0 to 1. Returns the per-thread MOPS.
inline double batcher_mops(remem::BatchMode mode, std::uint32_t size,
                           std::uint32_t batch, std::uint32_t threads,
                           std::uint64_t reps) {
  wl::Rig rig;
  verbs::Buffer src(1 << 18), dst(1 << 18);
  auto* lmr = rig.ctx[0]->register_buffer(src, 1);
  auto* rmr = rig.ctx[1]->register_buffer(dst, 1);
  std::vector<remem::Batcher> batchers;
  batchers.reserve(threads);
  sim::Time end = 0;
  for (std::uint32_t t = 0; t < threads; ++t) {
    batchers.emplace_back(*rig.connect(0, 1).local, mode,
                          static_cast<std::size_t>(size) * batch);
    auto loop = [](wl::Rig& r, remem::Batcher& b, verbs::MemoryRegion* l,
                   verbs::MemoryRegion* rm, std::uint32_t sz, std::uint32_t n,
                   std::uint32_t tid, std::uint64_t k,
                   sim::Time& e) -> sim::Task {
      std::vector<remem::BatchItem> items;
      for (std::uint64_t i = tid * n; i < (tid + 1) * n; ++i)
        items.push_back({{l->addr + i * 4096, sz, l->key}, rm->addr + i * sz});
      for (std::uint64_t i = 0; i < k; ++i)
        (void)co_await b.flush(verbs::Opcode::kWrite, items,
                               rm->addr + tid * 4096, rm->key);
      e = std::max(e, r.eng.now());
    };
    rig.eng.spawn(
        loop(rig, batchers.back(), lmr, rmr, size, batch, t, reps, end));
  }
  rig.eng.run();
  return static_cast<double>(batch) * static_cast<double>(reps) * threads /
         sim::to_us(end) / threads;
}

// --- app drivers (§IV figures) ---------------------------------------------
//
// Each driver runs one sweep point on a fresh rig, checks the app's own
// result and returns the number the table row prints. A point depends on
// its arguments (and the RDMASEM_* size knobs) alone, so a sweep runs a
// config that two panels share once. `after(rig, app)` runs after the
// check, before the rig dies: where a bench folds the run into its report
// or reads more than the one number.

struct NoAfter {
  template <typename... A>
  void operator()(A&&...) const {}
};

// Hashtable front-end loop (Figs. 12, 13, ext_hashtable_mixed): a table of
// RDMASEM_HT_KEYS keys on machine 0 and `front_ends` front-ends, front-end
// i on machine 1 + i % 7, socket (i / 7) % 2, each driving 4 pipelined
// workers. Worker `id` issues RDMASEM_HT_OPS ops on zipf(0.99) keys seeded
// `zipf_seed + id`; each op is a put, or a get with probability
// 1 - write_fraction (coin seeded 900 + id). Returns MOPS up to the last
// worker's end.
inline double hashtable_mops(apps::hashtable::Config cfg,
                             std::uint32_t front_ends, std::uint64_t zipf_seed,
                             double write_fraction = 1.0) {
  namespace ht = apps::hashtable;
  wl::Rig rig;
  cfg.num_keys = util::env_u64("RDMASEM_HT_KEYS", 1 << 14);
  ht::DisaggHashTable table(*rig.ctx[0], cfg);
  const std::uint32_t pipeline = 4;
  const std::uint64_t ops = util::env_u64("RDMASEM_HT_OPS", 600);
  std::vector<std::unique_ptr<ht::FrontEnd>> fes;
  sim::Time end = 0;
  const std::vector<std::byte> value(cfg.value_size);
  for (std::uint32_t i = 0; i < front_ends; ++i) {
    fes.push_back(table.add_front_end(*rig.ctx[1 + i % 7], (i / 7) % 2));
    for (std::uint32_t w = 0; w < pipeline; ++w) {
      auto loop = [](wl::Rig& r, ht::FrontEnd& f, std::uint64_t keys,
                     std::uint64_t zipf_id, std::uint64_t coin_id,
                     std::uint64_t n, double wf, std::span<const std::byte> v,
                     sim::Time& e) -> sim::Task {
        wl::ZipfGenerator zipf(keys, 0.99, zipf_id);
        sim::Rng coin(coin_id);
        for (std::uint64_t k = 0; k < n; ++k) {
          const std::uint64_t key = zipf.next();
          if (coin.chance(wf))
            co_await f.put(key, v);
          else
            (void)co_await f.get(key);
        }
        e = std::max(e, r.eng.now());
      };
      const std::uint32_t id = i * pipeline + w;
      rig.eng.spawn(loop(rig, *fes.back(), cfg.num_keys, zipf_seed + id,
                         900 + id, ops, write_fraction, value, end));
    }
  }
  rig.eng.run();
  return static_cast<double>(front_ends) * pipeline *
         static_cast<double>(ops) / sim::to_us(end);
}

// Distributed join (Figs. 16, 17): simulated seconds of one checked run.
inline double join_seconds(const apps::join::Config& cfg) {
  wl::Rig rig;
  const auto r = apps::join::run_join(rig.contexts(), cfg);
  RDMASEM_CHECK_MSG(r.verified(), "join produced wrong match count");
  return r.seconds;
}

// Distributed shuffle (Fig. 15, ext_push_pull): MOPS of one run whose
// received checksum matches the sent one.
template <typename After = NoAfter>
double shuffle_mops(const apps::shuffle::Config& cfg, After after = {}) {
  wl::Rig rig;
  apps::shuffle::Shuffle s(rig.contexts(), cfg);
  const auto r = s.run();
  RDMASEM_CHECK_MSG(s.received_checksum() == s.sent_checksum(),
                    "shuffle corrupted data");
  after(rig, s);
  return r.mops;
}

// Distributed log (Fig. 19, ext_replication): MOPS of one run whose log
// is dense and intact.
template <typename After = NoAfter>
double dlog_mops(const apps::dlog::Config& cfg, After after = {}) {
  wl::Rig rig;
  apps::dlog::DistributedLog log(rig.contexts(), cfg);
  const double mops = log.run().mops;
  RDMASEM_CHECK_MSG(log.verify_dense_and_intact(), "log corrupted");
  after(rig, log);
  return mops;
}

// Table cell for the errors column of a paper-style table.
inline std::string errors_cell(const wl::BenchResult& r) {
  return r.errors ? std::to_string(r.errors) + " (" + r.error_breakdown() + ")"
                  : "0";
}

// Compiler barrier: keeps `v` (and every memory write before it) alive
// without emitting an instruction, so a timed loop cannot be optimized away.
template <typename T>
inline __attribute__((always_inline)) void keep(const T& v) {
  asm volatile("" : : "r,m"(v) : "memory");
}

// The whole of a bench's main(): every knob is an RDMASEM_* env var, so
// any argument is rejected (a stale flag must not run an empty sweep).
// Otherwise runs the sweep, prints the paper table and writes the report.
inline int run_main(int argc, char** argv, const FigureCollector& collector,
                    void (*sweep)()) {
  if (argc > 1) {
    std::fprintf(stderr,
                 "usage: %s  (takes no arguments; sizes come from the "
                 "RDMASEM_* env knobs in README)\n",
                 argv[0]);
    return 2;
  }
  sweep();
  collector.print();
  finish(argv[0], collector);
  return 0;
}

}  // namespace rdmasem::bench
