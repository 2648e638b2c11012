// rdmasem_perfbench — runs one benchmark workload in this process and
// prints its metrics as one JSON line.
//
//   rdmasem_perfbench --workload <shuffle16|randseq_sweep|kv_mixed>
//                     --seed <n> --seconds <s> --trace <0|1> [--corrupt]
//
// Inputs are generated once from --seed, then the workload's simulations
// run as whole passes until --seconds have elapsed (at least three passes,
// four when traced). Host times are medians over passes, scaled by a
// host-speed reference timed between passes; simulated time,
// counters and the determinism digest come from the first pass, which is
// a pure function of the seed. --trace 0 prints the end-to-end metrics;
// --trace 1 alternates traced and untraced passes and prints the
// per-layer metrics. --corrupt flips one output byte of the first
// randseq_sweep simulation so the output check must fail.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.hpp"

extern char** environ;

namespace {

using perfbench::Clock;
using perfbench::PassStats;
using perfbench::secs_since;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool corrupt = false;
};

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--corrupt") {
      o.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      o.trace = std::strcmp(v, "0") != 0;
    } else {
      return false;
    }
  }
  return !o.workload.empty() && o.seconds > 0;
}

// Every RDMASEM_* variable changes what the library does (shard count,
// profiling, tracing, datapath and engine fallbacks, scale knobs), so a
// run that inherits one would silently measure something else.
std::vector<std::string> inherited_knobs() {
  std::vector<std::string> out;
  for (char** e = environ; *e != nullptr; ++e)
    if (std::strncmp(*e, "RDMASEM_", 8) == 0) out.emplace_back(*e);
  return out;
}

// Calibrated spin probe: the same spin on `n` threads at once, against
// one thread alone. n * t1 / tn is the number of cores that really ran in
// parallel, whatever the host reports.
double effective_cores(unsigned n) {
  std::atomic<std::uint64_t> sink{0};
  auto spin = [&sink](std::uint64_t iters) {
    std::uint64_t x = iters;
    for (std::uint64_t i = 0; i < iters; ++i)
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    sink.fetch_add(x, std::memory_order_relaxed);
  };
  std::uint64_t iters = 1u << 20;
  for (;;) {
    const auto t0 = Clock::now();
    spin(iters);
    if (secs_since(t0) > 0.02 || iters > (1ull << 40)) break;
    iters *= 2;
  }
  // Best of three on each side, so a stray preemption does not count.
  double t1 = 1e9, tn = 1e9;
  for (int rep = 0; rep < 3; ++rep) {
    auto t0 = Clock::now();
    spin(iters);
    t1 = std::min(t1, secs_since(t0));
    t0 = Clock::now();
    std::vector<std::thread> threads;
    for (unsigned i = 1; i < n; ++i) threads.emplace_back(spin, iters);
    spin(iters);
    for (auto& t : threads) t.join();
    tn = std::min(tn, secs_since(t0));
  }
  return n * t1 / tn;
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(p / 100.0 * (xs.size() - 1) + 0.5);
  return xs[std::min(rank, xs.size() - 1)];
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 50); }

enum class Passes { kAll, kUntraced, kTraced };

bool selected(const PassStats& p, Passes which) {
  return which == Passes::kAll || p.traced == (which == Passes::kTraced);
}

template <typename F>
double median_of(const std::vector<PassStats>& ps, Passes which, F&& f) {
  std::vector<double> xs;
  for (const PassStats& p : ps)
    if (selected(p, which)) xs.push_back(f(p));
  return median(std::move(xs));
}

// Sums, over a pass's simulations, `reduce` of each simulation's samples
// of `field` across the selected passes. Reducing per simulation means a
// burst of host noise spoils one sample of one simulation, not a pass.
template <typename Reduce>
double per_point_sum(const std::vector<PassStats>& ps,
                     std::vector<double> PassStats::*field, Passes which,
                     Reduce reduce) {
  std::vector<std::vector<double>> per_point;
  for (const PassStats& p : ps) {
    if (!selected(p, which)) continue;
    const std::vector<double>& xs = p.*field;
    per_point.resize(std::max(per_point.size(), xs.size()));
    for (std::size_t i = 0; i < xs.size(); ++i) per_point[i].push_back(xs[i]);
  }
  double sum = 0;
  for (auto& xs : per_point) sum += reduce(std::move(xs));
  return sum;
}

// After each pass the reference loop runs until it has taken this share of
// the pass's host time: one sample is short and noisy, so a run needs many.
constexpr double kReferenceShare = 0.2;

// The host-speed scale: the reference's nominal seconds over the median of
// its samples taken between this run's passes.
double host_scale(const std::vector<PassStats>& ps) {
  std::vector<double> xs;
  for (const PassStats& p : ps)
    xs.insert(xs.end(), p.reference_s.begin(), p.reference_s.end());
  const double ref = median(std::move(xs));
  return ref > 0 ? perfbench::kReferenceNominalS / ref : 1.0;
}

// run_s sums each simulation's median run over the selected passes, scaled
// to the steady host. Other tenants of a shared host slow it for tens of
// seconds at a time, which moves even the fastest of a run's passes by a
// third; the reference loop, timed between the same passes, slows with them.
double run_s_of(const std::vector<PassStats>& ps, Passes which,
                double scale) {
  return per_point_sum(ps, &PassStats::point_run_s, which, median) * scale;
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

class MetricsJson {
 public:
  void add(const char* name, double value, const char* unit) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.15g, \"unit\": \"%s\"}",
                  body_.empty() ? "" : ", ", name, value, unit);
    body_ += buf;
  }
  const std::string& body() const { return body_; }

 private:
  std::string body_;
};

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "perfbench: refusing an unoptimised build\n");
  return 3;
#endif
  const std::vector<std::string> knobs = inherited_knobs();
  if (!knobs.empty()) {
    for (const auto& k : knobs)
      std::fprintf(stderr, "perfbench: inherited %s changes what is measured\n",
                   k.c_str());
    std::fprintf(stderr, "perfbench: refusing to run; unset RDMASEM_*\n");
    return 2;
  }
  Options o;
  if (!parse(argc, argv, o)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--corrupt]\n",
                 argv[0]);
    return 2;
  }
  std::unique_ptr<perfbench::Workload> w = perfbench::make_workload(o.workload);
  if (!w) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 o.workload.c_str());
    return 2;
  }

  // A fixed mmap threshold turns off glibc's adaptive one, which would
  // move later passes' large buffers onto the reused heap: every pass then
  // pays the same first-touch cost, and the peak RSS does not depend on
  // how many passes ran.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);

  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const double cores = effective_cores(nproc);

  double input_gen_s = 0;
  {
    perfbench::ScopedTimer t(input_gen_s);
    w->generate(o.seed);
  }

  // Pass 0 is the digest pass. Traced runs alternate traced (even) and
  // untraced (odd) passes so the trace overhead is a same-process ratio.
  const std::size_t min_passes = o.trace ? 4 : 3;
  std::vector<PassStats> passes;
  const auto t0 = Clock::now();
  while (passes.size() < min_passes || secs_since(t0) < o.seconds) {
    PassStats st;
    st.traced = o.trace && passes.size() % 2 == 0;
    const auto pass_t0 = Clock::now();
    w->pass(st, o.corrupt && passes.empty());
    const double pass_s = secs_since(pass_t0);
    double reference_s = 0;
    do {
      st.reference_s.push_back(perfbench::reference_sample());
      reference_s += st.reference_s.back();
    } while (reference_s < kReferenceShare * pass_s);
    std::fprintf(stderr,
                 "pass %zu%s: run_s %.4f setup_s %.4f verify_s %.4f "
                 "reference_s %.4f x %zu\n",
                 passes.size(), st.traced ? " (traced)" : "", st.run_s,
                 st.setup_s(), st.verify_s, median(st.reference_s),
                 st.reference_s.size());
    const bool failed = st.check_failures != 0;
    passes.push_back(std::move(st));
    if (failed) break;
  }

  const PassStats& first = passes.front();
  bool correct = true;
  std::uint64_t attempted = 0, wr_failed = 0;
  for (const PassStats& p : passes) {
    correct = correct && p.check_failures == 0;
    attempted += p.ops;
    wr_failed += p.wr_failed;
  }
  const std::uint64_t failed =
      correct ? std::min(wr_failed, attempted) : attempted;

  // Every host time printed below is scaled to the steady host; run times
  // by the workload's sensitivity to host speed, the rest linearly.
  const double scale = host_scale(passes);
  const double run_scale = std::pow(scale, w->host_sensitivity());
  const auto all = [&](auto f) {
    return median_of(passes, Passes::kAll, f) * scale;
  };
  const double run_s = run_s_of(passes, Passes::kUntraced, run_scale);

  MetricsJson m;
  if (!o.trace) {
    m.add("run_s", run_s, "s");
    m.add("setup_s",
          per_point_sum(passes, &PassStats::point_setup_s, Passes::kAll,
                        median) *
              scale,
          "s");
    m.add("peak_rss_mib", peak_rss_mib(), "MiB");
    m.add("sim_s", static_cast<double>(first.sim_ps) * 1e-12, "s");
  } else {
    m.add("cluster.setup_s",
          all([](const PassStats& p) { return p.cluster_setup_s; }), "s");
    m.add("verbs.mr_setup_s",
          all([](const PassStats& p) { return p.mr_setup_s; }), "s");
    m.add("verbs.qp_setup_s",
          all([](const PassStats& p) { return p.qp_setup_s; }), "s");
    m.add("apps.setup_s",
          all([](const PassStats& p) { return p.apps_setup_s; }), "s");
    m.add("apps.verify_s", all([](const PassStats& p) { return p.verify_s; }),
          "s");
    m.add("wl.input_gen_s", input_gen_s * scale, "s");
    m.add("sim.events", static_cast<double>(first.events), "count");
    m.add("sim.ns_per_event",
          first.events ? run_s * 1e9 / static_cast<double>(first.events) : 0,
          "ns");
    m.add("sim.inline_share", ratio(first.inline_grants, first.events),
          "ratio");
    m.add("sim.max_queue_depth", static_cast<double>(first.max_queue_depth),
          "count");
    m.add("verbs.wr_posted", static_cast<double>(first.wr_posted), "count");
    m.add("verbs.wr_failed", static_cast<double>(first.wr_failed), "count");
    m.add("verbs.zero_copy_share", ratio(first.zero_copy, first.wr_posted),
          "ratio");
    m.add("verbs.pool_hit_ratio",
          ratio(first.pool_hits, first.pool_hits + first.pool_misses),
          "ratio");
    m.add("rnic.eu.busy_share", first.eu.busy_share(), "ratio");
    m.add("rnic.eu.wait_ps_per_req", first.eu.wait_ps_per_req(), "ps");
    m.add("rnic.atomic.busy_share", first.atomic.busy_share(), "ratio");
    m.add("rnic.atomic.wait_ps_per_req", first.atomic.wait_ps_per_req(),
          "ps");
    m.add("rnic.mcache.stall_ps", static_cast<double>(first.mcache_stall_ps),
          "ps");
    m.add("hw.mcache.hit_ratio",
          ratio(first.mcache_hits, first.mcache_hits + first.mcache_misses),
          "ratio");
    m.add("hw.mcache.misses", static_cast<double>(first.mcache_misses),
          "count");
    m.add("hw.dram.busy_share", first.dram.busy_share(), "ratio");
    m.add("hw.dram.wait_ps_per_req", first.dram.wait_ps_per_req(), "ps");
    m.add("hw.pcie.busy_share", first.pcie.busy_share(), "ratio");
    m.add("net.messages", static_cast<double>(first.net_messages), "count");
    m.add("net.bytes", static_cast<double>(first.net_bytes), "B");
    m.add("net.link.busy_share", first.link.busy_share(), "ratio");
    m.add("net.link.wait_ps_per_req", first.link.wait_ps_per_req(), "ps");
    m.add("remem.consolidate.merge_ratio",
          ratio(first.cons_merges, first.cons_staged), "ratio");
    m.add("remem.consolidate.flushes", static_cast<double>(first.cons_flushes),
          "count");
    m.add("remem.numa.proxy_share",
          ratio(first.proxy_hops, first.proxy_hops + first.proxy_direct),
          "ratio");
    m.add("remem.atomics.cas_fail_ratio",
          ratio(first.cas_failures, first.cas_attempts), "ratio");
    std::vector<double> points;
    for (const PassStats& p : passes)
      if (!p.traced)
        points.insert(points.end(), p.point_run_s.begin(), p.point_run_s.end());
    m.add("wl.point_run_s.p50", percentile(points, 50) * run_scale, "s");
    m.add("wl.point_run_s.p90", percentile(points, 90) * run_scale, "s");
    m.add("wl.point_run_s.samples", static_cast<double>(points.size()),
          "count");
    std::uint64_t dispatch_ns = 0, wall_ns = 0;
    for (const PassStats& p : passes)
      if (p.traced) {
        dispatch_ns += p.dispatch_ns;
        wall_ns += p.wall_ns;
      }
    m.add("sim.dispatch_share", ratio(dispatch_ns, wall_ns), "ratio");
    m.add("obs.spans", static_cast<double>(first.spans), "count");
    m.add("obs.fold_s",
          median_of(passes, Passes::kTraced,
                    [](const PassStats& p) { return p.fold_s; }) *
              scale,
          "s");
    m.add("obs.trace_overhead",
          run_s > 0 ? run_s_of(passes, Passes::kTraced, run_scale) / run_s
                    : 0,
          "ratio");
  }

  std::printf(
      "# perfbench {\"workload\": \"%s\", \"seed\": %llu, \"digest\": "
      "\"%016llx\", \"passes\": %zu, \"build_type\": \"%s\", \"compiler\": "
      "\"%s\", \"nproc\": %u, \"effective_cores\": %.2f, \"host_scale\": "
      "%.4f, \"run_scale\": %.4f}\n",
      o.workload.c_str(), static_cast<unsigned long long>(o.seed),
      static_cast<unsigned long long>(first.digest.value()), passes.size(),
      PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, nproc, cores, scale,
      run_scale);
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), m.body().c_str());
  return correct ? 0 : 1;
}
