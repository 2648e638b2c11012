// Selfbench — the engine measuring itself, in WALL-CLOCK time.
//
// Every other bench in this directory reports SIMULATED time, which by
// construction cannot regress when the scheduler gets slower. This binary
// is the host-side complement: it times the event loop with
// std::chrono::steady_clock and reports events/sec, so a regression in the
// calendar queue, event dispatch, or the coroutine frame pool shows up
// as a number CI can gate on (scripts/perf_gate.py).
//
// Workloads:
//   dispatch  — 64 self-rescheduling actors with a tiered delay mix
//               (immediate / intra-bucket / overflow) driven through BOTH
//               the current sim::Engine and an embedded copy of the
//               pre-calendar-queue engine (binary heap of std::function
//               events, `legacy` namespace below). The identical workload
//               on both yields the machine-independent `speedup` row the
//               perf gate checks against its floor.
//   coro      — coroutine churn: tasks looping over co_await delay(),
//               exercising frame-pool reuse and the resume fast path.
//   e2e_micro — fig01-style closed-loop RDMA write microbench (4 QPs,
//               window 16) timed end to end.
//   datapath  — large-payload write/read storm mixing single-SGE and
//               multi-SGE WRs through the verbs datapath (zero-copy
//               borrow, payload pool, cost fusing, wakeup elision). The
//               perf gate checks its normalized WR rate against the
//               baseline. A second criterion rides along:
//               datapath_allocs/steady counts global-allocator hits
//               during a steady-state single-SGE write loop, on both the
//               cache-hit and the cache-miss path, via the operator new
//               hook below — the gate requires exactly zero.
//               datapath_allocs/proxied does the same for cross-socket
//               requests through remem::ProxySocketRouter (the §III-D
//               proxy hop), also gated at exactly zero.
//   frames_per_wr — coroutine frames per WR from FramePool's counters over
//               a steady RC WRITE/READ/FETCH_ADD loop: post_send must cost
//               exactly 1 frame and execute exactly 2. Skipped under ASan,
//               where FramePool hands frames to the allocator uncounted.
//   e2e_shuffle — fig15-style small all-to-all shuffle timed end to end,
//               in millions of shuffled entries (not events) per second.
//
// One more row describes the host rather than the engine: parallel_cpus
// is the number of cores a calibrated spin probe saw run at once.
// perf_gate.py --update-baseline refuses to record a baseline below 4.
//
// Rows land in BENCH_selfbench_engine.json (rdmasem-bench-v1 schema; `mops`
// is millions of events per second, of entries for e2e_shuffle, or the
// speedup row's raw ratio). Wall-clock numbers are machine-dependent: the
// checked-in bench/selfbench_baseline.json is compared with a tolerance,
// and the speedup row is the portable criterion. See docs/PERF.md.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "apps/shuffle/shuffle.hpp"
#include "bench_common.hpp"
#include "remem/numa_policy.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "util/sanitizer.hpp"

// ---------------------------------------------------------------------------
// Counting allocator hook: every global-allocator acquisition in this
// process bumps one relaxed atomic. The steady-state datapath loop below
// snapshots it around a warmed single-SGE write storm; any WR-rate heap
// traffic (a regressed pool, a re-allocating waiter table, a copied SGE
// vector) shows up as a non-zero delta the perf gate rejects. Deletes are
// not counted — a leak is the sanitizers' job; steady-state *acquisition*
// is the perf property. The hook stays out of line, like libstdc++'s own
// operator new, so the legacy engine's per-event allocation costs the same
// call however much inlining budget the rest of this file leaves.

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};

void* counted_alloc(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* counted_alloc(std::size_t n, std::align_val_t al) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace rdmasem;
using bench::FigureCollector;
using bench::MicroRig;

FigureCollector collector(
    "Selfbench  Engine hot-path throughput (wall clock)",
    {"workload", "engine", "Mevents/s"});

// ---------------------------------------------------------------------------
// The pre-overhaul engine core, kept verbatim in shape: a binary-heap
// std::priority_queue of events whose callbacks are std::function (boxed on
// the heap for captures over the SBO limit), popped by copy exactly as the
// seed engine's run() did. Benchmarking it in-binary keeps the comparison
// honest across compilers and machines — both engines are built with the
// same flags in the same TU.
namespace legacy {

class Engine {
 public:
  sim::Time now() const { return now_; }

  void schedule_at(sim::Time at, std::function<void()> fn) {
    queue_.push(Event{std::max(at, now_), seq_++, std::move(fn)});
  }
  void schedule_in(sim::Duration delay, std::function<void()> fn) {
    schedule_at(now_ + delay, std::move(fn));
  }

  sim::Time run() {
    while (!queue_.empty()) {
      Event ev = queue_.top();
      queue_.pop();
      now_ = ev.at;
      ++processed_;
      ev.fn();
    }
    return now_;
  }

  std::uint64_t events_processed() const { return processed_; }

 private:
  struct Event {
    sim::Time at;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  sim::Time now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t processed_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

}  // namespace legacy

// ---------------------------------------------------------------------------
// Workload knobs (shrunk by the bench smoke tests via env).

std::uint64_t dispatch_budget() {
  return util::env_u64("RDMASEM_SELFBENCH_EVENTS", 2'000'000);
}
// Pending-event population. Real cluster runs keep thousands of events in
// flight (one per parked coroutine / NIC pipeline stage), which is exactly
// where the O(log n) heap loses to the O(1) calendar ring.
std::uint64_t dispatch_actors() {
  return util::env_u64("RDMASEM_SELFBENCH_ACTORS", 4096);
}
std::uint64_t coro_tasks() {
  return util::env_u64("RDMASEM_SELFBENCH_TASKS", 20'000);
}
std::uint64_t coro_hops() {
  return util::env_u64("RDMASEM_SELFBENCH_HOPS", 32);
}

double secs_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Wall-clock throughput is one-sided noise: a run can only be slowed down
// (scheduler preemption, cold caches), never sped up. Best-of-N is the
// standard estimator for the machine's true capability and what keeps the
// perf gate's 20% tolerance meaningful.
template <typename Fn>
double best_of(int n, Fn&& measure) {
  double best = 0;
  for (int i = 0; i < n; ++i) best = std::max(best, measure());
  return best;
}

// Self-rescheduling actor: every firing draws the next delay from a private
// LCG stream, mixing immediates (same-timestamp FIFO path), short delays
// (calendar ring) and far delays (overflow heap). The two extra captured
// words push the closure past std::function's SBO, so the legacy engine
// heap-allocates every event. sim::Engine moves every callable into a
// FramePool CallBox (here 32 bytes: the op pointer plus 24 captured), so
// each firing here costs one pooled allocate/free; coroutine resumptions
// pay none of it.
template <typename Eng>
struct Actor {
  Eng* eng;
  std::uint64_t* remaining;
  std::uint64_t rng;

  void fire() {
    if (*remaining == 0) return;
    --*remaining;
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t r = rng >> 33;
    // Mix mirrors a cluster run: mostly sub-horizon NIC/link/DMA delays
    // (ns to low µs), some same-timestamp wakeups, a tail of long timers.
    sim::Duration d = 0;
    const std::uint64_t k = r & 15;
    if (k < 4) {
      d = 0;                                        // immediate wakeup
    } else if (k < 5) {
      d = r % 8192;                                 // same/adjacent slot
    } else if (k < 15) {
      d = r % (1u << 21);                           // within the ring horizon
    } else {
      d = (1u << 21) + r % (1u << 24);              // long timer -> overflow
    }
    const std::uint64_t pad0 = rng, pad1 = r;
    eng->schedule_in(d, [this, pad0, pad1] {
      bench::keep(pad0 + pad1);
      fire();
    });
  }
};

template <typename Eng>
double dispatch_mevents_per_sec(std::uint64_t budget) {
  Eng eng;
  std::uint64_t remaining = budget;
  const std::uint64_t n_actors = dispatch_actors();
  std::vector<Actor<Eng>> actors;
  actors.reserve(n_actors);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t a = 0; a < n_actors; ++a) {
    actors.push_back(Actor<Eng>{&eng, &remaining, a * 7919 + 1});
    actors.back().fire();
  }
  eng.run();
  const double sec = secs_since(t0);
  return static_cast<double>(eng.events_processed()) / sec / 1e6;
}

double coro_mevents_per_sec(std::uint64_t tasks, std::uint64_t hops) {
  sim::Engine eng;
  for (std::uint64_t t = 0; t < tasks; ++t) {
    eng.spawn([](sim::Engine& e, std::uint64_t n,
                 std::uint64_t seed) -> sim::Task {
      std::uint64_t s = seed;
      for (std::uint64_t i = 0; i < n; ++i) {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        co_await sim::delay(e, (s >> 33) % sim::us(1));
      }
    }(eng, hops, t + 1));
  }
  const auto t0 = std::chrono::steady_clock::now();
  eng.run();
  const double sec = secs_since(t0);
  return static_cast<double>(eng.events_processed()) / sec / 1e6;
}

// Calibrated spin probe: the same spin on `n` threads at once, against
// one thread alone. n * t1 / tn is the number of cores that really ran in
// parallel — a container's hardware_concurrency() can report cores it
// cannot use at the same time, and the baseline recorder must not trust
// that.
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
    const auto t0 = std::chrono::steady_clock::now();
    spin(iters);
    if (secs_since(t0) > 0.02 || iters > (1ull << 40)) break;
    iters *= 2;
  }
  // Best of three on each side, so a stray preemption does not count.
  double t1 = 1e9, tn = 1e9;
  for (int rep = 0; rep < 3; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    spin(iters);
    t1 = std::min(t1, secs_since(t0));
    t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    for (unsigned i = 1; i < n; ++i) threads.emplace_back(spin, iters);
    spin(iters);
    for (auto& t : threads) t.join();
    tn = std::min(tn, secs_since(t0));
  }
  return n * t1 / tn;
}

// ---------------------------------------------------------------------------
// Datapath workload: a large-payload write/read storm mixing single-SGE
// writes (the zero-copy route), 4-SGE gathers (pooled staging) and reads
// (response staging), window 1 on one QP — the uncontended latency regime
// the inline-wakeup fast path targets. Returns millions of WRs per
// wall-clock second.
double datapath_mwrs_per_sec() {
  const std::uint64_t ops =
      util::env_u64("RDMASEM_SELFBENCH_DATAPATH_OPS", 12000);
  double mwrs = 0;
  {
    const auto w0 = std::chrono::steady_clock::now();
    MicroRig rig(1 << 20, 1 << 20, 1);
    wl::ClientSpec spec;
    spec.qps = rig.qps;
    spec.window = 1;
    spec.ops_per_client = ops;
    verbs::MemoryRegion* l = rig.lmr;
    verbs::MemoryRegion* r = rig.rmr;
    spec.make_wr = [l, r](std::uint32_t, std::uint64_t s) {
      const std::uint64_t off = (s % 64) * (8 << 10);
      if (s % 4 == 2) {
        // The same 8 KB as a 4-element gather list.
        verbs::WorkRequest wr;
        wr.opcode = verbs::Opcode::kWrite;
        for (std::uint64_t i = 0; i < 4; ++i)
          wr.sg_list.push_back(
              {l->addr + off + i * 2048, 2048, l->key});
        wr.remote_addr = r->addr + off;
        wr.rkey = r->key;
        return wr;
      }
      if (s % 4 == 3) return wl::make_read(*l, off, *r, off, 8 << 10);
      return wl::make_write(*l, off, *r, off, 8 << 10);
    };
    const wl::BenchResult res = wl::run_closed_loop(rig.rig.eng, spec);
    bench::keep(res.errors);
    mwrs = static_cast<double>(ops * rig.qps.size()) / secs_since(w0) / 1e6;
  }
  return mwrs;
}

// Steady-state allocation probe: after a warm-up that grows every lazy
// structure on the path (coroutine frame pools, the QP waiter table,
// resource FIFOs, calendar ring slots, payload pool classes, the metadata
// cache's table and nodes), a single-SGE write loop must not touch the
// global allocator at all. The loop runs two phases: 4 KiB writes to one
// offset, which hit every modelled cache, then 64 B writes to page-spread
// pseudo-random offsets of a 64 MiB region, far past the 4 MB SRAM knee,
// so the RNIC metadata cache and the DRAM open rows miss on nearly every
// WR. Returns the number of allocator hits over the 1024 steady-state WRs
// — the gate requires exactly zero. (Sanitizer builds pass buffers
// straight through the pools by design, so this row is only meaningful —
// and only gated — on plain builds, where the perf gate runs.)
std::uint64_t datapath_steady_allocs() {
  constexpr std::size_t kSpread = 64 << 20;
  MicroRig rig(1 << 16, kSpread, 1);
  std::uint64_t delta = ~0ull;
  auto loop = [](MicroRig& r, std::uint64_t* out) -> sim::Task {
    sim::Rng rng(7);
    const auto hit = [&r] {
      return r.qps[0]->execute(wl::make_write(*r.lmr, 0, *r.rmr, 0, 4096));
    };
    const auto miss = [&r, &rng] {
      const std::uint64_t off = rng.uniform(kSpread / 4096) * 4096 +
                                rng.uniform(4096 / 64) * 64;
      return r.qps[0]->execute(wl::make_write(*r.lmr, 0, *r.rmr, off, 64));
    };
    for (int i = 0; i < 256; ++i) (void)co_await hit();
    for (int i = 0; i < 4096; ++i) (void)co_await miss();
    const std::uint64_t a0 = g_heap_allocs.load(std::memory_order_relaxed);
    for (int i = 0; i < 512; ++i) (void)co_await hit();
    for (int i = 0; i < 512; ++i) (void)co_await miss();
    *out = g_heap_allocs.load(std::memory_order_relaxed) - a0;
  };
  rig.rig.eng.spawn(loop(rig, &delta));
  rig.rig.eng.run();
  return delta;
}

// Proxied-path allocation probe: cross-socket ProxySocketRouter::submit
// WRITEs and READs, one at a time, from socket 0 to the remote machine's
// socket 1, so every request takes the proxy hop (shm inbox, staging
// slot, reply channel, proxy worker). Returns allocator hits over the 1024
// requests after the warm-up; the gate requires zero.
std::uint64_t proxied_steady_allocs() {
  wl::Rig rig;
  verbs::Buffer src(4096), dst(4096);
  verbs::MemoryRegion* lmr = rig.ctx[0]->register_buffer(src, 0);
  verbs::MemoryRegion* rmr = rig.ctx[1]->register_buffer(dst, 1);
  remem::ProxySocketRouter router(rig.eng, rig.cluster.params());
  for (hw::SocketId s = 0; s < 2; ++s) {
    verbs::QpConfig cfg;
    cfg.port = s;
    cfg.core_socket = s;
    router.add_route(s, 1, rig.connect(0, 1, cfg, cfg).local);
  }
  std::uint64_t delta = ~0ull;
  auto loop = [](remem::ProxySocketRouter& r, verbs::MemoryRegion* l,
                 verbs::MemoryRegion* rm, std::uint64_t* out) -> sim::Task {
    const auto op = [&](int i) {
      const std::uint64_t off = static_cast<std::uint64_t>(i % 64) * 64;
      return r.submit(0, 1, 1,
                      i % 2 == 0 ? wl::make_write(*l, off, *rm, off, 64)
                                 : wl::make_read(*l, off, *rm, off, 64));
    };
    for (int i = 0; i < 256; ++i) (void)co_await op(i);
    const std::uint64_t a0 = g_heap_allocs.load(std::memory_order_relaxed);
    for (int i = 0; i < 1024; ++i) (void)co_await op(i);
    *out = g_heap_allocs.load(std::memory_order_relaxed) - a0;
  };
  rig.eng.spawn_on(1, loop(router, lmr, rmr, &delta));
  rig.eng.run();
  return delta;
}

#if !RDMASEM_ASAN
// Frames per WR from FramePool's counters: 1536 fault-free RC WRs (WRITE,
// READ, FETCH_ADD in turn, window 1) after a warm-up. The post_send loop
// posts and then waits, and wait() allocates no frame, so it counts the
// pipeline's frames alone; the execute loop adds execute()'s own. The
// ratio prints to 4 decimals, so one stray frame in 1536 WRs shows.
struct FramesPerWr {
  double post_send = 0;
  double execute = 0;
};

FramesPerWr frames_per_wr() {
  constexpr int kOps = 1536;
  MicroRig rig(4096, 4096, 1);
  FramesPerWr out;
  auto loop = [](verbs::QueuePair* qp, verbs::MemoryRegion* l,
                 verbs::MemoryRegion* r, FramesPerWr* res) -> sim::Task {
    const auto frames = [] {
      const auto st = sim::FramePool::stats();
      return st.reused + st.fresh + st.oversize;
    };
    const auto make = [l, r](int i) {
      if (i % 3 == 0) return wl::make_write(*l, 0, *r, 0, 64);
      if (i % 3 == 1) return wl::make_read(*l, 0, *r, 0, 64);
      verbs::WorkRequest wr;
      wr.opcode = verbs::Opcode::kFetchAdd;
      wr.sg_list = {{l->addr, 8, l->key}};
      wr.remote_addr = r->addr;
      wr.rkey = r->key;
      wr.swap_or_add = 1;
      return wr;
    };
    for (int i = 0; i < 256; ++i) (void)co_await qp->execute(make(i));
    std::uint64_t f0 = frames();
    for (int i = 0; i < kOps; ++i) {
      verbs::WorkRequest wr = make(i);
      wr.signaled = true;
      wr.wr_id = qp->context().next_wr_id();
      const std::uint64_t wid = wr.wr_id;
      qp->post_send(std::move(wr));
      (void)co_await qp->wait(wid);
    }
    res->post_send = static_cast<double>(frames() - f0) / kOps;
    f0 = frames();
    for (int i = 0; i < kOps; ++i) (void)co_await qp->execute(make(i));
    res->execute = static_cast<double>(frames() - f0) / kOps;
  };
  rig.rig.eng.spawn_on(1, loop(rig.qps[0], rig.lmr, rig.rmr, &out));
  rig.rig.eng.run();
  return out;
}
#endif

double add(const char* workload, const char* engine, double mev) {
  collector.add({workload, engine, util::fmt(mev)});
  bench::point_mops(workload, engine, mev);
  return mev;
}

void sweep() {
  const double legacy_mev = add("dispatch", "legacy", best_of(3, [] {
    return dispatch_mevents_per_sec<legacy::Engine>(dispatch_budget());
  }));
  const double calendar_mev = add("dispatch", "calendar", best_of(3, [] {
    return dispatch_mevents_per_sec<sim::Engine>(dispatch_budget());
  }));
  bench::point_mops("speedup", "dispatch", calendar_mev / legacy_mev);
  collector.add({"speedup", "calendar/legacy",
                 util::fmt(calendar_mev / legacy_mev)});

  add("coro", "calendar", best_of(3, [] {
    return coro_mevents_per_sec(coro_tasks(), coro_hops());
  }));

  add("e2e_micro", "calendar", best_of(2, [] {
    // fig01-style closed-loop write microbench, timed end to end.
    const auto w0 = std::chrono::steady_clock::now();
    MicroRig rig(1 << 14, 1 << 14, 4);
    rig.run(wl::make_write(*rig.lmr, 0, *rig.rmr, 0, 64), 16,
            bench::micro_ops(4000));
    return static_cast<double>(rig.rig.eng.events_processed()) /
           secs_since(w0) / 1e6;
  }));
  add("datapath", "fast", best_of(2, [] { return datapath_mwrs_per_sec(); }));
  const std::uint64_t dp_allocs = datapath_steady_allocs();
  bench::point_mops("datapath_allocs", "steady",
                    static_cast<double>(dp_allocs));
  collector.add({"datapath_allocs", "steady (1024 WRs)",
                 std::to_string(dp_allocs)});
  const std::uint64_t px_allocs = proxied_steady_allocs();
  bench::point_mops("datapath_allocs", "proxied",
                    static_cast<double>(px_allocs));
  collector.add({"datapath_allocs", "proxied (1024 requests)",
                 std::to_string(px_allocs)});
#if RDMASEM_ASAN
  // The marker tells the perf gate why the rows are missing.
  bench::point_mops("frames_per_wr", "skipped_asan", 1);
  collector.add({"frames_per_wr", "skipped",
                 "ASan: FramePool counts no frames"});
#else
  const FramesPerWr fpw = frames_per_wr();
  bench::point_mops("frames_per_wr", "post_send", fpw.post_send);
  bench::point_mops("frames_per_wr", "execute", fpw.execute);
  collector.add({"frames_per_wr", "post_send", util::fmt(fpw.post_send, 4)});
  collector.add({"frames_per_wr", "execute", util::fmt(fpw.execute, 4)});
#endif

  // Record the cores that really ran the probe in parallel: the gate
  // records a baseline only on a host with at least 4.
  bench::point_mops(
      "parallel_cpus", "host",
      effective_cores(std::max(1u, std::thread::hardware_concurrency())));

  add("e2e_shuffle", "calendar", best_of(2, [] {
    // fig15-style small all-to-all shuffle, timed end to end.
    const auto w0 = std::chrono::steady_clock::now();
    wl::Rig rig(hw::ModelParams::connectx3_cluster());
    apps::shuffle::Config cfg;
    cfg.machines = 4;
    cfg.executors = 4;
    cfg.entries_per_executor = util::env_u64("RDMASEM_SHUFFLE_ENTRIES", 6000);
    cfg.batch = apps::shuffle::BatchMode::kSgl;
    apps::shuffle::Shuffle shuffle(rig.contexts(), cfg);
    const auto r = shuffle.run();
    bench::absorb(rig.cluster);
    return static_cast<double>(r.entries) / secs_since(w0) / 1e6;
  }));
}

}  // namespace

int main(int argc, char** argv) {
  return rdmasem::bench::run_main(argc, argv, collector, sweep);
}
