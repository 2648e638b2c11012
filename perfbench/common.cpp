#include "common.hpp"

#include <algorithm>
#include <functional>
#include <queue>
#include <string_view>

#include "cluster/stats.hpp"
#include "obs/critical_path.hpp"

namespace perfbench {

namespace rs = rdmasem;

namespace {

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

// Which per-layer class a cluster resource belongs to, by the names the
// library gives them ("m3.p1.eu", "m3.dma", "m3.mem0", "link_tx", ...).
// nullptr for the ones no metric reports (RNIC rx units).
ResourceClass* classify(PassStats& st, const std::string& name) {
  if (ends_with(name, ".eu")) return &st.eu;
  if (ends_with(name, ".atomic")) return &st.atomic;
  if (ends_with(name, ".dma")) return &st.pcie;
  if (name.find(".mem") != std::string::npos) return &st.dram;
  if (name.rfind("link_", 0) == 0) return &st.link;
  return nullptr;
}

std::uint64_t counter(const rs::obs::MetricsRegistry& m, const char* name) {
  return static_cast<std::uint64_t>(m.read(name));
}

constexpr int kRefPending = 1 << 16;  // events queued at any time
constexpr int kRefEvents = 200000;    // events dispatched per sample

std::uint64_t xorshift(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

}  // namespace

double reference_sample() {
  using Event = std::pair<std::uint64_t, std::uint64_t>;  // (time, payload)
  const auto t0 = Clock::now();
  std::uint64_t rng = 7;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  for (int i = 0; i < kRefPending; ++i)
    queue.emplace(xorshift(rng) % 1000000, xorshift(rng));
  for (int i = 0; i < kRefEvents; ++i) {
    const Event e = queue.top();
    queue.pop();
    queue.emplace(e.first + 1 + xorshift(rng) % 30000, xorshift(rng));
  }
  const double s = secs_since(t0);
  // The loop's result decides nothing, but a read keeps it from being
  // optimised away.
  volatile std::uint64_t sink = queue.top().second;
  (void)sink;
  return s;
}

void set_tracing(rs::cluster::Cluster& c, bool on) {
  c.obs().tracer.set_enabled(on);
  c.engine().set_profiling(on);
}

void absorb(rs::cluster::Cluster& c, PassStats& st) {
  rs::sim::Engine& eng = c.engine();
  const std::uint64_t sim_ps = eng.now();
  st.sim_ps += sim_ps;

  const std::uint64_t events = eng.events_processed();
  st.events += events;
  const rs::sim::EngineProfile prof = eng.drain_profile();
  for (const rs::sim::ShardProfile& row : prof.shard) {
    st.inline_grants += row.inline_grants;
    st.max_queue_depth = std::max(st.max_queue_depth, row.max_queue_depth);
    st.dispatch_ns += row.dispatch_ns;
    st.wall_ns += row.wall_ns;
  }

  const rs::obs::MetricsRegistry& m = c.obs().metrics;
  const std::uint64_t posted = counter(m, "verbs.wr.posted");
  const std::uint64_t failed = counter(m, "verbs.wr.failed");
  const std::uint64_t stall = counter(m, "rnic.mcache.stall_ps");
  const std::uint64_t staged = counter(m, "remem.consolidate.staged");
  const std::uint64_t merges = counter(m, "remem.consolidate.merges");
  const std::uint64_t flushes = counter(m, "remem.consolidate.flushes");
  const std::uint64_t hops = counter(m, "remem.numa.proxy_hops");
  const std::uint64_t direct = counter(m, "remem.numa.direct");
  const std::uint64_t cas = counter(m, "remem.atomics.cas_attempts");
  const std::uint64_t cas_fail = counter(m, "remem.atomics.cas_failures");
  st.wr_posted += posted;
  st.wr_failed += failed;
  st.zero_copy += counter(m, "verbs.payload.zero_copy");
  st.pool_hits += counter(m, "verbs.payload.pool_hits");
  st.pool_misses += counter(m, "verbs.payload.pool_misses");
  st.mcache_stall_ps += stall;
  st.cons_staged += staged;
  st.cons_merges += merges;
  st.cons_flushes += flushes;
  st.proxy_hops += hops;
  st.proxy_direct += direct;
  st.cas_attempts += cas;
  st.cas_failures += cas_fail;

  const rs::cluster::StatsReport report = rs::cluster::StatsReport::capture(c);
  std::uint64_t hits = 0, misses = 0;
  for (const auto& mach : report.machines) {
    hits += mach.mcache_hits;
    misses += mach.mcache_misses;
  }
  st.mcache_hits += hits;
  st.mcache_misses += misses;
  st.net_messages += report.fabric_messages;
  st.net_bytes += report.fabric_bytes;

  std::uint64_t busy_total = 0, wait_total = 0;
  c.for_each_resource([&](rs::sim::Resource& r) {
    busy_total += r.busy_time();
    wait_total += r.wait_time();
    ResourceClass* cls = classify(st, r.name());
    if (cls == nullptr || r.requests() == 0) return;
    cls->busy_ps += r.busy_time();
    cls->avail_ps += r.servers() * sim_ps;
    cls->wait_ps += r.wait_time();
    cls->requests += r.requests();
  });

  rs::obs::Tracer& tracer = c.obs().tracer;
  if (tracer.enabled()) {
    ScopedTimer t(st.fold_s);
    const std::vector<rs::obs::Span> spans = tracer.drain();
    const std::vector<rs::obs::AttrSpan> attrs = tracer.drain_attrs();
    rs::obs::CriticalPath cp;
    cp.fold(spans, attrs, tracer.res_names());
    st.spans += spans.size();
  }

  for (const std::uint64_t v :
       {sim_ps, events, posted, failed, stall, staged, merges, flushes, hops,
        direct, cas, cas_fail, hits, misses, report.fabric_messages,
        report.fabric_bytes, busy_total, wait_total})
    st.digest.add(v);
}

}  // namespace perfbench
