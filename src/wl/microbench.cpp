#include "wl/microbench.hpp"

#include "util/assert.hpp"
#include "util/stats.hpp"

namespace rdmasem::wl {

namespace {

struct Shared {
  sim::Time start = 0;
  sim::Time last_completion = 0;
  std::uint64_t completions = 0;
  std::uint64_t errors = 0;
  std::array<std::uint64_t, kStatusCount> by_status{};
  double latency_sum_us = 0;
  util::Samples latencies;
};

sim::Task client_loop(sim::Engine& eng, const ClientSpec& spec,
                      std::uint32_t client, Shared& sh,
                      sim::CountdownLatch& done) {
  verbs::QueuePair* qp = spec.qps[client];
  sim::Semaphore credits(eng, spec.window);
  sim::CountdownLatch drained(eng, spec.ops_per_client);

  for (std::uint64_t i = 0; i < spec.ops_per_client; ++i) {
    co_await credits.acquire();
    verbs::WorkRequest wr = spec.make_wr(client, i);
    wr.signaled = true;
    if (wr.wr_id == 0) wr.wr_id = qp->context().next_wr_id();
    const sim::Time post_time = eng.now();
    auto waiter = [](verbs::QueuePair* q, std::uint64_t wid, sim::Time posted,
                     Shared& s, sim::Semaphore& cr,
                     sim::CountdownLatch& d) -> sim::Task {
      const verbs::Completion c = co_await q->wait(wid);
      if (!c.ok()) ++s.errors;
      ++s.by_status[static_cast<std::size_t>(c.status)];
      ++s.completions;
      s.last_completion = c.completed_at;
      const double lat_us = sim::to_us(c.completed_at - posted);
      s.latency_sum_us += lat_us;
      s.latencies.add(lat_us);
      cr.release();
      d.count_down();
    };
    eng.spawn(waiter(qp, wr.wr_id, post_time, sh, credits, drained));
    co_await qp->post(wr);
  }
  co_await drained.wait();
  done.count_down();
}

}  // namespace

std::string BenchResult::error_breakdown() const {
  std::string out;
  for (std::size_t i = 0; i < by_status.size(); ++i) {
    if (i == 0 || by_status[i] == 0) continue;  // skip kSuccess and zeros
    if (!out.empty()) out += ' ';
    out += verbs::to_string(static_cast<verbs::Status>(i));
    out += ':';
    out += std::to_string(by_status[i]);
  }
  return out.empty() ? "-" : out;
}

BenchResult run_closed_loop(sim::Engine& engine, const ClientSpec& spec) {
  RDMASEM_CHECK_MSG(!spec.qps.empty(), "no clients");
  RDMASEM_CHECK_MSG(static_cast<bool>(spec.make_wr), "make_wr required");

  // One accumulator per client, each written only by that client's lane;
  // merged in client order after the run.
  const auto n_clients = static_cast<std::uint32_t>(spec.qps.size());
  std::vector<Shared> shs(n_clients);
  sim::CountdownLatch done(engine, n_clients);
  for (std::uint32_t c = 0; c < n_clients; ++c) {
    shs[c].start = engine.now();
    // Each client drives its QP from the QP's machine lane, which keys
    // its events and picks its RNG stream.
    const std::uint32_t lane = spec.qps[c]->context().machine().id() + 1;
    engine.spawn_on(lane, client_loop(engine, spec, c, shs[c], done));
  }
  engine.run();
  RDMASEM_CHECK_MSG(done.remaining() == 0, "clients did not finish");

  Shared sh;
  sh.start = shs.front().start;
  for (const Shared& s : shs) {
    sh.last_completion = std::max(sh.last_completion, s.last_completion);
    sh.completions += s.completions;
    sh.errors += s.errors;
    for (std::size_t i = 0; i < sh.by_status.size(); ++i)
      sh.by_status[i] += s.by_status[i];
    sh.latency_sum_us += s.latency_sum_us;
    for (std::size_t i = 0; i < s.latencies.count(); ++i)
      sh.latencies.add(s.latencies.sample(i));
  }

  BenchResult r;
  r.elapsed = sh.last_completion > sh.start ? sh.last_completion - sh.start : 1;
  r.errors = sh.errors;
  r.by_status = sh.by_status;
  const double total_ops =
      static_cast<double>(sh.completions) * spec.ops_per_wr;
  r.mops = total_ops / sim::to_us(r.elapsed);
  r.per_thread_mops = r.mops / n_clients;
  r.avg_latency_us =
      sh.completions ? sh.latency_sum_us / static_cast<double>(sh.completions)
                     : 0;
  r.p50_latency_us = sh.latencies.percentile(50);
  r.p99_latency_us = sh.latencies.percentile(99);
  r.p999_latency_us = sh.latencies.percentile(99.9);
  return r;
}

}  // namespace rdmasem::wl
