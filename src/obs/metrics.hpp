#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/time.hpp"
#include "util/stats.hpp"

namespace rdmasem::obs {

// Counter — a monotonically increasing 64-bit event count. References
// handed out by MetricsRegistry::counter stay valid for the registry's
// lifetime, so hot paths cache them and pay one increment, never a map
// lookup. Incrementing a counter never touches the virtual clock, so
// instrumented and uninstrumented runs are trace-identical by
// construction.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_ += n; }
  std::uint64_t value() const { return v_; }
  void reset() { v_ = 0; }

 private:
  std::uint64_t v_ = 0;
};

// MetricsRegistry — the cluster-wide catalog of typed metrics:
//   * counters: pushed by the layer that owns the event (QP retransmits,
//     consolidation merges, NUMA proxy hops, ...);
//   * gauges: pulled at sample time from live objects (resource
//     utilization, mcache hit rate, fabric byte totals);
//   * histograms: Log2Histogram distributions (per-WR latency).
//
// `sample(now)` appends one row of every counter and gauge to an
// in-memory time series keyed by the virtual clock; `json()` exports
// current values plus the series deterministically (registration order,
// fixed-precision numbers).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Returns the counter registered under `name`, creating it on first use.
  Counter& counter(const std::string& name);
  // Registers (or replaces) a polled gauge.
  void gauge(const std::string& name, std::function<double()> fn);
  // Returns the histogram registered under `name`, creating it on first use.
  util::Log2Histogram& histogram(const std::string& name);

  // Current value of a counter (exact) or gauge (polled). 0 if absent.
  double read(const std::string& name) const;
  bool has(const std::string& name) const;

  // Appends one time-series row: virtual time plus every counter and gauge
  // in registration order. Columns registered after the first sample get
  // zeros for earlier rows on export.
  void sample(sim::Time now);
  std::size_t sample_count() const { return series_.size(); }

  // {"counters":{...},"gauges":{...},"histograms":{...},"series":{...}}
  std::string json() const;

 private:
  // Insertion-ordered storage keeps exports deterministic; the maps are
  // lookup accelerators only.
  std::vector<std::pair<std::string, std::unique_ptr<Counter>>> counters_;
  std::vector<std::pair<std::string, std::function<double()>>> gauges_;
  std::vector<std::pair<std::string, std::unique_ptr<util::Log2Histogram>>>
      hists_;
  std::unordered_map<std::string, Counter*> counter_ix_;
  std::unordered_map<std::string, std::size_t> gauge_ix_;
  std::unordered_map<std::string, util::Log2Histogram*> hist_ix_;

  struct Row {
    sim::Time at;
    std::vector<double> values;  // counters then gauges, registration order
  };
  std::vector<Row> series_;
};

}  // namespace rdmasem::obs
