#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/resource.hpp"
#include "util/stats.hpp"

namespace rdmasem::obs {

// ResourceWaits — the Plane-1 per-resource queueing-delay aggregate: for
// every named sim::Resource, how many grants it issued, how many of them
// waited, the total wait and service (busy) picoseconds, and the log2
// wait distribution. Folded from live Resources at absorb time (the
// bench harness walks Cluster::for_each_resource), merged BY NAME across
// clusters so sweep points over fresh rigs accumulate into one table.
//
// This is pure read-side accounting of numbers Resource::reserve_grant
// already maintains — folding it can never perturb the timeline.
class ResourceWaits {
 public:
  struct Row {
    std::string name;
    std::uint64_t requests = 0;
    std::uint64_t waited = 0;  // grants with non-zero queueing delay
    sim::Duration wait_ps = 0;
    sim::Duration service_ps = 0;  // busy time (service only, no wait)
    // Snapshot of the resource's Log2Histogram of non-zero waits (ns), as
    // bucket counts, so rows of the same name merge by adding them.
    std::array<std::uint64_t, util::Log2Histogram::kBuckets> buckets{};
    std::uint64_t hist_count = 0;

    // Upper bound (ns) of the bucket holding the q-quantile of non-zero
    // waits; 0 when nothing waited. Mirrors Log2Histogram::quantile_bound.
    std::uint64_t wait_quantile_ns(double q) const;
  };

  // Folds one resource's counters in (merging into an existing row of the
  // same name if present). Nameless resources are skipped.
  void add(const sim::Resource& r);

  bool empty() const { return rows_.empty(); }
  // Rows sorted by total wait descending, ties by name — the bottleneck
  // order every renderer uses.
  std::vector<Row> sorted() const;

  // Fixed-width bottleneck table (top `top_k` rows by wait); empty string
  // when nothing was recorded.
  std::string render(std::size_t top_k = 16) const;
  // JSON array of all rows in sorted order, integer ps fields — the
  // "resource_waits" bench-report section (scripts/check_bench_json.py).
  std::string json() const;

 private:
  std::vector<Row> rows_;
};

}  // namespace rdmasem::obs
