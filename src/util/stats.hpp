#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rdmasem::util {

// Reservoir-free exact percentile tracker: stores all samples.
// Suitable for the bench harness where sample counts are modest (<=1e7).
class Samples {
 public:
  void add(double x) { xs_.push_back(x); sorted_ = false; }
  void reserve(std::size_t n) { xs_.reserve(n); }
  std::size_t count() const { return xs_.size(); }
  // i-th stored sample. Insertion order until percentile()/median() sorts
  // the set; use for merging unsorted accumulators.
  double sample(std::size_t i) const { return xs_[i]; }
  double mean() const;
  // p in [0, 100]; nearest-rank percentile. Returns 0 for empty sets.
  double percentile(double p) const;
  double median() const { return percentile(50.0); }
  void clear() { xs_.clear(); sorted_ = false; }

 private:
  mutable std::vector<double> xs_;
  mutable bool sorted_ = false;
};

// Fixed-bucket log2 histogram for latency distributions (nanosecond inputs).
class Log2Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void add(std::uint64_t v);
  std::uint64_t count() const { return total_; }
  std::uint64_t bucket(std::size_t i) const { return counts_[i]; }
  // Upper bound of the bucket that contains the q-quantile (q in [0,1]).
  std::uint64_t quantile_bound(double q) const;
  // Zeroes every bucket.
  void reset() {
    for (auto& c : counts_) c = 0;
    total_ = 0;
  }

 private:
  std::uint64_t counts_[kBuckets] = {};
  std::uint64_t total_ = 0;
};

}  // namespace rdmasem::util
