#include "util/stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace rdmasem::util {

void RunningStat::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStat::clear() { *this = RunningStat{}; }

double RunningStat::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

double Samples::mean() const {
  if (xs_.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs_) s += x;
  return s / static_cast<double>(xs_.size());
}

double Samples::percentile(double p) const {
  if (xs_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(xs_.begin(), xs_.end());
    sorted_ = true;
  }
  // Nearest-rank: rank = ceil(p/100 * N), clamped to [1, N]. The epsilon
  // keeps exact multiples (p=50 with N=2 -> rank 1, not 2 via FP noise)
  // stable across libm implementations. p<=0 (and NaN) pin to the
  // minimum, p>=100 to the maximum.
  if (!(p > 0.0)) return xs_.front();
  if (p >= 100.0) return xs_.back();
  const double exact = p / 100.0 * static_cast<double>(xs_.size());
  auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, xs_.size());
  return xs_[rank - 1];
}

void Log2Histogram::add(std::uint64_t v) {
  const std::size_t b = v == 0 ? 0 : static_cast<std::size_t>(std::bit_width(v));
  ++counts_[std::min(b, kBuckets - 1)];
  ++total_;
}

std::uint64_t Log2Histogram::quantile_bound(double q) const {
  const std::uint64_t total = count();
  if (total == 0) return 0;
  // Nearest-rank over buckets: target = ceil(q * total), clamped to
  // [1, total] so q=0 lands on the first non-empty bucket instead of
  // falling through to bucket 0 regardless of contents, and q=1 is the
  // last non-empty bucket (not past-the-end).
  const double clamped = (q > 0.0) ? std::min(q, 1.0) : 0.0;
  auto target = static_cast<std::uint64_t>(
      std::ceil(clamped * static_cast<double>(total)));
  if (target == 0) target = 1;
  if (target > total) target = total;
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    acc += bucket(i);
    if (acc >= target) return i == 0 ? 0 : (std::uint64_t{1} << i) - 1;
  }
  return ~std::uint64_t{0};
}

}  // namespace rdmasem::util
