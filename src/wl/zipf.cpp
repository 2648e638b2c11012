#include "wl/zipf.hpp"

#include <cmath>

#include "util/assert.hpp"

namespace rdmasem::wl {

double ZipfGenerator::zeta(std::uint64_t n, double theta) {
  // Direct summation is exact; for the region sizes used by the paper's
  // workloads (<= tens of millions of keys) this is a one-off cost.
  // For large n we sum the head exactly and integrate the tail.
  constexpr std::uint64_t kExact = 1u << 20;
  double sum = 0;
  const std::uint64_t head = n < kExact ? n : kExact;
  for (std::uint64_t i = 1; i <= head; ++i)
    sum += 1.0 / std::pow(static_cast<double>(i), theta);
  if (n > head) {
    // Integral approximation of sum_{head+1}^{n} x^-theta.
    const double a = static_cast<double>(head);
    const double b = static_cast<double>(n);
    sum += (std::pow(b, 1 - theta) - std::pow(a, 1 - theta)) / (1 - theta);
  }
  return sum;
}

ZipfGenerator::ZipfGenerator(std::uint64_t n, double theta, std::uint64_t seed)
    : n_(n), theta_(theta), rng_(seed) {
  RDMASEM_CHECK_MSG(n > 0, "zipf over empty domain");
  RDMASEM_CHECK_MSG(theta > 0 && theta < 1, "theta must be in (0,1)");
  // A sweep point's workers share (n, theta): keep the last sum, per thread
  // so that parallel sweeps share no state.
  thread_local struct { std::uint64_t n = 0; double theta = 0, sum = 0; } last;
  if (last.n != n || last.theta != theta) last = {n, theta, zeta(n, theta)};
  zetan_ = last.sum;
  const double zeta2 = zeta(2, theta);
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
         (1.0 - zeta2 / zetan_);
}

std::uint64_t ZipfGenerator::next() {
  const double u = rng_.uniform01();
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
  const auto v = static_cast<std::uint64_t>(
      static_cast<double>(n_) *
      std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return v >= n_ ? n_ - 1 : v;
}

}  // namespace rdmasem::wl
