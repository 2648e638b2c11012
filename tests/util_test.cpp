#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <deque>
#include <memory>
#include <vector>

#include "util/env.hpp"
#include "util/ring.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace u = rdmasem::util;

TEST(Samples, PercentileNearestRank) {
  u::Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(s.percentile(99), 99.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
}

TEST(Samples, PercentileEdgeCases) {
  u::Samples s;
  EXPECT_DOUBLE_EQ(s.percentile(50), 0.0);  // empty
  s.add(7.0);
  // Single sample: every percentile is that sample.
  EXPECT_DOUBLE_EQ(s.percentile(0), 7.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 7.0);
  EXPECT_DOUBLE_EQ(s.percentile(99.9), 7.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 7.0);
  // Out-of-range p clamps rather than indexing out of bounds.
  EXPECT_DOUBLE_EQ(s.percentile(-5), 7.0);
  EXPECT_DOUBLE_EQ(s.percentile(250), 7.0);
}

TEST(Samples, PercentileTwoSamples) {
  u::Samples s;
  s.add(1.0);
  s.add(2.0);
  // Nearest-rank: rank = ceil(p/100 * 2).
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 1.0);   // rank 1
  EXPECT_DOUBLE_EQ(s.percentile(51), 2.0);   // rank 2
  EXPECT_DOUBLE_EQ(s.percentile(100), 2.0);
}

TEST(Samples, P999) {
  u::Samples s;
  for (int i = 1; i <= 1000; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(99.9), 999.0);
  s.add(1001.0);  // 1001 samples: ceil(0.999 * 1001) = 1000
  EXPECT_DOUBLE_EQ(s.percentile(99.9), 1000.0);
}

TEST(Samples, MeanAndUnsortedInput) {
  u::Samples s;
  s.add(3.0);
  s.add(1.0);
  s.add(2.0);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.median(), 2.0);
  // Adding after sorting must re-sort.
  s.add(0.5);
  EXPECT_DOUBLE_EQ(s.percentile(0), 0.5);
}

TEST(Log2Histogram, BucketsAndQuantiles) {
  u::Log2Histogram h;
  for (int i = 0; i < 100; ++i) h.add(10);    // bucket of 8..15
  for (int i = 0; i < 100; ++i) h.add(1000);  // bucket of 512..1023
  EXPECT_EQ(h.count(), 200u);
  EXPECT_LE(h.quantile_bound(0.25), 15u);
  EXPECT_GE(h.quantile_bound(0.99), 512u);
}

TEST(Log2Histogram, QuantileBoundEmpty) {
  u::Log2Histogram h;
  EXPECT_EQ(h.quantile_bound(0.0), 0u);
  EXPECT_EQ(h.quantile_bound(0.5), 0u);
  EXPECT_EQ(h.quantile_bound(1.0), 0u);
}

TEST(Log2Histogram, QuantileBoundSingleBucket) {
  u::Log2Histogram h;
  for (int i = 0; i < 10; ++i) h.add(1000);  // all in the 512..1023 bucket
  // Every quantile — including q=0 — must land on the one occupied
  // bucket, not fall through to bucket 0.
  EXPECT_EQ(h.quantile_bound(0.0), 1023u);
  EXPECT_EQ(h.quantile_bound(0.5), 1023u);
  EXPECT_EQ(h.quantile_bound(1.0), 1023u);
  // q beyond [0,1] clamps.
  EXPECT_EQ(h.quantile_bound(2.0), 1023u);
  EXPECT_EQ(h.quantile_bound(-1.0), 1023u);
}

TEST(Log2Histogram, QuantileBoundMonotone) {
  u::Log2Histogram h;
  for (int i = 0; i < 50; ++i) h.add(3);
  for (int i = 0; i < 30; ++i) h.add(100);
  for (int i = 0; i < 20; ++i) h.add(5000);
  std::uint64_t prev = 0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const std::uint64_t b = h.quantile_bound(q);
    EXPECT_GE(b, prev) << "q=" << q;
    prev = b;
  }
  EXPECT_EQ(h.quantile_bound(1.0), 8191u);  // 5000 lives in 4096..8191
}

TEST(Table, RendersAlignedColumns) {
  u::Table t({"size", "lat_us"});
  t.add_row({"64", "1.16"});
  t.add_row({"8192", "3.50"});
  const std::string out = t.render();
  EXPECT_NE(out.find("size"), std::string::npos);
  EXPECT_NE(out.find("8192"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, TitleBanner) {
  u::Table t({"a"});
  t.set_title("Fig. 1");
  EXPECT_NE(t.render().find("== Fig. 1 =="), std::string::npos);
}

TEST(Fmt, FixedPrecision) {
  EXPECT_EQ(u::fmt(1.005, 2), "1.00");  // snprintf rounding of binary 1.005
  EXPECT_EQ(u::fmt(2.5, 1), "2.5");
  EXPECT_EQ(u::fmt(3.0, 0), "3");
}

TEST(Fmt, Bytes) {
  EXPECT_EQ(u::fmt_bytes(64), "64B");
  EXPECT_EQ(u::fmt_bytes(4096), "4KB");
  EXPECT_EQ(u::fmt_bytes(2u << 20), "2MB");
  EXPECT_EQ(u::fmt_bytes(1ull << 30), "1GB");
  EXPECT_EQ(u::fmt_bytes(1500), "1500B");
}

TEST(Env, U64DefaultAndParse) {
  ::unsetenv("RDMASEM_TEST_KNOB");
  EXPECT_EQ(u::env_u64("RDMASEM_TEST_KNOB", 7), 7u);
  ::setenv("RDMASEM_TEST_KNOB", "42", 1);
  EXPECT_EQ(u::env_u64("RDMASEM_TEST_KNOB", 7), 42u);
  ::setenv("RDMASEM_TEST_KNOB", "4k", 1);
  EXPECT_EQ(u::env_u64("RDMASEM_TEST_KNOB", 7), 4096u);
  ::setenv("RDMASEM_TEST_KNOB", "2M", 1);
  EXPECT_EQ(u::env_u64("RDMASEM_TEST_KNOB", 7), 2u << 20);
  ::setenv("RDMASEM_TEST_KNOB", "bogus", 1);
  EXPECT_EQ(u::env_u64("RDMASEM_TEST_KNOB", 7), 7u);
  ::unsetenv("RDMASEM_TEST_KNOB");
}

TEST(Env, BoolForms) {
  ::setenv("RDMASEM_TEST_KNOB", "0", 1);
  EXPECT_FALSE(u::env_bool("RDMASEM_TEST_KNOB", true));
  ::setenv("RDMASEM_TEST_KNOB", "off", 1);
  EXPECT_FALSE(u::env_bool("RDMASEM_TEST_KNOB", true));
  ::setenv("RDMASEM_TEST_KNOB", "1", 1);
  EXPECT_TRUE(u::env_bool("RDMASEM_TEST_KNOB", false));
  ::unsetenv("RDMASEM_TEST_KNOB");
  EXPECT_TRUE(u::env_bool("RDMASEM_TEST_KNOB", true));
}

TEST(Env, F64AndStr) {
  ::setenv("RDMASEM_TEST_KNOB", "2.5", 1);
  EXPECT_DOUBLE_EQ(u::env_f64("RDMASEM_TEST_KNOB", 1.0), 2.5);
  EXPECT_EQ(u::env_str("RDMASEM_TEST_KNOB", "d"), "2.5");
  ::unsetenv("RDMASEM_TEST_KNOB");
  EXPECT_DOUBLE_EQ(u::env_f64("RDMASEM_TEST_KNOB", 1.0), 1.0);
  EXPECT_EQ(u::env_str("RDMASEM_TEST_KNOB", "d"), "d");
}

TEST(Ring, FifoAcrossWrapAndGrowth) {
  u::Ring<int, 2> r;
  r.push_back(1);
  r.push_back(2);
  r.pop_front();
  r.push_back(3);  // wraps into slot 0
  r.push_back(4);  // full and wrapped: grows, unwrapping in FIFO order
  std::vector<int> out;
  for (; !r.empty(); r.pop_front()) out.push_back(r.front());
  EXPECT_EQ(out, (std::vector<int>{2, 3, 4}));

  // Interleaved pushes and pops against std::deque across several growths.
  std::deque<int> ref;
  int next = 0;
  for (int round = 0; round < 200; ++round) {
    for (int k = 0; k < round % 7 + 1; ++k) {
      r.push_back(next);
      ref.push_back(next++);
    }
    for (int k = 0; k < round % 5 && !ref.empty(); ++k) {
      ASSERT_EQ(r.front(), ref.front());
      r.pop_front();
      ref.pop_front();
    }
    ASSERT_EQ(r.size(), ref.size());
  }
  for (; !ref.empty(); ref.pop_front(), r.pop_front())
    ASSERT_EQ(r.front(), ref.front());
  EXPECT_TRUE(r.empty());
}

TEST(Ring, SpillsInlineToHeapAndKeepsCapacity) {
  u::Ring<int, 2> r;
  EXPECT_EQ(r.capacity(), 2u);  // inline slots, nothing allocated
  r.push_back(1);
  r.push_back(2);
  EXPECT_EQ(r.capacity(), 2u);
  r.push_back(3);  // third element spills to a doubled heap buffer
  EXPECT_EQ(r.capacity(), 4u);
  for (int i = 4; i <= 9; ++i) r.push_back(i);
  EXPECT_EQ(r.capacity(), 16u);
  while (!r.empty()) r.pop_front();
  EXPECT_EQ(r.capacity(), 16u);  // kept for the next burst
  r.push_back(10);
  EXPECT_EQ(r.front(), 10);
}

TEST(Ring, PopReleasesTheElement) {
  auto p = std::make_shared<int>(7);
  {
    u::Ring<std::shared_ptr<int>, 2> r;
    for (int i = 0; i < 3; ++i) r.push_back(p);  // inline and heap slots
    EXPECT_EQ(p.use_count(), 4);
    r.pop_front();
    EXPECT_EQ(p.use_count(), 3);  // released at pop time, not at reuse
    r.pop_front();
    r.pop_front();
    EXPECT_EQ(p.use_count(), 1);
    r.push_back(p);
    EXPECT_EQ(p.use_count(), 2);
  }
  EXPECT_EQ(p.use_count(), 1);  // the destructor releases what is left
}
