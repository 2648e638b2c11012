// The shared bench drivers (bench/bench_common.hpp) are pure functions of
// their config: a point run first in a process returns the same double as
// the same point run again after a different config. A sweep relies on
// this when it simulates a config that two panels share only once, and it
// is what "one point run alone equals the same point in the full sweep"
// means for a point runner. Sizes are the smoke battery's.

#include <gtest/gtest.h>

#include <cstdlib>

#include "bench_common.hpp"

namespace {

using namespace rdmasem;

// alone, other, then alone again: the repeat must not see `other`.
template <typename Run, typename Config>
void expect_pure(Run run, const Config& alone, const Config& other) {
  const double first = run(alone);
  const double between = run(other);
  EXPECT_NE(first, between) << "the two configs should differ";
  EXPECT_EQ(run(alone), first);
}

TEST(BenchDrivers, JoinPointIsPure) {
  expect_pure(bench::join_seconds,
              apps::join::Config{.tuples = 800, .executors = 4,
                                 .batch_size = 4},
              apps::join::Config{.tuples = 800, .executors = 16,
                                 .batch_size = 16, .numa_aware = false});
}

TEST(BenchDrivers, HashtablePointIsPure) {
  ::setenv("RDMASEM_HT_KEYS", "512", 1);
  ::setenv("RDMASEM_HT_OPS", "400", 1);
  auto run = [](const apps::hashtable::Config& cfg) {
    return bench::hashtable_mops(cfg, 6, 500, 0.5);
  };
  expect_pure(run,
              apps::hashtable::Config{.numa_aware = true,
                                      .consolidate = true,
                                      .theta = 4},
              apps::hashtable::Config{});
}

TEST(BenchDrivers, ShufflePointIsPure) {
  namespace sh = apps::shuffle;
  sh::Config alone;
  alone.executors = 8;
  alone.entries_per_executor = 600;
  alone.batch = sh::BatchMode::kSgl;
  alone.batch_size = 4;
  sh::Config other = alone;
  other.executors = 4;
  other.batch = sh::BatchMode::kNone;
  other.direction = sh::Direction::kPull;
  expect_pure([](const sh::Config& cfg) { return bench::shuffle_mops(cfg); },
              alone, other);
}

TEST(BenchDrivers, DlogPointIsPure) {
  auto run = [](const apps::dlog::Config& cfg) {
    return bench::dlog_mops(cfg);
  };
  expect_pure(run,
              apps::dlog::Config{.engines = 7, .records_per_engine = 200,
                                 .batch_size = 16},
              apps::dlog::Config{.engines = 4, .records_per_engine = 200,
                                 .batch_size = 2, .replicas = 3});
}

}  // namespace
