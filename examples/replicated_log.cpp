// replicated_log: the paper's §IV-E scenario — transaction engines spread
// over the cluster append commit records to a totally ordered global log
// on a log server, entirely with one-sided verbs: remote fetch-and-add
// reserves an extent, one RDMA write lands the records.
//
// Demonstrates the batching knob and verifies the log afterwards: dense,
// per-record checksums intact, totally ordered.

#include <cstdio>

#include "apps/dlog/dlog.hpp"
#include "wl/rig.hpp"

using namespace rdmasem;
namespace dl = apps::dlog;

namespace {

// Returns whether the log verified.
bool run_once(std::uint32_t engines, std::uint32_t batch) {
  wl::Rig rig;
  dl::Config cfg;
  cfg.engines = engines;
  cfg.records_per_engine = 2048;
  cfg.batch_size = batch;
  dl::DistributedLog log(rig.contexts(), cfg);
  const auto r = log.run();
  const bool ok = log.verify_dense_and_intact();
  std::printf(
      "%2u engines, batch %2u : %6.2f MOPS, tail=%7llu B, verify=%s\n",
      engines, batch, r.mops, static_cast<unsigned long long>(log.tail()),
      ok ? "OK" : "CORRUPT");
  return ok;
}

}  // namespace

int main() {
  std::printf("distributed log: FAA-reserved extents + one-sided writes\n\n");
  bool ok = true;
  for (std::uint32_t batch : {1u, 8u, 32u}) ok = run_once(7, batch) && ok;
  std::printf("\n");
  for (std::uint32_t engines : {4u, 14u}) ok = run_once(engines, 16) && ok;
  return ok ? 0 : 1;
}
