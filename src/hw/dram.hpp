#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "hw/params.hpp"
#include "sim/time.hpp"

namespace rdmasem::hw {

// DramModel — address-driven cost model for host memory accesses.
//
// Three levels of locality, checked in order:
//   1. same cache line as the previous access on this stream  -> line hit
//   2. open row in the addressed bank (row-buffer hit)        -> row hit
//   3. closed/other row                                        -> row miss
//
// Sequential streams therefore pay mostly line/row hits while random
// streams pay mostly row misses — the 2.9x..6.9x local asymmetry of
// §I / Fig. 6c. Costs for accesses larger than one line accumulate per
// line, capped by the socket's bandwidth, and an MLP factor models
// pipelining of independent misses.
//
// The model is per-socket; cross-socket accesses add the QPI latency delta
// and use the lower remote bandwidth (Table II).
class DramModel {
 public:
  explicit DramModel(const ModelParams& p);

  enum class Op : std::uint8_t { kRead, kWrite };

  // Cost of accessing [addr, addr+size) on this socket's memory from a
  // core/DMA engine on `from_same_socket ? local : remote` socket.
  // Mutates row-buffer state (this is a stateful hardware model).
  sim::Duration access(std::uint64_t addr, std::size_t size, Op op,
                       bool from_same_socket = true);

  // Pure bandwidth cost for bulk transfers that bypass the row model
  // (streaming DMA), still NUMA-aware.
  sim::Duration stream(std::size_t size, bool from_same_socket = true) const;

  // Idle (unloaded) pointer-chase latency, MLC-style.
  sim::Duration idle_latency(bool from_same_socket = true) const;

  void reset();
  std::uint64_t row_hits() const { return row_hits_; }
  std::uint64_t row_misses() const { return row_misses_; }

 private:
  const ModelParams& p_;
  // Open-row tracker: an exact LRU set of `dram_banks` rows, kept in MRU
  // order (front = most recent) in an array reserved at construction. A
  // hit scans at most `dram_banks` rows and shifts the hit to the front; a
  // miss drops the last row. Keying on row identity (not addr % banks)
  // keeps runs independent of ASLR while preserving the hit/miss behaviour
  // that drives seq/rand asymmetry.
  std::vector<std::uint64_t> open_;
  std::uint64_t last_line_ = ~std::uint64_t{0};
  std::uint64_t row_hits_ = 0;
  std::uint64_t row_misses_ = 0;
};

}  // namespace rdmasem::hw
