#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace rdmasem::sync {

// Deterministic history recording on the virtual clock. Every worker
// records its operations into a private per-worker log (no cross-worker
// synchronization, so recording cannot perturb the run), and merged()
// produces ONE canonical order — a pure function of virtual timestamps
// and worker ids — that is byte-identical across replays.
// The merged history feeds the linearizability / serializability checkers
// (sync/checker.hpp).

enum class OpKind : std::uint8_t {
  kGet,  // optimistic read: value/version as observed
  kPut,  // blind locked write: value written, version it created
  kTxn,  // read-validate-write increment: read_version -> version
};

struct Op {
  OpKind kind = OpKind::kGet;
  std::uint32_t worker = 0;
  std::uint64_t key = 0;
  std::uint64_t value = 0;         // put/txn: value written; get: value seen
  std::uint64_t version = 0;       // version observed (get) / created (put/txn)
  std::uint64_t read_version = 0;  // txn: the version the validate saw
  bool ok = true;                  // false: aborted / validation exhausted
  sim::Time invoke = 0;
  sim::Time response = 0;
};

const char* to_string(OpKind k);

class HistoryRecorder {
 public:
  explicit HistoryRecorder(std::uint32_t workers) : logs_(workers) {}

  void record(std::uint32_t worker, const Op& op) {
    logs_[worker].push_back(op);
  }
  std::uint32_t workers() const {
    return static_cast<std::uint32_t>(logs_.size());
  }
  std::size_t total_ops() const;

  // Canonical merge: sorted by (invoke, response, worker, per-worker
  // sequence). Deterministic because every component is.
  std::vector<Op> merged() const;

  // One line per op — the byte-identity digest the replay tests compare.
  std::string render() const;

 private:
  std::vector<std::vector<Op>> logs_;
};

// All ops of `key`, in merged order.
std::vector<Op> ops_for_key(const std::vector<Op>& merged, std::uint64_t key);

}  // namespace rdmasem::sync
