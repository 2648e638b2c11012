#pragma once

#include <cstdint>
#include <span>

#include "sim/task.hpp"
#include "verbs/buffer.hpp"
#include "verbs/qp.hpp"

namespace rdmasem::remem {

// The vector-IO batch strategies of §III-A / Algorithm 1. Each moves the
// same logical data — a set of scattered local pieces — between local and
// remote memory; they differ in who gathers and how many MMIOs / WQEs /
// network operations are spent:
//
//             gather-by   MMIOs  WQEs  net ops   paper verdict
//   kNone     —           n      n     n         the unbatched baseline
//   kSgl      RNIC        1      1     1         close to SP, SGE-limited
//   kSp       CPU         1      1     1         highest tput, worst progr.
//   kDoorbell —           1      n     n         easy, low tput
//
// kSp ("software protocol") memcpys every piece through a staging buffer
// and issues one WR: packet throttling makes n small pieces cost barely
// more than one on the wire, but the CPU pays for the copies. kSgl hands
// the RNIC one WQE whose SGL points at every piece; each extra SGE costs a
// descriptor fetch, so it scales well only to modest batch sizes (§III-A
// "good in a small range"). kDoorbell rings one doorbell MMIO over n
// independent WQEs (Kalia et al.), which saves CPU MMIOs only.
enum class BatchMode : std::uint8_t { kNone, kSgl, kSp, kDoorbell };

// Where each piece goes remotely depends on the mode:
//   kNone, kDoorbell  every item at its own `remote_addr`; the flush's
//                     `remote_base` is ignored.
//   kSgl, kSp         the items back-to-back from the flush's
//                     `remote_base`, in order; `remote_addr` is ignored.
struct BatchItem {
  verbs::Sge local;            // a piece of registered local memory
  std::uint64_t remote_addr;   // its remote address (kNone / kDoorbell)
};

class Batcher {
 public:
  // `sp_staging_bytes` bounds the total bytes of one kSp flush; only kSp
  // allocates and registers staging (on the socket of the QP's port: SP
  // is always paired with NUMA-clean placement in the paper's designs).
  Batcher(verbs::QueuePair& qp, BatchMode mode,
          std::size_t sp_staging_bytes = 0);

  // Moves every item to the peer (`op` = kWrite) or fetches it into its
  // local piece (`op` = kRead). Resumes when the last WR completes and
  // returns its completion; kNone stops at and returns the first failure.
  // An empty `items` aborts in every mode: a flush moves at least one piece.
  sim::TaskT<verbs::Completion> flush(verbs::Opcode op,
                                      std::span<const BatchItem> items,
                                      std::uint64_t remote_base,
                                      std::uint32_t rkey);

 private:
  sim::TaskT<verbs::Completion> flush_sp(verbs::Opcode op,
                                         std::span<const BatchItem> items,
                                         std::uint64_t remote_base,
                                         std::uint32_t rkey);

  verbs::QueuePair& qp_;
  BatchMode mode_;
  verbs::Buffer staging_;
  verbs::MemoryRegion* staging_mr_ = nullptr;
};

}  // namespace rdmasem::remem
