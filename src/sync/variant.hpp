#pragma once

#include <cstdint>

namespace rdmasem::sync {

// Variant — selects between a primitive's correct protocol and its
// deliberately-broken sibling. Every broken variant reproduces a bug class
// the SIGMOD'23 one-sided-synchronization guidelines call out, and every
// one of them MUST be caught by the checker/invariant battery
// (tests/sync_test.cpp NegativeMatrix — zero silent passes). The broken
// siblings are test ammunition, not options: production code paths assert
// against them where it matters (docs/SYNC.md).
enum class Variant : std::uint8_t {
  kCorrect = 0,
  // Optimistic read without the version-pair / checksum recheck: returns
  // whatever snapshot the READ happened to catch, including mid-commit
  // states where the payload halves disagree.
  kTornRead,
  // Lock release posted as a plain WRITE without fencing on the critical
  // section's data writes. The model's loss recovery is per-WR (selective
  // retransmit), so an unfenced release can land while a lost data write
  // is still backing off — the next holder reads stale data and the
  // retransmit later clobbers its update.
  kUnfencedRelease,
  // Lease holder that keeps writing past expiry, skipping both the local
  // expiry check and the epoch-fence probe, clobbering the next epoch's
  // writes.
  kStaleLease,
};

inline const char* to_string(Variant v) {
  switch (v) {
    case Variant::kCorrect: return "correct";
    case Variant::kTornRead: return "torn-read";
    case Variant::kUnfencedRelease: return "unfenced-release";
    case Variant::kStaleLease: return "stale-lease";
  }
  return "?";
}

}  // namespace rdmasem::sync
