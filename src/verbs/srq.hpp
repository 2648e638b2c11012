#pragma once

#include <cstdint>

#include "util/ring.hpp"
#include "verbs/types.hpp"

namespace rdmasem::verbs {

class Context;

// SharedReceiveQueue — one posted-buffer pool drained by many QPs
// (ibv_srq). A QP created with QpConfig::srq set consumes arriving SENDs
// from this pool instead of its private receive queue, so a service
// endpoint provisions O(expected messages) buffers instead of
// O(connections × depth). When the pool runs dry the responder returns
// RNR NAKs exactly as a dry private RQ would (QueuePair::run_wr).
//
// Buffers belong to the POOL, not to any QP: a QP transitioning to ERROR
// flushes only its private receive queue — SRQ buffers stay posted and
// remain consumable by every other QP attached to the SRQ (tested in
// svc_test.cpp).
//
// Lane contract: the SRQ is single-lane state of its owning machine, like
// the QPs that drain it. post() from the owning machine's lane (or during
// setup while the engine is not running); consumption happens on that
// lane automatically because SEND processing runs on the responder's
// lane.
class SharedReceiveQueue {
 public:
  SharedReceiveQueue(Context& ctx, std::uint32_t id);

  // Posts one receive buffer to the shared pool (FIFO).
  void post(const RecvRequest& rr);

  bool empty() const { return q_.empty(); }
  std::size_t depth() const { return q_.size(); }
  std::uint32_t id() const { return id_; }
  Context& context() { return ctx_; }
  // Lifetime totals (obs mirrors these as verbs.srq.{posted,consumed}).
  std::uint64_t posted() const { return posted_; }
  std::uint64_t consumed() const { return consumed_; }

 private:
  friend class QueuePair;
  // FIFO consume by an arriving SEND; caller guarantees !empty().
  RecvRequest consume();

  Context& ctx_;
  std::uint32_t id_;
  util::Ring<RecvRequest, 16> q_;
  std::uint64_t posted_ = 0;
  std::uint64_t consumed_ = 0;
};

}  // namespace rdmasem::verbs
