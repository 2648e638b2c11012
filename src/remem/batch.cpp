#include "remem/batch.hpp"

#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace rdmasem::remem {

namespace {
verbs::WorkRequest make_wr(verbs::Opcode op, std::uint64_t remote_addr,
                           std::uint32_t rkey) {
  verbs::WorkRequest wr;
  wr.opcode = op;
  wr.remote_addr = remote_addr;
  wr.rkey = rkey;
  return wr;
}

// kNone: posts the WRs one at a time, each awaited before the next.
sim::TaskT<verbs::Completion> execute_each(
    verbs::QueuePair& qp, std::vector<verbs::WorkRequest> wrs) {
  verbs::Completion c;
  for (auto& wr : wrs) {
    c = co_await qp.execute(std::move(wr));
    if (!c.ok()) break;
  }
  co_return c;
}
}  // namespace

Batcher::Batcher(verbs::QueuePair& qp, BatchMode mode,
                 std::size_t sp_staging_bytes)
    : qp_(qp), mode_(mode) {
  if (mode_ != BatchMode::kSp) return;
  RDMASEM_CHECK_MSG(sp_staging_bytes > 0, "SP batching needs staging");
  staging_ = verbs::Buffer(sp_staging_bytes);
  staging_mr_ = qp_.context().register_buffer(
      staging_, qp_.context().machine().port_socket(qp_.config().port));
}

sim::TaskT<verbs::Completion> Batcher::flush(verbs::Opcode op,
                                             std::span<const BatchItem> items,
                                             std::uint64_t remote_base,
                                             std::uint32_t rkey) {
  RDMASEM_CHECK_MSG(op == verbs::Opcode::kWrite || op == verbs::Opcode::kRead,
                    "a batch flush is a WRITE or a READ");
  RDMASEM_CHECK_MSG(!items.empty(), "an empty batch has nothing to flush");
  if (mode_ == BatchMode::kSp) return flush_sp(op, items, remote_base, rkey);
  if (mode_ == BatchMode::kSgl) {
    RDMASEM_CHECK_MSG(items.size() <= qp_.context().params().rnic_max_sge,
                      "SGL batch exceeds the NIC's SGE limit");
    // One WQE: the NIC gathers the pieces (WRITE) or scatters the
    // contiguous response across them (READ).
    auto wr = make_wr(op, remote_base, rkey);
    wr.sg_list.reserve(items.size());
    for (const auto& item : items) wr.sg_list.push_back(item.local);
    return qp_.execute(std::move(wr));
  }
  // kNone and kDoorbell: one WR per item, at the item's own remote_addr.
  // Doorbell signals only the last one; execute() signals every kNone WR.
  std::vector<verbs::WorkRequest> wrs;
  wrs.reserve(items.size());
  for (const auto& item : items) {
    auto& wr = wrs.emplace_back(make_wr(op, item.remote_addr, rkey));
    wr.sg_list = {item.local};
    wr.signaled = false;
  }
  if (mode_ == BatchMode::kDoorbell) return qp_.execute_batch(std::move(wrs));
  return execute_each(qp_, std::move(wrs));
}

sim::TaskT<verbs::Completion> Batcher::flush_sp(
    verbs::Opcode op, std::span<const BatchItem> items,
    std::uint64_t remote_base, std::uint32_t rkey) {
  auto& ctx = qp_.context();
  std::size_t total = 0;
  for (const auto& item : items) {
    RDMASEM_CHECK_MSG(ctx.lookup(item.local.lkey) != nullptr,
                      "SP copy: bad lkey");
    total += item.local.length;
    RDMASEM_CHECK_MSG(total <= staging_.size(), "SP staging overflow");
  }
  // The CPU half of Algorithm 1: copy every piece between its own buffer
  // and staging (gather before a WRITE, scatter after a READ). Real bytes
  // move; the copies are charged to this task.
  auto cpu_copy = [&] {
    std::size_t off = 0;
    sim::Duration cpu = 0;
    for (const auto& item : items) {
      if (op == verbs::Opcode::kWrite)
        verbs::QueuePair::gather_sges(ctx, &item.local, 1,
                                      staging_.data() + off);
      else
        verbs::QueuePair::scatter_sges(ctx, &item.local, 1,
                                       staging_.data() + off,
                                       item.local.length);
      cpu += ctx.params().memcpy_time(item.local.length);
      off += item.local.length;
    }
    return sim::delay(ctx.engine(), cpu);
  };
  auto wr = make_wr(op, remote_base, rkey);
  wr.sg_list = {{staging_mr_->addr, static_cast<std::uint32_t>(total),
                 staging_mr_->key}};
  if (op == verbs::Opcode::kWrite) co_await cpu_copy();
  const auto c = co_await qp_.execute(std::move(wr));
  if (op == verbs::Opcode::kRead && c.ok()) co_await cpu_copy();
  co_return c;
}

}  // namespace rdmasem::remem
