// remote_queue: a multi-producer queue living entirely in ANOTHER
// machine's memory — the paper's "remote memory as a first-class
// data-structure substrate" theme (§IV-A class I) in ~60 lines of
// data-structure code.
//
// Layout in remote memory:
//   [ tail u64 | pad | slots: 64 B each ]
// Producers claim a slot with one remote fetch-and-add (remem::WordClient,
// the path the sequencers use), then publish the record from their own
// registered buffer with one RDMA write — the same reserve-then-write
// protocol as the distributed log.

#include <cstdio>
#include <cstring>

#include "remem/atomics.hpp"
#include "sim/sync.hpp"
#include "wl/rig.hpp"

using namespace rdmasem;

namespace {

constexpr std::uint64_t kSlots = 256;
constexpr std::uint64_t kSlotBytes = 64;
constexpr std::uint64_t kSlotsBase = 64;

struct Item {
  std::uint64_t producer;
  std::uint64_t seq;
  char payload[40];
  std::uint64_t ready;  // last field written; slot is valid once != 0
};
static_assert(sizeof(Item) <= kSlotBytes);

sim::Task producer(remem::WordClient& words, verbs::MemoryRegion& queue,
                   verbs::Buffer& item_buf, verbs::MemoryRegion& item_mr,
                   std::uint64_t id, std::uint64_t count,
                   sim::CountdownLatch& done) {
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto claim = co_await words.faa(queue.addr, queue.key, 1);
    RDMASEM_CHECK(claim.ok());
    const std::uint64_t slot = claim.atomic_old;
    Item item{};
    item.producer = id;
    item.seq = i;
    std::snprintf(item.payload, sizeof item.payload, "p%llu-item%llu",
                  static_cast<unsigned long long>(id),
                  static_cast<unsigned long long>(i));
    item.ready = 1;
    std::memcpy(item_buf.data(), &item, sizeof item);
    const auto c = co_await words.qp().execute(wl::make_write(
        item_mr, 0, queue, kSlotsBase + slot * kSlotBytes, sizeof item));
    RDMASEM_CHECK(c.ok());
  }
  done.count_down();
}

}  // namespace

int main() {
  wl::Rig rig;

  // The queue's backing store lives on machine 0; producers run on
  // machines 1..4 and never involve machine 0's CPU.
  verbs::Buffer backing(kSlotsBase + kSlots * kSlotBytes);
  auto* mr = rig.ctx[0]->register_buffer(backing, 1);

  const std::uint64_t producers = 4, per_producer = 32;
  sim::CountdownLatch done(rig.eng, producers);
  std::vector<std::unique_ptr<remem::WordClient>> words;
  std::vector<verbs::Buffer> item_bufs(producers);
  for (std::uint64_t p = 0; p < producers; ++p) {
    const auto m = static_cast<std::uint32_t>(1 + p);
    auto conn = rig.connect(m, 0);
    words.push_back(std::make_unique<remem::WordClient>(*conn.local));
    item_bufs[p] = verbs::Buffer(kSlotBytes);
    auto* item_mr = rig.ctx[m]->register_buffer(item_bufs[p], 1);
    rig.eng.spawn(producer(*words.back(), *mr, item_bufs[p], *item_mr, p,
                           per_producer, done));
  }
  rig.eng.run();

  // Consume host-side (the queue owner drains its own memory).
  std::uint64_t tail = 0;
  std::memcpy(&tail, backing.data(), 8);
  std::uint64_t per[4] = {};
  bool all_ready = true;
  for (std::uint64_t s = 0; s < tail; ++s) {
    Item item{};
    std::memcpy(&item, backing.data() + kSlotsBase + s * kSlotBytes,
                sizeof item);
    if (!item.ready) all_ready = false;
    if (item.producer < 4) ++per[item.producer];
  }
  std::printf("remote MPSC queue: %llu items claimed, all published: %s\n",
              static_cast<unsigned long long>(tail),
              all_ready ? "yes" : "NO");
  for (int p = 0; p < 4; ++p)
    std::printf("  producer %d contributed %llu items\n", p,
                static_cast<unsigned long long>(per[p]));
  std::printf("total simulated time: %.1f us (%llu FAAs + %llu writes)\n",
              sim::to_us(rig.eng.now()),
              static_cast<unsigned long long>(producers * per_producer),
              static_cast<unsigned long long>(producers * per_producer));
  return tail == producers * per_producer && all_ready ? 0 : 1;
}
