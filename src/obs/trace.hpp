#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/lane.hpp"
#include "sim/time.hpp"

namespace rdmasem::obs {

// Lifecycle stages of one work request through the simulated RDMA stack,
// in pipeline order (DESIGN.md §5). Spans carry a begin/end pair on the
// picosecond clock; kDoorbell and kCqe are instants (begin == end).
enum class Stage : std::uint8_t {
  kPost = 0,    // CPU: WQE prep + doorbell MMIO (QueuePair::post/execute)
  kDoorbell,    // instant: WQEs become visible to the RNIC
  kWqeFetch,    // RNIC DMA-reads the descriptor ring (skipped by BlueFlame)
  kTranslate,   // metadata-cache miss stalls (PTE / MR / QP fills)
  kExec,        // send-side execution-unit occupancy (§III-A throttling)
  kLocalDma,    // payload DMA between host memory and the local RNIC
  kWire,        // serialization + propagation + switch, incl. retransmits
  kRemoteRx,    // remote inbound packet processing
  kRemoteDram,  // remote-side translation, DMA and DRAM/atomic work
  kResponse,    // ACK / read-response / atomic-response return leg
  kCqe,         // instant: completion delivered to the CQ / waiter
};
inline constexpr std::size_t kStageCount =
    static_cast<std::size_t>(Stage::kCqe) + 1;

const char* to_string(Stage s);

// One stamped interval of one WR's life. 48 bytes; a traced bench run
// produces O(ops * 8) of these.
struct Span {
  sim::Time begin = 0;
  sim::Time end = 0;
  std::uint64_t wr_id = 0;
  std::uint64_t qp_id = 0;
  std::uint64_t seq = 0;      // post-order on the QP (WorkRequest::trace_seq);
                              // 0 for spans stamped before the doorbell
  std::uint32_t machine = 0;  // requester machine = trace process id
  Stage stage = Stage::kPost;
  std::uint8_t opcode = 0;    // verbs::Opcode, kept raw to stay layer-clean
  std::uint16_t lane = 0;     // engine lane that recorded it (export order)
};
static_assert(sizeof(Span) == 48, "the lane rides in Span's padding");

// One resource grant (or pure latency / wire leg) on one WR's critical
// path — the Plane-1 attribution record. [begin, grant) is queueing wait,
// [grant, end) is service; for latency/wire records begin == grant (no
// queueing, pure delay). Within one cluster the records of a WR form a
// contiguous partition of its doorbell->CQE window, which is what lets
// obs::CriticalPath reconcile attribution against traced end-to-end
// latency exactly, in picoseconds (docs/OBSERVABILITY.md). 64 bytes.
struct AttrSpan {
  sim::Time begin = 0;   // request time (wait starts)
  sim::Time grant = 0;   // service start (== begin when wait == 0)
  sim::Time end = 0;     // service end
  std::uint64_t wr_id = 0;
  std::uint64_t qp_id = 0;    // cluster-unique posting QP
  std::uint64_t seq = 0;      // post-order on the QP; (qp_id, seq) keys the
                              // WR instance — wr_id alone may repeat (apps
                              // legitimately leave it 0 on every post)
  std::uint32_t machine = 0;  // requester machine = trace process id
  std::uint16_t res = 0;      // interned resource-name index (res_names())
  std::uint8_t opcode = 0;    // verbs::Opcode, raw
  std::uint16_t lane = 0;     // engine lane that recorded it (export order)
};
static_assert(sizeof(AttrSpan) == 64);

// Aggregated per-stage totals — the "where did the cycles go" table the
// paper's figures are explained with.
struct StageBreakdown {
  struct Row {
    std::uint64_t count = 0;
    sim::Duration total = 0;
  };
  std::array<Row, kStageCount> rows{};
  std::uint64_t spans = 0;

  void add(const Span& s);
  void merge(const StageBreakdown& other);
  // Sum of all interval-stage durations (instants contribute 0).
  sim::Duration grand_total() const;
  // Fixed-width table: stage, count, total_us, avg_ns, share. Empty
  // string when nothing was recorded.
  std::string render() const;
};

// Tracer — the per-cluster WR lifecycle recorder. Disabled by default;
// when disabled every stamp call is a single predicted branch and no
// memory is touched. Stamping never schedules events, never reads the
// RNG and never delays a coroutine, so enabling tracing cannot perturb
// the virtual-clock timeline (the zero-cost contract, asserted by
// obs_test.cpp and the determinism suites).
//
// Spans land in one buffer in record order, each stamped with the
// recording lane (sim::current_lane()). Every export (chrome_json, drain
// order) stable-sorts by (begin, lane), so spans with equal begin come
// out in lane order and, within a lane, in record order.
class Tracer {
 public:
  // Pre-interned attribution pseudo-resources: kResLatency covers fixed
  // pipeline latencies (doorbell ring, PCIe hops, checks) with no queueing;
  // kResWire covers network legs (serialization + propagation + switch,
  // incl. retransmit loops). Real Resources intern their names after these.
  static constexpr std::uint16_t kResLatency = 0;
  static constexpr std::uint16_t kResWire = 1;

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  // Bounds memory per tracer, across all lanes: spans beyond the cap are
  // counted in dropped(), attribution spans in attr_dropped().
  void set_capacity(std::size_t max_spans) { capacity_ = max_spans; }

  void span(Stage stage, sim::Time begin, sim::Time end, std::uint64_t wr_id,
            std::uint64_t qp_id, std::uint32_t machine, std::uint8_t opcode,
            std::uint64_t seq = 0) {
    if (!enabled_) return;
    if (spans_.size() >= capacity_) {
      ++dropped_;
      return;
    }
    spans_.push_back({begin, end, wr_id, qp_id, seq, machine, stage, opcode,
                      current_lane()});
  }
  void instant(Stage stage, sim::Time at, std::uint64_t wr_id,
               std::uint64_t qp_id, std::uint32_t machine,
               std::uint8_t opcode, std::uint64_t seq = 0) {
    span(stage, at, at, wr_id, qp_id, machine, opcode, seq);
  }

  // Interns a resource name into the attribution name table and returns
  // its index (the value Resource::set_attr_id stores). Linear scan —
  // called once per resource at cluster construction, never on a hot path.
  std::uint16_t intern_res(const std::string& name) {
    for (std::size_t i = 0; i < res_names_.size(); ++i)
      if (res_names_[i] == name) return static_cast<std::uint16_t>(i);
    res_names_.push_back(name);
    return static_cast<std::uint16_t>(res_names_.size() - 1);
  }
  const std::vector<std::string>& res_names() const { return res_names_; }

  // Records one attribution span (same zero-cost contract, lane stamp and
  // export order as span()). `res` is an intern_res index or
  // kResLatency/kResWire.
  void attr(std::uint16_t res, sim::Time begin, sim::Time grant,
            sim::Time end, std::uint64_t wr_id, std::uint64_t qp_id,
            std::uint64_t seq, std::uint32_t machine, std::uint8_t opcode) {
    if (!enabled_) return;
    if (attrs_.size() >= capacity_) {
      ++attr_dropped_;
      return;
    }
    attrs_.push_back({begin, grant, end, wr_id, qp_id, seq, machine, res,
                      opcode, current_lane()});
  }

  // All recorded spans in (begin, lane, record) order.
  std::vector<Span> spans() const;
  std::uint64_t dropped() const { return dropped_; }
  // Attribution spans, in the same order as spans().
  std::vector<AttrSpan> attr_spans() const;
  std::uint64_t attr_dropped() const { return attr_dropped_; }
  // Moves the recorded spans out (e.g. into a bench-wide sink) and
  // resets the buffers.
  std::vector<Span> drain();
  std::vector<AttrSpan> drain_attrs();
  void clear();

  StageBreakdown breakdown() const;
  // Chrome trace-event JSON ({"traceEvents":[...]}), loadable by
  // Perfetto (ui.perfetto.dev) and chrome://tracing. Byte-deterministic
  // for identical runs.
  std::string chrome_json() const;

 private:
  // sim::Engine::kMaxLanes is 2^14, so every lane fits the 16-bit stamp.
  static std::uint16_t current_lane() {
    return static_cast<std::uint16_t>(sim::current_lane());
  }

  bool enabled_ = false;
  // One cap per tracer, across all lanes: at most 192 MiB of spans plus
  // 256 MiB of attribution spans; benches drain.
  std::size_t capacity_ = 1u << 22;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
  std::vector<AttrSpan> attrs_;
  std::uint64_t attr_dropped_ = 0;
  std::vector<std::string> res_names_{"latency", "wire"};
};

// The same JSON for an externally accumulated span list (bench harness
// merges spans from many per-sweep-point clusters into one file).
std::string chrome_trace_json(const std::vector<Span>& spans,
                              const char* (*opcode_name)(std::uint8_t) =
                                  nullptr);

// Span JSON plus per-resource queueing-wait counter tracks: one Perfetto
// counter series ("wait:<res>", ph "C", pid 0) per resource that ever
// waited, sampling the CUMULATIVE wait (us) at each waiting grant. Pure
// latency/wire records and zero-wait grants emit nothing.
std::string chrome_trace_json(const std::vector<Span>& spans,
                              const std::vector<AttrSpan>& attrs,
                              const std::vector<std::string>& res_names,
                              const char* (*opcode_name)(std::uint8_t) =
                                  nullptr);

}  // namespace rdmasem::obs
