#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/lane.hpp"
#include "sim/time.hpp"
#include "util/assert.hpp"

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
};

// One resource grant (or pure latency / wire leg) on one WR's critical
// path — the Plane-1 attribution record. [begin, grant) is queueing wait,
// [grant, end) is service; for latency/wire records begin == grant (no
// queueing, pure delay). Within one cluster the records of a WR form a
// contiguous partition of its doorbell->CQE window, which is what lets
// obs::CriticalPath reconcile attribution against traced end-to-end
// latency exactly, in picoseconds (docs/OBSERVABILITY.md).
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
};

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
// Spans land in PER-LANE buffers indexed by sim::current_lane(). Every
// export (chrome_json, breakdown, drain order) concatenates lanes in lane
// order and stable-sorts by begin time, so it is a pure function of the
// per-lane span sequences.
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
  // Bounds memory PER LANE: spans beyond the cap are counted in dropped().
  void set_capacity(std::size_t max_spans) { capacity_ = max_spans; }
  // Pre-sizes the per-lane buffers (driver lane + one per machine). The
  // Cluster calls this at construction; a bare Tracer has lane 0 only.
  void set_lanes(std::uint32_t lanes) { lanes_.resize(lanes); }

  void span(Stage stage, sim::Time begin, sim::Time end, std::uint64_t wr_id,
            std::uint64_t qp_id, std::uint32_t machine, std::uint8_t opcode,
            std::uint64_t seq = 0) {
    if (!enabled_) return;
    const std::uint32_t lane = sim::current_lane();
    RDMASEM_CHECK_MSG(lane < lanes_.size(),
                      "tracer lane buffer missing (set_lanes)");
    LaneBuf& ln = lanes_[lane];
    if (ln.spans.size() >= capacity_) {
      ++ln.dropped;
      return;
    }
    ln.spans.push_back({begin, end, wr_id, qp_id, seq, machine, stage,
                        opcode});
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

  // Records one attribution span (same zero-cost contract and per-lane
  // buffering as span()). `res` is an intern_res index or
  // kResLatency/kResWire.
  void attr(std::uint16_t res, sim::Time begin, sim::Time grant,
            sim::Time end, std::uint64_t wr_id, std::uint64_t qp_id,
            std::uint64_t seq, std::uint32_t machine, std::uint8_t opcode) {
    if (!enabled_) return;
    const std::uint32_t lane = sim::current_lane();
    RDMASEM_CHECK_MSG(lane < lanes_.size(),
                      "tracer lane buffer missing (set_lanes)");
    LaneBuf& ln = lanes_[lane];
    if (ln.attrs.size() >= capacity_) {
      ++ln.attr_dropped;
      return;
    }
    ln.attrs.push_back({begin, grant, end, wr_id, qp_id, seq, machine, res,
                        opcode});
  }

  // All recorded spans, merged deterministically across lanes.
  std::vector<Span> spans() const;
  std::uint64_t dropped() const {
    std::uint64_t n = 0;
    for (const auto& ln : lanes_) n += ln.dropped;
    return n;
  }
  // Attribution spans, merged with the same lane-concat + stable-sort
  // recipe as spans().
  std::vector<AttrSpan> attr_spans() const;
  std::uint64_t attr_dropped() const {
    std::uint64_t n = 0;
    for (const auto& ln : lanes_) n += ln.attr_dropped;
    return n;
  }
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
  struct LaneBuf {
    std::vector<Span> spans;
    std::uint64_t dropped = 0;
    std::vector<AttrSpan> attrs;
    std::uint64_t attr_dropped = 0;
  };

  bool enabled_ = false;
  std::size_t capacity_ = 1u << 22;  // ~168 MB worst case; benches drain
  std::vector<LaneBuf> lanes_ = std::vector<LaneBuf>(1);
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
