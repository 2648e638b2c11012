#include "obs/trace.hpp"

#include <algorithm>
#include <utility>

#include "obs/json.hpp"
#include "util/table.hpp"

namespace rdmasem::obs {

const char* to_string(Stage s) {
  switch (s) {
    case Stage::kPost: return "post";
    case Stage::kDoorbell: return "doorbell";
    case Stage::kWqeFetch: return "wqe_fetch";
    case Stage::kTranslate: return "translate";
    case Stage::kExec: return "exec";
    case Stage::kLocalDma: return "local_dma";
    case Stage::kWire: return "wire";
    case Stage::kRemoteRx: return "remote_rx";
    case Stage::kRemoteDram: return "remote_dram";
    case Stage::kResponse: return "response";
    case Stage::kCqe: return "cqe";
  }
  return "?";
}

namespace {
// Mirrors verbs::Opcode (obs sits below verbs in the layer stack, so the
// names are duplicated here; verbs_test pins the two enums together).
const char* default_opcode_name(std::uint8_t op) {
  switch (op) {
    case 0: return "WRITE";
    case 1: return "READ";
    case 2: return "CMP_SWAP";
    case 3: return "FETCH_ADD";
    case 4: return "SEND";
    case 5: return "RECV";
  }
  return "OP?";
}
}  // namespace

void StageBreakdown::add(const Span& s) {
  auto& row = rows[static_cast<std::size_t>(s.stage)];
  ++row.count;
  row.total += s.end - s.begin;
  ++spans;
}

void StageBreakdown::merge(const StageBreakdown& other) {
  for (std::size_t i = 0; i < kStageCount; ++i) {
    rows[i].count += other.rows[i].count;
    rows[i].total += other.rows[i].total;
  }
  spans += other.spans;
}

sim::Duration StageBreakdown::grand_total() const {
  sim::Duration t = 0;
  for (const auto& r : rows) t += r.total;
  return t;
}

std::string StageBreakdown::render() const {
  if (spans == 0) return {};
  util::Table t({"stage", "count", "total_us", "avg_ns", "share"});
  t.set_title("per-op stage breakdown (where the picoseconds went)");
  const double grand = static_cast<double>(grand_total());
  for (std::size_t i = 0; i < kStageCount; ++i) {
    const Row& r = rows[i];
    if (r.count == 0) continue;
    const double total = static_cast<double>(r.total);
    t.add_row({to_string(static_cast<Stage>(i)), std::to_string(r.count),
               util::fmt(sim::to_us(r.total), 3),
               util::fmt(total / static_cast<double>(r.count) / 1000.0, 1),
               grand > 0 ? util::fmt(total / grand, 3) : "0"});
  }
  return t.render();
}

namespace {
// Equal begins keep lane order, then record order (stable).
template <typename S>
std::vector<S> export_order(std::vector<S> out) {
  std::stable_sort(out.begin(), out.end(), [](const S& a, const S& b) {
    return a.begin != b.begin ? a.begin < b.begin : a.lane < b.lane;
  });
  return out;
}
}  // namespace

std::vector<Span> Tracer::spans() const { return export_order(spans_); }

std::vector<AttrSpan> Tracer::attr_spans() const {
  return export_order(attrs_);
}

std::vector<Span> Tracer::drain() {
  return export_order(std::exchange(spans_, {}));
}

std::vector<AttrSpan> Tracer::drain_attrs() {
  return export_order(std::exchange(attrs_, {}));
}

void Tracer::clear() {
  spans_.clear();
  dropped_ = 0;
  attrs_.clear();
  attr_dropped_ = 0;
}

StageBreakdown Tracer::breakdown() const {
  StageBreakdown b;
  for (const Span& s : spans_) b.add(s);
  return b;
}

std::string Tracer::chrome_json() const { return chrome_trace_json(spans()); }

std::string chrome_trace_json(const std::vector<Span>& spans,
                              const char* (*opcode_name)(std::uint8_t)) {
  if (opcode_name == nullptr) opcode_name = default_opcode_name;
  std::string out =
      "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [";
  bool first = true;
  for (const Span& s : spans) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "{\"name\": \"";
    out += to_string(s.stage);
    out += "\", \"cat\": \"";
    out += opcode_name(s.opcode);
    if (s.begin == s.end) {
      out += "\", \"ph\": \"i\", \"s\": \"t\", \"ts\": ";
      out += us_from_ps(s.begin);
    } else {
      out += "\", \"ph\": \"X\", \"ts\": ";
      out += us_from_ps(s.begin);
      out += ", \"dur\": ";
      out += us_from_ps(s.end - s.begin);
    }
    out += ", \"pid\": " + std::to_string(s.machine);
    out += ", \"tid\": " + std::to_string(s.qp_id);
    out += ", \"args\": {\"wr\": " + std::to_string(s.wr_id) + "}}";
  }
  out += "\n]}\n";
  return out;
}

std::string chrome_trace_json(const std::vector<Span>& spans,
                              const std::vector<AttrSpan>& attrs,
                              const std::vector<std::string>& res_names,
                              const char* (*opcode_name)(std::uint8_t)) {
  std::string out = chrome_trace_json(spans, opcode_name);
  // Cumulative per-resource wait, sampled at every waiting grant. attrs
  // arrive begin-sorted, so each series is monotone in both ts and value.
  std::vector<std::uint64_t> cum(res_names.size(), 0);
  std::string counters;
  for (const AttrSpan& a : attrs) {
    if (a.grant == a.begin) continue;  // no queueing — nothing to plot
    if (a.res >= cum.size()) continue;  // unknown id: skip, never misattribute
    cum[a.res] += a.grant - a.begin;
    counters += ",\n{\"name\": \"wait:";
    counters += json_escape(res_names[a.res]);
    counters += "\", \"ph\": \"C\", \"ts\": ";
    counters += us_from_ps(a.grant);
    counters += ", \"pid\": 0, \"args\": {\"wait_us\": ";
    counters += us_from_ps(cum[a.res]);
    counters += "}}";
  }
  if (!counters.empty()) {
    // Splice the counter events before the closing "\n]}\n". With no span
    // events the array is empty and the first counter must not lead with
    // a comma.
    out.resize(out.size() - 4);
    out += spans.empty() ? counters.substr(1) : counters;
    out += "\n]}\n";
  }
  return out;
}

}  // namespace rdmasem::obs
