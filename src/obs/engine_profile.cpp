#include "obs/engine_profile.hpp"

#include <algorithm>

#include "obs/json.hpp"
#include "util/table.hpp"

namespace rdmasem::obs {

namespace {

double accounted_share(const sim::ShardProfile& r) {
  if (r.wall_ns == 0) return 0.0;
  return std::min(1.0, static_cast<double>(r.dispatch_ns) /
                           static_cast<double>(r.wall_ns));
}

}  // namespace

void EngineProfileAccum::absorb(const sim::EngineProfile& p) {
  if (!p.enabled || p.runs == 0) return;
  runs_ += p.runs;
  for (const sim::ShardProfile& s : p.shard) {
    row_.events += s.events;
    row_.inline_grants += s.inline_grants;
    row_.dispatch_ns += s.dispatch_ns;
    row_.wall_ns += s.wall_ns;
    row_.max_queue_depth = std::max(row_.max_queue_depth, s.max_queue_depth);
    row_.spill_pushes += s.spill_pushes;
    row_.far_pushes += s.far_pushes;
    row_.behind_pushes += s.behind_pushes;
  }
}

std::string EngineProfileAccum::render() const {
  if (empty()) return {};
  util::Table t({"runs", "events", "inline", "dispatch_ms", "wall_ms",
                 "accounted", "max_qdepth", "spill", "far", "behind"});
  t.set_title("engine profile");
  const sim::ShardProfile& r = row_;
  t.add_row({std::to_string(runs_), std::to_string(r.events),
             std::to_string(r.inline_grants),
             util::fmt(static_cast<double>(r.dispatch_ns) / 1e6, 2),
             util::fmt(static_cast<double>(r.wall_ns) / 1e6, 2),
             util::fmt(accounted_share(r), 3),
             std::to_string(r.max_queue_depth),
             std::to_string(r.spill_pushes), std::to_string(r.far_pushes),
             std::to_string(r.behind_pushes)});
  return t.render();
}

std::string EngineProfileAccum::json() const {
  const sim::ShardProfile& r = row_;
  std::string out = "{\"schema\": \"rdmasem-engine-profile-v2\"";
  out += ", \"runs\": " + std::to_string(runs_);
  out += ", \"events\": " + std::to_string(r.events);
  out += ", \"inline_grants\": " + std::to_string(r.inline_grants);
  out += ", \"dispatch_ns\": " + std::to_string(r.dispatch_ns);
  out += ", \"wall_ns\": " + std::to_string(r.wall_ns);
  out += ", \"max_queue_depth\": " + std::to_string(r.max_queue_depth);
  out += ", \"spill_pushes\": " + std::to_string(r.spill_pushes);
  out += ", \"far_pushes\": " + std::to_string(r.far_pushes);
  out += ", \"behind_pushes\": " + std::to_string(r.behind_pushes);
  out += ", \"accounted_share\": " + json_num(accounted_share(r), 6);
  out += "}\n";
  return out;
}

}  // namespace rdmasem::obs
