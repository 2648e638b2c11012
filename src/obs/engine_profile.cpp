#include "obs/engine_profile.hpp"

#include <algorithm>

#include "obs/json.hpp"
#include "util/table.hpp"

namespace rdmasem::obs {

namespace {

double accounted_share(const sim::ShardProfile& r) {
  if (r.wall_ns == 0) return 0.0;
  const double named = static_cast<double>(r.dispatch_ns) +
                       static_cast<double>(r.barrier_park_ns) +
                       static_cast<double>(r.merge_ns);
  return std::min(1.0, named / static_cast<double>(r.wall_ns));
}

// Derived rates: how often the shard crossed an epoch barrier, how much
// work each crossing bought, and how wide the conservative epochs really
// were (virtual ps per epoch — the topology-aware lookahead matrix shows
// up here as effective widths above the global minimum). Serial rows
// report effective_lookahead_ps = 0: their single "epoch" is unbounded.
double epochs_per_sec(const sim::ShardProfile& r) {
  if (r.wall_ns == 0) return 0.0;
  return static_cast<double>(r.epochs) /
         (static_cast<double>(r.wall_ns) / 1e9);
}

double events_per_epoch(const sim::ShardProfile& r) {
  if (r.epochs == 0) return 0.0;
  return static_cast<double>(r.events) / static_cast<double>(r.epochs);
}

double effective_lookahead_ps(const sim::ShardProfile& r) {
  if (r.epochs == 0) return 0.0;
  return static_cast<double>(r.lookahead_ps) /
         static_cast<double>(r.epochs);
}

}  // namespace

void EngineProfileAccum::absorb(const sim::EngineProfile& p) {
  if (!p.enabled || p.runs == 0) return;
  Group& g = groups_[p.shards];
  g.runs += p.runs;
  if (g.rows.size() < p.shard.size()) g.rows.resize(p.shard.size());
  for (std::size_t i = 0; i < p.shard.size(); ++i) {
    const sim::ShardProfile& s = p.shard[i];
    sim::ShardProfile& r = g.rows[i];
    r.epochs += s.epochs;
    r.events += s.events;
    r.inline_grants += s.inline_grants;
    r.merged_events += s.merged_events;
    r.merge_ns += s.merge_ns;
    r.barrier_park_ns += s.barrier_park_ns;
    r.dispatch_ns += s.dispatch_ns;
    r.wall_ns += s.wall_ns;
    r.max_queue_depth = std::max(r.max_queue_depth, s.max_queue_depth);
    r.lookahead_ps += s.lookahead_ps;
    r.fused_epochs += s.fused_epochs;
    r.resplit_epochs += s.resplit_epochs;
    r.horizon_widening_ps += s.horizon_widening_ps;
    r.spilled_events += s.spilled_events;
  }
}

std::string EngineProfileAccum::render() const {
  if (groups_.empty()) return {};
  std::string out;
  for (const auto& [shards, g] : groups_) {
    util::Table t({"shard", "epochs", "events", "ev/epoch", "eff_la_ns",
                   "fused", "resplit", "widen_ns", "spilled",
                   "inline", "merged", "dispatch_ms", "park_ms", "merge_ms",
                   "wall_ms", "accounted", "max_qdepth"});
    t.set_title("engine profile: shards=" + std::to_string(shards) +
                " (" + std::to_string(g.runs) + " runs)");
    for (std::size_t i = 0; i < g.rows.size(); ++i) {
      const sim::ShardProfile& r = g.rows[i];
      t.add_row({std::to_string(i), std::to_string(r.epochs),
                 std::to_string(r.events),
                 util::fmt(events_per_epoch(r), 1),
                 util::fmt(effective_lookahead_ps(r) / 1e3, 1),
                 std::to_string(r.fused_epochs),
                 std::to_string(r.resplit_epochs),
                 util::fmt(static_cast<double>(r.horizon_widening_ps) / 1e3,
                           1),
                 std::to_string(r.spilled_events),
                 std::to_string(r.inline_grants),
                 std::to_string(r.merged_events),
                 util::fmt(static_cast<double>(r.dispatch_ns) / 1e6, 2),
                 util::fmt(static_cast<double>(r.barrier_park_ns) / 1e6, 2),
                 util::fmt(static_cast<double>(r.merge_ns) / 1e6, 2),
                 util::fmt(static_cast<double>(r.wall_ns) / 1e6, 2),
                 util::fmt(accounted_share(r), 3),
                 std::to_string(r.max_queue_depth)});
    }
    if (!out.empty()) out += "\n";
    out += t.render();
  }
  return out;
}

std::string EngineProfileAccum::json() const {
  std::string out = "{\"schema\": \"rdmasem-engine-profile-v1\", \"groups\": [";
  bool first_g = true;
  for (const auto& [shards, g] : groups_) {
    out += first_g ? "\n" : ",\n";
    first_g = false;
    out += "  {\"shards\": " + std::to_string(shards);
    out += ", \"runs\": " + std::to_string(g.runs);
    out += ", \"rows\": [";
    bool first_r = true;
    for (std::size_t i = 0; i < g.rows.size(); ++i) {
      const sim::ShardProfile& r = g.rows[i];
      out += first_r ? "\n" : ",\n";
      first_r = false;
      out += "    {\"shard\": " + std::to_string(i);
      out += ", \"epochs\": " + std::to_string(r.epochs);
      out += ", \"events\": " + std::to_string(r.events);
      out += ", \"inline_grants\": " + std::to_string(r.inline_grants);
      out += ", \"merged_events\": " + std::to_string(r.merged_events);
      out += ", \"merge_ns\": " + std::to_string(r.merge_ns);
      out += ", \"barrier_park_ns\": " + std::to_string(r.barrier_park_ns);
      out += ", \"dispatch_ns\": " + std::to_string(r.dispatch_ns);
      out += ", \"wall_ns\": " + std::to_string(r.wall_ns);
      out += ", \"max_queue_depth\": " + std::to_string(r.max_queue_depth);
      out += ", \"lookahead_ps\": " + std::to_string(r.lookahead_ps);
      out += ", \"fused_epochs\": " + std::to_string(r.fused_epochs);
      out += ", \"resplit_epochs\": " + std::to_string(r.resplit_epochs);
      out += ", \"horizon_widening_ps\": " +
             std::to_string(r.horizon_widening_ps);
      out += ", \"spilled_events\": " + std::to_string(r.spilled_events);
      out += ", \"accounted_share\": " + json_num(accounted_share(r), 6);
      out += ", \"epochs_per_sec\": " + json_num(epochs_per_sec(r), 3);
      out += ", \"events_per_epoch\": " + json_num(events_per_epoch(r), 3);
      out += ", \"effective_lookahead_ps\": " +
             json_num(effective_lookahead_ps(r), 3);
      out += "}";
    }
    out += first_r ? "]}" : "\n  ]}";
  }
  out += first_g ? "]}\n" : "\n]}\n";
  return out;
}

}  // namespace rdmasem::obs
