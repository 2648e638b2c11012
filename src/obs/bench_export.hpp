#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace rdmasem::obs {

// One structured sweep point of a bench: the numbers a perf-trajectory
// tracker diffs across commits (as opposed to the human-readable table,
// which is mirrored verbatim).
struct BenchRow {
  std::string series;  // e.g. "write", "lock:remote+bo"
  std::string x;       // sweep coordinate label, e.g. "64B", "8"
  double mops = 0;
  double avg_us = 0;
  double p50_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  std::uint64_t errors = 0;
};

// BenchReport — accumulates everything one bench binary learned and
// writes BENCH_<name>.json: the paper-style table, structured sweep
// points, the aggregated per-op stage breakdown (when tracing ran) and
// an optional final metrics snapshot. The schema is validated by
// scripts/check_bench_json.py and documented in docs/OBSERVABILITY.md.
class BenchReport {
 public:
  static constexpr const char* kSchema = "rdmasem-bench-v1";

  void set_name(std::string name) { name_ = std::move(name); }
  const std::string& name() const { return name_; }

  void set_table(std::string title, std::vector<std::string> columns,
                 std::vector<std::vector<std::string>> rows);
  void add(BenchRow row) { points_.push_back(std::move(row)); }
  void absorb(const StageBreakdown& b) { stages_.merge(b); }
  const StageBreakdown& stages() const { return stages_; }

  void set_trace_file(std::string path) { trace_file_ = std::move(path); }
  // Raw JSON object string (MetricsRegistry::json()) embedded verbatim.
  void set_metrics_json(std::string j) { metrics_json_ = std::move(j); }
  // Two-plane profiler sections, embedded verbatim (null when empty):
  // ResourceWaits::json(), CriticalPath::json(), EngineProfileAccum::json().
  void set_resource_waits_json(std::string j) {
    resource_waits_json_ = std::move(j);
  }
  void set_critical_path_json(std::string j) {
    critical_path_json_ = std::move(j);
  }
  void set_engine_profile_json(std::string j) {
    engine_profile_json_ = std::move(j);
  }
  // Sync-layer section (bench/ext_sync_scale): per-point abort rates and
  // the merged lock-wait histogram. Raw JSON object, embedded verbatim.
  void set_sync_json(std::string j) { sync_json_ = std::move(j); }

  std::string json() const;
  // Writes `<dir>/BENCH_<name>.json`; returns the path ("" on failure).
  std::string write(const std::string& dir) const;

 private:
  std::string name_ = "unnamed";
  std::string table_title_;
  std::vector<std::string> table_columns_;
  std::vector<std::vector<std::string>> table_rows_;
  std::vector<BenchRow> points_;
  StageBreakdown stages_;
  std::string trace_file_;
  std::string metrics_json_;
  std::string resource_waits_json_;
  std::string critical_path_json_;
  std::string engine_profile_json_;
  std::string sync_json_;
};

}  // namespace rdmasem::obs
