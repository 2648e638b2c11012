#include "obs/metrics.hpp"

#include "obs/json.hpp"

namespace rdmasem::obs {

Counter& MetricsRegistry::counter(const std::string& name) {
  auto it = counter_ix_.find(name);
  if (it != counter_ix_.end()) return *it->second;
  counters_.emplace_back(name, std::make_unique<Counter>());
  Counter* c = counters_.back().second.get();
  counter_ix_.emplace(name, c);
  return *c;
}

void MetricsRegistry::gauge(const std::string& name,
                            std::function<double()> fn) {
  auto it = gauge_ix_.find(name);
  if (it != gauge_ix_.end()) {
    gauges_[it->second].second = std::move(fn);
    return;
  }
  gauge_ix_.emplace(name, gauges_.size());
  gauges_.emplace_back(name, std::move(fn));
}

util::Log2Histogram& MetricsRegistry::histogram(const std::string& name) {
  auto it = hist_ix_.find(name);
  if (it != hist_ix_.end()) return *it->second;
  hists_.emplace_back(name, std::make_unique<util::Log2Histogram>());
  util::Log2Histogram* h = hists_.back().second.get();
  hist_ix_.emplace(name, h);
  return *h;
}

double MetricsRegistry::read(const std::string& name) const {
  if (auto it = counter_ix_.find(name); it != counter_ix_.end())
    return static_cast<double>(it->second->value());
  if (auto it = gauge_ix_.find(name); it != gauge_ix_.end())
    return gauges_[it->second].second ? gauges_[it->second].second() : 0.0;
  return 0.0;
}

bool MetricsRegistry::has(const std::string& name) const {
  return counter_ix_.count(name) > 0 || gauge_ix_.count(name) > 0 ||
         hist_ix_.count(name) > 0;
}

void MetricsRegistry::sample(sim::Time now) {
  Row r;
  r.at = now;
  r.values.reserve(counters_.size() + gauges_.size());
  for (const auto& [name, c] : counters_)
    r.values.push_back(static_cast<double>(c->value()));
  for (const auto& [name, fn] : gauges_)
    r.values.push_back(fn ? fn() : 0.0);
  series_.push_back(std::move(r));
}

std::string MetricsRegistry::json() const {
  std::string out = "{\n  \"counters\": {";
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    out += i ? ",\n    " : "\n    ";
    out += json_str(counters_[i].first) + ": " +
           std::to_string(counters_[i].second->value());
  }
  out += counters_.empty() ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  for (std::size_t i = 0; i < gauges_.size(); ++i) {
    out += i ? ",\n    " : "\n    ";
    const auto& fn = gauges_[i].second;
    out += json_str(gauges_[i].first) + ": " + json_num(fn ? fn() : 0.0);
  }
  out += gauges_.empty() ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  for (std::size_t i = 0; i < hists_.size(); ++i) {
    out += i ? ",\n    " : "\n    ";
    const util::Log2Histogram& h = *hists_[i].second;
    out += json_str(hists_[i].first) + ": {\"count\": " +
           std::to_string(h.count()) +
           ", \"p50_bound\": " + std::to_string(h.quantile_bound(0.50)) +
           ", \"p99_bound\": " + std::to_string(h.quantile_bound(0.99)) +
           ", \"p999_bound\": " + std::to_string(h.quantile_bound(0.999)) +
           "}";
  }
  out += hists_.empty() ? "},\n" : "\n  },\n";
  out += "  \"series\": {\n    \"columns\": [\"time_us\"";
  for (const auto& [name, c] : counters_) out += ", " + json_str(name);
  for (const auto& [name, fn] : gauges_) out += ", " + json_str(name);
  out += "],\n    \"rows\": [";
  for (std::size_t i = 0; i < series_.size(); ++i) {
    out += i ? ",\n      " : "\n      ";
    out += '[';
    out += us_from_ps(series_[i].at);
    const std::size_t cols = counters_.size() + gauges_.size();
    for (std::size_t v = 0; v < cols; ++v) {
      out += ", ";
      out += v < series_[i].values.size() ? json_num(series_[i].values[v])
                                          : std::string("0");
    }
    out += "]";
  }
  out += series_.empty() ? "]\n  }\n}\n" : "\n    ]\n  }\n}\n";
  return out;
}

}  // namespace rdmasem::obs
