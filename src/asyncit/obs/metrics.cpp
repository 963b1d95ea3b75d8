#include "asyncit/obs/metrics.hpp"

#include "asyncit/support/json.hpp"

namespace asyncit::obs {

// ------------------------------------------------------- MetricsRegistry

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry* registry = new MetricsRegistry();  // leaked
  return *registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counter_index_.find(name);
  if (it != counter_index_.end()) return *it->second;
  counters_.emplace_back();
  counter_index_[name] = &counters_.back();
  return counters_.back();
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauge_index_.find(name);
  if (it != gauge_index_.end()) return *it->second;
  gauges_.emplace_back();
  gauge_index_[name] = &gauges_.back();
  return gauges_.back();
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& c : counters_) c.reset();
  for (auto& g : gauges_) g.reset();
}

std::string MetricsRegistry::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  JsonWriter w(out);
  w.begin_object().key("schema").value("asyncit-metrics/1");
  w.key("counters").begin_object();
  for (const auto& [name, c] : counter_index_) w.key(name).value(c->value());
  w.end_object().key("gauges").begin_object();
  for (const auto& [name, g] : gauge_index_) w.key(name).value(g->value());
  w.end_object().end_object();
  return out;
}

}  // namespace asyncit::obs
