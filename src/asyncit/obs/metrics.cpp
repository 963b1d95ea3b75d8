#include "asyncit/obs/metrics.hpp"

#include <cmath>
#include <sstream>

namespace asyncit::obs {

namespace {
void append_double(std::ostringstream* os, double v) {
  if (std::isfinite(v)) {
    *os << v;
  } else {
    *os << '"' << (v > 0 ? "inf" : (v < 0 ? "-inf" : "nan")) << '"';
  }
}
}  // namespace

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
  std::ostringstream os;
  os << "{\"schema\":\"asyncit-metrics/1\",\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counter_index_) {
    if (!first) os << ',';
    first = false;
    os << '"' << name << "\":" << c->value();
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauge_index_) {
    if (!first) os << ',';
    first = false;
    os << '"' << name << "\":";
    append_double(&os, g->value());
  }
  os << "}}";
  return os.str();
}

}  // namespace asyncit::obs
