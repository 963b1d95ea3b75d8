#include "bench_harness.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

namespace asyncit::bench {

// ------------------------------------------------------------------ Json

Json Json::object() {
  Json j;
  j.kind_ = Kind::kObject;
  return j;
}

Json Json::array() {
  Json j;
  j.kind_ = Kind::kArray;
  return j;
}

Json& Json::operator[](const std::string& key) {
  kind_ = Kind::kObject;  // null promotes on first field
  for (auto& [k, v] : fields_)
    if (k == key) return v;
  fields_.emplace_back(key, Json());
  return fields_.back().second;
}

void Json::push_back(Json v) {
  kind_ = Kind::kArray;  // null promotes on first element
  items_.push_back(std::move(v));
}

void Json::write(JsonWriter& w) const {
  switch (kind_) {
    case Kind::kNull: w.null(); break;
    case Kind::kBool: w.value(bool_); break;
    case Kind::kInt: w.value(int_); break;
    case Kind::kUint: w.value(static_cast<std::uint64_t>(int_)); break;
    case Kind::kDouble: w.value(double_); break;
    case Kind::kString: w.value(string_); break;
    case Kind::kArray:
      w.begin_array();
      for (const Json& item : items_) item.write(w);
      w.end_array();
      break;
    case Kind::kObject:
      w.begin_object();
      for (const auto& [k, v] : fields_) {
        w.key(k);
        v.write(w);
      }
      w.end_object();
      break;
  }
}

std::string Json::dump() const {
  std::string out;
  JsonWriter w(out);
  write(w);
  out += '\n';
  return out;
}

// ---------------------------------------------------------------- timing

Timing measure(std::size_t warmup, std::size_t reps, std::size_t inner,
               const std::function<void()>& fn) {
  using clock = std::chrono::steady_clock;
  for (std::size_t i = 0; i < warmup; ++i) fn();
  std::vector<double> samples;
  samples.reserve(reps);
  for (std::size_t r = 0; r < reps; ++r) {
    const auto t0 = clock::now();
    for (std::size_t i = 0; i < inner; ++i) fn();
    const auto t1 = clock::now();
    samples.push_back(std::chrono::duration<double>(t1 - t0).count() /
                      static_cast<double>(inner == 0 ? 1 : inner));
  }
  std::sort(samples.begin(), samples.end());
  Timing t;
  t.reps = samples.size();
  if (samples.empty()) return t;
  t.min_s = samples.front();
  t.median_s = samples[samples.size() / 2];
  t.p90_s = samples[std::min(samples.size() - 1,
                             static_cast<std::size_t>(
                                 0.9 * static_cast<double>(samples.size())))];
  double sum = 0.0;
  for (double s : samples) sum += s;
  t.mean_s = sum / static_cast<double>(samples.size());
  return t;
}

// ---------------------------------------------------------------- report

Scenario::Scenario(std::string name) : name_(std::move(name)) {}

Scenario& Scenario::det(const std::string& key, Json v) {
  deterministic_[key] = std::move(v);
  return *this;
}

Scenario& Scenario::metric(const std::string& key, double v) {
  measured_[key] = v;
  return *this;
}

Scenario& Scenario::timing(const std::string& key, const Timing& t) {
  measured_[key + "_median_s"] = t.median_s;
  measured_[key + "_p90_s"] = t.p90_s;
  measured_[key + "_mean_s"] = t.mean_s;
  measured_[key + "_min_s"] = t.min_s;
  return *this;
}

Scenario& Scenario::attach(const std::string& key, Json v) {
  measured_[key] = std::move(v);
  return *this;
}

Json Scenario::to_json() const {
  Json j = Json::object();
  j["name"] = name_;
  j["deterministic"] = deterministic_;
  j["measured"] = measured_;
  return j;
}

Report::Report(std::string bench_name) : name_(std::move(bench_name)) {}

Scenario& Report::scenario(const std::string& name) {
  for (auto& s : scenarios_)
    if (s->name() == name) return *s;
  scenarios_.push_back(std::make_unique<Scenario>(name));
  return *scenarios_.back();
}

std::string Report::write() const {
  Json root = Json::object();
  root["schema"] = "asyncit-bench/1";
  root["bench"] = name_;
  root["stamp"] = stamp();
  Json arr = Json::array();
  for (const auto& s : scenarios_) arr.push_back(s->to_json());
  root["scenarios"] = std::move(arr);

  const std::string path = "BENCH_" + name_ + ".json";
  const std::string body = root.dump();
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
    std::printf("wrote %s (%zu scenarios)\n", path.c_str(),
                scenarios_.size());
  } else {
    std::fprintf(stderr, "bench harness: cannot write %s\n", path.c_str());
  }
  return path;
}

Json stamp() {
  Json s = Json::object();
  const char* env_sha = std::getenv("ASYNCIT_GIT_SHA");
#ifdef ASYNCIT_GIT_SHA
  s["git_sha"] = (env_sha != nullptr && env_sha[0] != '\0') ? env_sha
                                                            : ASYNCIT_GIT_SHA;
#else
  s["git_sha"] = (env_sha != nullptr && env_sha[0] != '\0') ? env_sha
                                                            : "unknown";
#endif
#ifdef ASYNCIT_BUILD_TYPE
  s["build_type"] = ASYNCIT_BUILD_TYPE;
#else
  s["build_type"] = "unknown";
#endif
#ifdef __VERSION__
  s["compiler"] = __VERSION__;
#else
  s["compiler"] = "unknown";
#endif
  return s;
}

}  // namespace asyncit::bench
