// Shared benchmark harness for the bench/ binaries.
//
// Before this existed every bench binary hand-rolled its timing loops and
// (in one case) its JSON output; speed claims lived in stdout tables that
// nothing could diff run over run. The harness factors that boilerplate
// into three pieces:
//
//   measure()   timing with warmup + repetitions and robust aggregation
//               (median / p90 / mean / min over reps);
//   Report      collects named scenarios and emits a schema-versioned
//               BENCH_<name>.json stamped with git SHA, build type and
//               compiler, so results are attributable to a commit;
//   Json        an ordered value tree (objects keep insertion order),
//               serialized by the library's JSON writer (support/json.hpp).
//
// Each scenario separates DETERMINISTIC fields (iteration counts,
// convergence flags, residual bands, parity diffs — machine-independent,
// hard-checked by scripts/check_bench.py against bench/baselines/) from
// MEASURED fields (wall-clock derived — tracked but warn-only, because CI
// machines differ). See DESIGN.md §5 for the schema.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "asyncit/support/json.hpp"

namespace asyncit::bench {

// ------------------------------------------------------------------ Json
/// Minimal JSON value: null, bool, int64, uint64, double, string, array,
/// object. Object fields keep insertion order so reports diff cleanly.
class Json {
 public:
  Json() : kind_(Kind::kNull) {}
  Json(bool v) : kind_(Kind::kBool), bool_(v) {}
  Json(int v) : kind_(Kind::kInt), int_(v) {}
  Json(std::int64_t v) : kind_(Kind::kInt), int_(v) {}
  Json(std::uint64_t v)
      : kind_(Kind::kUint), int_(static_cast<std::int64_t>(v)) {}
  Json(double v) : kind_(Kind::kDouble), double_(v) {}
  Json(const char* v) : kind_(Kind::kString), string_(v) {}
  Json(std::string v) : kind_(Kind::kString), string_(std::move(v)) {}

  static Json object();
  static Json array();

  /// Object field access; inserts (in order) on first use.
  Json& operator[](const std::string& key);
  /// Array append.
  void push_back(Json v);

  /// Serializes as one compact line (number and non-finite policy of
  /// support/json.hpp), newline-terminated.
  std::string dump() const;

 private:
  enum class Kind : std::uint8_t {
    kNull, kBool, kInt, kUint, kDouble, kString, kArray, kObject
  };
  void write(JsonWriter& w) const;

  Kind kind_;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<Json> items_;                                  // array
  std::vector<std::pair<std::string, Json>> fields_;         // object
};

// ---------------------------------------------------------------- timing
struct Timing {
  double median_s = 0.0;
  double p90_s = 0.0;
  double mean_s = 0.0;
  double min_s = 0.0;
  std::size_t reps = 0;
};

/// Times `fn`: `warmup` discarded calls, then `reps` timed calls, each
/// measuring `inner` consecutive invocations (raise `inner` until one rep
/// is comfortably above timer resolution). Reported figures are seconds
/// PER SINGLE fn INVOCATION, aggregated across reps.
Timing measure(std::size_t warmup, std::size_t reps, std::size_t inner,
               const std::function<void()>& fn);

// ---------------------------------------------------------------- report
class Scenario {
 public:
  explicit Scenario(std::string name);

  /// Machine-independent field (hard-checked against baselines).
  Scenario& det(const std::string& key, Json v);
  /// Wall-clock-derived field (tracked, warn-only in CI).
  Scenario& metric(const std::string& key, double v);
  /// Records a Timing under `<key>_median_s` / `<key>_p90_s` /
  /// `<key>_mean_s` / `<key>_min_s` measured fields.
  Scenario& timing(const std::string& key, const Timing& t);
  /// Free-form measured attachment (histograms etc.).
  Scenario& attach(const std::string& key, Json v);

  Json to_json() const;
  const std::string& name() const { return name_; }

 private:
  std::string name_;
  Json deterministic_ = Json::object();
  Json measured_ = Json::object();
};

class Report {
 public:
  /// `bench_name` becomes both the "bench" stamp and the output file
  /// BENCH_<bench_name>.json.
  explicit Report(std::string bench_name);

  /// Creates (or returns the existing) scenario with this name.
  Scenario& scenario(const std::string& name);

  /// Writes BENCH_<name>.json into the current directory; returns the
  /// path. Also prints a one-line confirmation to stdout.
  std::string write() const;

 private:
  std::string name_;
  std::vector<std::unique_ptr<Scenario>> scenarios_;
};

/// The toolchain/commit stamp attached to every report ("git_sha",
/// "build_type", "compiler", "schema"). git_sha is baked in by CMake and
/// overridable at run time via the ASYNCIT_GIT_SHA environment variable
/// (CI stamps the exact tested commit).
Json stamp();

}  // namespace asyncit::bench
