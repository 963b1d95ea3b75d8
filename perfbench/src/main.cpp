// perfbench: one benchmark run of one workload.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//
// --trace 0 measures the end-to-end metrics with tracing off: set-up is
// repeated and its median reported, then the workload's entry point is
// called until --seconds have passed (and at least min_solves() times);
// every call's output is checked. --trace 1 alternates an untraced and a
// traced call for --seconds and reports the per-layer ledger of the
// median traced call, plus the tracing overhead between the two.
//
// The last line of stdout is the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Failed or budget-exhausted calls count in `failed` (fail_frac =
// failed / attempted); nothing is retried.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "ledger.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Layer;
using perfbench::Ns;
using perfbench::Outcome;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 12.0;
  int trace = 0;
  std::string out_dir;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v);
    else if (k == "--trace") a.trace = std::atoi(v);
    else if (k == "--out-dir") a.out_dir = v;
    else return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0 &&
         (a.trace == 0 || a.trace == 1);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest percentile with at least ten samples beyond it, as
/// "pNN=value", or a note that there are too few samples.
std::string tail(std::vector<double> v) {
  if (v.size() < 11) return "tail n/a (n<11)";
  std::sort(v.begin(), v.end());
  const std::size_t k = v.size() - 11;  // 10 samples above index k
  char buf[64];
  std::snprintf(buf, sizeof buf, "p%.1f=%.6g",
                100.0 * double(k + 1) / double(v.size()), v[k]);
  return buf;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Calls into the workload with the run's bookkeeping: every call is
/// checked and counted, and no call starts that would push the run past
/// the hard budget (the run must end well inside three minutes).
class Runner {
 public:
  /// `t0` is the process start: the budget covers input generation too.
  Runner(perfbench::Workload& w, Ns t0) : w_(w), t0_(t0) {}

  double elapsed() const { return 1e-9 * double(perfbench::now_ns() - t0_); }
  bool fits(double next) const { return elapsed() + 1.2 * next < kHardBudget; }
  bool sim() const { return w_.carrier() == perfbench::Carrier::kSim; }

  /// One checked call. Deterministic-count self-check: every simnet call
  /// of the run — warm-up, untraced or traced — must repeat the first
  /// one's event-log hash and every frame and byte count exactly.
  Outcome call(perfbench::Ledger* ledger, const char* what) {
    Outcome o = w_.solve(ledger);
    ++attempted_;
    if (!o.ok) {
      ++failed_;
      correct_ = false;
      std::printf("FAILED output check (%s call %zu): %s\n", what,
                  attempted_, o.failure.c_str());
    }
    if (attempted_ == 1) {
      replay_ = o.witness;
      replay_hash_ = o.log_hash;
    } else if (o.witness != replay_) {
      correct_ = false;
      std::printf("NONDETERMINISTIC simnet replay (%s call %zu): log_hash "
                  "%016" PRIx64 " vs %016" PRIx64
                  " (or a frame/byte count differs) on the same seed\n",
                  what, attempted_, o.log_hash, replay_hash_);
    }
    return o;
  }

  void fail(const std::string& why) {
    correct_ = false;
    std::printf("%s\n", why.c_str());
  }

  void print_result(const std::vector<Metric>& metrics) const {
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct_ ? "true" : "false", attempted_, failed_);
    for (std::size_t i = 0; i < metrics.size(); ++i)
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    std::printf("}}\n");
  }

  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }

 private:
  static constexpr double kHardBudget = 150.0;

  perfbench::Workload& w_;
  Ns t0_;
  std::vector<std::uint64_t> replay_;  ///< empty off simnet
  std::uint64_t replay_hash_ = 0;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  bool correct_ = true;
};

std::vector<Metric> end_to_end(Runner& run, perfbench::Workload& w,
                               const Args& args,
                               const std::vector<double>& setups) {
  std::vector<Outcome> calls;
  const double t_start = run.elapsed();
  while (calls.size() < std::size_t(w.min_solves()) ||
         (run.elapsed() - t_start < args.seconds &&
          run.fits(calls.back().solve_s))) {
    calls.push_back(run.call(nullptr, "untraced"));
  }

  std::vector<double> solve, frames, updates, examples, clock, wire;
  for (const Outcome& o : calls) {
    solve.push_back(o.solve_s);
    frames.push_back(o.frames / o.solve_s);
    updates.push_back(o.updates / o.solve_s);
    examples.push_back(o.examples / o.solve_s);
    clock.push_back(o.clock_s);
    wire.push_back(o.wire_bytes / 1e6);
  }
  std::vector<Metric> metrics;
  auto report = [&](const char* name, const std::vector<double>& v,
                    const char* unit) {
    metrics.push_back({name, median(v), unit});
    std::printf("  %-16s %-14.6g %-6s median of n=%zu, %s\n", name,
                metrics.back().value, unit, v.size(), tail(v).c_str());
  };
  report("solve_s", solve, "s");
  report("frames_per_s", frames, "1/s");
  report("updates_per_s", updates, "1/s");
  report("examples_per_s", examples, "1/s");
  report("virtual_s", clock, "s");
  report("wire_mb", wire, "MB");
  report("setup_s", setups, "s");
  report("peak_rss_mb", {peak_rss_mb()}, "MB");
  std::printf("  solve_s per call:");
  for (const double v : solve) std::printf(" %.4f", v);
  std::printf("\n  %-16s %-14.6g %-6s failed %zu of %zu calls\n",
              "fail_frac", double(run.failed()) / double(run.attempted()),
              "frac", run.failed(), run.attempted());
  return metrics;
}

std::vector<Metric> per_layer(Runner& run, perfbench::Workload& w,
                              const Args& args) {
  struct Traced {
    Outcome outcome;
    std::unique_ptr<perfbench::Ledger> ledger;
  };
  std::vector<double> plain_s, traced_s, ns_per_frame;
  std::vector<Traced> traced;
  const double t_start = run.elapsed();
  double last = 0.0;
  while (traced.empty() ||
         (run.elapsed() - t_start < args.seconds && run.fits(last))) {
    const Ns t0 = perfbench::now_ns();
    const Outcome plain = run.call(nullptr, "untraced");
    plain_s.push_back(plain.solve_s);
    if (plain.sim_frames > 0)
      ns_per_frame.push_back(1e9 * plain.solve_s / plain.sim_frames);
    Traced t;
    t.ledger =
        std::make_unique<perfbench::Ledger>(w.ranks(), w.carrier(), true);
    t.outcome = run.call(t.ledger.get(), "traced");
    traced_s.push_back(t.outcome.solve_s);
    const perfbench::LedgerSummary ls = t.ledger->summarize();
    if (!ls.closed) run.fail("LEDGER does not close: " + ls.closure_error);
    traced.push_back(std::move(t));
    last = 1e-9 * double(perfbench::now_ns() - t0);
  }

  std::vector<std::size_t> order(traced.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return traced[a].outcome.solve_s < traced[b].outcome.solve_s;
  });
  const Traced& mid = traced[order[(order.size() - 1) / 2]];
  const perfbench::LedgerSummary l = mid.ledger->summarize();
  const Outcome& o = mid.outcome;
  auto layer = [&](Layer x) { return l.layers[static_cast<std::size_t>(x)]; };

  // Training ranks: 0 is the server, the rest are workers; their
  // remainders are the server's apply + eval and the workers' gradients.
  double server = 0.0, worker = 0.0;
  if (o.versions > 0) {
    server = l.row_remainder_s[0];
    for (std::size_t r = 1; r < w.ranks(); ++r) worker += l.row_remainder_s[r];
  }
  const perfbench::LayerTotals update = layer(Layer::kOpUpdate);
  const perfbench::LayerTotals send = layer(Layer::kSend);
  std::vector<Metric> metrics = {
      {"op.update.calls", double(update.calls), "count"},
      {"op.update.self_s", update.self_s, "s"},
      {"op.update.ns_per_nnz",
       l.update_nnz ? 1e9 * update.self_s / double(l.update_nnz) : 0.0, "ns"},
      {"op.update.bytes_computed", double(l.update_bytes), "B"},
      {"op.update.p50_ns", update.p50_ns, "ns"},
      {"op.update.p99_ns", update.p99_ns, "ns"},
      {"op.residual.calls", double(layer(Layer::kOpResidual).calls), "count"},
      {"op.residual.self_s", layer(Layer::kOpResidual).self_s, "s"},
      {"transport.send.calls", double(send.calls), "count"},
      {"transport.send.self_s", send.self_s, "s"},
      {"transport.send.p50_ns", send.p50_ns, "ns"},
      {"transport.send.p99_ns", send.p99_ns, "ns"},
      {"transport.send.doubles", double(l.send_doubles), "count"},
      {"transport.recv.frames", double(l.recv_frames), "count"},
      {"transport.recv.self_s", layer(Layer::kRecv).self_s, "s"},
      {"transport.wait_s", layer(Layer::kWait).self_s, "s"},
      {"wire.bytes_raw", o.wire_raw, "B"},
      {"wire.bytes_wire", o.wire_bytes, "B"},
      {"wire.frames_full", o.frames_full, "count"},
      {"wire.frames_delta", o.frames_delta, "count"},
      {"wire.frames_heartbeat", o.frames_heartbeat, "count"},
      {"simnet.events", o.sim_events, "count"},
      {"simnet.frames", o.sim_frames, "count"},
      {"simnet.ns_per_frame", median(ns_per_frame), "ns"},
      {"train.server.self_s", server, "s"},
      {"train.worker.self_s", worker, "s"},
      {"train.deltas_applied", o.deltas_applied, "count"},
      {"train.versions", o.versions, "count"},
      {"ledger.remainder_s", l.remainder_s, "s"},
      {"trace.overhead_frac", median(traced_s) / median(plain_s) - 1.0,
       "frac"},
  };
  std::printf("  ledger of the median traced call (%zu traced, %zu "
              "untraced): wall %.6f s = spans %.6f s + remainder %.6f s "
              "over %zu rank rows + the %s row (remainder %.6f s), %s\n",
              traced.size(), plain_s.size(), l.wall_s, l.attributed_s,
              l.remainder_s, w.ranks(), run.sim() ? "engine" : "monitor",
              l.row_remainder_s.back(), l.closed ? "closed" : "NOT closed");
  for (const Metric& m : metrics)
    std::printf("  %-26s %-16.8g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  if (!args.out_dir.empty())
    mid.ledger->write_json(args.out_dir + "/ledger-" + args.workload +
                               "-seed" + std::to_string(args.seed) + ".json",
                           args.workload);
  return metrics;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds "
                 "<s> --trace <0|1> [--out-dir <dir>]\n");
    return 2;
  }
  const Ns t0 = perfbench::now_ns();
  std::unique_ptr<perfbench::Workload> w =
      perfbench::make_workload(args.workload, args.seed);
  if (!w) {
    std::fprintf(stderr, "unknown workload '%s'; known:",
                 args.workload.c_str());
    for (const std::string& n : perfbench::workload_names())
      std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }
  std::printf("workload %s seed %" PRIu64 ": inputs + reference in %.3f s\n",
              args.workload.c_str(), args.seed,
              1e-9 * double(perfbench::now_ns() - t0));

  Runner run(*w, t0);
  std::vector<double> setups;
  for (int i = 0; i < w->setup_reps(); ++i) setups.push_back(w->setup());
  // Warm-up calls are checked and counted but not timed.
  for (int i = 0; i < w->warmup_solves(); ++i) run.call(nullptr, "warm-up");
  run.print_result(args.trace == 0 ? end_to_end(run, *w, args, setups)
                                   : per_layer(run, *w, args));
  return 0;
}
