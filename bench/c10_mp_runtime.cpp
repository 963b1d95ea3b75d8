// C10 — the message-passing runtime: asynchronous vs staleness-bounded
// (SSP) vs barrier-synchronized (BSP) coordination when block values
// actually travel between worker threads through latency/reordering
// channels.
//
// Two studies:
//  (a) HETEROGENEITY: one worker 1x..8x slower than the rest. BSP pays
//      every round for the straggler plus a full message round-trip; async
//      workers keep updating with whatever has arrived. Shape to hold:
//      async time-to-eps < BSP at EVERY heterogeneity level. (The regime
//      where the message-passing gap shows is latency-dominant rounds —
//      when the host is oversubscribed, a barrier wait costs wall time
//      only while no other worker can use the core, which is exactly what
//      happens while everyone blocks on message delivery.)
//  (b) REORDERING: widening the latency spread on non-FIFO links makes
//      later messages overtake earlier ones; label inversions are counted
//      at the receivers and the per-message delays are REPORTED from
//      measurement, not from the injected model.
//
// BENCH_mp_runtime.json (via the shared harness): convergence flags and
// final errors are deterministic-checked by CI's perf-smoke job against
// bench/baselines/mp_runtime.json; wall clocks, update counts and delay
// histograms are real-scheduler measurements and tracked warn-only.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "asyncit/asyncit.hpp"
#include "harness/bench_harness.hpp"

using namespace asyncit;

namespace {

const char* mode_name(net::Mode m) {
  switch (m) {
    case net::Mode::kAsync: return "async";
    case net::Mode::kSsp: return "ssp";
    case net::Mode::kBsp: return "bsp";
  }
  return "?";
}

void record(bench::Report& report, const std::string& name,
            const net::MpResult& r) {
  bench::Json hist = bench::Json::array();
  for (std::size_t i = 0; i < r.delays.counts().size(); ++i) {
    if (r.delays.counts()[i] == 0) continue;
    bench::Json bucket = bench::Json::object();
    // The overflow bucket's edge is +inf, which Json renders as null.
    bucket["le_ms"] = r.delays.edges()[i] * 1e3;
    bucket["n"] = r.delays.counts()[i];
    hist.push_back(std::move(bucket));
  }
  report.scenario(name)
      .det("converged", r.converged)
      .det("final_error", r.final_error)
      .metric("wall_seconds", r.wall_seconds)
      .metric("updates", static_cast<double>(r.total_updates))
      .metric("rounds", static_cast<double>(r.rounds))
      .metric("messages_sent", static_cast<double>(r.messages_sent))
      .metric("messages_delivered",
              static_cast<double>(r.messages_delivered))
      .metric("messages_dropped", static_cast<double>(r.messages_dropped))
      .metric("inversions", static_cast<double>(r.inversions_observed))
      .metric("stale_filtered", static_cast<double>(r.stale_filtered))
      .metric("delay_p50_ms", r.delays.quantile(0.5) * 1e3)
      .metric("delay_p99_ms", r.delays.quantile(0.99) * 1e3)
      .metric("delay_max_ms", r.delays.max() * 1e3)
      .attach("delay_histogram", std::move(hist));
}

}  // namespace

int main() {
  std::printf("== C10: message-passing runtime — async vs SSP vs BSP ==\n\n");

  Rng rng(31);
  auto sys = problems::make_diagonally_dominant_system(256, 4, 2.0, rng);
  la::Partition partition = la::Partition::balanced(256, 16);
  op::JacobiOperator jac(sys.a, sys.b, partition);
  const la::Vector x_star = op::picard_solve(jac, la::zeros(256), 50000,
                                             1e-14);
  bench::Report report("mp_runtime");

  auto base = [&] {
    net::MpOptions opt;
    opt.workers = 4;
    opt.chaos.delivery.min_latency = 2e-4;
    opt.chaos.delivery.max_latency = 2e-3;
    opt.solve.staleness = 2;
    opt.solve.tol = 1e-8;
    opt.solve.x_star = x_star;
    opt.solve.max_seconds = 30.0;
    opt.solve.max_updates = 100000000;
    opt.seed = 7;
    return opt;
  };

  // ---------- (a) heterogeneity: one straggler, three modes ----------
  std::printf("(a) Jacobi n=256, 4 workers, latency 0.2..2 ms, tol 1e-8, "
              "one worker slowed\n");
  TextTable ta({"slowdown", "mode", "wall(s)", "updates", "rounds",
                "conv", "bsp/mode speedup"});
  for (const double slow : {1.0, 2.0, 4.0, 8.0}) {
    double bsp_wall = -1.0;
    for (const net::Mode mode :
         {net::Mode::kBsp, net::Mode::kSsp, net::Mode::kAsync}) {
      net::MpOptions opt = base();
      opt.solve.mode = mode;
      opt.worker_slowdown = {slow, 1.0, 1.0, 1.0};
      const net::MpResult r =
          net::run_message_passing(jac, la::zeros(256), opt);
      if (mode == net::Mode::kBsp) bsp_wall = r.wall_seconds;
      ta.add_row({TextTable::num(slow, 0), mode_name(mode),
                  TextTable::num(r.wall_seconds, 4),
                  std::to_string(r.total_updates),
                  std::to_string(r.rounds),
                  r.converged ? "yes" : "NO",
                  TextTable::num(bsp_wall / r.wall_seconds, 2)});
      record(report,
             "hetero_" + std::to_string(static_cast<int>(slow)) + "x_" +
                 mode_name(mode),
             r);
    }
  }
  std::printf("%s\n", ta.render().c_str());
  trace::maybe_write_csv(ta, "c10_heterogeneity");

  // ---------- (b) reordering: latency spread vs overwrite policy -------
  std::printf("(b) non-FIFO links: latency spread, label inversions, and "
              "MEASURED delays\n");
  TextTable tb({"spread", "policy", "inversions", "filtered", "conv",
                "delay p50(ms)", "delay p99(ms)", "delay max(ms)"});
  struct Spread {
    const char* name;
    double lo, hi;
  };
  for (const Spread spread :
       {Spread{"narrow", 2e-4, 5e-4}, Spread{"wide", 1e-4, 5e-3}}) {
    for (const model::OverwritePolicy policy :
         {model::OverwritePolicy::kLastArrivalWins,
          model::OverwritePolicy::kNewestTagWins}) {
      net::MpOptions opt = base();
      opt.solve.mode = net::Mode::kAsync;
      opt.chaos.delivery.min_latency = spread.lo;
      opt.chaos.delivery.max_latency = spread.hi;
      opt.solve.overwrite = policy;
      const char* policy_name =
          policy == model::OverwritePolicy::kNewestTagWins ? "newest_tag"
                                                         : "last_arrival";
      const net::MpResult r =
          net::run_message_passing(jac, la::zeros(256), opt);
      tb.add_row({spread.name, policy_name,
                  std::to_string(r.inversions_observed),
                  std::to_string(r.stale_filtered),
                  r.converged ? "yes" : "NO",
                  TextTable::num(r.delays.quantile(0.5) * 1e3, 3),
                  TextTable::num(r.delays.quantile(0.99) * 1e3, 3),
                  TextTable::num(r.delays.max() * 1e3, 3)});
      record(report,
             std::string("reorder_") + spread.name + "_" + policy_name, r);
    }
  }
  std::printf("%s\n", tb.render().c_str());
  trace::maybe_write_csv(tb, "c10_reordering");

  report.write();
  std::printf("shape check: async wall-clock < BSP wall-clock at every "
              "heterogeneity level; inversions appear on non-FIFO links "
              "and are filtered by newest-tag-wins.\n");
  return 0;
}
