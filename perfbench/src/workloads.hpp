// The benchmark's four workloads (see perfbench/README.md for why each
// exists and which layer metric it is expected to move).
//
// A workload is built from a seed: its constructor generates the inputs
// and the benchmark's own reference solution. setup() then performs the
// program-side construction a user pays before the first solve (operator
// and partition build, or the trainer's dataset assembly) and returns the
// seconds it took. solve() makes ONE call to the workload's entry point —
// untraced when `ledger` is null, else through the tracing decorators —
// and checks the program's output.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ledger.hpp"

namespace perfbench {

/// What one solve produced. Rates are derived by the caller.
struct Outcome {
  double solve_s = 0.0;  ///< entry-point call → return
  bool ok = false;
  std::string failure;   ///< why the output check failed

  double frames = 0.0;    ///< frames delivered
  double updates = 0.0;   ///< block updates / model deltas applied
  double examples = 0.0;  ///< data rows folded into the iterate
  double clock_s = 0.0;   ///< time to stop on the run's own clock
  double wire_bytes = 0.0;

  // wire layer (MpResult counters, summed over ranks)
  double wire_raw = 0.0;
  double frames_full = 0.0;
  double frames_delta = 0.0;
  double frames_heartbeat = 0.0;
  // simnet engine
  double sim_events = 0.0;
  double sim_frames = 0.0;  ///< frames the fabric carried (sent)
  std::uint64_t log_hash = 0;
  // train
  double deltas_applied = 0.0;
  double versions = 0.0;

  /// The counts a simnet replay must repeat exactly (empty elsewhere).
  std::vector<std::uint64_t> witness;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Program-side construction; returns its wall seconds.
  virtual double setup() = 0;
  virtual Outcome solve(Ledger* ledger) = 0;

  virtual Carrier carrier() const = 0;
  /// Ranks the ledger needs rows for.
  virtual std::size_t ranks() const = 0;
  /// Solves one run needs at least (simnet: two, for the replay check).
  virtual int min_solves() const { return 1; }
  /// Untimed calls before measuring, so pools, page tables and caches
  /// are warm (still checked and counted as attempted).
  virtual int warmup_solves() const { return 1; }
  /// setup() repetitions whose median is reported.
  virtual int setup_reps() const { return 5; }
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Generates the inputs of `name` from `seed`; null for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

}  // namespace perfbench
