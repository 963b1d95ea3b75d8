// One-call simulated worlds: N ranks of the unchanged net::/train::
// node runtimes, cooperatively scheduled over virtual time (DESIGN.md
// §10).
//
// run_world spawns one engine fiber per rank, each executing
// net::run_node over a SimTransport endpoint — the same code path a real
// deployment runs, with three substitutions wired here:
//
//   clock  every rank reads a shared SimClock (WallTimer whose
//          seconds() is engine virtual time, starting at 0), so
//          solve.max_seconds is a DETERMINISTIC VIRTUAL budget: the
//          wall-budget flake class of the chaos tests cannot exist over
//          simnet, because "time" no longer depends on host load.
//   obs    per-rank trace arming is forced off; the world arms the ONE
//          process-global TraceRecorder here, with set_trace_clock()
//          routing event timestamps through the active engine — traces
//          and the admissibility auditor see virtual nanoseconds.
//   memory per-source link_delays histograms are forced off (O(world^2)
//          obs::Histograms would dwarf the actual solver state at 1000
//          ranks); endpoint-level delay aggregates remain.
//
// Determinism contract: everything a fiber can observe derives from
// (options, seed) — event dispatch order, per-link draws, compute draws,
// delivery order. Two run_world calls with equal options produce
// byte-identical event logs and bit-identical iterates; the engine's
// log_hash is the cheap witness the tests and asyncit_sim compare.
#pragma once

#include <cstdint>
#include <vector>

#include "asyncit/net/mp_runtime.hpp"
#include "asyncit/operators/operator.hpp"
#include "asyncit/simnet/config.hpp"
#include "asyncit/simnet/engine.hpp"
#include "asyncit/support/timer.hpp"
#include "asyncit/train/train.hpp"

namespace asyncit::simnet {

/// WallTimer whose seconds() is the engine's virtual clock. Handed to
/// run_node / run_training_node as the external clock: every budget and
/// timestamp the runtimes derive from "wall time" becomes virtual.
class SimClock final : public WallTimer {
 public:
  explicit SimClock(const SimEngine* engine) : engine_(engine) {}
  double seconds() const override { return engine_->now(); }

 private:
  const SimEngine* engine_;
};

struct WorldOptions {
  /// Solver options; `workers` is the world size (every rank is local).
  /// obs.trace_level/audit apply to the WORLD (single recorder, armed
  /// here); obs.link_delays is ignored (forced off, see above).
  net::MpOptions mp;
  SimConfig sim;
  /// Stack the chaos delay-model decorator over the sim fabric (the
  /// virtual-time variant of chaos-over-tcp: same sender-side seeded
  /// draws, no sockets, no wall clock).
  bool chaos = false;
  transport::DeliveryPolicy chaos_policy;
};

struct WorldResult {
  std::vector<net::MpResult> ranks;  ///< per-rank results, rank order
  double virtual_seconds = 0.0;      ///< engine clock at quiescence
  double wall_seconds = 0.0;         ///< real cost of the simulation
  std::uint64_t events = 0;          ///< dispatched engine events
  std::uint64_t log_hash = 0;        ///< FNV-1a over the dispatch log
  std::vector<EventRecord> event_log;  ///< full log (sim.record_log)
  bool log_truncated = false;
  std::uint64_t partition_dropped = 0;
  /// Payload doubles the fabric copied into publish slabs (one copy per
  /// publish, whatever the fan-out; SimTransport::payload_doubles_copied).
  std::uint64_t payload_doubles_copied = 0;
  bool all_converged = false;
  /// Max per-rank final oracle error (solve.x_star runs), the scalar
  /// the determinism checks compare across runs.
  double final_residual = 0.0;
  std::uint64_t total_updates = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t obs_events_recorded = 0;
  std::uint64_t obs_events_dropped = 0;
};

/// Runs options.mp.workers ranks of the solve runtime to quiescence
/// (every rank met its stopping criterion or virtual budget).
/// Single-threaded; returns when the event queue drains.
WorldResult run_world(const op::BlockOperator& op, const la::Vector& x0,
                      const WorldOptions& options);

struct TrainWorldOptions {
  /// options.workers SGD workers + the rank-0 parameter server, i.e.
  /// workers + 1 fibers. obs (if any) arms the world recorder here,
  /// exactly as in WorldOptions.
  train::TrainOptions train;
  SimConfig sim;
};

struct TrainWorldResult {
  std::vector<train::TrainResult> ranks;  ///< [0] server, then workers
  double virtual_seconds = 0.0;
  double wall_seconds = 0.0;
  std::uint64_t events = 0;
  std::uint64_t log_hash = 0;
};

/// The PSGD train stack (parameter server + workers) over virtual time.
TrainWorldResult run_train_world(const train::Dataset& data,
                                 const la::Vector& x0,
                                 const TrainWorldOptions& options);

}  // namespace asyncit::simnet
