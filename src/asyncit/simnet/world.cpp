#include "asyncit/simnet/world.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "asyncit/net/node_runtime.hpp"
#include "asyncit/obs/metrics.hpp"
#include "asyncit/obs/trace_recorder.hpp"
#include "asyncit/simnet/transport.hpp"
#include "asyncit/support/check.hpp"
#include "asyncit/transport/chaos.hpp"

namespace asyncit::simnet {

namespace {

/// The injectable obs clock: virtual nanoseconds of the engine running
/// on this thread. Armed BEFORE engine.run() it reads 0, so the
/// recorder's t0 anchor is virtual zero and every event timestamp is
/// virtual time directly.
std::uint64_t sim_trace_clock() {
  const SimEngine* engine = SimEngine::active();
  return engine != nullptr ? engine->now_ns() : 0;
}

/// Scoped recorder arming for a simulated world: installs the virtual
/// clock, enables the single process-global recorder (the per-rank
/// runtimes are handed trace_level kOff so they don't re-anchor it), and
/// restores everything on scope exit.
class WorldObs {
 public:
  WorldObs(obs::TraceLevel level, std::size_t ring_capacity)
      : level_(level), prev_clock_(obs::trace_clock()) {
    if (level_ == obs::TraceLevel::kOff) return;
    obs::set_trace_clock(&sim_trace_clock);
    obs::TraceConfig tc;
    tc.level = level_;
    tc.ring_capacity = ring_capacity;
    tc.rank = 0;  // one process hosts the world; Event::rank stays 0
    obs::TraceRecorder::instance().enable(tc);
    obs::MetricsRegistry::instance().reset();
  }

  ~WorldObs() {
    if (level_ == obs::TraceLevel::kOff) return;
    obs::TraceRecorder::instance().disable();
    obs::set_trace_clock(prev_clock_);
  }

  void collect(std::uint64_t& recorded, std::uint64_t& dropped) const {
    if (level_ == obs::TraceLevel::kOff) return;
    const obs::RecorderStats stats = obs::TraceRecorder::instance().stats();
    recorded = stats.recorded;
    dropped = stats.dropped;
  }

 private:
  obs::TraceLevel level_;
  obs::TraceClockFn prev_clock_;
};

SimEngine::Options engine_options(const SimConfig& sim) {
  SimEngine::Options eo;
  eo.stack_bytes = sim.stack_bytes;
  eo.record_log = sim.record_log;
  eo.log_capacity = sim.log_capacity;
  return eo;
}

}  // namespace

WorldResult run_world(const op::BlockOperator& op, const la::Vector& x0,
                      const WorldOptions& options) {
  const std::size_t world = options.mp.workers;
  ASYNCIT_CHECK(world >= 2);
  WallTimer wall;

  SimEngine engine(engine_options(options.sim));
  SimTransport fabric(world, options.sim, options.mp.seed, &engine);
  std::unique_ptr<transport::ChaosTransport> chaos;
  if (options.chaos)
    chaos = std::make_unique<transport::ChaosTransport>(
        fabric, options.chaos_policy, options.mp.seed);
  transport::Transport& transport_ref =
      chaos ? static_cast<transport::Transport&>(*chaos) : fabric;

  // The ranks share one options block: tracing is owned by the world
  // (see WorldObs), and per-source link histograms are a world^2 memory
  // cliff the simulator exists to scale past.
  net::MpOptions per_rank = options.mp;
  per_rank.obs.trace_level = obs::TraceLevel::kOff;
  per_rank.obs.link_delays = false;

  SimClock clock(&engine);
  WorldObs world_obs(options.mp.obs.trace_level,
                     options.mp.obs.trace_ring_capacity);

  WorldResult result;
  result.ranks.resize(world);
  for (std::size_t r = 0; r < world; ++r) {
    engine.spawn(static_cast<std::uint32_t>(r), [&, r] {
      result.ranks[r] =
          net::run_node(op, x0, per_rank,
                        transport_ref.endpoint(static_cast<std::uint32_t>(r)),
                        clock);
    });
  }
  engine.run();

  result.virtual_seconds = engine.now();
  result.wall_seconds = wall.seconds();
  result.events = engine.events_dispatched();
  result.log_hash = engine.log_hash();
  result.event_log = engine.log();
  result.log_truncated = engine.log_truncated();
  result.partition_dropped = fabric.partition_dropped();
  result.payload_doubles_copied = fabric.payload_doubles_copied();
  world_obs.collect(result.obs_events_recorded, result.obs_events_dropped);
  result.all_converged = options.mp.solve.x_star.has_value();
  for (const net::MpResult& rank : result.ranks) {
    result.all_converged = result.all_converged && rank.converged;
    result.final_residual = std::max(result.final_residual, rank.final_error);
    result.total_updates += rank.total_updates;
    result.messages_sent += rank.messages_sent;
    result.messages_dropped += rank.messages_dropped;
    result.messages_delivered += rank.messages_delivered;
  }
  return result;
}

TrainWorldResult run_train_world(const train::Dataset& data,
                                 const la::Vector& x0,
                                 const TrainWorldOptions& options) {
  const std::size_t world = options.train.workers + 1;
  ASYNCIT_CHECK(options.train.workers >= 1);
  WallTimer wall;

  SimEngine engine(engine_options(options.sim));
  SimTransport fabric(world, options.sim, options.train.seed, &engine);

  train::TrainOptions per_rank = options.train;
  per_rank.obs.trace_level = obs::TraceLevel::kOff;

  SimClock clock(&engine);
  WorldObs world_obs(options.train.obs.trace_level,
                     options.train.obs.trace_ring_capacity);

  TrainWorldResult result;
  result.ranks.resize(world);
  for (std::size_t r = 0; r < world; ++r) {
    engine.spawn(static_cast<std::uint32_t>(r), [&, r] {
      result.ranks[r] = train::run_training_node(
          data, x0, per_rank,
          fabric.endpoint(static_cast<std::uint32_t>(r)), clock);
    });
  }
  engine.run();

  result.virtual_seconds = engine.now();
  result.wall_seconds = wall.seconds();
  result.events = engine.events_dispatched();
  result.log_hash = engine.log_hash();
  std::uint64_t rec = 0, drop = 0;
  world_obs.collect(rec, drop);
  if (!result.ranks.empty()) {
    result.ranks[0].obs_events_recorded = rec;
    result.ranks[0].obs_events_dropped = drop;
  }
  return result;
}

}  // namespace asyncit::simnet
