#include "asyncit/net/node_runtime.hpp"

#include <atomic>
#include <memory>

#include "asyncit/membership/swim.hpp"
#include "asyncit/net/peer.hpp"
#include "asyncit/obs/recorder_scope.hpp"
#include "asyncit/runtime/shared_iterate.hpp"
#include "asyncit/support/check.hpp"
#include "asyncit/support/timer.hpp"

namespace asyncit::net {

MpResult run_node(const op::BlockOperator& op, const la::Vector& x0,
                  const MpOptions& options,
                  transport::Endpoint& endpoint) {
  WallTimer timer;
  return run_node(op, x0, options, endpoint, timer);
}

MpResult run_node(const op::BlockOperator& op, const la::Vector& x0,
                  const MpOptions& options, transport::Endpoint& endpoint,
                  const WallTimer& clock) {
  const la::Partition& partition = op.partition();
  const std::size_t m = partition.num_blocks();
  const std::size_t world = options.workers;
  const std::uint32_t rank = endpoint.rank();
  ASYNCIT_CHECK(world >= 1 && world <= m);
  ASYNCIT_CHECK(rank < world);
  ASYNCIT_CHECK(x0.size() == partition.dim());
  ASYNCIT_CHECK(options.solve.inner_steps >= 1);
  ASYNCIT_CHECK(options.solve.check_every >= 1);

  const auto owned = la::assign_blocks_contiguous(m, world);
  rt::SharedIterate monitor(x0);  // publish plane (unused without an
                                  // orchestrator, kept for uniformity)
  std::vector<double> last_displacement(m, 1e300);
  std::vector<std::atomic<std::uint64_t>> updates(world);
  std::atomic<bool> stop{false};
  la::WeightedMaxNorm norm{partition};

  // The caller (tools/asyncit_node) snapshots/exports after return; the
  // recorder's realtime anchor is what trace_merge.py aligns on.
  obs::RecorderScope recorder(options.obs.trace_level,
                              options.obs.trace_ring_capacity,
                              static_cast<std::uint16_t>(rank));

  PeerContext ctx;
  ctx.op = &op;
  ctx.options = &options;
  ctx.clock = &clock;
  ctx.owned = &owned;
  ctx.monitor = &monitor;
  ctx.last_displacement = &last_displacement;
  ctx.updates = &updates;
  ctx.stop = &stop;
  ctx.node_mode = true;
  ctx.norm = &norm;

  // Elastic membership: one SWIM agent, driven by this (the peer's)
  // thread. The launch assignment in `owned` becomes a fallback; the
  // peer re-assigns blocks over the live view as it changes.
  std::unique_ptr<membership::SwimAgent> agent;
  if (options.membership.enabled) {
    ASYNCIT_CHECK(options.solve.mode == Mode::kAsync);
    agent = std::make_unique<membership::SwimAgent>(
        rank, world, options.membership, options.seed);
    ctx.membership = agent.get();
  }

  Peer peer(ctx, rank, x0, endpoint);
  peer.run();  // the calling thread IS the peer

  MpResult result;
  result.wall_seconds = clock.seconds();
  recorder.finish(result.obs_events_recorded, result.obs_events_dropped);
  result.x = peer.view().x;  // the rank's full private iterate
  result.updates_per_worker.assign(world, 0);
  result.updates_per_worker[rank] = updates[rank].load();
  result.total_updates = result.updates_per_worker[rank];
  result.rounds = peer.rounds();
  peer.fold_into(result);
  if (agent) result.live_at_exit = agent->table().live_ranks();
  if (options.obs.record_trace) {
    for (const auto& e : peer.log().phases()) result.log.add_phase(e);
    for (const auto& e : peer.log().messages()) result.log.add_message(e);
  }
  if (options.solve.x_star.has_value()) {
    result.final_error = norm.distance(result.x, *options.solve.x_star);
    result.converged = result.final_error < options.solve.tol;
  }
  return result;
}

}  // namespace asyncit::net
