#include "asyncit/train/train.hpp"

#include <memory>
#include <thread>

#include "asyncit/obs/recorder_scope.hpp"
#include "asyncit/support/check.hpp"
#include "asyncit/support/timer.hpp"
#include "asyncit/train/psgd.hpp"
#include "asyncit/transport/inproc.hpp"

namespace asyncit::train {

namespace {

/// Gate-wait bound while a pump() made no progress — the same latency /
/// CPU trade as net::Peer's kMaxGateWait.
constexpr double kMaxGateWait = 1e-3;

/// Drives one role to completion on the calling thread.
template <typename Role>
void drive(Role& role, transport::Endpoint& ep) {
  while (!role.finished()) {
    const std::uint64_t seen = ep.activity();
    if (!role.pump()) ep.wait_for_activity(seen, kMaxGateWait);
  }
}

std::uint64_t epochs_of(std::uint64_t steps, std::size_t batch,
                        std::size_t shard_rows) {
  return shard_rows == 0 ? 0 : steps * batch / shard_rows;
}

void fill_endpoint_stats(const transport::Endpoint& ep, TrainResult& r) {
  r.messages_sent += ep.sent();
  r.messages_dropped += ep.dropped();
  r.messages_delivered += ep.delivered();
}

}  // namespace

TrainResult run_training(const Dataset& data, const la::Vector& x0,
                         const TrainOptions& options) {
  transport::InprocTransport transport(options.workers + 1,
                                       options.chaos.delivery, options.seed);
  return run_training(data, x0, options, transport);
}

TrainResult run_training(const Dataset& data, const la::Vector& x0,
                         const TrainOptions& options,
                         transport::Transport& transport) {
  const std::size_t W = options.workers;
  ASYNCIT_CHECK(W >= 1);
  ASYNCIT_CHECK(x0.size() == data.features());
  ASYNCIT_CHECK(data.samples() >= W);
  ASYNCIT_CHECK(options.sgd.batch_size >= 1);
  ASYNCIT_CHECK(transport.world() == W + 1);
  ASYNCIT_CHECK(transport.local_ranks().size() == W + 1);

  obs::RecorderScope recorder(options.obs.trace_level,
                              options.obs.trace_ring_capacity);

  WallTimer timer;
  PsgdContext ctx;
  ctx.data = &data;
  ctx.options = &options;
  ctx.clock = &timer;

  PsgdServer server(ctx, x0, transport.endpoint(0));
  std::vector<std::unique_ptr<PsgdWorker>> workers;
  workers.reserve(W);
  for (std::size_t w = 0; w < W; ++w)
    workers.push_back(std::make_unique<PsgdWorker>(
        ctx, w, x0, transport.endpoint(static_cast<std::uint32_t>(w + 1))));

  std::vector<std::thread> threads;
  threads.reserve(W);
  for (std::size_t w = 0; w < W; ++w)
    threads.emplace_back([&workers, &transport, w] {
      drive(*workers[w],
            transport.endpoint(static_cast<std::uint32_t>(w + 1)));
    });
  // The server is the orchestrator thread's role, mirroring the monitor
  // loop of run_message_passing.
  drive(server, transport.endpoint(0));
  for (std::thread& th : threads) th.join();

  TrainResult result;
  result.wall_seconds = timer.seconds();
  recorder.finish(result.obs_events_recorded, result.obs_events_dropped);

  result.x = server.model();
  result.converged = server.target_reached();
  result.final_loss = dataset_loss(data, result.x);
  result.final_accuracy = dataset_accuracy(data, result.x);
  result.rounds = server.rounds();
  result.versions = server.versions();
  result.deltas_applied = server.deltas_applied();
  result.examples_processed = server.examples_processed();
  result.examples_per_sec =
      result.wall_seconds > 0.0
          ? static_cast<double>(result.examples_processed) /
                result.wall_seconds
          : 0.0;
  result.peers_stopped = server.workers_stopped();
  result.frames_rejected = server.frames_rejected();
  result.steering_decisions = server.steering_decisions();
  result.staleness_at_exit = server.staleness_bound();
  result.steps_per_worker.reserve(W);
  result.epochs = ~std::uint64_t{0};
  for (std::size_t w = 0; w < W; ++w) {
    result.steps_per_worker.push_back(workers[w]->steps());
    result.frames_rejected += workers[w]->frames_rejected();
    result.epochs = std::min(
        result.epochs, epochs_of(workers[w]->steps(),
                                 options.sgd.batch_size,
                                 data.shard(w, W).size()));
  }
  for (std::uint32_t r = 0; r <= W; ++r)
    fill_endpoint_stats(transport.endpoint(r), result);
  result.bad_frames = transport.bad_frames();
  return result;
}

TrainResult run_training_node(const Dataset& data, const la::Vector& x0,
                              const TrainOptions& options,
                              transport::Endpoint& endpoint) {
  WallTimer timer;
  return run_training_node(data, x0, options, endpoint, timer);
}

TrainResult run_training_node(const Dataset& data, const la::Vector& x0,
                              const TrainOptions& options,
                              transport::Endpoint& endpoint,
                              const WallTimer& clock) {
  const std::size_t W = options.workers;
  const std::uint32_t rank = endpoint.rank();
  ASYNCIT_CHECK(W >= 1 && rank <= W);
  ASYNCIT_CHECK(x0.size() == data.features());
  ASYNCIT_CHECK(data.samples() >= W);

  obs::RecorderScope recorder(options.obs.trace_level,
                              options.obs.trace_ring_capacity);

  PsgdContext ctx;
  ctx.data = &data;
  ctx.options = &options;
  ctx.clock = &clock;

  TrainResult result;
  if (rank == 0) {
    PsgdServer server(ctx, x0, endpoint);
    drive(server, endpoint);
    result.wall_seconds = clock.seconds();
    result.x = server.model();
    result.converged = server.target_reached();
    result.rounds = server.rounds();
    result.versions = server.versions();
    result.deltas_applied = server.deltas_applied();
    result.examples_processed = server.examples_processed();
    result.peers_stopped = server.workers_stopped();
    result.frames_rejected = server.frames_rejected();
    result.steering_decisions = server.steering_decisions();
    result.staleness_at_exit = server.staleness_bound();
    // rounds() is the high-water min worker clock, so the threaded-run
    // epoch definition (slowest worker's completed passes) carries over.
    result.epochs = epochs_of(server.rounds(), options.sgd.batch_size,
                              data.shard(0, W).size());
  } else {
    PsgdWorker worker(ctx, rank - 1, x0, endpoint);
    drive(worker, endpoint);
    result.wall_seconds = clock.seconds();
    result.x = worker.model();
    // A server stop frame means the run ended on the server's criterion
    // (target accuracy or its wall budget), not this rank's own budget.
    result.converged = worker.stopped_by_server();
    result.steps_per_worker.push_back(worker.steps());
    result.examples_processed = worker.examples_processed();
    result.frames_rejected = worker.frames_rejected();
    result.staleness_at_exit = worker.steered_bound();
    result.epochs = epochs_of(worker.steps(), options.sgd.batch_size,
                              data.shard(rank - 1, W).size());
  }
  result.examples_per_sec =
      result.wall_seconds > 0.0
          ? static_cast<double>(result.examples_processed) /
                result.wall_seconds
          : 0.0;
  // Every rank rebuilds the dataset, so every rank can report full-train
  // metrics of the model it ended with.
  result.final_loss = dataset_loss(data, result.x);
  result.final_accuracy = dataset_accuracy(data, result.x);
  fill_endpoint_stats(endpoint, result);
  recorder.finish(result.obs_events_recorded, result.obs_events_dropped);
  return result;
}

}  // namespace asyncit::train
