// The parameter-server and worker state machines of the PSGD mode.
//
// Both are single-threaded pump() loops over one transport::Endpoint —
// the same driving contract as net::Peer — so the threaded orchestrator
// (train.cpp), the per-process node runtime, and the allocation test can
// all drive them: pump() performs one receive/compute/send slice and
// returns whether it made progress; a driver that sees no progress
// blocks on Endpoint::wait_for_activity.
//
// Wire mapping (DESIGN.md §9): the model is logical block 0.
//   worker -> server   delta:  kValue, partial=true, offset/count =
//                      nonzero support of the scaled delta, round =
//                      worker clock (completed steps), tag = per-worker
//                      monotone send counter.
//   server -> worker   params: kValue, partial=false, full model
//                      payload, round = server round (min active worker
//                      clock — the SSP gate value), tag = parameter
//                      version (newest-wins at the worker), offset = the
//                      live adaptive-staleness bound (0 when steering is
//                      off — offset has no placement meaning on a full
//                      model frame, so the field is free to carry it).
//   either direction   kStop:  empty control frame; a worker announces
//                      budget exhaustion, the server announces
//                      target-accuracy / wall-budget termination.
//
// The delta hot path is allocation-free in steady state: scratch and
// pending buffers are sized at construction, receive batches are
// recycled to the endpoint's pool, and sends borrow pooled frames
// (tests/alloc_test.cpp pins this).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "asyncit/obs/metrics.hpp"
#include "asyncit/obs/steering.hpp"
#include "asyncit/support/rng.hpp"
#include "asyncit/support/timer.hpp"
#include "asyncit/train/sgd.hpp"
#include "asyncit/train/train.hpp"
#include "asyncit/transport/transport.hpp"

namespace asyncit::train {

/// Shared read-only context (outlives server and workers).
struct PsgdContext {
  const Dataset* data = nullptr;
  const TrainOptions* options = nullptr;
  const WallTimer* clock = nullptr;  ///< run clock (seconds since start)
};

/// Rank 0: folds worker deltas into the authoritative model under the
/// configured discipline and publishes parameter versions.
class PsgdServer {
 public:
  PsgdServer(const PsgdContext& ctx, const la::Vector& x0,
             transport::Endpoint& endpoint);

  /// One slice: drain arrivals, fold deltas (barrier-apply for kBsp),
  /// eval/stop checks. Returns true if any work was done.
  bool pump();
  bool finished() const { return finished_; }

  const la::Vector& model() const { return x_; }
  /// High-water min active-worker clock (survives end-of-run worker
  /// deactivation, when min_active() would degenerate to 0).
  std::uint64_t rounds() const { return rounds_seen_; }
  std::uint64_t versions() const { return version_; }
  std::uint64_t deltas_applied() const { return deltas_applied_; }
  std::uint64_t examples_processed() const { return examples_; }
  std::uint64_t frames_rejected() const { return frames_rejected_; }
  std::uint64_t workers_stopped() const { return workers_stopped_; }
  bool target_reached() const { return target_reached_; }
  double last_loss() const { return last_loss_; }
  double last_accuracy() const { return last_accuracy_; }
  std::uint64_t steering_decisions() const {
    return steer_ ? steer_->decisions() : 0;
  }
  /// Current SSP bound: the controller's when steering, the static
  /// option otherwise (kBsp reports its effective 0).
  std::uint64_t staleness_bound() const {
    return steer_ ? steer_->bound() : clock_.staleness();
  }

 private:
  double now() const { return ctx_.clock->seconds(); }
  std::size_t workers() const { return ctx_.options->workers; }
  void handle(const transport::Message& m);
  void apply_delta(std::span<const double> payload, std::uint32_t offset,
                   double factor);
  void apply_bsp_round_if_complete();
  /// The full-model params frame header at the current version/round.
  transport::MessageHeader params_header() const;
  void send_params(std::uint32_t dst);
  /// One publish of the model to every worker still running.
  void broadcast_params();
  void maybe_eval();
  void finish(bool broadcast_stop);

  PsgdContext ctx_;
  transport::Endpoint* endpoint_;
  la::Vector x_;
  SspClock clock_;  ///< per-worker completed-step clocks (all disciplines)
  /// Adaptive staleness (kSsp + sgd.adaptive.enabled): decisions re-point
  /// clock_ and are pushed to the workers via the params-frame offset.
  std::unique_ptr<obs::StalenessController> steer_;
  std::uint64_t steer_gap_max_ = 0;  ///< window max of arrival clock gaps
  std::uint64_t steer_window_ = 0;   ///< deltas folded since last decision

  // BSP barrier: one buffered delta per worker per round, applied in
  // rank order with factorDelta = 1/W (bit-reproducible averaging).
  std::vector<double> pending_;        ///< workers() * features, flat
  std::vector<DeltaSpan> pending_span_;
  std::vector<std::uint8_t> pending_full_;
  std::vector<std::uint8_t> worker_stopped_;

  std::vector<transport::Message> inbox_;
  std::vector<transport::Frame> frames_;  ///< broadcast fan-out (reused)
  std::vector<transport::SendReceipt> receipts_;

  bool finished_ = false;
  bool target_reached_ = false;
  bool stop_broadcast_ = false;
  std::uint64_t version_ = 0;
  std::uint64_t bsp_round_ = 0;
  std::uint64_t rounds_seen_ = 0;
  std::uint64_t deltas_applied_ = 0;
  std::uint64_t examples_ = 0;
  std::uint64_t frames_rejected_ = 0;
  std::uint64_t workers_stopped_ = 0;
  std::uint64_t next_eval_ = 0;
  double last_loss_ = -1.0;
  double last_accuracy_ = -1.0;

  obs::Counter* m_deltas_ = nullptr;  ///< cached registry handles
  obs::Gauge* m_loss_ = nullptr;
  obs::Gauge* m_accuracy_ = nullptr;
};

/// Rank w+1: samples minibatches from shard w, ships scaled deltas, and
/// tracks the newest published parameters (self-applying its own delta
/// between publications in the asynchronous disciplines).
class PsgdWorker {
 public:
  /// `w` is the worker index in [0, workers); the endpoint's rank must
  /// be w + 1.
  PsgdWorker(const PsgdContext& ctx, std::size_t w, const la::Vector& x0,
             transport::Endpoint& endpoint);

  bool pump();
  bool finished() const { return finished_; }

  const la::Vector& model() const { return x_; }
  std::uint64_t steps() const { return steps_; }
  std::uint64_t examples_processed() const {
    return steps_ * ctx_.options->sgd.batch_size;
  }
  std::uint64_t step_budget() const { return step_budget_; }
  std::uint64_t frames_rejected() const { return frames_rejected_; }
  /// Newest adaptive-staleness bound a params frame carried (0 until the
  /// server publishes one; stays 0 with steering off).
  std::uint64_t steered_bound() const { return steered_bound_; }
  /// The server's stop frame (not a local budget) ended this worker.
  bool stopped_by_server() const { return stopped_by_server_; }

 private:
  double now() const { return ctx_.clock->seconds(); }
  bool drain();  ///< returns true if anything arrived
  bool admissible() const;
  void step();
  void finish(bool notify_server);

  PsgdContext ctx_;
  std::size_t w_;
  transport::Endpoint* endpoint_;
  la::BlockRange shard_;
  Rng rng_;
  la::Vector x_;       ///< local parameter copy
  la::Vector delta_;   ///< step scratch
  std::vector<transport::Message> inbox_;

  bool finished_ = false;
  bool stopped_by_server_ = false;
  std::uint64_t steps_ = 0;          ///< == completed-step clock
  std::uint64_t step_budget_ = 0;
  std::uint64_t send_seq_ = 0;
  std::uint64_t server_round_ = 0;   ///< newest published round seen
  std::uint64_t param_version_ = 0;  ///< newest published version seen
  std::uint64_t steered_bound_ = 0;  ///< newest steered bound seen
  std::uint64_t frames_rejected_ = 0;
  obs::Counter* m_steps_ = nullptr;  ///< cached registry handle
};

/// Per-worker RNG stream: child `w` of the run seed, identical in the
/// distributed run and the serial oracle (split() consumed in worker
/// order). Exposed so tests can replay a worker's batch sequence.
Rng worker_stream(std::uint64_t seed, std::size_t w);

}  // namespace asyncit::train
