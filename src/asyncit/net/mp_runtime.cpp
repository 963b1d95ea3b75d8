#include "asyncit/net/mp_runtime.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "asyncit/net/peer.hpp"
#include "asyncit/obs/recorder_scope.hpp"
#include "asyncit/runtime/pacing.hpp"
#include "asyncit/runtime/shared_iterate.hpp"
#include "asyncit/support/check.hpp"
#include "asyncit/support/timer.hpp"
#include "asyncit/transport/inproc.hpp"

namespace asyncit::net {

namespace {

/// Orchestrator poll period. Coarse enough not to steal meaningful CPU
/// from the peers on an oversubscribed machine, fine enough that stopping
/// decisions lag by well under a millisecond.
constexpr double kMonitorPeriod = 2e-4;

}  // namespace

MpResult run_message_passing(const op::BlockOperator& op,
                             const la::Vector& x0,
                             const MpOptions& options) {
  // The in-process backend derives one RNG stream per directed link from
  // options.seed in the fixed pre-transport order: replays are
  // deterministic however the OS schedules the threads.
  transport::InprocTransport transport(options.workers, options.chaos.delivery,
                                       options.seed);
  return run_message_passing(op, x0, options, transport);
}

MpResult run_message_passing(const op::BlockOperator& op,
                             const la::Vector& x0, const MpOptions& options,
                             transport::Transport& transport) {
  const la::Partition& partition = op.partition();
  const std::size_t m = partition.num_blocks();
  const std::size_t peers_n = options.workers;
  ASYNCIT_CHECK(peers_n >= 1 && peers_n <= m);
  ASYNCIT_CHECK(x0.size() == partition.dim());
  ASYNCIT_CHECK(options.solve.inner_steps >= 1);
  ASYNCIT_CHECK(options.solve.check_every >= 1);
  ASYNCIT_CHECK(transport.world() == peers_n);
  ASYNCIT_CHECK(transport.local_ranks().size() == peers_n);

  // kOff leaves a caller-armed recorder alone (benches manage their own).
  obs::RecorderScope recorder(options.obs.trace_level,
                              options.obs.trace_ring_capacity);

  const auto owned = la::assign_blocks_contiguous(m, peers_n);
  rt::SharedIterate monitor(x0);
  std::vector<double> last_displacement(m, 1e300);
  std::vector<std::atomic<std::uint64_t>> updates(peers_n);
  std::atomic<bool> stop{false};
  la::WeightedMaxNorm norm{partition};
  const bool oracle = options.solve.x_star.has_value();
  const bool displacement_stop = options.solve.displacement_tol > 0.0;

  WallTimer timer;
  PeerContext ctx;
  ctx.op = &op;
  ctx.options = &options;
  ctx.clock = &timer;
  ctx.owned = &owned;
  ctx.monitor = &monitor;
  ctx.last_displacement = &last_displacement;
  ctx.updates = &updates;
  ctx.stop = &stop;

  // Elastic membership in threaded mode: every rank runs its own agent
  // (driven by its peer thread alone — the Endpoint threading contract).
  // Nobody actually dies in-process, so this is the failure detector
  // under load: the false-positive testbed (tests/membership_test.cpp).
  std::vector<std::unique_ptr<membership::SwimAgent>> agents;
  if (options.membership.enabled) {
    ASYNCIT_CHECK(options.solve.mode == Mode::kAsync);
    agents.reserve(peers_n);
    for (std::size_t p = 0; p < peers_n; ++p)
      agents.push_back(std::make_unique<membership::SwimAgent>(
          static_cast<std::uint32_t>(p), peers_n, options.membership,
          options.seed));
  }

  std::vector<std::unique_ptr<Peer>> peers;
  peers.reserve(peers_n);
  for (std::size_t p = 0; p < peers_n; ++p) {
    PeerContext pctx = ctx;
    if (!agents.empty()) pctx.membership = agents[p].get();
    peers.push_back(std::make_unique<Peer>(
        pctx, static_cast<std::uint32_t>(p), x0,
        transport.endpoint(static_cast<std::uint32_t>(p))));
  }

  std::vector<std::thread> threads;
  threads.reserve(peers_n);
  for (std::size_t p = 0; p < peers_n; ++p)
    threads.emplace_back([&peers, p] { peers[p]->run(); });

  // ---- monitor loop (this thread): stopping rules over the published
  // plane; peers handle the time/update budgets themselves as well. All
  // snapshot/residual scratch comes from the monitor's workspace — the
  // poll loop allocates nothing once warm.
  op::Workspace monitor_ws;
  // `snap` doubles as the certificate: the loop leaves it holding the
  // exact state the oracle or displacement rule judged when it stopped.
  la::Vector snap(partition.dim());
  bool certified = false;
  rt::DisplacementStop stop_rule;
  while (!stop.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(kMonitorPeriod));
    const double t = timer.seconds();
    std::uint64_t total = 0;
    for (const auto& u : updates) total += u.load(std::memory_order_relaxed);
    if (t > options.solve.max_seconds || total >= options.solve.max_updates) {
      obs::record(obs::EventType::kStopDecision, 0,
                  static_cast<std::uint32_t>(
                      t > options.solve.max_seconds
                          ? obs::StopReason::kWallBudget
                          : obs::StopReason::kUpdateBudget),
                  total, t);
      stop.store(true, std::memory_order_relaxed);
      break;
    }
    if (oracle) {
      monitor.snapshot_into(snap);
      if (norm.distance(snap, *options.solve.x_star) < options.solve.tol) {
        obs::record(obs::EventType::kStopDecision, 0,
                    static_cast<std::uint32_t>(obs::StopReason::kOracle),
                    total, t);
        certified = true;
        stop.store(true, std::memory_order_relaxed);
        break;
      }
    }
    if (displacement_stop &&
        stop_rule.should_stop(
            last_displacement, op, options.solve.displacement_tol,
            [&](std::span<double> s) {
              monitor.snapshot_into(snap);
              std::copy(snap.begin(), snap.end(), s.begin());
            },
            monitor_ws)) {
      obs::record(obs::EventType::kStopDecision, 0,
                  static_cast<std::uint32_t>(obs::StopReason::kDisplacement),
                  total, t);
      certified = true;
      stop.store(true, std::memory_order_relaxed);
      break;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& th : threads) th.join();

  // ---- assemble the result ----
  MpResult result;
  result.wall_seconds = timer.seconds();
  recorder.finish(result.obs_events_recorded, result.obs_events_dropped);
  result.x = monitor.snapshot();
  result.updates_per_worker.reserve(peers_n);
  for (const auto& u : updates) {
    result.updates_per_worker.push_back(u.load());
    result.total_updates += result.updates_per_worker.back();
  }
  result.rounds = peers.front()->rounds();
  for (const auto& p : peers) {
    result.rounds = std::min(result.rounds, p->rounds());
    p->fold_into(result);
  }
  result.bad_frames = transport.bad_frames();
  if (options.obs.record_trace) {
    std::vector<trace::PhaseEvent> phases;
    std::vector<trace::MessageEvent> messages;
    for (const auto& p : peers) {
      const trace::EventLog& log = p->log();
      phases.insert(phases.end(), log.phases().begin(), log.phases().end());
      messages.insert(messages.end(), log.messages().begin(),
                      log.messages().end());
    }
    std::sort(phases.begin(), phases.end(),
              [](const trace::PhaseEvent& a, const trace::PhaseEvent& b) {
                return a.t_start < b.t_start;
              });
    std::sort(messages.begin(), messages.end(),
              [](const trace::MessageEvent& a, const trace::MessageEvent& b) {
                return a.t_send < b.t_send;
              });
    for (auto& e : phases) result.log.add_phase(e);
    for (auto& e : messages) result.log.add_message(e);
  }
  // Report what the stop certified, not what the wind-down left behind:
  // peers keep incorporating in-flight (possibly stale) values between
  // the decision and the join.
  if (certified) result.post_stop_drift = norm.distance(result.x, snap);
  if (oracle) {
    result.final_error =
        norm.distance(certified ? snap : result.x, *options.solve.x_star);
    result.converged = result.final_error < options.solve.tol;
  }
  return result;
}

}  // namespace asyncit::net
