// asyncit_node — one rank of a multi-process run (solve or train).
//
// Every process builds the SAME seeded problem (the generators are pure
// functions of the config's seed), connects to the other ranks over TCP
// using the address table in the config file, and runs its own rank's
// role. scripts/launch_cluster.py writes the config, picks free ports,
// and spawns one asyncit_node per rank:
//
//   scripts/launch_cluster.py --workers 4 --dim 128 --blocks 8
//   scripts/launch_cluster.py --workload train --workers 4
//       --target-accuracy 0.95        (one command, wrapped here)
//
// Manual use:
//   asyncit_node --config cluster.cfg --rank 2
//   asyncit_node --schema          # dump the config key table as JSON
//
// The config format and the full key table live in ONE place:
// src/asyncit/net/node_config.{hpp,cpp}. `--schema` prints that table
// (schema asyncit-node-config/1) so launchers can validate the keys they
// write without parsing C++.
//
// Workloads (config key `workload`):
//   solve   net::run_node over the seeded Jacobi system — rank r owns
//           its partition blocks, exit 0 when the final oracle error is
//           below tol (or the 10x band when another rank announced).
//   train   train::run_training_node — rank 0 is the parameter server,
//           ranks 1..world-1 are minibatch-SGD workers over the seeded
//           synthetic logistic dataset (every rank rebuilds it from the
//           config; nothing dataset-sized crosses the wire). Exit 0 when
//           the target accuracy was reached (or, with target_accuracy 0,
//           when the budgeted run completed).
//
// Output: one `ASYNCIT_NODE_JSON {...}` line per rank (schema
// asyncit-node/3), the machine-readable contract launch_cluster.py
// aggregates and asserts on. /3 adds to the /2 fields:
//   workload  "solve" | "train"
//   train     {epoch, examples_per_sec, loss, accuracy, steps,
//             deltas_applied, examples} — null for solve-only ranks
// Solve-specific fields (error, inversions, membership, links, ...)
// keep their /2 meaning and are simply absent from train-workload
// lines. The ASYNCIT_NODE_START marker carries epoch_ns (realtime clock
// at solve start) so tools/trace_merge.py can cross-check its per-rank
// clock alignment.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "asyncit/asyncit.hpp"
#include "asyncit/net/node_config.hpp"
#include "asyncit/obs/exporter.hpp"
#include "asyncit/obs/metrics.hpp"
#include "asyncit/obs/streamer.hpp"
#include "asyncit/support/json.hpp"
#include "asyncit/train/psgd.hpp"

namespace {

using namespace asyncit;

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "asyncit_node: %s\n", msg.c_str());
  std::exit(2);
}

/// Prints the solve-start marker (churn anchoring + trace-merge clock
/// cross-check).
void print_start_marker(std::uint32_t rank) {
  const std::uint64_t start_epoch_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  std::printf("ASYNCIT_NODE_START rank=%u epoch_ns=%llu\n", rank,
              static_cast<unsigned long long>(start_epoch_ns));
  std::fflush(stdout);
}

/// Delay-histogram summary: {count, p50, p95, p99, max}.
void write_quantiles(JsonWriter& w, const obs::Histogram& h) {
  w.begin_object().key("count").value(h.count()).key("p50").value(h.p50())
      .key("p95").value(h.p95()).key("p99").value(h.p99())
      .key("max").value(h.max()).end_object();
}

/// Streaming trace windows (config stream_interval > 0): a background
/// flusher owns the rings for the whole run, so a killed/hung rank
/// leaves its newest windows on disk instead of nothing.
std::unique_ptr<obs::TraceStreamer> make_streamer(const net::NodeConfig& cfg,
                                                  std::uint32_t rank) {
  if (cfg.stream_interval <= 0.0 || cfg.trace != obs::TraceLevel::kFull ||
      cfg.trace_dir.empty())
    return nullptr;
  obs::StreamerConfig sc;
  sc.dir = cfg.trace_dir;
  sc.rank = static_cast<std::uint16_t>(rank);
  sc.interval_seconds = cfg.stream_interval;
  sc.max_windows = cfg.stream_windows;
  sc.label = "asyncit_node";
  return std::make_unique<obs::TraceStreamer>(sc);
}

/// Per-rank trace + metrics artifacts (trace_merge.py consumes the
/// former; launch_cluster.py archives both).
void export_obs_artifacts(const net::NodeConfig& cfg, std::uint32_t rank,
                          std::uint64_t events_dropped,
                          obs::TraceStreamer* streamer) {
  if (cfg.trace == obs::TraceLevel::kOff || cfg.trace_dir.empty()) return;
  const std::string base = cfg.trace_dir + "/rank_" + std::to_string(rank);
  if (streamer != nullptr) {
    // The windows ARE the trace record: the final stop() flush drains
    // whatever the last period left behind. Writing the one-shot
    // trace.json too would duplicate every windowed event in a merge.
    streamer->stop();
  } else if (cfg.trace == obs::TraceLevel::kFull) {
    obs::ExportMeta meta;
    meta.rank = static_cast<std::uint16_t>(rank);
    meta.epoch_realtime_ns =
        obs::TraceRecorder::instance().epoch_realtime_ns();
    meta.events_dropped = events_dropped;
    meta.label = "asyncit_node";
    if (!obs::export_chrome_trace_file(base + ".trace.json", meta))
      std::fprintf(stderr, "[rank %u] trace export failed: %s\n", rank,
                   (base + ".trace.json").c_str());
  }
  std::ofstream mf(base + ".metrics.json");
  if (mf)
    mf << obs::MetricsRegistry::instance().to_json() << "\n";
  else
    std::fprintf(stderr, "[rank %u] metrics export failed: %s\n", rank,
                 (base + ".metrics.json").c_str());
}

int run_solve_workload(const net::NodeConfig& cfg, std::uint32_t rank,
                       transport::Transport& fabric, bool quiet) {
  // Every process derives the identical problem and reference solution
  // from the config seed — nothing problem-sized crosses the wire except
  // the iterate blocks themselves.
  Rng rng(cfg.seed);
  auto sys = problems::make_diagonally_dominant_system(
      cfg.dim, cfg.nnz, cfg.dominance, rng);
  la::Partition partition = la::Partition::balanced(cfg.dim, cfg.blocks);
  op::JacobiOperator jacobi(sys.a, sys.b, partition);
  const la::Vector x_star =
      op::picard_solve(jacobi, la::zeros(cfg.dim), 50000, 1e-14);

  print_start_marker(rank);

  net::MpOptions opt;
  opt.workers = cfg.world;
  opt.solve.mode = cfg.mode;
  opt.solve.staleness = cfg.staleness;
  opt.solve.inner_steps = cfg.inner_steps;
  opt.solve.publish_partials = cfg.publish_partials;
  opt.solve.overwrite = cfg.overwrite;
  opt.solve.tol = cfg.tol;
  opt.solve.x_star = x_star;
  opt.solve.max_seconds = cfg.max_seconds;
  opt.solve.max_updates = cfg.max_updates;
  opt.solve.check_every = cfg.check_every;
  opt.solve.adaptive = cfg.adaptive;
  opt.seed = cfg.seed;
  opt.membership = cfg.membership;
  opt.wire.delta = cfg.wire_delta;
  opt.wire.topk = cfg.wire_topk;
  opt.wire.quant_bits = cfg.wire_quant_bits;
  opt.wire.refresh_every = cfg.wire_refresh_every;
  opt.obs.trace_level = cfg.trace;
  opt.obs.audit = cfg.audit;

  const auto streamer = make_streamer(cfg, rank);
  const net::MpResult result =
      net::run_node(jacobi, la::zeros(cfg.dim), opt, fabric.endpoint(rank));

  // Let the final frames (stop announcement, last block values) reach
  // the wire before the sockets close under the other ranks.
  fabric.flush(2.0);
  export_obs_artifacts(cfg, rank, result.obs_events_dropped,
                       streamer.get());

  // A rank that was stopped by another rank's announcement (gated modes
  // stop on the first kStop) may sit within in-flight staleness of the
  // tolerance rather than below it; accept the same 10x band the bench
  // baselines use — but ONLY when a peer actually announced. A rank that
  // merely exhausted its budget without anyone converging must fail.
  const bool peer_stopped = result.peers_stopped > 0;
  const bool ok =
      result.converged ||
      (peer_stopped && result.final_error >= 0.0 &&
       result.final_error < 10.0 * cfg.tol);

  if (!quiet)
    std::printf(
        "[rank %u] %s: error %.3e (tol %.1e) after %.3f s, %llu updates, "
        "%llu rounds, sent %llu delivered %llu dropped %llu "
        "inversions %llu\n",
        rank, ok ? "converged" : "DID NOT CONVERGE", result.final_error,
        cfg.tol, result.wall_seconds,
        static_cast<unsigned long long>(result.total_updates),
        static_cast<unsigned long long>(result.rounds),
        static_cast<unsigned long long>(result.messages_sent),
        static_cast<unsigned long long>(result.messages_delivered),
        static_cast<unsigned long long>(result.messages_dropped),
        static_cast<unsigned long long>(result.inversions_observed));
  // The machine-parseable summary launch_cluster.py reads: one
  // asyncit-node/3 line (schema in the header comment above).
  const membership::Stats& ms = result.membership;
  std::string line;
  JsonWriter w(line);
  w.begin_object().key("schema").value("asyncit-node/3")
      .key("workload").value("solve").key("rank").value(rank)
      .key("ok").value(ok).key("converged").value(result.converged)
      .key("error").value(result.final_error).key("tol").value(cfg.tol)
      .key("wall_seconds").value(result.wall_seconds)
      .key("updates").value(result.total_updates)
      .key("rounds").value(result.rounds)
      .key("sent").value(result.messages_sent)
      .key("delivered").value(result.messages_delivered)
      .key("dropped").value(result.messages_dropped)
      .key("inversions").value(result.inversions_observed)
      .key("stale_filtered").value(result.stale_filtered)
      .key("partials_sent").value(result.partials_sent)
      .key("peers_stopped").value(result.peers_stopped)
      .key("frames_rejected").value(result.frames_rejected)
      .key("bad_frames").value(fabric.bad_frames());
  w.key("membership").begin_object()
      .key("enabled").value(cfg.membership.enabled)
      .key("pings_sent").value(ms.pings_sent)
      .key("acks_sent").value(ms.acks_sent)
      .key("acks_received").value(ms.acks_received)
      .key("ping_reqs_sent").value(ms.ping_reqs_sent)
      .key("gossip_frames_sent").value(ms.gossip_frames_sent)
      .key("suspicions").value(ms.suspicions)
      .key("deaths_observed").value(ms.deaths_observed)
      .key("joins_observed").value(ms.joins_observed)
      .key("refutations").value(ms.refutations)
      .key("control_rejected").value(ms.control_rejected)
      .key("reassignments").value(result.reassignments)
      .key("snapshot_blocks_sent").value(result.snapshot_blocks_sent)
      .key("snapshot_blocks_suppressed")
      .value(result.snapshot_blocks_suppressed)
      .key("live_at_exit").begin_array();
  for (const auto r : result.live_at_exit) w.value(r);
  w.end_array().end_object();
  w.key("wire").begin_object().key("delta").value(cfg.wire_delta)
      .key("bytes_raw").value(result.bytes_sent_raw)
      .key("bytes_wire").value(result.bytes_sent_wire)
      .key("frames_full").value(result.wire_frames_full)
      .key("frames_delta").value(result.wire_frames_delta)
      .key("frames_heartbeat").value(result.wire_frames_heartbeat)
      .key("frames_codec").value(result.wire_frames_codec)
      .end_object();
  write_quantiles(w.key("delay_quantiles"), result.delays);
  w.key("links").begin_array();
  for (const net::MpResult::LinkDelay& l : result.link_delays) {
    w.begin_object().key("src").value(l.src).key("dst").value(l.dst);
    write_quantiles(w.key("quantiles"), l.delays);
    w.end_object();
  }
  w.end_array().key("admissibility");
  if (result.admissibility.empty()) {
    w.null();
  } else {
    const obs::AdmissibilityReport& ar = result.admissibility.front();
    w.begin_object().key("steps").value(ar.steps)
        .key("a_holds").value(ar.a_holds)
        .key("b_diverging").value(ar.b_diverging)
        .key("b_final_min_label").value(ar.b_final_min_label)
        .key("c_fair").value(ar.c_fair)
        .key("c_min_occurrences").value(ar.c_min_occurrences)
        .key("c_worst_gap").value(ar.c_worst_gap)
        .key("d_bound").value(ar.d_bound).key("d_at_step").value(ar.d_at_step)
        .key("d_mean").value(ar.d_mean).end_object();
  }
  w.key("obs").begin_object().key("recorded").value(result.obs_events_recorded)
      .key("dropped").value(result.obs_events_dropped).end_object()
      .key("gate_stalls").value(result.gate_stalls)
      .key("steering").begin_object()
      .key("decisions").value(result.steering_decisions)
      .key("staleness_at_exit").value(result.staleness_at_exit).end_object()
      .key("train").null().end_object();
  std::printf("ASYNCIT_NODE_JSON %s\n", line.c_str());
  return ok ? 0 : 1;
}

int run_train_workload(const net::NodeConfig& cfg, std::uint32_t rank,
                       transport::Transport& fabric, bool quiet) {
  // Every rank rebuilds the identical dataset from (config, seed); only
  // delta and parameter frames cross the wire.
  const train::Dataset data =
      train::make_synthetic_dataset(cfg.dataset, cfg.seed);

  print_start_marker(rank);

  train::TrainOptions opt;
  opt.workers = cfg.world - 1;  // rank 0 is the parameter server
  opt.seed = cfg.seed;
  opt.sgd = cfg.sgd;
  opt.obs.trace_level = cfg.trace;

  const auto streamer = make_streamer(cfg, rank);
  const train::TrainResult result = train::run_training_node(
      data, la::zeros(data.features()), opt, fabric.endpoint(rank));
  fabric.flush(2.0);
  export_obs_artifacts(cfg, rank, result.obs_events_dropped,
                       streamer.get());

  // With a target, reaching it (server) / being stopped because the
  // server reached it (workers) is the acceptance criterion; without
  // one the budgeted run completing is.
  const bool ok = cfg.sgd.target_accuracy > 0.0 ? result.converged : true;
  const std::uint64_t steps =
      result.steps_per_worker.empty() ? 0 : result.steps_per_worker[0];
  const std::uint64_t updates = rank == 0 ? result.deltas_applied : steps;

  if (!quiet)
    std::printf(
        "[rank %u] %s: accuracy %.4f loss %.4f after %.3f s, epoch %llu, "
        "%llu updates, %.0f examples/s, sent %llu delivered %llu "
        "dropped %llu\n",
        rank, ok ? "trained" : "TARGET NOT REACHED", result.final_accuracy,
        result.final_loss, result.wall_seconds,
        static_cast<unsigned long long>(result.epochs),
        static_cast<unsigned long long>(updates), result.examples_per_sec,
        static_cast<unsigned long long>(result.messages_sent),
        static_cast<unsigned long long>(result.messages_delivered),
        static_cast<unsigned long long>(result.messages_dropped));
  std::string line;
  JsonWriter w(line);
  w.begin_object().key("schema").value("asyncit-node/3")
      .key("workload").value("train").key("rank").value(rank)
      .key("ok").value(ok).key("converged").value(result.converged)
      .key("wall_seconds").value(result.wall_seconds)
      .key("updates").value(updates).key("rounds").value(result.rounds)
      .key("sent").value(result.messages_sent)
      .key("delivered").value(result.messages_delivered)
      .key("dropped").value(result.messages_dropped)
      .key("peers_stopped").value(result.peers_stopped)
      .key("frames_rejected").value(result.frames_rejected)
      .key("bad_frames").value(fabric.bad_frames());
  w.key("obs").begin_object().key("recorded").value(result.obs_events_recorded)
      .key("dropped").value(result.obs_events_dropped).end_object()
      .key("steering").begin_object()
      .key("decisions").value(result.steering_decisions)
      .key("staleness_at_exit").value(result.staleness_at_exit).end_object();
  w.key("train").begin_object().key("epoch").value(result.epochs)
      .key("examples_per_sec").value(result.examples_per_sec)
      .key("loss").value(result.final_loss)
      .key("accuracy").value(result.final_accuracy)
      .key("steps").value(steps)
      .key("deltas_applied").value(result.deltas_applied)
      .key("examples").value(result.examples_processed)
      .end_object().end_object();
  std::printf("ASYNCIT_NODE_JSON %s\n", line.c_str());
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string config_path;
  std::uint32_t rank = 0;
  bool have_rank = false;
  bool quiet = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--schema") {
      std::printf("%s\n", net::node_config_schema_json().c_str());
      return 0;
    } else if (arg == "--config" && i + 1 < argc) {
      config_path = argv[++i];
    } else if (arg == "--rank" && i + 1 < argc) {
      // strtoul with full-string validation: "--rank x" or "--rank -1"
      // must die loudly, not silently become rank 0 and fight the real
      // rank 0 for its port.
      const char* s = argv[++i];
      char* end = nullptr;
      const unsigned long v = std::strtoul(s, &end, 10);
      if (s[0] == '\0' || s[0] == '-' || end == nullptr || *end != '\0' ||
          v > 0xFFFFFFFFul)
        die(std::string("invalid --rank value: ") + s);
      rank = static_cast<std::uint32_t>(v);
      have_rank = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      die("usage: asyncit_node --config <file> --rank <r> [--quiet] | "
          "asyncit_node --schema");
    }
  }
  if (config_path.empty() || !have_rank)
    die("usage: asyncit_node --config <file> --rank <r> [--quiet] | "
        "asyncit_node --schema");

  net::NodeConfig cfg;
  std::string error;
  if (!net::load_node_config(config_path, cfg, error)) die(error);
  if (rank >= cfg.world) die("rank out of range");

  transport::TcpOptions topts;
  topts.nodes = cfg.nodes;
  topts.local_ranks = {rank};
  topts.connect_timeout_seconds = 30.0;
  if (cfg.workload == net::Workload::kSolve) {
    // Tighten the decode-time frame bound to what this run can actually
    // produce: the widest partition block, or a gossip payload (3 doubles
    // per membership update, at most one update per rank).
    const std::size_t widest = (cfg.dim + cfg.blocks - 1) / cfg.blocks;
    topts.max_frame_doubles = static_cast<std::uint32_t>(
        std::max<std::size_t>(widest, 3 * cfg.world));
  }
  const bool is_late =
      std::find(cfg.late.begin(), cfg.late.end(), rank) != cfg.late.end();
  if (cfg.elastic) {
    topts.elastic = true;
    // With membership, launch-time ranks rendezvous with each other and
    // a late joiner rendezvouses with NOBODY — it dials in lazily (some
    // initial ranks may already be dead) and is discovered via gossip.
    // Plain elastic (the train churn leg) has no late slots: everyone
    // rendezvouses, and deaths after that simply stop mattering.
    if (cfg.membership.enabled) {
      if (!is_late) topts.expected_ranks = cfg.membership.initial_alive;
    } else {
      topts.expected_ranks.resize(cfg.world);
      for (std::uint32_t r = 0; r < cfg.world; ++r)
        topts.expected_ranks[r] = r;
    }
  }
  if (!quiet)
    std::printf("[rank %u] rendezvous: %zu ranks%s, my port %u\n", rank,
                cfg.world, is_late ? " (late join)" : "",
                cfg.nodes[rank].port);
  transport::TcpTransport tcp(std::move(topts));
  std::unique_ptr<transport::ChaosTransport> chaos;
  if (cfg.chaos)
    chaos = std::make_unique<transport::ChaosTransport>(
        tcp, cfg.chaos_policy, cfg.seed);
  transport::Transport& fabric =
      chaos ? static_cast<transport::Transport&>(*chaos) : tcp;

  return cfg.workload == net::Workload::kTrain
             ? run_train_workload(cfg, rank, fabric, quiet)
             : run_solve_workload(cfg, rank, fabric, quiet);
}
