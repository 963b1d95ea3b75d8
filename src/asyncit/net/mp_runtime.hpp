// Orchestration of the message-passing runtime.
//
// run_message_passing executes asynchronous iterations the way the paper's
// testbeds did: P worker threads own disjoint block ranges and exchange
// step-tagged block values through a pluggable wire transport with
// injectable latency, reordering (non-FIFO delivery), and loss — values
// actually TRAVEL between workers instead of living in shared memory
// (rt::) or in a virtual-time simulation (sim::). Out-of-order messages,
// label inversions, and unbounded heterogeneity delays therefore occur on
// real hardware, and every per-message delay is measured into a histogram
// rather than assumed from a model.
//
// The default overload runs over the in-process mailbox backend
// (transport/inproc.hpp), byte-for-byte the pre-transport behaviour; the
// Transport overload accepts any backend hosting every rank in this
// process — e.g. transport::TcpTransport over loopback sockets, or
// transport::ChaosTransport stacking the delay models on top of TCP. For
// one-rank-per-PROCESS deployments see net/node_runtime.hpp.
//
// Three coordination modes are selectable per run (see net/peer.hpp):
// totally asynchronous (kAsync), staleness-bounded (kSsp), and the
// barrier-synchronized BSP baseline (kBsp). Flexible communication
// (Definition 3 partial publishing) and the displacement-based stopping
// rule of rt::RuntimeOptions carry over unchanged.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "asyncit/linalg/norms.hpp"
#include "asyncit/membership/membership.hpp"
#include "asyncit/obs/auditor.hpp"
#include "asyncit/obs/steering.hpp"
#include "asyncit/obs/trace_recorder.hpp"
#include "asyncit/operators/operator.hpp"
#include "asyncit/trace/event_log.hpp"
#include "asyncit/transport/delivery.hpp"

namespace asyncit::transport {
class Transport;
}

namespace asyncit::net {

/// Per-sweep coordination discipline.
enum class Mode {
  kAsync,  ///< never wait (totally asynchronous, paper Section II)
  kSsp,    ///< stale synchronous: clock gap capped by `staleness`
  kBsp,    ///< bulk synchronous baseline (barrier every round)
};

/// What to solve and when to stop — the discipline, flexible
/// communication, and budget knobs. Aggregate-initializable; nested in
/// MpOptions (and mirrored by train::TrainOptions for the PSGD mode).
struct SolveOptions {
  Mode mode = Mode::kAsync;
  /// SSP clock-gap cap in rounds (ignored by kAsync; kBsp behaves as 0).
  std::uint64_t staleness = 1;
  /// Auditor-fed adaptive staleness (kSsp only; obs/steering.hpp): the
  /// gate slack tracks the OnlineAuditor's measured delay bound instead
  /// of the static `staleness` value (which becomes the initial bound).
  /// Enabling this implies the auditor — the measured signal must exist.
  obs::SteeringOptions adaptive;

  std::size_t inner_steps = 1;
  /// Flexible communication (Definition 3): send partial iterates
  /// mid-phase and incorporate mid-phase arrivals between inner steps.
  /// Honoured by kAsync and kSsp; kBsp keeps its frozen-snapshot rounds.
  bool publish_partials = false;

  model::OverwritePolicy overwrite = model::OverwritePolicy::kLastArrivalWins;

  double tol = 1e-9;
  std::optional<la::Vector> x_star;  ///< oracle stopping + error metric

  /// Displacement stopping rule without a known solution, identical in
  /// meaning to rt::RuntimeOptions::displacement_tol (0 disables); the
  /// orchestrator confirms a candidate stop with a true residual check.
  double displacement_tol = 0.0;

  std::uint64_t max_updates = 1000000;  ///< total block-update budget
  double max_seconds = 30.0;
  std::uint64_t check_every = 16;  ///< per-peer budget check cadence
};

/// Fault/latency injection for the in-process backend.
struct ChaosOptions {
  /// Channel behaviour for every directed link. drop_prob is honoured
  /// only in kAsync (see DeliveryPolicy). Ignored by the Transport
  /// overloads (the backend's own delivery behaviour applies there —
  /// stack transport::ChaosTransport for injection over real sockets).
  transport::DeliveryPolicy delivery;
};

/// Wire-efficiency layer (transport/codec.hpp, DESIGN.md §6): per-link
/// delta encoding of block publishes, with optional lossy compression on
/// top. All off by default — the wire then carries byte-identical
/// full-width frames.
struct WireOptions {
  /// Per-(link, block) delta encoding: each sender remembers the payload
  /// it last put on every directed link and ships only the contiguous
  /// range that changed (an offset/count partial frame flagged
  /// `complete` so round accounting is unaffected). An unchanged block
  /// still sends a zero-count heartbeat — frame COUNTS are invariant, so
  /// chaos/simnet draw sequences replay identically with delta on or
  /// off, and the tag stream stays intact.
  bool delta = false;
  /// Windowed top-k sparsification (requires delta): when the dirty
  /// range is wider than this, send only the <= topk-wide window with
  /// the largest |change| mass; the rest stays dirty and ships later.
  /// 0 = off.
  std::uint32_t topk = 0;
  /// Scalar quantization (requires delta): payload doubles ride as
  /// 2^bits-level integers between the frame's min/max. 0 = off
  /// (exact); 8 or 16 otherwise. Lossy — gated by the residual-tolerance
  /// parity suite against the uncompressed oracle.
  std::uint32_t quant_bits = 0;
  /// Every this-many sends on a (link, block) pair, a full-width frame
  /// resyncs the receiver — bounds how long a dropped delta (or a
  /// replaced connection) can keep a component stale.
  std::uint32_t refresh_every = 16;
};

/// Observability (obs/, DESIGN.md §8) + the legacy Gantt EventLog.
struct ObsOptions {
  bool record_trace = false;          ///< fill the EventLog (Gantt)
  std::size_t max_trace_events = 20000;

  /// Event-tracing level for this run. kOff leaves the global recorder
  /// untouched; kMetrics/kFull enable it at run entry (resetting rings
  /// and the metrics registry) and disable it at exit, leaving the
  /// recorded events snapshot-able by the caller (exporters, node JSON).
  obs::TraceLevel trace_level = obs::TraceLevel::kOff;
  /// Per-thread event-ring capacity (events; power of two).
  std::size_t trace_ring_capacity = 4096;
  /// Online admissibility auditor: every peer streams its local
  /// (S_j, l(j)) schedule through the condition a–d checks while the
  /// run executes (MpResult::admissibility). Independent of tracing.
  bool audit = false;
  /// Per-source-link delay histograms at each receiver
  /// (MpResult::link_delays). On for the thread-scale runs that always
  /// had them; simnet::run_world turns it off — one obs::Histogram is
  /// ~330 B, and world^2 of them at 1000 ranks is ~330 MB of pure
  /// bookkeeping. The endpoint-level delays() aggregate is unaffected.
  bool link_delays = true;
};

/// Options for run_message_passing / run_node: topology at the top,
/// everything else grouped by concern into aggregate-initializable
/// sub-structs — `{.workers = 4, .solve = {.mode = Mode::kSsp}}` works.
struct MpOptions {
  std::size_t workers = 2;
  /// Per-worker compute repetition factors (heterogeneity injection), as
  /// in rt::RuntimeOptions: empty = all 1.0.
  std::vector<double> worker_slowdown;
  std::uint64_t seed = 1;

  SolveOptions solve;
  ChaosOptions chaos;
  WireOptions wire;
  ObsOptions obs;

  /// Elastic ranks (membership/): when enabled, every peer runs a SWIM
  /// failure detector over the control-frame path, block ownership
  /// follows the live view (la::assign_blocks_contiguous re-run on every
  /// membership change), joiners are welcomed with an iterate snapshot,
  /// and `workers` becomes the number of SLOTS — membership.initial_alive
  /// (empty = all) says which are present at launch. Requires kAsync.
  membership::Options membership;
};

/// The counters a net::Peer keeps while it runs — one record per peer,
/// summed into MpResult (which inherits it) by Peer::fold_into. Plain
/// per-peer integers rather than obs::MetricsRegistry entries: the
/// registry is process-global (a simnet world's ranks would merge into
/// one count) and its adds are atomic read-modify-writes on the
/// per-frame send path.
struct PeerStats {
  std::uint64_t partials_sent = 0;  ///< mid-phase (Definition 3) publishes
  /// kStop control frames received (node mode only: how many other ranks
  /// announced their stopping criterion before this rank finished).
  std::uint64_t peers_stopped = 0;
  /// Received frames discarded because their semantic fields (source
  /// rank, block id, offset/payload extent) do not fit this run's
  /// geometry — a misconfigured or hostile sender, not a wire error.
  std::uint64_t frames_rejected = 0;

  // ---- elastic membership (all zero when membership is off) ----
  /// Live-view changes that re-ran block assignment.
  std::uint64_t reassignments = 0;
  /// Blocks sent as welcome snapshots to joining ranks.
  std::uint64_t snapshot_blocks_sent = 0;
  /// Owned blocks NOT snapshot because the established-cover plan
  /// assigns them to another rank (deduped welcome duplicates).
  std::uint64_t snapshot_blocks_suppressed = 0;

  // ---- wire-efficiency layer (WireOptions; raw == wire when off) ----
  /// Bytes the block publishes would have cost as full-width raw frames,
  /// vs the bytes actually framed (delta ranges, heartbeats, quantized
  /// payloads). raw / wire is the bandwidth-reduction factor the c15
  /// bench gates.
  std::uint64_t bytes_sent_raw = 0;
  std::uint64_t bytes_sent_wire = 0;
  /// Frame-class breakdown of the delta layer's block publishes.
  std::uint64_t wire_frames_full = 0;
  std::uint64_t wire_frames_delta = 0;
  std::uint64_t wire_frames_heartbeat = 0;
  std::uint64_t wire_frames_codec = 0;

  /// SSP/BSP gate entries that actually blocked (the peer polled at
  /// least once before its round gate opened) — the stall metric the
  /// adaptive bound is steered to reduce.
  std::uint64_t gate_stalls = 0;

  PeerStats& operator+=(const PeerStats& o) {
    partials_sent += o.partials_sent;
    peers_stopped += o.peers_stopped;
    frames_rejected += o.frames_rejected;
    reassignments += o.reassignments;
    snapshot_blocks_sent += o.snapshot_blocks_sent;
    snapshot_blocks_suppressed += o.snapshot_blocks_suppressed;
    bytes_sent_raw += o.bytes_sent_raw;
    bytes_sent_wire += o.bytes_sent_wire;
    wire_frames_full += o.wire_frames_full;
    wire_frames_delta += o.wire_frames_delta;
    wire_frames_heartbeat += o.wire_frames_heartbeat;
    wire_frames_codec += o.wire_frames_codec;
    gate_stalls += o.gate_stalls;
    return *this;
  }
};

/// A run's outcome. The PeerStats counters are summed over the local
/// ranks (one rank for run_node).
struct MpResult : PeerStats {
  /// The iterate after every peer has joined (threaded runs: the monitor
  /// plane assembled post-join).
  la::Vector x;
  double wall_seconds = 0.0;
  /// Judged on the snapshot the stop decision certified (oracle or
  /// displacement rule) when one did; on `x` after a budget stop.
  bool converged = false;
  double final_error = -1.0;  ///< oracle error (when x_star given)
  /// Threaded runs with a certified stop: how far `x` moved past the
  /// certified snapshot while the peers wound down (weighted max norm;
  /// under kLastArrivalWins late updates can regress). 0 otherwise.
  double post_stop_drift = 0.0;

  std::uint64_t total_updates = 0;           ///< block updates
  std::vector<std::uint64_t> updates_per_worker;
  std::uint64_t rounds = 0;                  ///< min complete sweeps

  // ---- channel statistics: observed, not assumed ----
  std::uint64_t messages_sent = 0;      ///< stamped (incl. dropped)
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;
  /// Arrivals carrying a tag older than the newest already seen for the
  /// block — genuine out-of-order deliveries (label inversions).
  std::uint64_t inversions_observed = 0;
  /// Inversions that kNewestTagWins refused to incorporate.
  std::uint64_t stale_filtered = 0;
  /// Wire-invalid frames the transport's readers rejected (corrupted or
  /// foreign byte streams — transport::Transport::bad_frames). Filled
  /// where the runtime sees the whole transport (the Transport overload
  /// of run_message_passing; tools/asyncit_node fills it for run_node).
  std::uint64_t bad_frames = 0;

  // ---- elastic membership (all zero/empty when membership is off) ----
  /// Detector + dissemination counters, summed over local ranks.
  membership::Stats membership;
  /// This rank's live view at exit (run_node only; sorted, includes the
  /// own rank).
  std::vector<std::uint32_t> live_at_exit;

  /// Measured post-to-drain delay of every delivered message.
  obs::Histogram delays;

  // ---- observability (obs/) ----
  /// Per-link measured delay breakdown: messages from `src` drained by
  /// receiving peer `dst` (schema asyncit-node/2 `links`).
  struct LinkDelay {
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    obs::Histogram delays;
  };
  std::vector<LinkDelay> link_delays;
  /// Per-peer online admissibility reports (ObsOptions::audit); run_node
  /// fills exactly one entry (the local rank's view of the schedule).
  std::vector<obs::AdmissibilityReport> admissibility;
  /// Global recorder accounting for the run (ObsOptions::trace_level).
  std::uint64_t obs_events_recorded = 0;
  std::uint64_t obs_events_dropped = 0;

  /// Adaptive-staleness steering (SolveOptions::adaptive): decisions
  /// taken (traced as kSteering) and the bound at exit. With steering
  /// off, decisions is 0 and the exit bound is solve.staleness.
  std::uint64_t steering_decisions = 0;
  std::uint64_t staleness_at_exit = 0;

  trace::EventLog log;
};

/// Runs P = options.workers peer threads until convergence or budget
/// exhaustion over the in-process mailbox backend (options.chaos.delivery
/// and options.seed configure its channels). Requires workers <= num_blocks
/// and x0.size() == dim.
MpResult run_message_passing(const op::BlockOperator& op,
                             const la::Vector& x0, const MpOptions& options);

/// Same, over a caller-supplied transport backend. The transport must
/// host every rank of the run in this process (transport.world() ==
/// options.workers, all ranks local); its own delivery behaviour applies
/// — options.chaos.delivery is ignored in this overload.
MpResult run_message_passing(const op::BlockOperator& op,
                             const la::Vector& x0, const MpOptions& options,
                             transport::Transport& transport);

}  // namespace asyncit::net
