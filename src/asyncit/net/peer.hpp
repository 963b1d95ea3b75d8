// A worker peer of the message-passing runtime.
//
// Each peer runs on its own thread (or its own PROCESS — see
// net/node_runtime.hpp), owns a contiguous range of blocks, and holds a
// PRIVATE copy of the full iterate: the only way another peer's update
// reaches it is as a Message received through its transport::Endpoint
// (contrast rt::, where workers share the iterate in memory). The peer
// never touches the communication medium directly — inproc mailboxes,
// TCP sockets, and the chaos decorator all hide behind the endpoint
// (see transport/transport.hpp). The loop is the receive -> incorporate
// -> update -> send cycle of the paper's distributed model:
//
//   receive      drain every delivered message, incorporate it under the
//                configured OverwritePolicy (kLastArrivalWins reproduces
//                one-sided-put label inversions; kNewestTagWins filters
//                them receiver-side);
//   update       apply the block operator to the owned blocks
//                (inner_steps applications per phase; with
//                publish_partials, mid-phase partials are sent and
//                mid-phase arrivals incorporated — Definition 3);
//   send         publish the new block values to every other peer, tagged
//                with a per-block production counter.
//
// Coordination gates (Mode) before each sweep:
//   kAsync  never wait — the paper's Section II totally asynchronous
//           regime (unbounded delays tolerated);
//   kSsp    stale-synchronous: wait until every peer's last complete
//           round is within `staleness` of this peer's round (per-worker
//           clock gap cap);
//   kBsp    barrier-synchronized baseline: staleness 0 plus a frozen
//           per-round snapshot (exact distributed Jacobi).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "asyncit/membership/swim.hpp"
#include "asyncit/net/mp_runtime.hpp"
#include "asyncit/operators/operator.hpp"
#include "asyncit/runtime/shared_iterate.hpp"
#include "asyncit/support/timer.hpp"
#include "asyncit/trace/event_log.hpp"
#include "asyncit/transport/transport.hpp"

namespace asyncit::net {

/// A peer's private copy of the iterate plus the receive-side bookkeeping
/// (value tags, inversion/staleness counters). Kept as a standalone struct
/// so incorporation is unit-testable without threads.
struct LocalView {
  la::Vector x;
  std::vector<model::Step> tags;     ///< tag of the value currently held
  std::vector<model::Step> max_tag;  ///< newest tag ever seen per block
  std::uint64_t inversions = 0;      ///< arrivals with tag < newest seen
  std::uint64_t stale_filtered = 0;  ///< arrivals discarded by policy

  LocalView(const la::Vector& x0, std::size_t num_blocks)
      : x(x0), tags(num_blocks, 0), max_tag(num_blocks, 0) {}
};

/// Applies one received message to a local view under `policy`. An arrival
/// whose tag is older than the newest tag ever seen for that block is
/// counted as a label inversion (the trace-level signature of out-of-order
/// messages); kNewestTagWins additionally refuses to let it overwrite.
/// Partial-block frames (m.offset > 0 or m.value shorter than the block)
/// overwrite only the carried coordinate range.
void incorporate(const la::Partition& partition,
                 model::OverwritePolicy policy, const transport::Message& m,
                 LocalView& view);

/// The blocks `self` should include in a welcome snapshot for `joiner`:
/// its share of the contiguous assignment over the ESTABLISHED live set
/// (the live view with the joiner removed). Established ranks jointly
/// cover the iterate exactly once under this plan — the dedupe that
/// stops a joiner from receiving the same block from several ranks when
/// a membership epoch races the welcome. Returns empty when `self` is
/// not established or is a surplus (idle) rank. `live` must be sorted
/// (the membership table's invariant).
std::vector<la::BlockId> snapshot_plan(std::size_t num_blocks,
                                       const std::vector<std::uint32_t>& live,
                                       std::uint32_t self,
                                       std::uint32_t joiner);

/// Everything a peer shares with the orchestrator and the other peers.
/// All pointers outlive the peer threads (owned by run_message_passing /
/// run_node).
struct PeerContext {
  const op::BlockOperator* op = nullptr;
  const MpOptions* options = nullptr;
  const WallTimer* clock = nullptr;
  const std::vector<std::vector<la::BlockId>>* owned = nullptr;
  /// Monitoring plane: peers publish their own blocks here so the
  /// orchestrator can evaluate stopping rules; compute never reads it.
  rt::SharedIterate* monitor = nullptr;
  /// Per-block Euclidean displacement of the most recent update
  /// (atomic_ref access), for the displacement stopping rule.
  std::vector<double>* last_displacement = nullptr;
  std::vector<std::atomic<std::uint64_t>>* updates = nullptr;  ///< per peer
  std::atomic<bool>* stop = nullptr;
  /// Single-rank process mode (net::run_node): there is no orchestrator
  /// that can see a global snapshot, so the peer evaluates its stopping
  /// criterion on its OWN private view and announces a hit with a kStop
  /// control frame. Update budgets then count local updates only.
  bool node_mode = false;
  const la::WeightedMaxNorm* norm = nullptr;  ///< node-mode oracle stop
  /// Elastic membership (one agent PER PEER, driven by the peer thread
  /// alone). When set, the peer owns the blocks its index in the LIVE
  /// view assigns (re-running la::assign_blocks_contiguous on every
  /// view change), routes kPing/kAck/kPingReq/kMembershipUpdate frames
  /// into the agent, welcomes joiners with an iterate snapshot, and
  /// evaluates "everyone else is done" over the live view instead of
  /// the static world. Requires Mode::kAsync — the gated modes assume a
  /// static round structure that churn would deadlock.
  membership::SwimAgent* membership = nullptr;
};

class Peer {
 public:
  Peer(const PeerContext& ctx, std::uint32_t id, const la::Vector& x0,
       transport::Endpoint& endpoint);

  /// Thread body: loops until ctx.stop. Safe to call exactly once.
  void run();

  // ---- post-run accessors (valid after the thread has joined) ----
  const LocalView& view() const { return view_; }
  std::uint64_t rounds() const { return round_; }
  const PeerStats& stats() const { return stats_; }
  const trace::EventLog& log() const { return log_; }

  /// Folds this finished peer and its endpoint into `result` — the one
  /// place a run's per-rank counters are assembled: PeerStats, the view's
  /// inversion/stale counts, steering decisions (summed) and exit bound
  /// (max), membership stats, per-source link delays, the admissibility
  /// report, and the endpoint's sent/dropped/delivered counts and delay
  /// histogram. Everything is added, so run_message_passing folds each
  /// peer into one result and run_node folds its single peer.
  void fold_into(MpResult& result) const;

 private:
  double now() const { return ctx_.clock->seconds(); }
  bool stopped() const {
    return ctx_.stop->load(std::memory_order_relaxed);
  }

  /// Drains the endpoint and incorporates everything delivered.
  void receive();
  /// Elastic mode: drives the SWIM agent (probe cadence, gossip), puts
  /// its outbox on the wire, reacts to membership events (snapshot
  /// joins, block re-assignment, live-view completion). No-op without a
  /// membership agent.
  void service_membership();
  /// Re-runs la::assign_blocks_contiguous over the live view.
  void recompute_owned();
  /// Sends the current value of every owned block to a joining rank so
  /// it starts from the live iterate instead of x0 (snapshot join).
  void send_snapshot_to(std::uint32_t dst);
  /// The blocks this peer currently owns (elastic view, or the static
  /// launch assignment when membership is off).
  const std::vector<la::BlockId>& owned_blocks() const {
    return ctx_.membership != nullptr ? elastic_owned_ : (*ctx_.owned)[id_];
  }
  /// Async no-local-criterion termination over the live view: true when
  /// every other slot has stopped, died, or never joined.
  bool all_others_inactive() const;
  /// Computes one updating phase of block b (inner_steps applications;
  /// flexible communication when configured) and publishes the result.
  void update_block(la::BlockId b, std::size_t reps,
                    std::span<const double> compute_view);
  /// Publishes the current value of owned block b to every other peer
  /// (one Endpoint::publish per call).
  void send_block(la::BlockId b, bool partial);
  /// Announces this rank's local stopping-criterion hit (node mode).
  void broadcast_stop();
  /// Blocks until every other peer's count of complete rounds reaches
  /// `needed` (SSP/BSP gate). Returns false if stopped while waiting.
  bool wait_for_rounds(std::uint64_t needed);
  /// Budget checks + CPU-sliced voluntary yield (see rt::executors);
  /// node mode adds the local stopping-criterion check.
  void maybe_check(std::uint64_t own_updates);
  /// incorporate() plus the observability taps: inversion events, the
  /// audit bridge's changed-block mask, per-link delay bookkeeping.
  void incorporate_tracked(const la::Partition& partition,
                           model::OverwritePolicy policy,
                           const transport::Message& m);
  /// Records the stop decision and trips the shared flag.
  void trip_stop(obs::StopReason reason);
  /// The SSP gate slack: the steered bound, or solve.staleness when
  /// adaptive staleness is off.
  std::uint64_t staleness_bound() const {
    return steer_ ? steer_->bound() : ctx_.options->solve.staleness;
  }

  PeerContext ctx_;
  const std::uint32_t id_;
  LocalView view_;
  transport::Endpoint* endpoint_;
  std::vector<transport::Message> inbox_;  ///< drain buffer (reused)
  /// BSP only: drained messages from rounds this peer has not finished
  /// yet (fast peers may run one round ahead); incorporated once round_
  /// passes them, keeping each round's snapshot exact. They hold their
  /// payload references until then.
  std::vector<transport::Message> holdback_;
  std::vector<transport::Message> holdback_keep_;  ///< holdback filter scratch
  /// Consumed holdback returns.
  std::vector<transport::Message> recycle_scratch_;
  la::Vector phase_out_;              ///< block output buffer (reused)
  la::Vector phase_prev_;             ///< phase-start block value (reused)
  la::Vector snapshot_;               ///< BSP per-round frozen view
  op::Workspace ws_;                  ///< per-peer operator scratch

  std::uint64_t round_ = 0;           ///< completed sweeps over owned blocks
  /// Per-BLOCK send counter (all m blocks, not just the launch-owned
  /// ones: elastic re-assignment hands blocks between ranks, and a new
  /// owner must continue the tag sequence past everything it has seen or
  /// kNewestTagWins receivers would discard its updates as stale).
  std::vector<model::Step> production_;
  model::Step local_step_ = 0;        ///< completed phases (trace labels)
  PeerStats stats_;
  ThreadCpuTimer cpu_timer_;

  // ---- elastic membership (all empty/zero when ctx.membership is null)
  std::vector<la::BlockId> elastic_owned_;   ///< current live assignment
  std::vector<la::BlockId> sweep_owned_;     ///< per-sweep stable copy
  std::vector<bool> stopped_ranks_;          ///< kStop seen, by rank
  std::vector<membership::Event> events_scratch_;
  std::uint64_t owned_epoch_ = 0;     ///< table epoch of elastic_owned_
  std::vector<la::BlockId> snapshot_plan_;   ///< welcome-plan scratch

  // ---- wire-efficiency layer (MpOptions::wire; all empty when off) ----
  /// Per-(destination, block) record of the payload the receiver last
  /// got from us — the reference the next delta frame diffs against.
  /// `last` holds post-codec values (what the receiver actually holds),
  /// updated only when the send receipt says the frame went out.
  struct DeltaSlot {
    la::Vector last;
    bool valid = false;
    std::uint64_t sends_since_refresh = 0;
    std::uint64_t rx_epoch = 0;  ///< block_rx_epoch_ when last refreshed
  };
  /// [block][dst]; a block's row is allocated on its first publish (a
  /// rank publishes only the blocks it owns or adopts).
  std::vector<std::vector<DeltaSlot>> delta_;
  /// What send_block decided for one frame of the fan-out, applied to the
  /// accounting and the slot once the publish receipts are in.
  struct FrameNote {
    DeltaSlot* slot = nullptr;  ///< null with delta off
    bool full = true;           ///< full-width frame (always, delta off)
    bool heartbeat = false;     ///< zero-width delta frame
  };
  /// send_block's scratch for one publish: the frame list, the per-frame
  /// notes and receipts (parallel to frames) and the codec payloads.
  struct FanOut {
    std::vector<transport::Frame> frames;
    std::vector<FrameNote> notes;
    std::vector<transport::SendReceipt> receipts;
    la::Vector codec;  ///< one block-width slot per frame (codec on)
  };
  /// Narrows frame `f` (a full window of `value`) to its delta range
  /// against `slot`, or to a heartbeat; delta ranges are quantized into
  /// `codec_out` when the codec is on.
  void encode_delta(transport::Frame& f, FrameNote& note, DeltaSlot& slot,
                    std::span<const double> value,
                    std::span<double> codec_out, bool partial);
  /// Bumped whenever a remote value for the block is incorporated: our
  /// delta baseline toward EVERY destination is stale the moment someone
  /// else wrote the block (ownership churn), so the next send refreshes.
  std::vector<std::uint64_t> block_rx_epoch_;

  /// Round-completion tracking per source peer: complete_rounds_[src] is
  /// the count r of initial rounds (0..r-1) for which ALL of src's final
  /// block messages have been received; arrivals_ holds, per source, a
  /// ring of ring_ final counts indexed by round % ring_ (rounds
  /// complete_rounds_[src] .. + ring_-1; sized from the gate slack in
  /// the constructor, overflow is a CHECK).
  std::vector<std::uint64_t> complete_rounds_;
  std::vector<std::uint32_t> arrivals_;
  std::size_t ring_ = 0;

  trace::EventLog log_;
  std::size_t trace_budget_ = 0;      ///< remaining events this peer may log

  // ---- observability (obs/) ----
  std::vector<obs::Histogram> link_delays_;  ///< by source rank
  std::unique_ptr<obs::OnlineAuditor> auditor_;
  /// Adaptive-staleness controller (kSsp + solve.adaptive.enabled): the
  /// round-gate slack run() reads is bound() instead of the static
  /// staleness option. Fed from the auditor's measured delay bound in
  /// update_block (signal in rounds: d_bound / owned blocks).
  std::unique_ptr<obs::StalenessController> steer_;
  /// Audit bridge (see update_block): step j = own completed phases;
  /// last_changed_[i] = audit step at which component i last changed,
  /// pending_[i] = changed by a remote incorporation since the last own
  /// step (those blocks join the next step's S_j).
  std::vector<model::Step> audit_last_changed_;
  std::vector<std::uint8_t> audit_pending_;
  std::vector<la::BlockId> audit_updated_;   ///< S_j assembly scratch
};

}  // namespace asyncit::net
