#include "asyncit/net/peer.hpp"

#include <algorithm>
#include <thread>

#include "asyncit/linalg/vector_ops.hpp"
#include "asyncit/obs/metrics.hpp"
#include "asyncit/obs/trace_recorder.hpp"
#include "asyncit/runtime/pacing.hpp"
#include "asyncit/support/check.hpp"
#include "asyncit/transport/codec.hpp"
#include "asyncit/transport/wire.hpp"

namespace asyncit::net {

namespace {

/// Poll granularity while blocked in a coordination gate; bounds how long
/// a waiting peer can miss the stop flag.
constexpr double kMaxGateWait = 1e-3;

/// Node-mode stopping checks run at this multiple of the budget-check
/// cadence (an oracle distance / residual scan is O(n), so it should not
/// run on every budget check).
constexpr std::uint64_t kNodeStopCheckFactor = 4;

}  // namespace

void incorporate(const la::Partition& partition,
                 model::OverwritePolicy policy, const transport::Message& m,
                 LocalView& view) {
  auto dst = partition.block_span(std::span<double>(view.x), m.block);
  ASYNCIT_CHECK(m.offset + m.value.size() <= dst.size());
  if (m.tag < view.max_tag[m.block]) ++view.inversions;
  view.max_tag[m.block] = std::max(view.max_tag[m.block], m.tag);
  if (policy == model::OverwritePolicy::kNewestTagWins &&
      m.tag <= view.tags[m.block]) {
    ++view.stale_filtered;
    return;
  }
  std::copy(m.value.begin(), m.value.end(), dst.begin() + m.offset);
  view.tags[m.block] = m.tag;
}

Peer::Peer(const PeerContext& ctx, std::uint32_t id, const la::Vector& x0,
           transport::Endpoint& endpoint)
    : ctx_(ctx),
      id_(id),
      view_(x0, ctx.op->partition().num_blocks()),
      endpoint_(&endpoint),
      round_(0),
      production_(ctx.op->partition().num_blocks(), 0),
      // Round-completion bookkeeping only feeds the SSP/BSP gates
      // (receive() skips it in async mode), and the per-source delay
      // breakdown is opt-out: both are O(world) per peer, which at
      // simulator scale (1000 in-process peers) is pure dead weight.
      complete_rounds_(ctx.options->solve.mode != Mode::kAsync
                           ? ctx.options->workers
                           : 0,
                       0),
      link_delays_(ctx.options->obs.link_delays ? ctx.options->workers
                                                : 0) {
  ASYNCIT_CHECK(endpoint_->rank() == id_);
  // Adaptive staleness steers on the auditor's measured delay bound, so
  // enabling it implies the auditor even when audit reporting is off.
  const bool steer = ctx_.options->solve.adaptive.enabled &&
                     ctx_.options->solve.mode == Mode::kSsp;
  if (ctx_.options->obs.audit || steer) {
    const std::size_t m = ctx_.op->partition().num_blocks();
    auditor_ = std::make_unique<obs::OnlineAuditor>(m);
    audit_last_changed_.assign(m, 0);
    audit_pending_.assign(m, 0);
    audit_updated_.reserve(m);
  }
  if (steer)
    steer_ = std::make_unique<obs::StalenessController>(
        ctx_.options->solve.adaptive, ctx_.options->solve.staleness);
  if (ctx_.options->solve.mode != Mode::kAsync) {
    // A gated source can run at most 2S+1 rounds past the oldest round we
    // have not completed for it (S = the largest gate slack any rank can
    // hold: it waits for our round - S, we waited for its round - S, and
    // our round may have just advanced), so a ring of 2S+2 per-round
    // counters per source never wraps onto a live round.
    const std::uint64_t slack =
        ctx_.options->solve.mode == Mode::kBsp ? 0
        : steer ? ctx_.options->solve.adaptive.max_bound
                : ctx_.options->solve.staleness;
    ring_ = static_cast<std::size_t>(2 * slack + 2);
    arrivals_.assign(ctx_.options->workers * ring_, 0);
  }
  if (ctx_.options->solve.mode == Mode::kBsp) {
    // BSP holds back at most one round of the other ranks' blocks (no
    // source can be past our completed round), so the holdback buffers
    // are sized once and the gated loop never allocates.
    const std::size_t others = ctx_.op->partition().num_blocks() -
                               (*ctx_.owned)[id_].size();
    holdback_.reserve(others);
    holdback_keep_.reserve(others);
    recycle_scratch_.reserve(others);
  }
  if (ctx_.membership != nullptr) {
    // Elastic ranks only make sense in the totally asynchronous regime:
    // SSP/BSP round gates would wait forever for a rank that left.
    ASYNCIT_CHECK(ctx_.options->solve.mode == Mode::kAsync);
    stopped_ranks_.assign(ctx_.options->workers, false);
    owned_epoch_ = ctx_.membership->table().epoch();
    recompute_owned();
  }
  if (ctx_.options->obs.record_trace)
    trace_budget_ =
        ctx_.options->obs.max_trace_events / std::max<std::size_t>(1, ctx_.options->workers);
  if (ctx_.options->wire.delta) {
    // One baseline per (block, destination), allocated a block row at a
    // time on the block's first publish: a rank only ever publishes the
    // blocks it owns (or adopts), so the other rows stay empty.
    delta_.resize(ctx_.op->partition().num_blocks());
    block_rx_epoch_.assign(ctx_.op->partition().num_blocks(), 0);
  }
}

std::vector<la::BlockId> snapshot_plan(std::size_t num_blocks,
                                       const std::vector<std::uint32_t>& live,
                                       std::uint32_t self,
                                       std::uint32_t joiner) {
  // Established set = live view minus the joiner; the plan is the same
  // contiguous assignment recompute_owned() uses, so in the settled case
  // (no racing epoch) every rank's plan share IS its owned set and
  // nothing is suppressed.
  std::size_t established = 0;
  std::size_t index = 0;
  bool found = false;
  for (const std::uint32_t r : live) {
    if (r == joiner) continue;
    if (r == self) {
      index = established;
      found = true;
    }
    ++established;
  }
  if (!found || established == 0) return {};
  const std::size_t workers = std::min(established, num_blocks);
  if (index >= workers) return {};  // surplus (idle) rank
  return la::assign_blocks_contiguous(num_blocks, workers)[index];
}

void Peer::incorporate_tracked(const la::Partition& partition,
                               model::OverwritePolicy policy,
                               const transport::Message& m) {
  const bool inversion = m.tag < view_.max_tag[m.block];
  const bool filtered = policy == model::OverwritePolicy::kNewestTagWins &&
                        m.tag <= view_.tags[m.block];
  if (inversion)
    obs::record(obs::EventType::kInversion, filtered ? 1 : 0,
                static_cast<std::uint32_t>(m.block),
                view_.max_tag[m.block] - m.tag, 0.0);
  incorporate(partition, policy, m, view_);
  // Audit bridge: an accepted remote value changes the component as of
  // the CURRENT local step — it joins the next own step's S_j.
  if (!filtered && auditor_ != nullptr) audit_pending_[m.block] = 1;
  // Delta layer: another rank wrote this block (ownership churn / a
  // double-assignment window), so the baselines we hold for it toward
  // EVERY destination no longer describe what we last sent of our own
  // values — force a full-frame resync on the next publish.
  if (!filtered && !block_rx_epoch_.empty()) ++block_rx_epoch_[m.block];
}

void Peer::trip_stop(obs::StopReason reason) {
  obs::record(obs::EventType::kStopDecision, 0,
              static_cast<std::uint32_t>(reason), local_step_, now());
  ctx_.stop->store(true, std::memory_order_relaxed);
}

void Peer::receive() {
  inbox_.clear();
  const double tnow = now();
  endpoint_->receive(tnow, inbox_);
  if (!inbox_.empty())
    obs::record(obs::EventType::kQueueDepth,
                static_cast<std::uint8_t>(obs::QueueKind::kInbox), id_,
                inbox_.size(), 0.0);
  // BSP keeps exact Jacobi rounds: a message from a round this peer has
  // not yet finished must not leak into the current snapshot, so it is
  // held back until round_ advances past it. (Fast peers can legally be
  // one round ahead: they got our round-r values and completed round r+1
  // while we are still sweeping round r.) Held-back messages rejoin
  // through holdback_ at the next receive() after round_ advances.
  const bool bsp = ctx_.options->solve.mode == Mode::kBsp;
  const model::OverwritePolicy policy =
      bsp ? model::OverwritePolicy::kNewestTagWins
          : ctx_.options->solve.overwrite;
  const la::Partition& partition = ctx_.op->partition();

  if (bsp && !holdback_.empty()) {
    for (const transport::Message& m : holdback_) {
      if (m.round < round_) {
        incorporate_tracked(partition, policy, m);
        recycle_scratch_.push_back(m);
      } else {
        holdback_keep_.push_back(m);
      }
    }
    holdback_.swap(holdback_keep_);
    holdback_keep_.clear();
  }

  // Handles one drained message; false when BSP holds it back for a
  // later round (it is then recycled only once incorporated).
  auto consume = [&](const transport::Message& m) -> bool {
    // Semantic validation BEFORE any field is used as an index: a frame
    // can be wire-valid yet describe another run's geometry (two nodes
    // launched with disagreeing configs). Such a message must be
    // discarded with a counter, not abort the rank via a failed CHECK.
    if (m.src >= ctx_.options->workers || m.src == id_) {
      ++stats_.frames_rejected;
      obs::record(obs::EventType::kFrameReject,
                  static_cast<std::uint8_t>(m.kind), m.src, m.block, 0.0);
      return true;
    }
    if (m.kind == transport::MsgKind::kStop) {
      // A rank announcing that its local stopping criterion fired (node
      // mode). Gated modes must stop immediately — the departed rank will
      // never complete another round and the SSP/BSP gate would deadlock.
      // The totally asynchronous mode keeps refining until its OWN
      // criterion fires (the departed rank's final values are within
      // tolerance, so convergence completes); only a rank with no local
      // criterion at all stops once everyone else has left.
      ++stats_.peers_stopped;
      const bool has_local_criterion =
          ctx_.options->solve.x_star.has_value() ||
          ctx_.options->solve.displacement_tol > 0.0;
      if (ctx_.membership != nullptr) {
        // A deliberate leave: straight to dead in the table (no point
        // probing a rank that said goodbye), and its blocks are adopted
        // at the re-assignment this triggers. "Everyone else is done"
        // is evaluated over the LIVE view, not the static world — a
        // spare slot that never joined must not keep us running.
        stopped_ranks_[m.src] = true;
        ctx_.membership->table().leave(m.src, now());
        if (ctx_.options->solve.mode != Mode::kAsync)
          trip_stop(obs::StopReason::kPeerStop);
        else if (!has_local_criterion && all_others_inactive())
          trip_stop(obs::StopReason::kLiveViewDone);
      } else if (ctx_.options->solve.mode != Mode::kAsync) {
        trip_stop(obs::StopReason::kPeerStop);
      } else if (!has_local_criterion &&
                 stats_.peers_stopped + 1 >= ctx_.options->workers) {
        trip_stop(obs::StopReason::kLiveViewDone);
      }
      return true;
    }
    if (transport::is_control(m.kind)) {
      // SWIM failure-detector traffic (membership/swim.hpp). Without an
      // agent these frames describe a protocol this run does not speak —
      // discard with the same counter as any config mismatch.
      if (ctx_.membership == nullptr) {
        ++stats_.frames_rejected;
        obs::record(obs::EventType::kFrameReject,
                    static_cast<std::uint8_t>(m.kind), m.src, m.block, 0.0);
      } else {
        obs::record(obs::EventType::kProbe, static_cast<std::uint8_t>(m.kind),
                    m.src, m.tag, 0.0);
        ctx_.membership->on_frame(m, now());
      }
      return true;
    }
    // A non-partial value frame must carry EXACTLY its block (a shorter
    // payload would silently prefix-overwrite the block yet count as a
    // complete update in the round accounting); only mid-phase partials
    // may carry sub-ranges.
    bool reject = m.block >= partition.num_blocks();
    if (!reject) {
      const std::size_t block_size = partition.range(m.block).size();
      reject = m.offset + m.value.size() > block_size ||
               (!m.partial && (m.offset != 0 || m.value.size() != block_size));
    }
    if (reject) {
      ++stats_.frames_rejected;
      obs::record(obs::EventType::kFrameReject,
                  static_cast<std::uint8_t>(m.kind), m.src, m.block, 0.0);
      return true;
    }
    // Per-link measured staleness: the drain-time delay of this frame,
    // attributed to its source rank (the (src, dst=this) breakdown that
    // MpResult::link_delays / schema asyncit-node/2 export).
    const double link_delay = std::max(0.0, tnow - m.t_send);
    if (!link_delays_.empty()) link_delays_[m.src].add(link_delay);
    obs::record(obs::EventType::kFrameRecv, static_cast<std::uint8_t>(m.kind),
                m.src, m.tag, link_delay);
    if (ctx_.membership != nullptr)
      ctx_.membership->heard_from(m.src, now());
    // Round-completion tracking (counts at drain time, independent of any
    // BSP holdback). Only SSP/BSP gates consult it — with message loss
    // (kAsync) an incomplete round would never drain from the ring — so
    // skip the bookkeeping entirely in async mode. A delta frame that
    // ends the sender's phase is partial on the wire but carries the
    // complete flag: it counts like the full-width frame it replaced.
    if ((!m.partial || m.complete) &&
        ctx_.options->solve.mode != Mode::kAsync) {
      const std::size_t need = (*ctx_.owned)[m.src].size();
      std::uint64_t& done = complete_rounds_[m.src];
      ASYNCIT_CHECK_MSG(m.round >= done && m.round - done < ring_,
                        "round ring overflow: a source ran past the gate");
      std::uint32_t* counts = arrivals_.data() + std::size_t(m.src) * ring_;
      ++counts[m.round % ring_];
      while (counts[done % ring_] >= need) {
        counts[done % ring_] = 0;
        ++done;
      }
    }
    if (bsp && m.round >= round_) return false;
    incorporate_tracked(partition, policy, m);
    return true;
  };

  std::size_t consumed = 0;
  for (const transport::Message& m : inbox_) {
    if (consume(m))
      inbox_[consumed++] = m;
    else
      holdback_.push_back(m);
  }
  inbox_.resize(consumed);
  // Exactly the consumed messages go back; held-back ones keep their
  // payload until a later receive() incorporates them.
  endpoint_->recycle(inbox_);
  if (!recycle_scratch_.empty()) endpoint_->recycle(recycle_scratch_);
  service_membership();
}

void Peer::send_block(la::BlockId b, bool partial) {
  const la::Partition& partition = ctx_.op->partition();
  // The next tag must beat everything we have SEEN for the block, not
  // just everything we produced: after an elastic re-assignment the new
  // owner continues the previous owner's sequence, so kNewestTagWins
  // receivers accept the adopted block's updates immediately.
  const model::Step tag = (production_[b] =
                               std::max(production_[b], view_.max_tag[b]) + 1);
  view_.tags[b] = tag;
  view_.max_tag[b] = tag;
  const auto value =
      partition.block_span(std::span<const double>(view_.x), b);
  const double t = now();
  const bool allow_drop = ctx_.options->solve.mode == Mode::kAsync;
  const WireOptions& wire = ctx_.options->wire;

  // The scratch is per carrier THREAD, not per peer: a publish never
  // yields, so peers sharing a thread (every simnet rank runs on the
  // engine's) share one set of lists instead of each holding W-entry
  // vectors (~130 KB per rank at 1000 ranks).
  static thread_local FanOut fan;
  std::vector<transport::Frame>& frames = fan.frames;
  std::vector<FrameNote>& notes = fan.notes;
  std::vector<transport::SendReceipt>& receipts = fan.receipts;

  // One frame per destination, all windows of `value` until the delta
  // layer narrows them: the live view in elastic mode (suspects included
  // — they are still presumed members until the grace period expires),
  // every other rank otherwise.
  frames.clear();
  auto add_frame = [&](std::uint32_t dst) {
    transport::Frame& f = frames.emplace_back();
    f.dst = dst;
    f.header.block = b;
    f.header.tag = tag;
    f.header.round = round_;
    f.header.partial = partial;
    f.value = value;
  };
  if (ctx_.membership != nullptr) {
    for (const std::uint32_t dst : ctx_.membership->table().live_ranks())
      if (dst != id_) add_frame(dst);
  } else {
    const std::uint32_t peers =
        static_cast<std::uint32_t>(ctx_.options->workers);
    for (std::uint32_t dst = 0; dst < peers; ++dst)
      if (dst != id_) add_frame(dst);
  }
  notes.assign(frames.size(), FrameNote{});
  if (wire.delta) {
    std::vector<DeltaSlot>& slots = delta_[b];
    if (slots.empty()) slots.resize(ctx_.options->workers);
    // Codec payloads differ per link and must all stay alive until the
    // publish: one block-width slot per frame, sized up front.
    const std::size_t slot_width = wire.quant_bits != 0 ? value.size() : 0;
    fan.codec.resize(frames.size() * slot_width);
    for (std::size_t i = 0; i < frames.size(); ++i)
      encode_delta(frames[i], notes[i], slots[frames[i].dst], value,
                   std::span<double>(fan.codec)
                       .subspan(i * slot_width, slot_width),
                   partial);
  }
  receipts.resize(frames.size());
  endpoint_->publish(value, frames, t, allow_drop, receipts);

  for (std::size_t i = 0; i < frames.size(); ++i) {
    const transport::Frame& f = frames[i];
    const FrameNote& note = notes[i];
    const transport::SendReceipt& receipt = receipts[i];
    const std::uint32_t dst = f.dst;
    const std::uint64_t sent =
        transport::wire_frame_bytes(f.value.size(), f.header.quant_bits);
    stats_.bytes_sent_raw += transport::frame_bytes(value.size());
    stats_.bytes_sent_wire += sent;
    if (note.full)
      ++stats_.wire_frames_full;
    else if (note.heartbeat)
      ++stats_.wire_frames_heartbeat;
    else
      ++stats_.wire_frames_delta;
    if (f.header.quant_bits != 0) ++stats_.wire_frames_codec;
    if (receipt.sent && note.slot != nullptr) {
      // The slot mirrors what the receiver now holds — update it only
      // when the frame actually left (a dropped frame leaves the
      // receiver, and therefore the slot, unchanged).
      DeltaSlot& slot = *note.slot;
      if (note.full) {
        slot.last.assign(f.value.begin(), f.value.end());
        slot.valid = true;
        slot.sends_since_refresh = 0;
        slot.rx_epoch = block_rx_epoch_[b];
      } else {
        ++slot.sends_since_refresh;
        if (!note.heartbeat)
          std::copy(f.value.begin(), f.value.end(),
                    slot.last.begin() + f.header.offset);
      }
    }
    if (obs::tracing_full()) {
      if (receipt.sent)
        obs::record(obs::EventType::kFrameSend,
                    static_cast<std::uint8_t>(f.header.kind), dst, tag,
                    double(sent));
      else
        obs::record(obs::EventType::kFrameDrop,
                    static_cast<std::uint8_t>(f.header.kind), dst, tag, 0.0);
    }
    if (trace_budget_ > 0) {
      --trace_budget_;
      log_.add_message({id_, dst, b, partial, !receipt.sent, receipt.t_send,
                        receipt.deliver_at, tag});
    }
  }
  if (partial) ++stats_.partials_sent;
}

void Peer::encode_delta(transport::Frame& f, FrameNote& note,
                        DeltaSlot& slot, std::span<const double> value,
                        std::span<double> codec_out, bool partial) {
  const WireOptions& wire = ctx_.options->wire;
  note.slot = &slot;
  // A full refresh re-anchors the link: first contact, ownership churn
  // on the block since the slot was anchored (the receiver's copy may
  // predate our adoption), or the periodic resync that bounds how long a
  // lost delta can linger as drift.
  note.full = !slot.valid || slot.rx_epoch != block_rx_epoch_[f.header.block] ||
              slot.sends_since_refresh + 1 >= wire.refresh_every;
  if (note.full) return;
  std::size_t lo = 0, hi = value.size();
  const la::Vector& last = slot.last;
  while (lo < hi && value[lo] == last[lo]) ++lo;
  while (hi > lo && value[hi - 1] == last[hi - 1]) --hi;
  if (lo == hi) {
    // Nothing changed since the last frame on this link: send a
    // zero-width heartbeat so the tag/round stream (and the chaos draw
    // sequence — one draw per frame) is unchanged.
    note.heartbeat = true;
    f.header.offset = 0;
    f.value = {};
  } else {
    std::size_t off = lo, len = hi - lo;
    if (wire.topk != 0 && len > wire.topk) {
      const transport::codec::Window w = transport::codec::best_window(
          value.subspan(lo, len),
          std::span<const double>(last).subspan(lo, len), wire.topk);
      off = lo + w.offset;
      len = w.count;
    }
    f.header.offset = static_cast<std::uint32_t>(off);
    f.value = value.subspan(off, len);
  }
  f.header.partial = true;
  // The frame replacing a full-width publish keeps its round-accounting
  // weight; a frame that was partial anyway (flexible-mode early
  // publish) stays weightless.
  f.header.complete = !partial;
  if (wire.quant_bits != 0 && !f.value.empty()) {
    // Quantize delta ranges only: full-width refresh frames always carry
    // exact doubles, so accumulated compression error is wiped at every
    // resync and the steady-state noise floor is set by ONE
    // inter-refresh window of delta steps (~ payload range * 2^-bits per
    // frame), never by unbounded drift. Components that go exactly
    // stationary stop paying it entirely (their frames degenerate to
    // heartbeats); the stopping tolerance of a lossy run must still sit
    // above the floor of the components that keep moving.
    // Round-trip the payload onto the quantization lattice BEFORE the
    // publish: every backend (inproc/simnet share these doubles, TCP
    // re-quantizes exactly since they sit on lattice points) delivers
    // bit-identical values, and the slot tracks what the receiver
    // actually holds.
    const std::span<double> q = codec_out.first(f.value.size());
    std::copy(f.value.begin(), f.value.end(), q.begin());
    const transport::codec::QuantParams qp =
        transport::codec::choose_quant_params(q, wire.quant_bits);
    transport::codec::roundtrip(q, qp, wire.quant_bits);
    f.header.quant_bits = static_cast<std::uint8_t>(wire.quant_bits);
    f.header.quant_min = qp.min;
    f.header.quant_scale = qp.scale;
    f.value = q;
  }
}

void Peer::broadcast_stop() {
  transport::MessageHeader header;
  header.kind = transport::MsgKind::kStop;
  const double t = now();
  if (ctx_.membership != nullptr) {
    for (const std::uint32_t dst : ctx_.membership->table().live_ranks()) {
      if (dst == id_) continue;
      endpoint_->send(dst, header, {}, t, /*allow_drop=*/false);
    }
    return;
  }
  const std::uint32_t peers =
      static_cast<std::uint32_t>(ctx_.options->workers);
  for (std::uint32_t dst = 0; dst < peers; ++dst) {
    if (dst == id_) continue;
    endpoint_->send(dst, header, {}, t, /*allow_drop=*/false);
  }
}

bool Peer::all_others_inactive() const {
  const membership::MembershipTable& table = ctx_.membership->table();
  for (std::uint32_t r = 0; r < ctx_.options->workers; ++r) {
    if (r == id_ || stopped_ranks_[r]) continue;
    const membership::MemberState s = table.state(r);
    if (s == membership::MemberState::kAlive ||
        s == membership::MemberState::kSuspect)
      return false;
  }
  return true;
}

void Peer::recompute_owned() {
  const la::Partition& partition = ctx_.op->partition();
  const std::vector<std::uint32_t>& live =
      ctx_.membership->table().live_ranks();
  // Self is always in its own live view; blocks are re-assigned over the
  // SORTED live ranks, so every rank with the same view computes the
  // same assignment. Transient view disagreement (gossip in flight) only
  // double-assigns or orphans blocks briefly — both are plain staleness
  // under the totally asynchronous convergence theory.
  const auto it = std::lower_bound(live.begin(), live.end(), id_);
  ASYNCIT_CHECK(it != live.end() && *it == id_);
  const std::size_t index = static_cast<std::size_t>(it - live.begin());
  const std::size_t workers =
      std::min(live.size(), partition.num_blocks());
  if (index >= workers) {
    // More live ranks than blocks: the surplus ranks idle (receive-only).
    elastic_owned_.clear();
    return;
  }
  const auto assignment =
      la::assign_blocks_contiguous(partition.num_blocks(), workers);
  elastic_owned_ = assignment[index];
}

void Peer::send_snapshot_to(std::uint32_t dst) {
  // Welcome a joiner with a DISJOINT slice of the iterate: every
  // established rank runs the same deterministic plan over the same
  // sorted live view, so each block reaches the joiner exactly once
  // instead of once per surviving owner of a stale assignment. Blocks we
  // own but the plan routes through someone else are counted as
  // suppressed duplicates. (Plain kValue frames — the receiver needs no
  // special path.)
  const la::Partition& partition = ctx_.op->partition();
  const double t = now();
  snapshot_plan_ =
      snapshot_plan(partition.num_blocks(),
                    ctx_.membership->table().live_ranks(), id_, dst);
  for (const la::BlockId b : owned_blocks()) {
    if (std::find(snapshot_plan_.begin(), snapshot_plan_.end(), b) ==
        snapshot_plan_.end())
      ++stats_.snapshot_blocks_suppressed;
  }
  for (const la::BlockId b : snapshot_plan_) {
    transport::MessageHeader header;
    header.block = b;
    // We may be forwarding a block we do not own: beat nothing, just
    // ship the newest value we have SEEN at the tag we saw it under.
    header.tag = std::max(production_[b], view_.tags[b]);
    header.round = round_;
    const auto value =
        partition.block_span(std::span<const double>(view_.x), b);
    endpoint_->send(dst, header, value, t, /*allow_drop=*/false);
    obs::record(obs::EventType::kFrameSend,
                static_cast<std::uint8_t>(header.kind), dst, header.tag,
                double(value.size() * sizeof(double)));
    ++stats_.snapshot_blocks_sent;
  }
}

void Peer::service_membership() {
  membership::SwimAgent* agent = ctx_.membership;
  if (agent == nullptr) return;
  agent->tick(now());
  if (!agent->outbox().empty()) {
    const double t = now();
    for (const membership::ControlFrame& f : agent->outbox()) {
      transport::MessageHeader header;
      header.kind = f.kind;
      header.block = f.target;
      header.tag = f.seq;
      obs::record(obs::EventType::kProbe, static_cast<std::uint8_t>(f.kind),
                  f.dst, f.seq, 0.0);
      // allow_drop=true: the DEFAULT DeliveryPolicy spares control
      // frames anyway (drop_control=false); flipping the flag turns the
      // chaos loss model into a failure-detector stress test.
      endpoint_->send(f.dst, header, f.payload, t, /*allow_drop=*/true);
    }
    agent->outbox().clear();
  }
  events_scratch_.clear();
  agent->drain_events(events_scratch_);
  for (const membership::Event& e : events_scratch_) {
    obs::record(obs::EventType::kMembership,
                static_cast<std::uint8_t>(e.kind), e.rank, e.incarnation,
                0.0);
    if (e.kind == membership::EventKind::kJoined && e.rank != id_)
      send_snapshot_to(e.rank);  // pre-re-assignment owned set: the
                                 // established ranks jointly cover x
  }
  if (owned_epoch_ != agent->table().epoch()) {
    owned_epoch_ = agent->table().epoch();
    recompute_owned();
    ++stats_.reassignments;
    // A death may complete the live-view termination condition for a
    // rank with no local criterion (everyone else stopped or died).
    const bool has_local_criterion =
        ctx_.options->solve.x_star.has_value() ||
        ctx_.options->solve.displacement_tol > 0.0;
    if (ctx_.node_mode && !has_local_criterion && all_others_inactive())
      trip_stop(obs::StopReason::kLiveViewDone);
  }
}

void Peer::update_block(la::BlockId b, std::size_t reps,
                        std::span<const double> compute_view) {
  const MpOptions& opt = *ctx_.options;
  const la::Partition& partition = ctx_.op->partition();
  const la::BlockRange r = partition.range(b);
  phase_out_.resize(r.size());
  const double t_start = now();

  const bool flexible =
      opt.solve.publish_partials && opt.solve.mode != Mode::kBsp && opt.solve.inner_steps > 1;
  const std::size_t inner = opt.solve.mode == Mode::kBsp ? 1 : opt.solve.inner_steps;

  // Displacement of this phase = movement of the block across the phase.
  phase_prev_.assign(view_.x.begin() + static_cast<std::ptrdiff_t>(r.begin),
                     view_.x.begin() + static_cast<std::ptrdiff_t>(r.end));

  for (std::size_t t = 0; t < inner; ++t) {
    for (std::size_t rep = 0; rep < reps; ++rep)
      ctx_.op->apply_block(b, compute_view, phase_out_, ws_);
    std::copy(phase_out_.begin(), phase_out_.end(),
              view_.x.begin() + static_cast<std::ptrdiff_t>(r.begin));
    if (flexible && t + 1 < inner) {
      send_block(b, /*partial=*/true);
      receive();  // incorporate mid-phase arrivals (Definition 3)
    }
  }
  send_block(b, /*partial=*/false);

  // Publish to the monitoring plane (never read by compute).
  ctx_.monitor->store_block(r.begin, phase_out_);
  std::atomic_ref<double>((*ctx_.last_displacement)[b])
      .store(la::dist2(phase_out_, phase_prev_), std::memory_order_relaxed);

  ++local_step_;
  obs::record(obs::EventType::kBlockUpdate, flexible ? 1 : 0,
              static_cast<std::uint32_t>(b), local_step_, now() - t_start);
  if (auditor_ != nullptr) {
    // Audit bridge: own step j updates S_j = {b} ∪ {blocks a remote
    // incorporation changed since step j-1}; every component was last
    // changed at a step <= j-1, so l(j) = min over last_changed_ gives
    // the condition a–d auditors the measured local schedule.
    const model::Step j = local_step_;
    model::Step l_min = audit_last_changed_[0];
    for (const model::Step s : audit_last_changed_) l_min = std::min(l_min, s);
    audit_updated_.clear();
    audit_pending_[b] = 1;
    for (std::size_t i = 0; i < audit_pending_.size(); ++i) {
      if (!audit_pending_[i]) continue;
      audit_pending_[i] = 0;
      audit_updated_.push_back(static_cast<la::BlockId>(i));
      audit_last_changed_[i] = j;
    }
    auditor_->record_step(audit_updated_, l_min);
    if (steer_ != nullptr &&
        local_step_ % ctx_.options->solve.adaptive.decide_every == 0) {
      // Measured signal in ROUNDS: the auditor's delay bound counts own
      // steps (one per block phase), the gate slack counts sweeps over
      // the owned set — divide by the sweep length to convert.
      const double owned_n =
          static_cast<double>(std::max<std::size_t>(1, (*ctx_.owned)[id_].size()));
      steer_->decide(static_cast<double>(auditor_->d_bound()) / owned_n,
                     obs::SteeringDomain::kNetSsp);
    }
  }
  if (trace_budget_ > 0) {
    --trace_budget_;
    log_.add_phase({id_, b, t_start, now(), local_step_});
  }
}

bool Peer::wait_for_rounds(std::uint64_t needed) {
  const std::uint32_t peers =
      static_cast<std::uint32_t>(ctx_.options->workers);
  bool first_pass = true;
  while (!stopped()) {
    // Enforce the wall budget INSIDE the gate: a rank whose awaited
    // peer died without a stop frame would otherwise wait forever —
    // maybe_check only runs between updates, and in node mode there is
    // no monitor thread to trip the flag (the threaded orchestrator
    // does, but checking here keeps both paths honest).
    if (now() > ctx_.options->solve.max_seconds) {
      trip_stop(obs::StopReason::kWallBudget);
      return false;
    }
    const std::uint64_t seen = endpoint_->activity();
    receive();
    bool satisfied = true;
    for (std::uint32_t src = 0; src < peers; ++src) {
      if (src == id_) continue;
      if (complete_rounds_[src] < needed) {
        satisfied = false;
        break;
      }
    }
    if (satisfied) return true;
    if (first_pass) {
      // The gate actually blocks this sweep (not satisfied from what was
      // already drained) — the stall the adaptive bound exists to avoid.
      first_pass = false;
      ++stats_.gate_stalls;
    }
    // Sleep until the next pending delivery matures, new data arrives,
    // or the poll bound expires (keeps the stop flag responsive).
    const double t = now();
    const double next = endpoint_->next_delivery();
    double timeout = kMaxGateWait;
    if (next > t) timeout = std::min(timeout, next - t);
    endpoint_->wait_for_activity(seen, std::max(timeout, 1e-5));
  }
  return false;
}

void Peer::maybe_check(std::uint64_t own_updates) {
  const MpOptions& opt = *ctx_.options;
  if (own_updates % opt.solve.check_every != 0) return;
  if (now() > opt.solve.max_seconds) {
    trip_stop(obs::StopReason::kWallBudget);
    return;
  }
  // In node mode only this rank's counter is visible here, so the update
  // budget is per-rank; the threaded orchestrator sums all peers.
  std::uint64_t total = 0;
  for (const auto& u : *ctx_.updates)
    total += u.load(std::memory_order_relaxed);
  if (total >= opt.solve.max_updates) {
    trip_stop(obs::StopReason::kUpdateBudget);
    return;
  }
  if (ctx_.node_mode && !stopped() &&
      own_updates % (opt.solve.check_every * kNodeStopCheckFactor) == 0) {
    // The peer's private view is the only full iterate this process has;
    // evaluate the stopping criterion on it directly. With an oracle,
    // stop below tol in the weighted max norm; without one, fall back to
    // the residual certificate of the displacement rule.
    bool hit = false;
    if (opt.solve.x_star.has_value()) {
      hit = ctx_.norm != nullptr &&
            ctx_.norm->distance(view_.x, *opt.solve.x_star) < opt.solve.tol;
    } else if (opt.solve.displacement_tol > 0.0) {
      hit = op::max_block_residual(*ctx_.op, view_.x, ws_) <
            opt.solve.displacement_tol;
    }
    if (hit) {
      broadcast_stop();
      trip_stop(opt.solve.x_star.has_value() ? obs::StopReason::kOracle
                                       : obs::StopReason::kDisplacement);
      return;
    }
  }
  if (cpu_timer_.seconds() > rt::kYieldPeriod) {
    cpu_timer_.reset();
    std::this_thread::yield();
  }
}

void Peer::run() {
  // The constructor ran on the orchestrator thread; rebase the per-thread
  // CPU clock here so yield pacing measures THIS thread's consumption.
  cpu_timer_.reset();
  const MpOptions& opt = *ctx_.options;
  const bool elastic = ctx_.membership != nullptr;
  const std::size_t reps = rt::slowdown_repetitions(opt.worker_slowdown, id_);
  std::uint64_t own_updates = 0;

  while (!stopped()) {
    if (opt.solve.mode != Mode::kAsync && round_ > 0) {
      // Re-read the slack every sweep: with adaptive staleness the
      // controller moves it between sweeps (staleness_bound() is the
      // static option when steering is off; kBsp is always 0).
      const std::uint64_t slack =
          opt.solve.mode == Mode::kBsp ? 0 : staleness_bound();
      const std::uint64_t needed = round_ > slack ? round_ - slack : 0;
      if (!wait_for_rounds(needed)) break;
    }
    receive();
    // The owned set may change UNDER the sweep (a receive() inside
    // update_block can re-run the assignment), so each sweep iterates a
    // stable copy; adopted blocks join the next sweep.
    if (elastic) sweep_owned_ = owned_blocks();
    const std::vector<la::BlockId>& owned =
        elastic ? sweep_owned_ : (*ctx_.owned)[id_];
    if (owned.empty()) {
      // Receive-only rank (more live ranks than blocks): keep the
      // detector and the stop checks alive without spinning.
      const std::uint64_t seen = endpoint_->activity();
      maybe_check(own_updates);
      if (!stopped()) endpoint_->wait_for_activity(seen, kMaxGateWait);
      continue;
    }
    std::span<const double> compute_view(view_.x);
    if (opt.solve.mode == Mode::kBsp) {
      snapshot_ = view_.x;  // frozen per-round view: exact Jacobi
      compute_view = snapshot_;
    }
    for (la::BlockId b : owned) {
      update_block(b, reps, compute_view);
      ++own_updates;
      (*ctx_.updates)[id_].fetch_add(1, std::memory_order_relaxed);
      maybe_check(own_updates);
      if (stopped()) break;
      if (opt.solve.mode != Mode::kBsp) receive();
    }
    ++round_;
  }
  // Frames still held back for a round that never came are consumed by
  // the exit: their payload references go back like any other.
  if (!holdback_.empty()) endpoint_->recycle(holdback_);
}

void Peer::fold_into(MpResult& result) const {
  result += stats_;
  result.inversions_observed += view_.inversions;
  result.stale_filtered += view_.stale_filtered;
  if (steer_) result.steering_decisions += steer_->decisions();
  result.staleness_at_exit =
      std::max(result.staleness_at_exit, staleness_bound());
  if (ctx_.membership != nullptr)
    result.membership += ctx_.membership->stats();
  for (std::uint32_t src = 0; src < link_delays_.size(); ++src) {
    if (link_delays_[src].count() == 0) continue;
    result.link_delays.push_back({src, id_, link_delays_[src]});
  }
  if (auditor_ != nullptr) result.admissibility.push_back(auditor_->report());
  result.messages_sent += endpoint_->sent();
  result.messages_dropped += endpoint_->dropped();
  result.messages_delivered += endpoint_->delivered();
  result.delays.merge(endpoint_->delays());
}

}  // namespace asyncit::net
