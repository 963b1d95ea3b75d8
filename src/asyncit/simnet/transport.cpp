#include "asyncit/simnet/transport.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "asyncit/support/check.hpp"
#include "asyncit/transport/wire.hpp"

namespace asyncit::simnet {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// splitmix64 finalizer — the standard bit mixer, used to derive
/// independent per-link / per-rank seeds and the asymmetry skew from the
/// master seed without maintaining O(world^2) generator state.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Domain-separation salts so link streams, compute streams and the
// asymmetry hash never collide for any (seed, rank) combination.
constexpr std::uint64_t kLinkSalt = 0x6c696e6b5f73696dull;     // "link_sim"
constexpr std::uint64_t kComputeSalt = 0x636f6d705f73696dull;  // "comp_sim"
constexpr std::uint64_t kSkewSalt = 0x736b65775f73696dull;     // "skew_sim"

}  // namespace

SimTransport::SimTransport(std::size_t world, const SimConfig& config,
                           std::uint64_t seed, SimEngine* engine)
    : config_(config), seed_(seed), engine_(engine) {
  ASYNCIT_CHECK(world >= 1);
  const TopologyConfig& topo = config_.topology;
  ASYNCIT_CHECK(topo.latency >= 0.0 && topo.jitter >= 0.0);
  ASYNCIT_CHECK(topo.drop_prob >= 0.0 && topo.drop_prob < 1.0);
  ASYNCIT_CHECK(topo.bandwidth >= 0.0);
  ASYNCIT_CHECK(topo.regions >= 1 && topo.cross_region >= 0.0);
  ASYNCIT_CHECK(config_.compute.phase >= 0.0 &&
                config_.compute.jitter >= 0.0 &&
                config_.compute.jitter <= 1.0);
  for (const PartitionWindow& w : topo.partitions)
    ASYNCIT_CHECK_MSG(w.t1 >= w.t0, "partition window ends before it starts");
  endpoints_.reserve(world);
  for (std::size_t src = 0; src < world; ++src) {
    auto ep = std::make_unique<SimEndpoint>();
    ep->owner_ = this;
    ep->rank_ = static_cast<std::uint32_t>(src);
    ep->links_.reserve(world);
    for (std::size_t dst = 0; dst < world; ++dst)
      ep->links_.emplace_back(mix64(seed ^ kLinkSalt) ^
                              mix64(src * world + dst));
    if (topo.fifo) ep->fifo_floor_.assign(world, 0.0);
    ep->compute_rng_.reseed(mix64(seed ^ kComputeSalt) ^ mix64(src));
    const std::uint32_t every = config_.compute.straggler_every;
    // Ranks every-1, 2*every-1, ... straggle (never rank 0: the train
    // stack's parameter server lives there and a straggling server would
    // measure a different phenomenon than straggling workers).
    if (every > 0 && (ep->rank_ % every) == every - 1)
      ep->straggler_ = config_.compute.straggler_factor;
    endpoints_.push_back(std::move(ep));
  }
}

std::vector<std::uint32_t> SimTransport::local_ranks() const {
  std::vector<std::uint32_t> ranks(endpoints_.size());
  for (std::size_t i = 0; i < ranks.size(); ++i)
    ranks[i] = static_cast<std::uint32_t>(i);
  return ranks;
}

transport::Endpoint& SimTransport::endpoint(std::uint32_t rank) {
  ASYNCIT_CHECK(rank < endpoints_.size());
  return *endpoints_[rank];
}

std::uint64_t SimTransport::partition_dropped() const {
  std::uint64_t n = 0;
  for (const auto& ep : endpoints_) n += ep->partition_dropped_;
  return n;
}

std::uint64_t SimTransport::payload_doubles_copied() const {
  std::uint64_t n = 0;
  for (const auto& ep : endpoints_) n += ep->copied_;
  return n;
}

std::size_t SimTransport::slabs_outstanding() const {
  std::size_t n = 0;
  for (const auto& ep : endpoints_) n += ep->slabs_.outstanding();
  return n;
}

double SimTransport::base_latency(std::uint32_t s, std::uint32_t d) const {
  const TopologyConfig& topo = config_.topology;
  double base = topo.latency;
  if (topo.regions > 1 && (s % topo.regions) != (d % topo.regions))
    base *= topo.cross_region;
  if (topo.asymmetry != 0.0) {
    // Deterministic per-directed-link skew in [-1, 1): (s, d) and (d, s)
    // hash independently, so routes are asymmetric like real WAN paths.
    const std::uint64_t h =
        mix64(seed_ ^ kSkewSalt) ^
        mix64(std::uint64_t(s) * endpoints_.size() + d);
    const double u =
        double(h >> 11) * (1.0 / 9007199254740992.0) * 2.0 - 1.0;
    base *= 1.0 + topo.asymmetry * u;
  }
  return std::max(base, 0.0);
}

double SimEndpoint::compute_draw() {
  const ComputeModel& c = owner_->config_.compute;
  return c.phase * compute_rng_.uniform(1.0 - c.jitter, 1.0 + c.jitter) *
         straggler_;
}

transport::SendReceipt SimEndpoint::send(
    std::uint32_t dst, const transport::MessageHeader& header,
    std::span<const double> value, double now, bool allow_drop) {
  const transport::Frame frame{dst, header, value};
  transport::SendReceipt receipt;
  publish(value, {&frame, 1}, now, allow_drop, {&receipt, 1});
  return receipt;
}

void SimEndpoint::publish(std::span<const double> base,
                          std::span<const transport::Frame> frames,
                          double now, bool allow_drop,
                          std::span<transport::SendReceipt> receipts) {
  ASYNCIT_CHECK(receipts.size() == frames.size());
  SimEngine* engine = owner_->engine_;
  const double t = engine != nullptr ? engine->now() : now;
  const TopologyConfig& topo = owner_->config_.topology;
  transport::StagedPublish staged(slabs_, base, frames);
  std::uint32_t refs = 0;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const transport::Frame& f = frames[i];
    const std::uint32_t dst = f.dst;
    ASYNCIT_CHECK(dst < owner_->endpoints_.size() && dst != rank_);
    ++sent_;
    receipts[i] = transport::SendReceipt{false, t, 0.0};
    // A severed link loses everything crossing the cut, control frames
    // included — that IS the modelled failure, so allow_drop does not
    // apply. Checked before the loss-model draws: a partitioned link
    // carries no traffic, so it consumes no draws (the per-link stream
    // is a function of the frames the link actually carried).
    bool cut = false;
    for (const PartitionWindow& w : topo.partitions)
      cut = cut || (t >= w.t0 && t < w.t1 &&
                    (rank_ < w.boundary) != (dst < w.boundary));
    if (cut) {
      ++dropped_;
      ++partition_dropped_;
      continue;
    }
    // Fixed per-frame draw order (latency, then drop if drop_prob > 0),
    // consumed regardless of outcome — LinkStamper's replay-determinism
    // contract.
    Rng& link = links_[dst];
    const double jitter_mult =
        link.uniform(1.0 - topo.jitter, 1.0 + topo.jitter);
    const bool drop_draw =
        topo.drop_prob > 0.0 && link.bernoulli(topo.drop_prob);
    const bool droppable =
        allow_drop &&
        (!transport::is_control(f.header.kind) || topo.drop_control);
    if (drop_draw && droppable) {
      ++dropped_;
      continue;
    }
    double latency =
        std::max(owner_->base_latency(rank_, dst) * jitter_mult, 0.0);
    if (topo.bandwidth > 0.0) {
      // Serialization delay charged at the frame's TRUE wire size (the
      // TCP framing: header + payload, quantized frames at their packed
      // size) plus a notional 8-byte transport overhead — for raw
      // full-width frames this is exactly the historical 8*count + 64
      // bytes, so existing sweeps replay unchanged, while delta/codec
      // frames pay what they would actually cost on a real link.
      latency += (double(transport::wire_frame_bytes(
                      f.value.size(), f.header.quant_bits)) +
                  8.0) /
                 topo.bandwidth;
    }
    double deliver_at = t + latency;
    if (!fifo_floor_.empty()) {
      deliver_at = std::max(deliver_at, fifo_floor_[dst]);
      fifo_floor_[dst] = deliver_at;
    }
    Pending p;
    p.seq = owner_->next_seq_++;
    transport::Message& m = p.msg;
    m.src = rank_;
    m.block = f.header.block;
    m.tag = f.header.tag;
    m.round = f.header.round;
    m.partial = f.header.partial;
    m.complete = f.header.complete;
    m.kind = f.header.kind;
    m.offset = f.header.offset;
    m.injected_delay = f.header.injected_delay;  // chaos latency rides along
    m.t_send = t;
    m.deliver_at = deliver_at;
    m.value = staged.window(f.value);
    if (!m.value.empty()) {
      m.slab = staged.slab();
      ++refs;
    }
    SimEndpoint& station = *owner_->endpoints_[dst];
    station.pending_.push_back(p);
    station.next_ = std::min(station.next_, deliver_at);
    ++station.activity_;
    if (engine != nullptr) {
      // Low 16 bits of the sender identify the waker in the event log.
      engine->wake(dst, deliver_at, static_cast<std::uint16_t>(rank_));
    }
    receipts[i] = transport::SendReceipt{true, t, deliver_at};
  }
  // One carrier thread: no receiver runs before the publish ends, so
  // the frame references are taken in one step (the stage drops the
  // publisher's own reference on return).
  if (refs > 0) transport::retain(staged.slab(), refs);
  copied_ += staged.copied();
}

std::size_t SimEndpoint::drain(double now,
                               std::vector<transport::Message>& out) {
  if (next_ > now) return 0;
  // Partition: unmatured entries stay in front (their order is
  // irrelevant — drains sort), matured ones collect at the back and are
  // sorted into the heap's (deliver_at, seq) pop order.
  std::size_t keep = 0;
  double next = kInf;
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    if (pending_[i].msg.deliver_at > now) {
      next = std::min(next, pending_[i].msg.deliver_at);
      if (keep != i) std::swap(pending_[keep], pending_[i]);
      ++keep;
    }
  }
  const auto first = pending_.begin() + static_cast<std::ptrdiff_t>(keep);
  std::sort(first, pending_.end(), PendingEarlier{});
  for (auto it = first; it != pending_.end(); ++it) {
    delays_.add(now - it->msg.t_send);
    out.push_back(it->msg);
  }
  const std::size_t n = pending_.size() - keep;
  pending_.resize(keep);
  next_ = next;
  delivered_ += n;
  return n;
}

std::size_t SimEndpoint::receive(double now,
                                 std::vector<transport::Message>& out) {
  SimEngine* engine = owner_->engine_;
  if (engine != nullptr && engine->in_fiber()) {
    // Virtual time moves HERE: one compute draw per drain, charged
    // before maturity is evaluated, so frames landing inside the phase
    // are visible at its end and a bare gate poll still advances the
    // clock (guaranteed progress for wait loops).
    engine->advance(compute_draw());
    return drain(engine->now(), out);
  }
  return drain(now, out);
}

void SimEndpoint::recycle(std::vector<transport::Message>& consumed) {
  transport::release_all(consumed);
}

void SimEndpoint::wait_for_activity(std::uint64_t seen,
                                    double timeout_seconds) {
  if (activity_ > seen) return;
  SimEngine* engine = owner_->engine_;
  if (engine != nullptr && engine->in_fiber()) {
    engine->wait_until(engine->now() + std::max(timeout_seconds, 0.0));
  }
  // Passive mode: no thread to wait on — scripted drivers poll.
}

double SimEndpoint::next_delivery() const { return next_; }

}  // namespace asyncit::simnet
