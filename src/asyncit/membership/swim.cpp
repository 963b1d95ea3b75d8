#include "asyncit/membership/swim.hpp"

#include <algorithm>
#include <cmath>

#include "asyncit/support/check.hpp"

namespace asyncit::membership {

namespace {

/// How many live peers an urgent update is broadcast to directly (the
/// gossip piggyback carries it everywhere else).
constexpr std::size_t kUrgentFanout = 3;

/// A proxy probe nobody answered is forgotten after this many ping
/// timeouts (the requester has long since moved to suspicion).
constexpr double kProxyExpiryFactor = 4.0;

bool integral_in(double v, double max_inclusive) {
  return v >= 0.0 && v <= max_inclusive && v == std::floor(v);
}

}  // namespace

void encode_gossip(const std::vector<MembershipUpdate>& updates,
                   std::vector<double>& out) {
  out.clear();
  out.reserve(updates.size() * 3);
  for (const MembershipUpdate& u : updates) {
    out.push_back(static_cast<double>(u.rank));
    out.push_back(static_cast<double>(static_cast<std::uint8_t>(u.state)));
    out.push_back(static_cast<double>(u.incarnation));
  }
}

bool decode_gossip(std::span<const double> payload, std::size_t world,
                   std::vector<MembershipUpdate>& out) {
  out.clear();
  if (payload.size() % 3 != 0) return false;
  out.reserve(payload.size() / 3);
  for (std::size_t i = 0; i < payload.size(); i += 3) {
    const double rank = payload[i];
    const double state = payload[i + 1];
    // Incarnations stay exactly representable far beyond any realistic
    // churn count (2^53); reject anything outside that band.
    const double inc = payload[i + 2];
    if (!integral_in(rank, static_cast<double>(world) - 1.0) ||
        !integral_in(state, 2.0) || !integral_in(inc, 9.0e15)) {
      out.clear();
      return false;
    }
    out.push_back({static_cast<std::uint32_t>(rank),
                   static_cast<MemberState>(static_cast<std::uint8_t>(state)),
                   static_cast<std::uint64_t>(inc)});
  }
  return true;
}

SwimAgent::SwimAgent(std::uint32_t self, std::size_t world,
                     const Options& options, std::uint64_t seed,
                     std::uint64_t incarnation)
    : table_(self, world, options.suspicion_timeout, options.initial_alive,
             incarnation),
      options_(options),
      // Decorrelate from the problem/chaos streams AND from the other
      // ranks (probe order must differ per rank or everyone pings the
      // same victim in lockstep).
      rng_(seed ^ (0x5157494dULL + self)),
      last_contact_(world, 0.0) {
  ASYNCIT_CHECK(options.ping_period > 0.0);
  ASYNCIT_CHECK(options.ping_timeout > 0.0);
  ASYNCIT_CHECK(options.suspicion_timeout >= options.ping_timeout);
}

void SwimAgent::push_frame(std::uint32_t dst, transport::MsgKind kind,
                           std::uint32_t target, std::uint64_t seq) {
  ControlFrame f;
  f.dst = dst;
  f.kind = kind;
  f.target = target;
  f.seq = seq;
  table_.collect_gossip(options_.max_piggyback, dst, gossip_scratch_);
  encode_gossip(gossip_scratch_, f.payload);
  outbox_.push_back(std::move(f));
  Stats& s = table_.stats();
  switch (kind) {
    case transport::MsgKind::kPing: ++s.pings_sent; break;
    case transport::MsgKind::kAck: ++s.acks_sent; break;
    case transport::MsgKind::kPingReq: ++s.ping_reqs_sent; break;
    case transport::MsgKind::kMembershipUpdate: ++s.gossip_frames_sent; break;
    default: break;
  }
}

void SwimAgent::heard_from(std::uint32_t src, double now) {
  if (src < last_contact_.size()) last_contact_[src] = now;
}

void SwimAgent::on_frame(const transport::Message& m, double now) {
  heard_from(m.src, now);
  if (!decode_gossip(m.value, table_.world(), decode_scratch_)) {
    ++table_.stats().control_rejected;
    return;
  }
  for (const MembershipUpdate& u : decode_scratch_) table_.apply(u, now);

  switch (m.kind) {
    case transport::MsgKind::kPing:
      // Answer with our own rank as the target so direct and forwarded
      // acks look identical to the prober.
      push_frame(m.src, transport::MsgKind::kAck, table_.self(), m.tag);
      break;
    case transport::MsgKind::kAck: {
      ++table_.stats().acks_received;
      const std::uint32_t target = m.block;
      std::erase_if(probes_, [&](const Probe& p) {
        return p.target == target && p.seq == m.tag;
      });
      heard_from(target, now);
      // A proxy ping we issued for someone else: forward the good news.
      for (std::size_t i = 0; i < proxies_.size(); ++i) {
        const ProxyProbe& px = proxies_[i];
        if (px.target == target && px.proxy_seq == m.tag) {
          push_frame(px.requester, transport::MsgKind::kAck, target,
                     px.requester_seq);
          proxies_.erase(proxies_.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        }
      }
      break;
    }
    case transport::MsgKind::kPingReq: {
      const std::uint32_t target = m.block;
      if (target >= table_.world() || target == table_.self()) {
        ++table_.stats().control_rejected;
        break;
      }
      const std::uint64_t proxy_seq = ++seq_;
      proxies_.push_back({m.src, m.tag, target, proxy_seq, now});
      push_frame(target, transport::MsgKind::kPing, target, proxy_seq);
      break;
    }
    case transport::MsgKind::kMembershipUpdate:
      break;  // pure gossip carrier, already applied above
    default:
      ++table_.stats().control_rejected;  // kValue/kStop never route here
      break;
  }
}

std::uint32_t SwimAgent::next_probe_target(double now) {
  const std::vector<std::uint32_t>& live = table_.live_ranks();
  const std::uint32_t self = table_.self();
  const auto world = static_cast<std::uint32_t>(table_.world());
  if (live.size() <= 1) return world;  // nobody else to probe
  for (std::size_t attempts = 0; attempts < live.size() + 1; ++attempts) {
    if (probe_cursor_ >= probe_order_.size() ||
        probe_epoch_ != table_.epoch()) {
      probe_order_.assign(live.begin(), live.end());
      std::erase(probe_order_, self);
      rng_.shuffle(probe_order_);
      probe_cursor_ = 0;
      probe_epoch_ = table_.epoch();
      if (probe_order_.empty()) return world;
    }
    const std::uint32_t candidate = probe_order_[probe_cursor_++];
    if (table_.state(candidate) == MemberState::kDead) continue;
    // Data traffic within the last period already proves liveness; save
    // the probe for the quiet members (unless the full cadence is on).
    if (!options_.probe_busy_members &&
        now - last_contact_[candidate] < options_.ping_period &&
        table_.state(candidate) == MemberState::kAlive)
      continue;
    return candidate;
  }
  return world;
}

void SwimAgent::broadcast_update(double now) {
  (void)now;
  const std::vector<std::uint32_t>& live = table_.live_ranks();
  std::size_t sent = 0;
  // live_ranks is sorted; start at a random offset so repeated urgent
  // broadcasts from many ranks do not all converge on the low ranks.
  const std::size_t n = live.size();
  const std::size_t start = n ? rng_.uniform_index(n) : 0;
  for (std::size_t i = 0; i < n && sent < kUrgentFanout; ++i) {
    const std::uint32_t dst = live[(start + i) % n];
    if (dst == table_.self()) continue;
    push_frame(dst, transport::MsgKind::kMembershipUpdate, dst, 0);
    ++sent;
  }
}

void SwimAgent::tick(double now) {
  table_.tick(now);

  // Escalate unanswered probes: indirect after one timeout, suspicion
  // after two.
  for (std::size_t i = 0; i < probes_.size();) {
    Probe& p = probes_[i];
    if (table_.state(p.target) == MemberState::kDead) {
      probes_.erase(probes_.begin() + static_cast<std::ptrdiff_t>(i));
      continue;
    }
    if (!p.indirect_sent && now - p.sent_at >= options_.ping_timeout) {
      p.indirect_sent = true;
      const std::vector<std::uint32_t>& live = table_.live_ranks();
      std::size_t sent = 0;
      const std::size_t n = live.size();
      const std::size_t start = n ? rng_.uniform_index(n) : 0;
      for (std::size_t k = 0; k < n && sent < options_.ping_req_fanout;
           ++k) {
        const std::uint32_t helper = live[(start + k) % n];
        if (helper == table_.self() || helper == p.target) continue;
        push_frame(helper, transport::MsgKind::kPingReq, p.target, p.seq);
        ++sent;
      }
    }
    if (now - p.sent_at >= 2.0 * options_.ping_timeout) {
      table_.suspect(p.target, now);
      probes_.erase(probes_.begin() + static_cast<std::ptrdiff_t>(i));
      continue;
    }
    ++i;
  }
  std::erase_if(proxies_, [&](const ProxyProbe& px) {
    return now - px.started >= kProxyExpiryFactor * options_.ping_timeout;
  });

  // Next probe.
  if (now >= next_ping_at_) {
    // Catch up without bursting when the peer was busy computing.
    next_ping_at_ = std::max(next_ping_at_ + options_.ping_period,
                             now + 0.5 * options_.ping_period);
    const std::uint32_t target = next_probe_target(now);
    if (target < table_.world()) {
      const std::uint64_t seq = ++seq_;
      probes_.push_back({target, seq, now, false});
      push_frame(target, transport::MsgKind::kPing, target, seq);
    }
  }

  if (table_.urgent_pending()) {
    table_.clear_urgent();
    broadcast_update(now);
  }
}

}  // namespace asyncit::membership
