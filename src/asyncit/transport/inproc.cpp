#include "asyncit/transport/inproc.hpp"

#include "asyncit/support/check.hpp"
#include "asyncit/support/rng.hpp"

namespace asyncit::transport {

InprocTransport::InprocTransport(std::size_t world,
                                 const net::DeliveryPolicy& policy,
                                 std::uint64_t seed) {
  ASYNCIT_CHECK(world >= 1);
  ASYNCIT_CHECK(policy.min_latency >= 0.0 &&
                policy.max_latency >= policy.min_latency);
  ASYNCIT_CHECK(policy.drop_prob >= 0.0 && policy.drop_prob < 1.0);
  mailboxes_.reserve(world);
  for (std::size_t i = 0; i < world; ++i)
    mailboxes_.push_back(std::make_unique<net::Mailbox>());
  // One independent RNG stream per directed link, derived in the fixed
  // (src, dst) row-major order of the pre-transport orchestrator: the
  // latency/drop draw sequence of every link stays a pure function of
  // (seed, link, message index).
  Rng seeder(seed);
  endpoints_.reserve(world);
  for (std::size_t src = 0; src < world; ++src) {
    endpoints_.push_back(std::make_unique<InprocEndpoint>());
    InprocEndpoint& ep = *endpoints_.back();
    ep.owner_ = this;
    ep.rank_ = static_cast<std::uint32_t>(src);
    ep.drop_control_ = policy.drop_control;
    ep.links_.reserve(world);
    for (std::size_t dst = 0; dst < world; ++dst)
      ep.links_.emplace_back(policy, seeder.next());
  }
}

std::vector<std::uint32_t> InprocTransport::local_ranks() const {
  std::vector<std::uint32_t> ranks(mailboxes_.size());
  for (std::size_t i = 0; i < ranks.size(); ++i)
    ranks[i] = static_cast<std::uint32_t>(i);
  return ranks;
}

Endpoint& InprocTransport::endpoint(std::uint32_t rank) {
  ASYNCIT_CHECK(rank < endpoints_.size());
  return *endpoints_[rank];
}

std::size_t InprocTransport::slabs_outstanding() const {
  std::size_t n = 0;
  for (const auto& ep : endpoints_) n += ep->slabs_.outstanding();
  return n;
}

SendReceipt InprocEndpoint::send(std::uint32_t dst,
                                 const MessageHeader& header,
                                 std::span<const double> value, double now,
                                 bool allow_drop) {
  const Frame frame{dst, header, value};
  SendReceipt receipt;
  publish(value, {&frame, 1}, now, allow_drop, {&receipt, 1});
  return receipt;
}

void InprocEndpoint::publish(std::span<const double> base,
                             std::span<const Frame> frames, double now,
                             bool allow_drop,
                             std::span<SendReceipt> receipts) {
  ASYNCIT_CHECK(receipts.size() == frames.size());
  StagedPublish staged(slabs_, base, frames);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const Frame& f = frames[i];
    ASYNCIT_CHECK(f.dst < owner_->mailboxes_.size() && f.dst != rank_);
    net::Message m;
    m.src = rank_;
    m.block = f.header.block;
    m.tag = f.header.tag;
    m.round = f.header.round;
    m.partial = f.header.partial;
    m.complete = f.header.complete;
    m.kind = f.header.kind;
    m.offset = f.header.offset;
    m.injected_delay = f.header.injected_delay;  // chaos latency rides along
    // The loss model spares control frames unless the stress flag opts
    // them in; the stamper consumes its drop draw regardless, so the
    // per-link draw sequence (replay determinism) is kind-independent.
    const bool droppable =
        allow_drop && (!net::is_control(f.header.kind) || drop_control_);
    const bool sent = links_[f.dst].stamp(m, now, droppable);
    receipts[i] = SendReceipt{sent, m.t_send, m.deliver_at};
    if (!sent) continue;
    m.value = staged.window(f.value);
    if (!m.value.empty()) {
      // The reference is taken BEFORE the post: the receiver may drain
      // and recycle the frame the instant it lands.
      m.slab = staged.slab();
      retain(m.slab);
    }
    owner_->mailboxes_[f.dst]->post(m);
  }
}

std::size_t InprocEndpoint::receive(double now,
                                    std::vector<net::Message>& out) {
  return owner_->mailboxes_[rank_]->drain(now, out);
}

void InprocEndpoint::recycle(std::vector<net::Message>& consumed) {
  release_all(consumed);
}

std::uint64_t InprocEndpoint::activity() const {
  return owner_->mailboxes_[rank_]->posted();
}

void InprocEndpoint::wait_for_activity(std::uint64_t seen,
                                       double timeout_seconds) {
  owner_->mailboxes_[rank_]->wait_for_post(seen, timeout_seconds);
}

double InprocEndpoint::next_delivery() const {
  return owner_->mailboxes_[rank_]->next_delivery();
}

std::uint64_t InprocEndpoint::sent() const {
  std::uint64_t n = 0;
  for (const net::LinkStamper& l : links_) n += l.stamped();
  return n;
}

std::uint64_t InprocEndpoint::dropped() const {
  std::uint64_t n = 0;
  for (const net::LinkStamper& l : links_) n += l.dropped();
  return n;
}

std::uint64_t InprocEndpoint::delivered() const {
  return owner_->mailboxes_[rank_]->delivered();
}

net::DelayHistogram InprocEndpoint::delays() const {
  return owner_->mailboxes_[rank_]->delays();
}

}  // namespace asyncit::transport
