#include "asyncit/transport/delivery.hpp"

#include <algorithm>
#include <limits>

#include "asyncit/support/check.hpp"

namespace asyncit::transport {

void check_policy(const DeliveryPolicy& policy) {
  ASYNCIT_CHECK(policy.min_latency >= 0.0 &&
                policy.max_latency >= policy.min_latency);
  ASYNCIT_CHECK(policy.drop_prob >= 0.0 && policy.drop_prob < 1.0);
}

// ----------------------------------------------------------- LinkStamper

bool LinkStamper::stamp(Message& m, double now, bool allow_drop) {
  ++stamped_;
  // Always consume the same number of draws per message so the sequence
  // stays aligned across replays regardless of mode flags.
  const double latency =
      rng_.uniform(policy_.min_latency, policy_.max_latency);
  const bool drop =
      policy_.drop_prob > 0.0 && rng_.bernoulli(policy_.drop_prob);
  m.t_send = now;
  m.deliver_at = now + latency;
  if (policy_.fifo) {
    m.deliver_at = std::max(m.deliver_at, last_deliver_at_);
    last_deliver_at_ = m.deliver_at;
  }
  if (drop && allow_drop) {
    ++dropped_;
    return false;
  }
  return true;
}

// ------------------------------------------------------------- HoldQueue

namespace {
template <typename Held>
bool later(const Held& a, const Held& b) {
  return a.m.deliver_at != b.m.deliver_at ? a.m.deliver_at > b.m.deliver_at
                                          : a.seq > b.seq;
}
}  // namespace

void HoldQueue::push(const Message& m) {
  heap_.push_back({seq_++, m});
  std::push_heap(heap_.begin(), heap_.end(), later<Held>);
}

std::size_t HoldQueue::drain(double now, std::vector<Message>& out) {
  std::size_t n = 0;
  while (!heap_.empty() && heap_.front().m.deliver_at <= now) {
    std::pop_heap(heap_.begin(), heap_.end(), later<Held>);
    const Message& m = heap_.back().m;
    delays_.add(now - m.t_send);
    out.push_back(m);
    heap_.pop_back();
    ++n;
  }
  delivered_ += n;
  return n;
}

double HoldQueue::next_delivery() const {
  return heap_.empty() ? std::numeric_limits<double>::infinity()
                       : heap_.front().m.deliver_at;
}

}  // namespace asyncit::transport
