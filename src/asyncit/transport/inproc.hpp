// In-process backend: seeded delay-model channels behind the Transport
// interface.
//
// Each sender stamps its frames with a per-directed-link LinkStamper and
// posts them into the receiver's mailbox: a HoldQueue (transport/
// delivery.hpp) behind a mutex, a condition variable and a post counter,
// so many sender threads feed one receiver. The RNG streams are derived
// from the master seed in a fixed (src, dst) row-major order and each
// send performs the same draws in the same order, so the latency/drop
// sequence of every link is a pure function of (seed, link, message
// index) — the channel replay-determinism tests pin it.
//
// Publishing: publish() copies the payload once into a slab from the
// SENDER's pool and posts one header per destination into the
// destination mailboxes; the receivers' recycle() drops the references
// and the last one returns the slab to the sender's pool. send() is a
// one-frame publish.
//
// delays() measures post-to-drain (injected latency + scheduling).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "asyncit/transport/delivery.hpp"
#include "asyncit/transport/pool.hpp"
#include "asyncit/transport/transport.hpp"

namespace asyncit::transport {

class InprocTransport;

class InprocEndpoint final : public Endpoint {
 public:
  std::uint32_t rank() const override { return rank_; }
  SendReceipt send(std::uint32_t dst, const MessageHeader& header,
                   std::span<const double> value, double now,
                   bool allow_drop) override;
  void publish(std::span<const double> base, std::span<const Frame> frames,
               double now, bool allow_drop,
               std::span<SendReceipt> receipts) override;
  std::size_t receive(double now, std::vector<Message>& out) override;
  void recycle(std::vector<Message>& consumed) override;
  std::uint64_t activity() const override;
  void wait_for_activity(std::uint64_t seen,
                         double timeout_seconds) override;
  double next_delivery() const override;
  std::uint64_t sent() const override;
  std::uint64_t dropped() const override;
  std::uint64_t delivered() const override;
  obs::Histogram delays() const override;

 private:
  friend class InprocTransport;
  InprocTransport* owner_ = nullptr;
  std::uint32_t rank_ = 0;
  bool drop_control_ = false;  ///< DeliveryPolicy::drop_control
  /// Per-destination stampers, owned and used by this endpoint's peer
  /// thread alone (the replay-determinism contract of LinkStamper).
  std::vector<LinkStamper> links_;
  SlabPool slabs_;  ///< this sender's publish payloads

  // This rank's mailbox: every sender thread posts into it, this
  // endpoint's peer thread drains it.
  void post(const Message& m);
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t posted_ = 0;  ///< guarded by mu_
  HoldQueue held_;            ///< guarded by mu_
};

class InprocTransport final : public Transport {
 public:
  /// Seeds one RNG stream per directed link from `seed` in (src, dst)
  /// row-major order, including the unused self-link draws (the chaos
  /// decorator derives its streams identically).
  InprocTransport(std::size_t world, const DeliveryPolicy& policy,
                  std::uint64_t seed);

  std::size_t world() const override { return endpoints_.size(); }
  std::vector<std::uint32_t> local_ranks() const override;
  Endpoint& endpoint(std::uint32_t rank) override;
  const char* backend() const override { return "inproc"; }

  /// Payload slabs not yet returned to their senders' pools (0 once
  /// every delivered frame has been recycled).
  std::size_t slabs_outstanding() const;

 private:
  friend class InprocEndpoint;
  std::vector<std::unique_ptr<InprocEndpoint>> endpoints_;  ///< by rank
};

}  // namespace asyncit::transport
