// In-process backend: the seeded mailbox channels behind the Transport
// interface.
//
// This is the PR-1 net:: channel machinery (net::Mailbox delivery-order
// queues, net::LinkStamper per-directed-link latency/drop stamping)
// verbatim, relocated from the peer loop into an Endpoint. The RNG
// streams are derived from the master seed in the exact (src, dst)
// row-major order the old run_message_passing used, and each send
// performs the same draws in the same order, so the latency/drop sequence
// of every link is byte-for-byte the pre-transport one — the channel
// replay-determinism tests hold across the refactor.
//
// Publishing: publish() copies the payload once into a slab from the
// SENDER's pool and posts one header per destination into the
// destination mailboxes; the receivers' recycle() drops the references
// and the last one returns the slab to the sender's pool. send() is a
// one-frame publish.
//
// delays() measures post-to-drain (injected latency + scheduling), as
// before.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "asyncit/net/channel.hpp"
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
  std::size_t receive(double now, std::vector<net::Message>& out) override;
  void recycle(std::vector<net::Message>& consumed) override;
  std::uint64_t activity() const override;
  void wait_for_activity(std::uint64_t seen,
                         double timeout_seconds) override;
  double next_delivery() const override;
  std::uint64_t sent() const override;
  std::uint64_t dropped() const override;
  std::uint64_t delivered() const override;
  net::DelayHistogram delays() const override;

 private:
  friend class InprocTransport;
  InprocTransport* owner_ = nullptr;
  std::uint32_t rank_ = 0;
  bool drop_control_ = false;  ///< DeliveryPolicy::drop_control
  /// Per-destination stampers, owned and used by this endpoint's peer
  /// thread alone (the replay-determinism contract of net::LinkStamper).
  std::vector<net::LinkStamper> links_;
  SlabPool slabs_;  ///< this sender's publish payloads
};

class InprocTransport final : public Transport {
 public:
  /// Seeds one RNG stream per directed link from `seed` in (src, dst)
  /// row-major order — identical derivation to the pre-transport
  /// orchestrator, including the unused self-link draws.
  InprocTransport(std::size_t world, const net::DeliveryPolicy& policy,
                  std::uint64_t seed);

  std::size_t world() const override { return mailboxes_.size(); }
  std::vector<std::uint32_t> local_ranks() const override;
  Endpoint& endpoint(std::uint32_t rank) override;
  const char* backend() const override { return "inproc"; }

  /// Payload slabs not yet returned to their senders' pools (0 once
  /// every delivered frame has been recycled).
  std::size_t slabs_outstanding() const;

 private:
  friend class InprocEndpoint;
  std::vector<std::unique_ptr<net::Mailbox>> mailboxes_;  ///< by receiver
  std::vector<std::unique_ptr<InprocEndpoint>> endpoints_;
};

}  // namespace asyncit::transport
