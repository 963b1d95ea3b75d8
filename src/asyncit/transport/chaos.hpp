// Chaos decorator: the paper's delay/reorder/drop models over ANY backend.
//
// Wraps another Transport and injects a DeliveryPolicy at the frame
// level, so the delay-model experiments that previously only ran on
// in-process mailboxes run unchanged over real sockets:
//
//   latency   drawn sender-side from the per-directed-link seeded RNG
//             stream (same (src, dst) row-major seed derivation as the
//             inproc backend, so chaos-over-tcp draws the exact latency/
//             drop sequences that inproc draws for the same master seed)
//             and carried on the wire in Message::injected_delay; the
//             RECEIVE side holds each frame until the injected latency
//             has elapsed past its arrival — additive to whatever the
//             physical medium did;
//   reorder   emerges exactly as in the paper: a later frame with a
//             smaller draw matures earlier (non-FIFO links), producing
//             genuine label inversions over TCP;
//   fifo      optional in-order floor, applied at the receiver per source
//             link (TCP preserves per-link frame order, so flooring the
//             scheduled release reproduces sender-side FIFO);
//   drop      decided sender-side (deterministic per link), the frame is
//             simply never submitted to the inner backend.
//
// Held frames wait in the same HoldQueue (transport/delivery.hpp) the
// inproc mailboxes use, so both release in (deliver_at, arrival) order.
// delays() measures first-seen-to-drain at the receiver: injected hold
// plus scheduling, the interval the unbounded-delay assumptions of the
// paper are about. A ChaosEndpoint is driven by its single peer thread
// (same contract as every Endpoint); the inner endpoint handles service
// threads.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "asyncit/transport/delivery.hpp"
#include "asyncit/transport/transport.hpp"

namespace asyncit::transport {

class ChaosTransport;

class ChaosEndpoint final : public Endpoint {
 public:
  std::uint32_t rank() const override;
  SendReceipt send(std::uint32_t dst, const MessageHeader& header,
                   std::span<const double> value, double now,
                   bool allow_drop) override;
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
  friend class ChaosTransport;

  Endpoint* inner_ = nullptr;
  bool drop_control_ = false;  ///< DeliveryPolicy::drop_control
  std::vector<LinkStamper> links_;  ///< per destination
  HoldQueue held_;                  ///< frames awaiting maturity
  std::vector<Message> staging_;    ///< inner drain scratch
  std::vector<double> fifo_floor_;  ///< per SOURCE link release floor
  bool fifo_ = false;
};

class ChaosTransport final : public Transport {
 public:
  /// Decorates `inner` (not owned; must outlive this transport) with
  /// `policy`, seeding per-directed-link streams from `seed` exactly like
  /// InprocTransport does.
  ChaosTransport(Transport& inner, const DeliveryPolicy& policy,
                 std::uint64_t seed);

  std::size_t world() const override { return inner_->world(); }
  std::vector<std::uint32_t> local_ranks() const override {
    return inner_->local_ranks();
  }
  Endpoint& endpoint(std::uint32_t rank) override;
  const char* backend() const override { return "chaos"; }
  void flush(double timeout_seconds) override {
    inner_->flush(timeout_seconds);
  }
  std::uint64_t bad_frames() const override { return inner_->bad_frames(); }

 private:
  Transport* inner_;
  std::vector<std::unique_ptr<ChaosEndpoint>> endpoints_;  ///< by rank
};

}  // namespace asyncit::transport
