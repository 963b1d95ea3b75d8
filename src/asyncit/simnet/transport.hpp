// Virtual-time backend: the WAN topology of config.hpp behind the
// transport::Transport interface (DESIGN.md §10).
//
// Delivery order is (deliver_at, global send seq) — the same (time,
// seq) deterministic tie-break as the engine's event queue, so delivery
// order is a pure function of (config, seed). Each destination keeps an
// append-only vector of trivially-copyable entries; a drain partitions
// it at `now` and sorts only the matured part by (deliver_at, seq), the
// same total order a heap would pop in. Each frame's latency is
// base(s, d) * jitter_draw + serialization, where
// base(s, d) is COMPUTED from (latency, regions, cross_region, asymmetry)
// rather than stored: the only per-link state is the jitter/drop RNG
// stream (32 B) and, with fifo, the in-order floor — O(world) per
// endpoint instead of an O(world^2) matrix of doubles.
//
// Two drive modes per endpoint:
//
//   engine-driven  (a SimEngine fiber calls receive()): receive() first
//       charges one per-rank compute draw via SimEngine::advance() —
//       the peer loop drains once per update phase, so the draw IS the
//       phase cost, and a bare poll is charged the same draw (a poll
//       occupies a scheduling slot) — then drains frames matured against
//       the post-advance clock. This is what makes virtual time move:
//       every pass through any peer loop advances the clock, so gate
//       polls always make progress and wait_for_activity() never spins
//       at a frozen instant.
//
//   passive  (no engine, or called off-fiber): receive() is a plain
//       drain against the caller's `now`, and wait_for_activity()
//       returns immediately. This is the scripted mode the cross-backend
//       parity tests drive from one thread.
//
// Time source: with an engine attached, send/receive use engine->now()
// (the peer's SimClock reads the same value); the caller's `now` is used
// only in passive mode.
//
// Publishing mirrors inproc: publish() copies the payload once into a
// slab from the SENDER's pool, every delivered frame is a view into it,
// and the receivers' recycle() drops the references. send() is a
// one-frame publish, so the per-frame draw order, wake order and seq
// order of a publish are exactly those of the same frames sent in turn.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "asyncit/net/channel.hpp"
#include "asyncit/simnet/config.hpp"
#include "asyncit/simnet/engine.hpp"
#include "asyncit/transport/pool.hpp"
#include "asyncit/transport/transport.hpp"

namespace asyncit::simnet {

class SimTransport;

class SimEndpoint final : public transport::Endpoint {
 public:
  std::uint32_t rank() const override { return rank_; }
  transport::SendReceipt send(std::uint32_t dst,
                              const transport::MessageHeader& header,
                              std::span<const double> value, double now,
                              bool allow_drop) override;
  void publish(std::span<const double> base,
               std::span<const transport::Frame> frames, double now,
               bool allow_drop,
               std::span<transport::SendReceipt> receipts) override;
  std::size_t receive(double now, std::vector<net::Message>& out) override;
  void recycle(std::vector<net::Message>& consumed) override;
  std::uint64_t activity() const override { return activity_; }
  void wait_for_activity(std::uint64_t seen,
                         double timeout_seconds) override;
  double next_delivery() const override;
  std::uint64_t sent() const override { return sent_; }
  std::uint64_t dropped() const override { return dropped_; }
  std::uint64_t delivered() const override { return delivered_; }
  net::DelayHistogram delays() const override { return delays_; }

  /// Frames dropped by an active PartitionWindow cut (subset of
  /// dropped()). Partition drops ignore allow_drop: a severed link loses
  /// control frames too — that is the failure being modelled.
  std::uint64_t partition_dropped() const { return partition_dropped_; }

 private:
  friend class SimTransport;

  struct Pending {
    std::uint64_t seq = 0;  ///< transport-global send counter (tie-break)
    net::Message msg;
  };
  struct PendingEarlier {
    bool operator()(const Pending& a, const Pending& b) const {
      if (a.msg.deliver_at != b.msg.deliver_at)
        return a.msg.deliver_at < b.msg.deliver_at;
      return a.seq < b.seq;
    }
  };

  /// One virtual compute-phase cost draw for this rank.
  double compute_draw();
  /// Moves matured frames (deliver_at <= now) to `out` in (deliver_at,
  /// seq) order.
  std::size_t drain(double now, std::vector<net::Message>& out);

  SimTransport* owner_ = nullptr;
  std::uint32_t rank_ = 0;
  /// Jitter/drop stream per destination, consumed in fixed per-frame
  /// order (latency draw, then drop draw if drop_prob > 0) so the draw
  /// sequence of a link depends only on the seed and its frame count.
  std::vector<Rng> links_;
  std::vector<double> fifo_floor_;  ///< per destination; empty unless fifo
  Rng compute_rng_{0};
  double straggler_ = 1.0;  ///< this rank's compute multiplier

  // Receive side. Single-threaded by construction (one carrier: either
  // the engine thread or the scripted test thread), so plain counters.
  std::vector<Pending> pending_;  ///< unordered; drain sorts the matured
  double next_ = std::numeric_limits<double>::infinity();  ///< min pending
  transport::SlabPool slabs_;  ///< this sender's publish payloads
  std::uint64_t copied_ = 0;   ///< payload doubles staged into slabs
  std::uint64_t activity_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t partition_dropped_ = 0;
  std::uint64_t delivered_ = 0;
  net::DelayHistogram delays_;
};

class SimTransport final : public transport::Transport {
 public:
  /// All `world` ranks are local. `engine` may be null (passive mode);
  /// when set, it must outlive the transport and frames wake blocked
  /// destination fibers at their delivery time.
  SimTransport(std::size_t world, const SimConfig& config,
               std::uint64_t seed, SimEngine* engine);

  std::size_t world() const override { return endpoints_.size(); }
  std::vector<std::uint32_t> local_ranks() const override;
  transport::Endpoint& endpoint(std::uint32_t rank) override;
  const char* backend() const override { return "sim"; }

  std::uint64_t partition_dropped() const;

  /// Payload doubles copied into publish slabs across all senders: one
  /// copy of each publish's base (plus codec payloads), never one per
  /// destination — what c14's one_copy_per_publish gate checks.
  std::uint64_t payload_doubles_copied() const;

  /// Payload slabs not yet returned to their senders' pools (0 once
  /// every delivered frame has been recycled).
  std::size_t slabs_outstanding() const;

  /// Deterministic base one-way latency of directed link s -> d (no
  /// jitter, no serialization): latency * region multiplier * the
  /// per-link asymmetry skew hashed from the seed. Exposed for tests.
  double base_latency(std::uint32_t s, std::uint32_t d) const;

 private:
  friend class SimEndpoint;

  SimConfig config_;
  std::uint64_t seed_ = 0;
  SimEngine* engine_ = nullptr;
  std::uint64_t next_seq_ = 0;  ///< global send counter (delivery ties)
  std::vector<std::unique_ptr<SimEndpoint>> endpoints_;
};

}  // namespace asyncit::simnet
