// Mailbox channels for the in-process message-passing runtime.
//
// Where sim/ *simulates* channels in virtual time, net/ runs them on real
// threads: every block value travels as a tagged Message posted into the
// receiver's Mailbox and becomes visible only once its injected delivery
// time has passed. Latency, ordering, and loss are injected at the sending
// LINK (LinkStamper) so that the delay process is a deterministic function
// of the seed and the per-link message count — two runs with the same seed
// draw identical latency/drop sequences on every link no matter how the
// OS schedules the worker threads. Delivery-side reordering (non-FIFO
// links) then produces genuine out-of-order arrivals on real hardware:
// a message sent later can carry a smaller injected latency and overtake
// its predecessor, which the receiver observes as a label inversion.
//
// Delays are MEASURED, not assumed: every drained message records the wall
// clock interval between post and drain in a DelayHistogram (injected
// latency + scheduling delay — the quantity the paper's unbounded-delay
// assumptions are about).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "asyncit/linalg/partition.hpp"
#include "asyncit/linalg/vector_ops.hpp"
#include "asyncit/model/history.hpp"
#include "asyncit/support/rng.hpp"

namespace asyncit::transport {
struct PayloadSlab;  // transport/pool.hpp
}  // namespace asyncit::transport

namespace asyncit::net {

/// What a message carries. Almost everything is a block value; everything
/// else is a CONTROL frame riding the same path: kStop is a rank
/// announcing that it met its stopping criterion and is leaving, and the
/// kPing/kAck/kPingReq/kMembershipUpdate quartet is the SWIM failure
/// detector of membership/ (elastic ranks). Control frames reuse the
/// value header with repurposed fields — see membership/swim.hpp.
enum class MsgKind : std::uint8_t {
  kValue = 0,
  kStop = 1,
  kPing = 2,              ///< direct liveness probe (tag = sequence)
  kAck = 3,               ///< probe answer (block = answered target)
  kPingReq = 4,           ///< indirect probe request (block = target)
  kMembershipUpdate = 5,  ///< dedicated gossip broadcast
};
inline constexpr std::uint8_t kNumMsgKinds = 6;

inline constexpr bool is_control(MsgKind k) { return k != MsgKind::kValue; }

/// A block value in flight between two peers. Trivially copyable: the
/// payload is a view into a refcounted slab (see transport/pool.hpp), so
/// queues move headers, never doubles.
struct Message {
  std::uint32_t src = 0;        ///< sending peer
  la::BlockId block = 0;        ///< which block the payload is
  model::Step tag = 0;          ///< sender's production counter for `block`
  std::uint64_t round = 0;      ///< sender's phase/round index when sent
  bool partial = false;         ///< mid-phase partial update (Definition 3)
  /// Partial-range frame that finishes the sender's round anyway (the
  /// delta layer ships only changed coordinates, so the "whole block
  /// arrived" signal gated modes need travels as this flag instead).
  bool complete = false;
  MsgKind kind = MsgKind::kValue;
  /// Coordinate offset of the payload within the block: a partial-block
  /// frame carries value.size() <= block size coordinates starting here
  /// (flexible communication at sub-block granularity). 0 + full size for
  /// whole-block messages.
  std::uint32_t offset = 0;
  /// Latency injected by the chaos transport decorator, in seconds. Rides
  /// the wire so the receive side of a REAL link can hold the frame for
  /// the sender-drawn (seed-deterministic) delay. 0 outside chaos.
  double injected_delay = 0.0;
  double t_send = 0.0;          ///< wall seconds (runtime clock) at post
  double deliver_at = 0.0;      ///< t_send + injected latency
  /// The payload: a window of the sender's publish slab (inproc, simnet)
  /// or of a receive-side decode slab (tcp). Valid until the message is
  /// recycled through its Endpoint.
  std::span<const double> value;
  /// Storage behind `value`; recycling drops this frame's reference.
  /// Null for payload-less frames (heartbeats, control frames).
  transport::PayloadSlab* slab = nullptr;
};

/// Per-link delivery behaviour (latency, ordering, loss).
struct DeliveryPolicy {
  /// Injected latency is uniform in [min_latency, max_latency] seconds.
  /// Zero-zero means immediate visibility (still via the mailbox).
  double min_latency = 0.0;
  double max_latency = 0.0;
  /// Enforce per-link in-order delivery: each message's delivery time is
  /// floored at the previous message's on the same link. false (default)
  /// allows overtaking — the out-of-order regime of the paper.
  bool fifo = false;
  /// Probability that a message is lost in transit. Only honoured in the
  /// totally asynchronous mode (SSP/BSP gate on complete rounds and would
  /// deadlock without retransmission, which net/ does not model).
  double drop_prob = 0.0;
  /// By default the loss model spares CONTROL frames (MsgKind != kValue):
  /// a lost kStop would wedge a gated rank forever and lost membership
  /// frames would turn every chaos run into false-positive soup — the
  /// iteration theory licenses dropping VALUES (a fresher one follows),
  /// not protocol signals. Set true to subject control frames to the
  /// drop model anyway (failure-detector stress testing). The drop draw
  /// is consumed either way, so value-stream replay determinism is
  /// unaffected by the flag.
  bool drop_control = false;
};

/// Log-spaced histogram of measured per-message delays (seconds).
class DelayHistogram {
 public:
  DelayHistogram();

  void add(double delay_seconds);
  void merge(const DelayHistogram& other);

  std::uint64_t count() const { return count_; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return max_; }
  double mean() const { return count_ ? sum_ / double(count_) : 0.0; }
  /// Approximate quantile (upper edge of the bucket holding rank p*count).
  double quantile(double p) const;
  /// Named quantiles exported through the node/cluster JSON (schema
  /// asyncit-node/2); max() above completes the set.
  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }

  /// Bucket upper edges (seconds) and counts, for serialization.
  const std::vector<double>& edges() const { return edges_; }
  const std::vector<std::uint64_t>& counts() const { return counts_; }

 private:
  std::vector<double> edges_;  ///< upper edges, log-spaced; last = +inf
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Sender-side stamping of one directed link (src -> dst). Owns its RNG
/// stream, so the sequence of (latency, drop) draws for a link depends only
/// on the seed and the link's message count — the replay-determinism
/// anchor of the whole runtime. Owned and used by a single sender thread;
/// not thread-safe by design.
class LinkStamper {
 public:
  LinkStamper(DeliveryPolicy policy, std::uint64_t seed)
      : policy_(policy), rng_(seed) {}

  /// Stamps deliver_at (and applies the FIFO floor). Returns false when
  /// the message was dropped (caller must not post it).
  bool stamp(Message& m, double now, bool allow_drop);

  std::uint64_t stamped() const { return stamped_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  DeliveryPolicy policy_;
  Rng rng_;
  double last_deliver_at_ = 0.0;  ///< FIFO floor
  std::uint64_t stamped_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Multi-producer single-consumer mailbox. Producers post stamped
/// messages; the consumer drains every message whose deliver_at has
/// passed, in deliver_at order (which is NOT post order on non-FIFO
/// links). A condition variable lets coordination modes (BSP/SSP) sleep
/// until something new can possibly be ready instead of spinning.
class Mailbox {
 public:
  void post(Message m);

  /// Moves every message with deliver_at <= now into `out` (appended, in
  /// deliver_at order) and records its measured delay. Returns the number
  /// delivered.
  std::size_t drain(double now, std::vector<Message>& out);

  /// Blocks until the post counter exceeds `seen_posted` or
  /// `timeout_seconds` passes. The caller reads posted() BEFORE its last
  /// drain and passes it here, so a post landing between drain and wait
  /// can never be slept through (no lost wakeup).
  void wait_for_post(std::uint64_t seen_posted, double timeout_seconds);

  /// Earliest deliver_at among pending messages (+inf when empty).
  double next_delivery() const;

  std::uint64_t posted() const;
  std::uint64_t delivered() const;
  const DelayHistogram& delays() const { return delays_; }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  // Min-heap on deliver_at (lazy: a sorted insert into a vector keeps the
  // code simple; mailboxes hold few messages at a time).
  std::vector<Message> pending_;
  std::uint64_t posted_ = 0;
  std::uint64_t delivered_ = 0;
  DelayHistogram delays_;
};

}  // namespace asyncit::net
