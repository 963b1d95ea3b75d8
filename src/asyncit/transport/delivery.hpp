// The paper's delay model, shared by the inproc backend and the chaos
// decorator (DESIGN.md §6).
//
// Latency, ordering and loss are injected at the sending LINK
// (LinkStamper), so the delay process is a deterministic function of the
// seed and the per-link message count: two runs with the same seed draw
// identical latency/drop sequences on every link no matter how the OS
// schedules the threads. Frames then wait in the receiver's HoldQueue and
// are released in deliver_at order, which is NOT send order on non-FIFO
// links: a frame sent later can carry a smaller latency and overtake its
// predecessor — a genuine label inversion on real hardware.
//
// Delays are MEASURED, not assumed: the queue records drain time minus
// t_send of every released frame in an obs::Histogram (injected latency
// plus scheduling delay — the quantity the paper's unbounded-delay
// assumptions are about).
#pragma once

#include <cstdint>
#include <vector>

#include "asyncit/obs/histogram.hpp"
#include "asyncit/support/rng.hpp"
#include "asyncit/transport/message.hpp"

namespace asyncit::transport {

/// Per-link delivery behaviour (latency, ordering, loss).
struct DeliveryPolicy {
  /// Injected latency is uniform in [min_latency, max_latency] seconds.
  /// Zero-zero means immediate visibility (still via the hold queue).
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

/// The preconditions of every route into the delay model: a valid
/// latency interval and drop_prob < 1 (drop_prob == 1 would starve a run
/// into its wall budget with no diagnostic).
void check_policy(const DeliveryPolicy& policy);

/// Sender-side stamping of one directed link (src -> dst). Owns its RNG
/// stream, so the sequence of (latency, drop) draws for a link depends only
/// on the seed and the link's message count — the replay-determinism
/// anchor of the whole runtime. Owned and used by a single sender thread;
/// not thread-safe by design.
class LinkStamper {
 public:
  LinkStamper(DeliveryPolicy policy, std::uint64_t seed)
      : policy_(policy), rng_(seed) {}

  /// Stamps t_send and deliver_at (and applies the FIFO floor). Returns
  /// false when the message was dropped (caller must not deliver it).
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

/// Frames waiting for their deliver_at. A min-heap on (deliver_at,
/// arrival seq): equal release times drain first come, first served.
/// Random per-frame latencies insert anywhere in the backlog (rate x
/// latency frames), so a sorted vector would pay O(backlog) per push; a
/// flooded receiver then drains slower than frames arrive. Not
/// thread-safe: the owner serialises access.
class HoldQueue {
 public:
  void push(const Message& m);

  /// Appends every frame with deliver_at <= now to `out` in (deliver_at,
  /// arrival) order, records now - t_send of each in delays(), and
  /// returns the number released.
  std::size_t drain(double now, std::vector<Message>& out);

  /// Earliest deliver_at among held frames (+inf when empty).
  double next_delivery() const;
  std::size_t size() const { return heap_.size(); }
  std::uint64_t delivered() const { return delivered_; }
  const obs::Histogram& delays() const { return delays_; }

 private:
  struct Held {
    std::uint64_t seq;
    Message m;
  };
  std::vector<Held> heap_;
  std::uint64_t seq_ = 0;
  std::uint64_t delivered_ = 0;
  obs::Histogram delays_;
};

}  // namespace asyncit::transport
