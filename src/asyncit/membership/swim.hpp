// The SWIM probing protocol over the transport control-frame path.
//
// SwimAgent turns the deterministic MembershipTable into a live failure
// detector. It owns NO thread and NO socket: the single peer thread that
// drives a transport::Endpoint calls on_frame() for every received
// control message and tick() from its service loop, then drains outbox()
// and puts each ControlFrame on the wire itself (net::Peer does exactly
// this in Peer::service_membership). That keeps the endpoint threading
// contract intact and makes the whole protocol schedulable in tests.
//
// Probe cycle (one per Options::ping_period, randomized round-robin over
// the other live members):
//
//   kPing(seq)            direct probe; the receiver answers kAck(seq)
//                         with its own rank in the target field.
//   kPingReq(seq,target)  after ping_timeout without the direct ack, ask
//                         ping_req_fanout helpers to probe target for us;
//                         a helper pings with a proxy sequence number and
//                         forwards the ack back as kAck(seq,target).
//   suspect               no direct or indirect ack within
//                         2 x ping_timeout: the table starts the
//                         suspicion grace period (gossiped); the target
//                         refutes by incarnation bump if it is alive.
//
// Dissemination: every control frame carries a piggyback payload of
// membership updates (MembershipTable::collect_gossip); state changes the
// runtime must react to quickly (death, join, refutation) additionally
// trigger a dedicated kMembershipUpdate broadcast to a few live peers.
//
// Wire mapping (no new frame layout — control frames reuse the value
// header): header.kind selects the protocol verb, header.block carries
// the TARGET RANK, header.tag the probe sequence number, and the payload
// doubles encode the gossip entries 3-wide (rank, state, incarnation).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "asyncit/membership/membership.hpp"
#include "asyncit/support/rng.hpp"
#include "asyncit/transport/message.hpp"

namespace asyncit::membership {

/// One outgoing control message, ready for Endpoint::send. The payload is
/// already encoded (gossip entries, 3 doubles each).
struct ControlFrame {
  std::uint32_t dst = 0;
  transport::MsgKind kind = transport::MsgKind::kPing;
  std::uint32_t target = 0;  ///< -> MessageHeader::block
  std::uint64_t seq = 0;     ///< -> MessageHeader::tag
  std::vector<double> payload;
};

/// Encodes `updates` into `out` (cleared first; 3 doubles per entry).
void encode_gossip(const std::vector<MembershipUpdate>& updates,
                   std::vector<double>& out);

/// Decodes a control-frame payload. Returns false (and leaves `out`
/// empty) when the payload is malformed: wrong arity, non-integral
/// fields, rank out of range, or a state outside the wire set.
bool decode_gossip(std::span<const double> payload, std::size_t world,
                   std::vector<MembershipUpdate>& out);

class SwimAgent {
 public:
  /// `incarnation` seeds the own slot (a restarted rank may pass its
  /// previous incarnation + 1; refutation self-heals either way).
  SwimAgent(std::uint32_t self, std::size_t world, const Options& options,
            std::uint64_t seed, std::uint64_t incarnation = 0);

  MembershipTable& table() { return table_; }
  const MembershipTable& table() const { return table_; }
  const Options& options() const { return options_; }

  /// Handles one received control frame (kind in {kPing, kAck, kPingReq,
  /// kMembershipUpdate}): applies its gossip, answers pings, matches
  /// acks, services indirect probe requests. Replies land in outbox().
  void on_frame(const transport::Message& m, double now);

  /// Liveness evidence from ANY received frame (value frames included):
  /// refreshes the contact clock so the prober skips members whose data
  /// traffic already proves them alive this period.
  void heard_from(std::uint32_t src, double now);

  /// Periodic driver: expires suspicions, fires the next probe, escalates
  /// unanswered probes, emits urgent membership broadcasts. Rate-limited
  /// internally — call as often as convenient.
  void tick(double now);

  /// Outgoing control frames. The caller sends each one and clears the
  /// vector (buffers are recycled internally across frames).
  std::vector<ControlFrame>& outbox() { return outbox_; }

  /// Moves accumulated table events into `out` (appended).
  void drain_events(std::vector<Event>& out) { table_.drain_events(out); }

  const Stats& stats() const { return table_.stats(); }

 private:
  struct Probe {
    std::uint32_t target;
    std::uint64_t seq;
    double sent_at;
    bool indirect_sent;
  };
  /// An indirect probe we are servicing for someone else: our proxy ping
  /// to `target` with `proxy_seq`, owed back to `requester` as
  /// kAck(requester_seq, target).
  struct ProxyProbe {
    std::uint32_t requester;
    std::uint64_t requester_seq;
    std::uint32_t target;
    std::uint64_t proxy_seq;
    double started;
  };

  void push_frame(std::uint32_t dst, transport::MsgKind kind,
                  std::uint32_t target, std::uint64_t seq);
  /// Next round-robin probe target (reshuffles when the cycle or the
  /// live view changes); world-sentinel when nobody else is live.
  std::uint32_t next_probe_target(double now);
  void broadcast_update(double now);

  MembershipTable table_;
  Options options_;
  Rng rng_;
  std::vector<ControlFrame> outbox_;

  std::vector<std::uint32_t> probe_order_;  ///< shuffled live members
  std::size_t probe_cursor_ = 0;
  std::uint64_t probe_epoch_ = 0;  ///< table epoch the order was built at

  std::vector<Probe> probes_;
  std::vector<ProxyProbe> proxies_;
  std::vector<double> last_contact_;  ///< per rank, seconds
  std::uint64_t seq_ = 0;
  double next_ping_at_ = 0.0;

  // scratch (reused; keeps the control path allocation-light)
  std::vector<MembershipUpdate> gossip_scratch_;
  std::vector<MembershipUpdate> decode_scratch_;
};

}  // namespace asyncit::membership
