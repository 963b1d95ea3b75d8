// The wire-level frame every backend delivers (DESIGN.md §6).
//
// A Message is what a receiver drains from its Endpoint: a small
// trivially-copyable header plus a view of its payload. Backends build
// and queue Messages; net::Peer, the membership agent and the training
// roles consume them.
#pragma once

#include <cstdint>
#include <span>

#include "asyncit/linalg/partition.hpp"
#include "asyncit/model/history.hpp"

namespace asyncit::transport {

struct PayloadSlab;  // transport/pool.hpp

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
  PayloadSlab* slab = nullptr;
};

}  // namespace asyncit::transport
