// Pluggable wire transport for the message-passing runtime.
//
// net::Peer used to talk straight to in-process Mailbox queues, so the
// "distributed" runtime could only ever simulate communication effects
// inside one address space. transport/ puts an interface between the peer
// loop and the medium: a Transport owns the communication fabric of a run
// (one Endpoint per locally hosted rank), and a peer sends/receives/waits
// exclusively through its Endpoint. Three backends implement it:
//
//   inproc  (transport/inproc.hpp)  the seeded mailbox channels of PR 1
//           refactored behind the interface — byte-for-byte the same
//           latency/drop draw sequences, so channel replay determinism is
//           unchanged;
//   tcp     (transport/tcp.hpp)     nonblocking POSIX sockets over
//           loopback/LAN with the length-prefixed wire format of
//           transport/wire.hpp and per-peer reader/writer threads — ranks
//           may live in DIFFERENT PROCESSES (see net::run_node and
//           tools/asyncit_node.cpp);
//   chaos   (transport/chaos.hpp)   a decorator over any backend that
//           injects the paper's delay/reorder/drop models at the frame
//           level, so delay-model experiments run unchanged over real
//           sockets.
//
// Publish once, deliver by reference: a peer hands a whole fan-out to
// Endpoint::publish — one base payload plus one Frame per destination —
// and the contract is exactly "publish == the same frames passed to
// send() in order" (same receipts, same draws, same delivery order; the
// simnet replay hash is the oracle). inproc and simnet implement publish
// natively: the payload is copied ONCE into a refcounted slab owned by
// the sender's pool (transport/pool.hpp), and every delivered
// net::Message is a small trivially-copyable header whose `value` is a
// view into that slab — full frames, delta windows and heartbeats are
// windows of the base, only codec frames append their own lattice
// payload. send() on those backends is a one-frame publish. TCP and the
// decorators (chaos, and any tracing wrapper) override only send() and
// inherit the default publish, which loops send() in frame order.
//
// Payload lifetime: a received Message::value stays valid until the
// message is passed to recycle(), which drops the frame's slab
// reference; the slab returns to its pool when the last frame of the
// publish is recycled. A receiver must therefore recycle exactly the
// messages it consumed — a message it keeps (BSP holdback) keeps its
// payload alive until it is recycled later. Slabs keep their capacity,
// so after warm-up the send/receive path is allocation-free (pinned by
// tests/alloc_test.cpp).
//
// Threading contract: one Endpoint is driven by exactly ONE peer thread
// (send/receive/recycle/wait are called from it alone); backends may run
// internal service threads (TCP readers/writers) that synchronize with
// the peer thread internally. Stats accessors are safe after the run has
// quiesced (peers joined); delays() returns a copy for that reason.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "asyncit/net/channel.hpp"

namespace asyncit::transport {

/// Sender-side description of an outgoing message; the Endpoint fills in
/// src (its own rank) and the timing fields.
struct MessageHeader {
  la::BlockId block = 0;
  model::Step tag = 0;
  std::uint64_t round = 0;
  std::uint32_t offset = 0;  ///< partial-block frames (see net::Message)
  bool partial = false;
  /// Partial-range frame that nonetheless finishes the sender's round —
  /// the delta layer emits exactly one complete frame per (block, round)
  /// so gated modes (SSP/BSP) count rounds identically with delta on.
  bool complete = false;
  net::MsgKind kind = net::MsgKind::kValue;
  /// Chaos-drawn latency riding the wire (see net::Message); backends
  /// forward it verbatim. 0 outside the chaos decorator.
  double injected_delay = 0.0;
  /// Scalar-quantization lattice (codec frames only; 0 bits = raw
  /// doubles). The payload the peer hands to send() is ALREADY
  /// roundtripped onto these lattice points: inproc/chaos/simnet deliver
  /// the doubles as-is, the TCP backend re-quantizes (exactly) into a
  /// codec wire frame and the decoder dequantizes with the same params.
  std::uint8_t quant_bits = 0;
  double quant_min = 0.0;
  double quant_scale = 0.0;
};

/// What happened to one send, for trace logging. `deliver_at` is the
/// scheduled (inproc/chaos) or nominal (tcp: == t_send) delivery time.
struct SendReceipt {
  bool sent = false;  ///< false: dropped by the link's loss model
  double t_send = 0.0;
  double deliver_at = 0.0;
};

/// One destination of a publish. `value` is either a window of the
/// publish's base payload (full frames, delta ranges, heartbeats) or a
/// payload of its own (codec frames), and is read during publish() only.
struct Frame {
  std::uint32_t dst = 0;
  MessageHeader header;
  std::span<const double> value;
};

class Endpoint {
 public:
  virtual ~Endpoint() = default;

  virtual std::uint32_t rank() const = 0;

  /// Sends `value` (a block or sub-block payload) to rank `dst`. `now` is
  /// the run clock in seconds; `allow_drop` gates the loss model exactly
  /// like the pre-transport LinkStamper path (only the totally
  /// asynchronous mode tolerates loss).
  virtual SendReceipt send(std::uint32_t dst, const MessageHeader& header,
                           std::span<const double> value, double now,
                           bool allow_drop) = 0;

  /// Fan-out: sends every frame in order, exactly as if each were passed
  /// to send(f.dst, f.header, f.value, now, allow_drop), and writes the
  /// receipt of frames[i] to receipts[i] (receipts.size() ==
  /// frames.size()). `base` is the payload the frames window into; slab
  /// backends copy it once for the whole fan-out. The default is that
  /// send() loop (TCP and the decorators).
  virtual void publish(std::span<const double> base,
                       std::span<const Frame> frames, double now,
                       bool allow_drop, std::span<SendReceipt> receipts) {
    (void)base;
    for (std::size_t i = 0; i < frames.size(); ++i)
      receipts[i] = send(frames[i].dst, frames[i].header, frames[i].value,
                         now, allow_drop);
  }

  /// Appends every message deliverable at `now` to `out` (delivery order)
  /// and returns the number appended. Each message's payload view stays
  /// valid until the message is passed to recycle().
  virtual std::size_t receive(double now, std::vector<net::Message>& out) = 0;

  /// Drops the payload references of consumed messages and clears
  /// `consumed`. Call with exactly the messages consumed from receive()
  /// batches (each once); this is what keeps the steady-state path
  /// allocation-free and the slab pools balanced.
  virtual void recycle(std::vector<net::Message>& consumed) = 0;

  /// Monotone counter bumped whenever new data may have become
  /// receivable (a post / a frame arrival). Read it BEFORE the last
  /// receive() and pass it to wait_for_activity: an arrival landing in
  /// between can then never be slept through.
  virtual std::uint64_t activity() const = 0;

  /// Blocks until activity() exceeds `seen` or the timeout passes.
  virtual void wait_for_activity(std::uint64_t seen,
                                 double timeout_seconds) = 0;

  /// Earliest scheduled delivery among internally held messages (+inf
  /// when none) — lets gate waits sleep exactly until maturation.
  virtual double next_delivery() const = 0;

  // ---- statistics (stable once the run has quiesced) ----
  virtual std::uint64_t sent() const = 0;     ///< stamped (incl. dropped)
  virtual std::uint64_t dropped() const = 0;
  virtual std::uint64_t delivered() const = 0;
  /// Measured per-message delays at this receiver (see each backend's
  /// header for what interval is measured).
  virtual net::DelayHistogram delays() const = 0;
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Total number of ranks in the run (across all processes).
  virtual std::size_t world() const = 0;

  /// Ranks hosted by THIS process (every one has an endpoint()).
  virtual std::vector<std::uint32_t> local_ranks() const = 0;

  /// The endpoint of a locally hosted rank.
  virtual Endpoint& endpoint(std::uint32_t rank) = 0;

  virtual const char* backend() const = 0;

  /// Best-effort drain of outbound queues (a node broadcasts its stop
  /// control frame and must not tear the fabric down under it). Default:
  /// nothing buffered, nothing to do.
  virtual void flush(double /*timeout_seconds*/) {}

  /// Wire-invalid frames observed across local receivers (corrupted or
  /// foreign byte streams; see TcpTransport). Backends without a framed
  /// medium have none. Part of the uniform counter schema every node
  /// reports (MpResult::bad_frames / the asyncit-node/1 JSON).
  virtual std::uint64_t bad_frames() const { return 0; }
};

}  // namespace asyncit::transport
