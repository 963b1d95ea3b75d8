// TCP backend: nonblocking POSIX sockets over loopback or a LAN.
//
// The fabric is a full mesh of DIRECTED links: every rank listens on its
// configured port, and for each destination it dials the destination's
// listener and uses that connection for its outgoing frames only (an
// 8-byte hello identifies the dialing rank, so there is no connection
// glare to resolve). Per peer link the endpoint runs one writer thread
// (drains a queue of pooled, pre-encoded wire frames — the peer thread
// never blocks on a socket) and one reader thread (poll + nonblocking
// recv into a reassembly buffer, transport/wire.hpp framing, decoded
// messages pushed into the endpoint's delivery queue). A transport may
// host any subset of the ranks: all of them (in-process loopback tests
// and benches) or exactly one (tools/asyncit_node.cpp, one process per
// rank — see scripts/launch_cluster.py).
//
// Semantics differences from inproc, by design honest about the medium:
//   - links are FIFO and lossless (TCP): reordering/drops come from the
//     chaos decorator, not from the socket;
//   - a receiver cannot compare the sender's clock with its own, so
//     delays() measures arrival-to-drain (the queueing interval the
//     receiver can actually observe); t_send/deliver_at are rewritten to
//     receiver-clock values consistent with that interval;
//   - a closed link (peer process exited) turns subsequent sends into
//     drops — the totally asynchronous regime tolerates that, and the
//     node runtime broadcasts a stop frame (flushed before teardown)
//     first. In ELASTIC mode (TcpOptions::elastic, the membership/
//     runtime) a closed or never-connected link additionally redials in
//     the background, so a rank that joins late — or rejoins after a
//     crash — is wired into the mesh without restarting anyone.
//
// Steady state allocates nothing: wire frames and receive payload slabs
// are pooled (transport/pool.hpp), reassembly buffers and queues retain
// capacity. TCP implements send() only; Endpoint::publish falls back to
// encoding each frame in turn.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "asyncit/transport/transport.hpp"

namespace asyncit::transport {

class TcpEndpoint;

struct TcpPeerAddress {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = bind ephemeral (requires the rank local)
};

struct TcpOptions {
  /// One address per rank; world size is nodes.size(). With elastic
  /// membership every SLOT gets an address up front — a spare rank the
  /// launcher starts later is dialable from the config alone.
  std::vector<TcpPeerAddress> nodes;
  /// Ranks hosted by this process. Empty = all (in-process mesh).
  std::vector<std::uint32_t> local_ranks;
  /// Rendezvous budget: dialing retries until every local rank is fully
  /// connected (other processes may start later).
  double connect_timeout_seconds = 20.0;

  /// Elastic-membership mode (membership/ — ranks may join, die, and
  /// rejoin mid-run). What changes:
  ///   - only `expected_ranks` take part in the startup rendezvous
  ///     (dialed with retry, their hellos awaited); every other slot
  ///     starts unconnected;
  ///   - acceptors run for the transport's lifetime, so a late rank can
  ///     dial in at any time, and a fresh connection from an
  ///     already-known rank REPLACES the stale one (rejoin after crash);
  ///   - outgoing links (re)dial lazily from the writer thread with a
  ///     backoff whenever frames are queued for an unconnected or dead
  ///     destination; frames that cannot be delivered are dropped
  ///     (counted), which is exactly the loss the totally asynchronous
  ///     regime tolerates;
  ///   - per-link send queues are bounded (oldest frame dropped first)
  ///     so a dead destination cannot grow memory without bound.
  bool elastic = false;
  /// Ranks expected at launch (rendezvous set). Ignored unless elastic;
  /// empty means no rendezvous at all (a late joiner: dial lazily, wait
  /// for nobody).
  std::vector<std::uint32_t> expected_ranks;

  /// Decode-time bound on a value frame's coordinate range: frames with
  /// offset + count beyond this are rejected at the wire (counted in
  /// bad_frames, connection closed) instead of reaching incorporate.
  /// Default: the format's own sanity cap. Runtimes that know their
  /// widest block should lower it.
  std::uint32_t max_frame_doubles = 0;  ///< 0 = wire.hpp kMaxPayloadDoubles
};

class TcpTransport final : public Transport {
 public:
  /// Binds, dials, and completes the full rendezvous (throws CheckError
  /// on timeout). On return every local endpoint is connected both ways.
  explicit TcpTransport(TcpOptions options);
  ~TcpTransport() override;

  std::size_t world() const override;
  std::vector<std::uint32_t> local_ranks() const override;
  Endpoint& endpoint(std::uint32_t rank) override;
  const char* backend() const override { return "tcp"; }
  void flush(double timeout_seconds) override;

  /// Actual bound port of a local rank (resolves port 0 requests).
  std::uint16_t port_of(std::uint32_t rank) const;

  /// Frames rejected by wire validation across all local readers (a
  /// nonzero value means a corrupted or foreign byte stream; the
  /// offending connection is closed on first rejection).
  std::uint64_t bad_frames() const override;

 private:
  friend class TcpEndpoint;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace asyncit::transport
