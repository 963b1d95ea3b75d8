#include "asyncit/transport/tcp.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <limits>
#include <mutex>
#include <thread>

#include "asyncit/obs/metrics.hpp"
#include "asyncit/obs/trace_recorder.hpp"
#include "asyncit/support/check.hpp"
#include "asyncit/support/timer.hpp"
#include "asyncit/transport/pool.hpp"
#include "asyncit/transport/wire.hpp"

namespace asyncit::transport {

namespace {

constexpr std::uint32_t kHelloMagic = 0x48454C4F;  // "HELO"
constexpr int kPollMillis = 200;     ///< service-thread wakeup bound
constexpr int kDialBackoffMicros = 20000;
/// Elastic mode: minimum spacing between background redial attempts on
/// one link, and the budget for a single nonblocking connect.
constexpr double kRedialBackoffSeconds = 0.2;
constexpr double kDialAttemptSeconds = 0.25;
/// Elastic mode: per-link send-queue bound; beyond it the OLDEST frame is
/// dropped first (a fresher value supersedes it anyway — last-arrival
/// semantics).
constexpr std::size_t kMaxElasticQueue = 1024;

void close_if_open(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ASYNCIT_CHECK(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0);
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

sockaddr_in resolve_ipv4(const std::string& host, std::uint16_t port) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &sa.sin_addr) == 1) return sa;
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  ASYNCIT_CHECK(::getaddrinfo(host.c_str(), nullptr, &hints, &res) == 0 &&
                res != nullptr);
  sa.sin_addr = reinterpret_cast<sockaddr_in*>(res->ai_addr)->sin_addr;
  ::freeaddrinfo(res);
  return sa;
}

}  // namespace

// ----------------------------------------------------------- TcpEndpoint

class TcpEndpoint final : public Endpoint {
 public:
  std::uint32_t rank() const override { return rank_; }
  SendReceipt send(std::uint32_t dst, const MessageHeader& header,
                   std::span<const double> value, double now,
                   bool allow_drop) override;
  std::size_t receive(double now, std::vector<Message>& out) override;
  void recycle(std::vector<Message>& consumed) override;
  std::uint64_t activity() const override;
  void wait_for_activity(std::uint64_t seen,
                         double timeout_seconds) override;
  double next_delivery() const override;
  std::uint64_t sent() const override { return sent_; }
  std::uint64_t dropped() const override;
  std::uint64_t delivered() const override;
  obs::Histogram delays() const override;

 private:
  friend class TcpTransport;
  friend struct TcpTransport::Impl;

  /// One outgoing directed link: a queue of encoded frames drained by a
  /// dedicated writer thread. In elastic mode the writer also owns the
  /// connection life cycle (lazy dial / redial), so fd is atomic: the
  /// writer mutates it while send()/flush() peek at it.
  struct OutLink {
    std::uint32_t dst = 0;
    std::atomic<int> fd{-1};
    std::thread writer;
    std::mutex mu;
    std::condition_variable cv;
    std::vector<std::vector<std::uint8_t>> queue;  ///< guarded by mu
    bool writing = false;                          ///< guarded by mu
    std::atomic<bool> closed{false};
    /// Frames discarded by the writer (unconnected / dead destination,
    /// elastic queue overflow) — part of the endpoint's dropped() count.
    std::atomic<std::uint64_t> tx_dropped{0};
    double next_dial_at = 0.0;  ///< writer-thread local backoff clock
  };

  /// One incoming directed link, serviced by a reader thread.
  struct InLink {
    std::uint32_t src = 0;
    int fd = -1;
    std::thread reader;
    /// Elastic rejoin: a fresh connection from the same rank supersedes
    /// this one (its fd is shut down; the reader exits; the shell stays
    /// for the teardown join).
    bool retired = false;  ///< guarded by the endpoint's in_mu_
  };

  TcpTransport::Impl* impl_ = nullptr;
  std::uint32_t rank_ = 0;
  int listen_fd_ = -1;
  std::thread acceptor_;
  std::vector<std::unique_ptr<OutLink>> out_;  ///< indexed by dst

  std::mutex in_mu_;  ///< guards in_ during the accept phase
  std::vector<std::unique_ptr<InLink>> in_;

  BytePool frame_pool_;
  SlabPool rx_slabs_;  ///< decode targets, one slab per received frame

  mutable std::mutex rx_mu_;
  std::condition_variable rx_cv_;
  std::vector<Message> delivered_;     ///< guarded by rx_mu_
  std::uint64_t activity_ = 0;              ///< guarded by rx_mu_
  std::uint64_t delivered_count_ = 0;       ///< guarded by rx_mu_
  obs::Histogram delays_;              ///< guarded by rx_mu_

  // Touched only by the owning peer thread; read by the orchestrator
  // after the peers are joined (join orders the accesses).
  std::uint64_t sent_ = 0;
  std::uint64_t dropped_ = 0;
};

// ------------------------------------------------------------------ Impl

struct TcpTransport::Impl {
  TcpOptions options;
  std::vector<std::uint32_t> locals;
  std::vector<bool> expected_ranks;  ///< startup rendezvous set (by rank)
  std::vector<std::unique_ptr<TcpEndpoint>> endpoints;  ///< by world rank
  WallTimer clock;  ///< arrival timestamps (receiver-local intervals only)
  std::atomic<bool> stopping{false};
  std::atomic<std::uint64_t> bad_frames{0};
  int stop_pipe_[2] = {-1, -1};
  std::mutex reg_mu;
  std::condition_variable reg_cv;
  std::size_t pending_incoming = 0;  ///< rendezvous countdown, guarded by reg_mu

  /// Metrics handles, registered once at start(); hot paths update them
  /// only while a run has observability on (obs::tracing_on()).
  obs::Counter* m_tx_frames = nullptr;
  obs::Counter* m_tx_bytes = nullptr;
  obs::Counter* m_rx_frames = nullptr;
  obs::Counter* m_rx_bytes = nullptr;
  obs::Counter* m_tx_drops = nullptr;
  obs::Counter* m_redials = nullptr;
  obs::Counter* m_bad_frames = nullptr;

  ~Impl() { shutdown(); }

  void shutdown();
  void start(TcpOptions opts);
  int dial(std::uint32_t dst, double deadline) const;
  /// Single bounded nonblocking connect + hello (elastic redial path).
  /// Returns the connected fd or -1; never throws, never retries.
  int try_dial(std::uint32_t src_rank, std::uint32_t dst,
               double timeout) const;
  /// Writer-side connection upkeep (elastic): redial when unconnected or
  /// dead, rate-limited by kRedialBackoffSeconds. True when usable.
  bool ensure_connected(TcpEndpoint* ep, TcpEndpoint::OutLink* link);
  void accept_loop(TcpEndpoint* ep);
  void reader_loop(TcpEndpoint* ep, TcpEndpoint::InLink* link);
  void writer_loop(TcpEndpoint* ep, TcpEndpoint::OutLink* link);
  bool write_all(TcpEndpoint::OutLink* link,
                 std::span<const std::uint8_t> bytes);
  bool read_exact(int fd, std::uint8_t* out, std::size_t n,
                  double deadline) const;
};

void TcpTransport::Impl::start(TcpOptions opts) {
  options = std::move(opts);
  const std::size_t world = options.nodes.size();
  ASYNCIT_CHECK(world >= 2);
  locals = options.local_ranks;
  if (locals.empty())
    for (std::size_t r = 0; r < world; ++r)
      locals.push_back(static_cast<std::uint32_t>(r));
  for (const std::uint32_t r : locals) ASYNCIT_CHECK(r < world);
  for (std::size_t r = 0; r < world; ++r) {
    const bool local =
        std::find(locals.begin(), locals.end(), r) != locals.end();
    // A remote rank must be dialable from the config alone.
    ASYNCIT_CHECK(local || options.nodes[r].port != 0);
  }
  // The startup rendezvous set: everyone in the static mesh, only the
  // configured subset in elastic mode (absent slots join later).
  std::vector<bool> expected(world, !options.elastic);
  if (options.elastic) {
    for (const std::uint32_t r : options.expected_ranks) {
      ASYNCIT_CHECK(r < world);
      expected[r] = true;
    }
  }
  auto& registry = obs::MetricsRegistry::instance();
  m_tx_frames = &registry.counter("tcp.tx_frames");
  m_tx_bytes = &registry.counter("tcp.tx_bytes");
  m_rx_frames = &registry.counter("tcp.rx_frames");
  m_rx_bytes = &registry.counter("tcp.rx_bytes");
  m_tx_drops = &registry.counter("tcp.tx_drops");
  m_redials = &registry.counter("tcp.redials");
  m_bad_frames = &registry.counter("tcp.bad_frames");

  ASYNCIT_CHECK(::pipe(stop_pipe_) == 0);
  set_nonblocking(stop_pipe_[0]);

  endpoints.resize(world);
  // Phase 1: bind + listen every local rank, resolving auto-ports so the
  // dial phase below sees the real numbers.
  for (const std::uint32_t r : locals) {
    auto ep = std::make_unique<TcpEndpoint>();
    ep->impl_ = this;
    ep->rank_ = r;
    ep->out_.resize(world);
    for (std::size_t dst = 0; dst < world; ++dst) {
      ep->out_[dst] = std::make_unique<TcpEndpoint::OutLink>();
      ep->out_[dst]->dst = static_cast<std::uint32_t>(dst);
    }
    ep->listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    ASYNCIT_CHECK(ep->listen_fd_ >= 0);
    int one = 1;
    ::setsockopt(ep->listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_addr.s_addr = htonl(INADDR_ANY);
    sa.sin_port = htons(options.nodes[r].port);
    ASYNCIT_CHECK(::bind(ep->listen_fd_,
                         reinterpret_cast<const sockaddr*>(&sa),
                         sizeof(sa)) == 0);
    socklen_t len = sizeof(sa);
    ASYNCIT_CHECK(::getsockname(ep->listen_fd_,
                                reinterpret_cast<sockaddr*>(&sa),
                                &len) == 0);
    options.nodes[r].port = ntohs(sa.sin_port);
    ASYNCIT_CHECK(::listen(ep->listen_fd_,
                           static_cast<int>(world)) == 0);
    endpoints[r] = std::move(ep);
  }
  // Phase 2: acceptors run while we dial, so local<->local pairs (the
  // in-process loopback mesh) rendezvous without any ordering games.
  // Expected incoming: one hello per expected non-self rank per local
  // endpoint (non-expected slots dial in whenever they start).
  std::size_t expected_peers = 0;
  for (std::size_t r = 0; r < world; ++r)
    if (expected[r]) ++expected_peers;
  pending_incoming = 0;
  for (const std::uint32_t r : locals)
    pending_incoming += expected_peers - (expected[r] ? 1 : 0);
  expected_ranks = std::move(expected);
  for (const std::uint32_t r : locals) {
    TcpEndpoint* ep = endpoints[r].get();
    ep->acceptor_ = std::thread([this, ep] { accept_loop(ep); });
  }
  // Phase 3: dial every EXPECTED destination from every local rank and
  // say hello; writers for the remaining slots start unconnected and
  // (in elastic mode) dial lazily once traffic for them appears.
  const double deadline =
      clock.seconds() + options.connect_timeout_seconds;
  for (const std::uint32_t r : locals) {
    TcpEndpoint* ep = endpoints[r].get();
    for (std::uint32_t dst = 0; dst < world; ++dst) {
      if (dst == r) continue;
      TcpEndpoint::OutLink* link = ep->out_[dst].get();
      if (expected_ranks[dst]) {
        const int fd = dial(dst, deadline);
        std::uint8_t hello[8];
        for (int i = 0; i < 4; ++i)
          hello[i] = static_cast<std::uint8_t>(kHelloMagic >> (8 * i));
        for (int i = 0; i < 4; ++i)
          hello[4 + i] = static_cast<std::uint8_t>(r >> (8 * i));
        ASYNCIT_CHECK(::send(fd, hello, sizeof(hello), MSG_NOSIGNAL) ==
                      static_cast<ssize_t>(sizeof(hello)));
        set_nodelay(fd);
        set_nonblocking(fd);
        link->fd.store(fd, std::memory_order_relaxed);
      }
      link->writer = std::thread([this, ep, link] { writer_loop(ep, link); });
    }
  }
  // Phase 4: wait until every local rank has its expected incoming links.
  {
    std::unique_lock<std::mutex> lock(reg_mu);
    const bool ok = reg_cv.wait_for(
        lock,
        std::chrono::duration<double>(
            std::max(0.0, deadline - clock.seconds()) + 1e-3),
        [&] { return pending_incoming == 0; });
    ASYNCIT_CHECK(ok);  // rendezvous timeout: a peer process never showed
  }
}

int TcpTransport::Impl::dial(std::uint32_t dst, double deadline) const {
  const sockaddr_in sa =
      resolve_ipv4(options.nodes[dst].host, options.nodes[dst].port);
  for (;;) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASYNCIT_CHECK(fd >= 0);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&sa),
                  sizeof(sa)) == 0)
      return fd;
    ::close(fd);
    ASYNCIT_CHECK(clock.seconds() < deadline);  // rendezvous timeout
    ::usleep(kDialBackoffMicros);
  }
}

int TcpTransport::Impl::try_dial(std::uint32_t src_rank, std::uint32_t dst,
                                 double timeout) const {
  const sockaddr_in sa =
      resolve_ipv4(options.nodes[dst].host, options.nodes[dst].port);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  set_nonblocking(fd);
  const double deadline = clock.seconds() + timeout;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) !=
      0) {
    if (errno != EINPROGRESS) {
      ::close(fd);
      return -1;
    }
    for (;;) {
      pollfd p[2] = {{fd, POLLOUT, 0}, {stop_pipe_[0], POLLIN, 0}};
      ::poll(p, 2, kPollMillis);
      if (p[0].revents & POLLOUT) break;
      if (stopping.load(std::memory_order_relaxed) ||
          clock.seconds() > deadline) {
        ::close(fd);
        return -1;
      }
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
        err != 0) {
      ::close(fd);
      return -1;
    }
  }
  // Hello: 8 bytes into an empty send buffer — completes immediately on
  // any healthy connection (the poll covers a pathological one).
  std::uint8_t hello[8];
  for (int i = 0; i < 4; ++i)
    hello[i] = static_cast<std::uint8_t>(kHelloMagic >> (8 * i));
  for (int i = 0; i < 4; ++i)
    hello[4 + i] = static_cast<std::uint8_t>(src_rank >> (8 * i));
  std::size_t off = 0;
  while (off < sizeof(hello)) {
    const ssize_t k =
        ::send(fd, hello + off, sizeof(hello) - off, MSG_NOSIGNAL);
    if (k > 0) {
      off += static_cast<std::size_t>(k);
      continue;
    }
    if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (clock.seconds() > deadline) break;
      pollfd p{fd, POLLOUT, 0};
      ::poll(&p, 1, kPollMillis);
      continue;
    }
    break;
  }
  if (off != sizeof(hello)) {
    ::close(fd);
    return -1;
  }
  set_nodelay(fd);
  return fd;
}

bool TcpTransport::Impl::ensure_connected(TcpEndpoint* ep,
                                          TcpEndpoint::OutLink* link) {
  const int fd = link->fd.load(std::memory_order_relaxed);
  if (fd >= 0 && !link->closed.load(std::memory_order_relaxed)) return true;
  if (!options.elastic || stopping.load(std::memory_order_relaxed))
    return false;
  const double t = clock.seconds();
  if (t < link->next_dial_at) return false;
  link->next_dial_at = t + kRedialBackoffSeconds;
  const int nfd = try_dial(ep->rank_, link->dst, kDialAttemptSeconds);
  if (obs::tracing_on()) m_redials->add();
  obs::record(obs::EventType::kRedial, 0, link->dst, nfd >= 0 ? 1 : 0, t);
  if (nfd < 0) return false;
  if (fd >= 0) ::close(fd);
  link->fd.store(nfd, std::memory_order_relaxed);
  link->closed.store(false, std::memory_order_relaxed);
  return true;
}

bool TcpTransport::Impl::read_exact(int fd, std::uint8_t* out,
                                    std::size_t n, double deadline) const {
  std::size_t off = 0;
  while (off < n) {
    pollfd p[2] = {{fd, POLLIN, 0}, {stop_pipe_[0], POLLIN, 0}};
    ::poll(p, 2, kPollMillis);
    if (stopping.load(std::memory_order_relaxed) ||
        clock.seconds() > deadline)
      return false;
    const ssize_t k = ::recv(fd, out + off, n - off, 0);
    if (k > 0) {
      off += static_cast<std::size_t>(k);
    } else if (k == 0) {
      return false;
    } else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      return false;
    }
  }
  return true;
}

void TcpTransport::Impl::accept_loop(TcpEndpoint* ep) {
  // Static mesh: exit once every expected hello arrived. Elastic: run
  // for the transport's lifetime — late joiners and crash-rejoins dial
  // in whenever they come up.
  std::size_t expect = 0;
  for (std::size_t r = 0; r < expected_ranks.size(); ++r)
    if (expected_ranks[r] && r != ep->rank_) ++expect;
  std::vector<bool> counted(options.nodes.size(), false);
  std::size_t registered = 0;
  while (!stopping.load(std::memory_order_relaxed) &&
         (options.elastic || registered < expect)) {
    pollfd p[2] = {{ep->listen_fd_, POLLIN, 0}, {stop_pipe_[0], POLLIN, 0}};
    ::poll(p, 2, kPollMillis);
    if (!(p[0].revents & POLLIN)) continue;
    const int fd = ::accept(ep->listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    set_nonblocking(fd);
    std::uint8_t hello[8];
    const double hello_deadline = clock.seconds() + 10.0;
    if (!read_exact(fd, hello, sizeof(hello), hello_deadline)) {
      ::close(fd);
      continue;
    }
    std::uint32_t magic = 0, src = 0;
    for (int i = 0; i < 4; ++i) magic |= std::uint32_t(hello[i]) << (8 * i);
    for (int i = 0; i < 4; ++i)
      src |= std::uint32_t(hello[4 + i]) << (8 * i);
    if (magic != kHelloMagic || src >= options.nodes.size() ||
        src == ep->rank_) {
      ::close(fd);  // not one of ours
      continue;
    }
    set_nodelay(fd);
    auto link = std::make_unique<TcpEndpoint::InLink>();
    link->src = src;
    link->fd = fd;
    TcpEndpoint::InLink* raw = link.get();
    {
      std::lock_guard<std::mutex> lock(ep->in_mu_);
      TcpEndpoint::InLink* existing = nullptr;
      for (const auto& l : ep->in_)
        if (l->src == src && !l->retired) existing = l.get();
      if (existing != nullptr) {
        if (!options.elastic) {
          // One incoming link per source rank: a duplicate hello (a
          // stale process from a previous run on a recycled port, a
          // retried dial) must not consume a rendezvous slot, or the
          // mesh would "complete" while the genuine peer sits unread in
          // the listen backlog.
          ::close(fd);
          continue;
        }
        // Elastic rejoin: the fresh connection supersedes the stale one.
        // Shutting the old fd down unblocks its reader (which exits);
        // the shell stays in in_ for the teardown join.
        existing->retired = true;
        ::shutdown(existing->fd, SHUT_RDWR);
      }
      ep->in_.push_back(std::move(link));
    }
    raw->reader = std::thread([this, ep, raw] { reader_loop(ep, raw); });
    if (expected_ranks[src] && !counted[src]) {
      counted[src] = true;
      ++registered;
      {
        std::lock_guard<std::mutex> lock(reg_mu);
        --pending_incoming;
      }
      reg_cv.notify_all();
    }
  }
}

void TcpTransport::Impl::reader_loop(TcpEndpoint* ep,
                                     TcpEndpoint::InLink* link) {
  std::vector<std::uint8_t> buf;
  buf.reserve(1 << 16);
  std::uint8_t tmp[16384];
  while (!stopping.load(std::memory_order_relaxed)) {
    pollfd p[2] = {{link->fd, POLLIN, 0}, {stop_pipe_[0], POLLIN, 0}};
    ::poll(p, 2, kPollMillis);
    if (!(p[0].revents & (POLLIN | POLLHUP | POLLERR))) continue;
    const ssize_t n = ::recv(link->fd, tmp, sizeof(tmp), 0);
    if (n == 0) return;  // peer closed (clean departure)
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
        continue;
      return;
    }
    buf.insert(buf.end(), tmp, tmp + n);
    std::size_t off = 0;
    bool notify = false;
    while (off < buf.size()) {
      Message m;
      PayloadSlab* slab = ep->rx_slabs_.acquire(0);
      std::size_t consumed = 0;
      const DecodeStatus st = decode_frame(
          std::span<const std::uint8_t>(buf.data() + off, buf.size() - off),
          consumed, m, slab->data,
          options.max_frame_doubles != 0 ? options.max_frame_doubles
                                         : kMaxPayloadDoubles);
      if (st == DecodeStatus::kOk) {
        off += consumed;
        if (obs::tracing_on()) {
          m_rx_frames->add();
          m_rx_bytes->add(consumed);
        }
        m.deliver_at = clock.seconds();  // arrival stamp (transport clock)
        if (m.value.empty()) {
          release(slab);  // control frames carry no payload
        } else {
          m.slab = slab;
        }
        {
          std::lock_guard<std::mutex> lock(ep->rx_mu_);
          ep->delivered_.push_back(std::move(m));
          ++ep->activity_;
        }
        notify = true;
      } else {
        release(slab);
        if (st == DecodeStatus::kNeedMore) break;
        // Corrupt stream: count it and kill the connection — a broken
        // framing layer can never resynchronize safely. shutdown() (not
        // just exiting the reader) makes the SENDER's next write fail,
        // so its writer marks the link closed instead of blocking
        // forever against a kernel buffer nobody drains.
        bad_frames.fetch_add(1, std::memory_order_relaxed);
        if (obs::tracing_on()) m_bad_frames->add();
        // sub=0xFF: wire-invalid (transport reader), vs. the peer-level
        // semantic rejects which carry the MsgKind.
        obs::record(obs::EventType::kFrameReject, 0xFF, link->src, 0, 0.0);
        ::shutdown(link->fd, SHUT_RDWR);
        if (notify) ep->rx_cv_.notify_one();
        return;
      }
    }
    if (notify) ep->rx_cv_.notify_one();
    buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(off));
  }
}

bool TcpTransport::Impl::write_all(TcpEndpoint::OutLink* link,
                                   std::span<const std::uint8_t> bytes) {
  const int fd = link->fd.load(std::memory_order_relaxed);
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t k = ::send(fd, bytes.data() + off,
                             bytes.size() - off, MSG_NOSIGNAL);
    if (k >= 0) {
      off += static_cast<std::size_t>(k);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      pollfd p[2] = {{fd, POLLOUT, 0}, {stop_pipe_[0], POLLIN, 0}};
      ::poll(p, 2, kPollMillis);
      if (stopping.load(std::memory_order_relaxed)) return false;
      continue;
    }
    if (errno == EINTR) continue;
    link->closed.store(true, std::memory_order_relaxed);
    return false;  // peer gone (EPIPE/ECONNRESET): drop from here on
  }
  return true;
}

void TcpTransport::Impl::writer_loop(TcpEndpoint* ep,
                                     TcpEndpoint::OutLink* link) {
  std::vector<std::vector<std::uint8_t>> batch;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(link->mu);
      link->cv.wait(lock, [&] {
        return !link->queue.empty() ||
               stopping.load(std::memory_order_relaxed);
      });
      if (link->queue.empty()) return;  // stopping, fully drained
      batch.swap(link->queue);
      link->writing = true;
    }
    if (obs::tracing_full()) {
      // Per-link send-queue depth at drain time: the live backpressure
      // signal of the wire (counter track in the exported trace).
      std::size_t bytes = 0;
      for (const auto& f : batch) bytes += f.size();
      obs::record(obs::EventType::kQueueDepth,
                  static_cast<std::uint8_t>(obs::QueueKind::kTcpWriter),
                  link->dst, batch.size(), double(bytes));
    }
    // Elastic links own their connection: (re)dial before draining. A
    // batch for an unreachable destination is discarded — the medium is
    // down, and the totally asynchronous regime treats that as loss.
    const bool usable = ensure_connected(ep, link);
    for (auto& frame : batch) {
      if (usable && !link->closed.load(std::memory_order_relaxed)) {
        write_all(link, frame);
        if (obs::tracing_on()) {
          m_tx_frames->add();
          m_tx_bytes->add(frame.size());
        }
      } else {
        link->tx_dropped.fetch_add(1, std::memory_order_relaxed);
        if (obs::tracing_on()) m_tx_drops->add();
        obs::record(obs::EventType::kFrameDrop, 0, link->dst, batch.size(),
                    0.0);
      }
      ep->frame_pool_.recycle(std::move(frame));
    }
    batch.clear();
    {
      std::lock_guard<std::mutex> lock(link->mu);
      link->writing = false;
    }
    link->cv.notify_all();  // flush() waiters
  }
}

void TcpTransport::Impl::shutdown() {
  stopping.store(true, std::memory_order_relaxed);
  if (stop_pipe_[1] >= 0) {
    const std::uint8_t b = 1;
    [[maybe_unused]] const ssize_t r = ::write(stop_pipe_[1], &b, 1);
  }
  for (auto& ep : endpoints) {
    if (!ep) continue;
    for (auto& link : ep->out_) {
      // Lock the link mutex before notifying: a writer that already
      // evaluated its wait predicate (stopping still false) but has not
      // yet blocked would otherwise miss this notification forever and
      // hang the join below (classic lost wakeup).
      { std::lock_guard<std::mutex> lock(link->mu); }
      link->cv.notify_all();
    }
    if (ep->acceptor_.joinable()) ep->acceptor_.join();
  }
  for (auto& ep : endpoints) {
    if (!ep) continue;
    for (auto& link : ep->in_)
      if (link->reader.joinable()) link->reader.join();
    for (auto& link : ep->out_)
      if (link->writer.joinable()) link->writer.join();
    for (auto& link : ep->in_) close_if_open(link->fd);
    for (auto& link : ep->out_) {
      const int fd = link->fd.exchange(-1, std::memory_order_relaxed);
      if (fd >= 0) ::close(fd);
    }
    close_if_open(ep->listen_fd_);
  }
  close_if_open(stop_pipe_[0]);
  close_if_open(stop_pipe_[1]);
}

// ------------------------------------------------- TcpEndpoint methods

SendReceipt TcpEndpoint::send(std::uint32_t dst, const MessageHeader& header,
                              std::span<const double> value, double now,
                              bool /*allow_drop*/) {
  ASYNCIT_CHECK(dst < out_.size() && dst != rank_);
  ++sent_;
  OutLink* link = out_[dst].get();
  const bool elastic = impl_->options.elastic;
  // Static mesh: a closed link stays closed, drop at the door. Elastic:
  // enqueue anyway — the writer redials in the background (the
  // destination may be rejoining) and discards what it cannot deliver.
  if (!elastic && link->closed.load(std::memory_order_relaxed)) {
    ++dropped_;
    obs::record(obs::EventType::kFrameDrop,
                static_cast<std::uint8_t>(header.kind), dst, 0, 0.0);
    return {false, now, now};
  }
  // A block broadcast encodes once PER DESTINATION even though the bytes
  // are identical: sharing one frame across link queues would need a
  // refcounted pool entry (a plain shared_ptr allocates per broadcast,
  // breaking the zero-alloc contract), and the encode is a ~block-sized
  // memcpy — cheap next to the socket write it feeds.
  std::vector<std::uint8_t> frame = frame_pool_.acquire();
  encode_frame(rank_, header, value, now, frame);
  {
    std::lock_guard<std::mutex> lock(link->mu);
    if (elastic && link->queue.size() >= kMaxElasticQueue) {
      // Bounded queue toward an unreachable destination: the OLDEST
      // frame is the least valuable (a fresher value supersedes it).
      frame_pool_.recycle(std::move(link->queue.front()));
      link->queue.erase(link->queue.begin());
      ++dropped_;
      obs::record(obs::EventType::kFrameDrop, 0, dst, kMaxElasticQueue, 0.0);
    }
    link->queue.push_back(std::move(frame));
  }
  link->cv.notify_one();
  return {true, now, now};
}

std::size_t TcpEndpoint::receive(double now,
                                 std::vector<Message>& out) {
  std::lock_guard<std::mutex> lock(rx_mu_);
  const std::size_t n = delivered_.size();
  if (n == 0) return 0;
  const double drain_time = impl_->clock.seconds();
  for (Message& m : delivered_) {
    // m.deliver_at holds the arrival stamp on the transport clock; the
    // measured delay is the receiver-observable queueing interval.
    const double delay = std::max(0.0, drain_time - m.deliver_at);
    delays_.add(delay);
    m.t_send = now - delay;
    m.deliver_at = now;
    out.push_back(std::move(m));
  }
  delivered_.clear();
  delivered_count_ += n;
  return n;
}

void TcpEndpoint::recycle(std::vector<Message>& consumed) {
  release_all(consumed);
}

std::uint64_t TcpEndpoint::activity() const {
  std::lock_guard<std::mutex> lock(rx_mu_);
  return activity_;
}

void TcpEndpoint::wait_for_activity(std::uint64_t seen,
                                    double timeout_seconds) {
  std::unique_lock<std::mutex> lock(rx_mu_);
  rx_cv_.wait_for(lock, std::chrono::duration<double>(timeout_seconds),
                  [&] { return activity_ > seen; });
}

double TcpEndpoint::next_delivery() const {
  return std::numeric_limits<double>::infinity();
}

std::uint64_t TcpEndpoint::dropped() const {
  // Accepted-then-undeliverable frames (writer-side discards on dead or
  // never-connected links) count alongside the at-the-door drops.
  std::uint64_t n = dropped_;
  for (const auto& link : out_)
    n += link->tx_dropped.load(std::memory_order_relaxed);
  return n;
}

std::uint64_t TcpEndpoint::delivered() const {
  std::lock_guard<std::mutex> lock(rx_mu_);
  return delivered_count_;
}

obs::Histogram TcpEndpoint::delays() const {
  std::lock_guard<std::mutex> lock(rx_mu_);
  return delays_;
}

// ------------------------------------------------- TcpTransport facade

TcpTransport::TcpTransport(TcpOptions options)
    : impl_(std::make_unique<Impl>()) {
  impl_->start(std::move(options));
}

TcpTransport::~TcpTransport() = default;

std::size_t TcpTransport::world() const {
  return impl_->options.nodes.size();
}

std::vector<std::uint32_t> TcpTransport::local_ranks() const {
  return impl_->locals;
}

Endpoint& TcpTransport::endpoint(std::uint32_t rank) {
  ASYNCIT_CHECK(rank < impl_->endpoints.size() &&
                impl_->endpoints[rank] != nullptr);
  return *impl_->endpoints[rank];
}

void TcpTransport::flush(double timeout_seconds) {
  const double deadline = impl_->clock.seconds() + timeout_seconds;
  for (auto& ep : impl_->endpoints) {
    if (!ep) continue;
    for (auto& link : ep->out_) {
      if (!impl_->options.elastic &&
          link->fd.load(std::memory_order_relaxed) < 0)
        continue;
      std::unique_lock<std::mutex> lock(link->mu);
      link->cv.wait_for(
          lock,
          std::chrono::duration<double>(
              std::max(0.0, deadline - impl_->clock.seconds())),
          [&] { return link->queue.empty() && !link->writing; });
    }
  }
}

std::uint16_t TcpTransport::port_of(std::uint32_t rank) const {
  ASYNCIT_CHECK(rank < impl_->options.nodes.size());
  return impl_->options.nodes[rank].port;
}

std::uint64_t TcpTransport::bad_frames() const {
  return impl_->bad_frames.load(std::memory_order_relaxed);
}

}  // namespace asyncit::transport
