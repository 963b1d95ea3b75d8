// Tests for the membership subsystem: the SWIM state machine's
// incarnation precedence and suspect→dead→rejoin life cycle, refutation,
// gossip budgets and codec, the agent-level probe protocol driven
// entirely by a virtual clock, the elastic TCP fabric (late dial-in,
// lazy redial), detector false positives bounded by the configured
// timeouts under chaos-over-TCP load, and a full threaded solve with the
// detector running.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <memory>
#include <thread>

#include "asyncit/membership/membership.hpp"
#include "asyncit/membership/swim.hpp"
#include "asyncit/net/mp_runtime.hpp"
#include "asyncit/operators/jacobi.hpp"
#include "asyncit/problems/linear_system.hpp"
#include "asyncit/support/rng.hpp"
#include "asyncit/support/timer.hpp"
#include "asyncit/transport/chaos.hpp"
#include "asyncit/transport/tcp.hpp"

namespace asyncit::membership {
namespace {

Options fast_options() {
  Options o;
  o.enabled = true;
  o.ping_period = 0.05;
  o.ping_timeout = 0.1;
  o.suspicion_timeout = 0.5;
  return o;
}

// ------------------------------------------------------------- the table

TEST(MembershipTable, IncarnationPrecedenceRules) {
  MembershipTable t(0, 4, /*suspicion_timeout=*/1.0, {});
  // alive@0 everywhere at start.
  EXPECT_EQ(t.state(1), MemberState::kAlive);

  // suspect@i overrides alive@j iff i >= j.
  EXPECT_TRUE(t.apply({1, MemberState::kSuspect, 0}, 0.0));
  EXPECT_EQ(t.state(1), MemberState::kSuspect);
  // alive@i overrides suspect@j only with i > j: the suspicion sticks.
  EXPECT_FALSE(t.apply({1, MemberState::kAlive, 0}, 0.0));
  EXPECT_EQ(t.state(1), MemberState::kSuspect);
  // ...and a bumped alive (the member's refutation) clears it.
  EXPECT_TRUE(t.apply({1, MemberState::kAlive, 1}, 0.0));
  EXPECT_EQ(t.state(1), MemberState::kAlive);
  EXPECT_EQ(t.incarnation(1), 1u);

  // dead@i overrides alive/suspect@j for j <= i, and nothing revives at
  // the same incarnation.
  EXPECT_TRUE(t.apply({2, MemberState::kDead, 0}, 0.0));
  EXPECT_EQ(t.state(2), MemberState::kDead);
  EXPECT_FALSE(t.apply({2, MemberState::kAlive, 0}, 0.0));
  EXPECT_FALSE(t.apply({2, MemberState::kSuspect, 5}, 0.0));
  EXPECT_EQ(t.state(2), MemberState::kDead);
  // Rejoin: alive with a HIGHER incarnation resurrects the slot.
  EXPECT_TRUE(t.apply({2, MemberState::kAlive, 1}, 0.0));
  EXPECT_EQ(t.state(2), MemberState::kAlive);
}

TEST(MembershipTable, SuspectExpiresToDeadAndRejoinsWithBump) {
  MembershipTable t(0, 3, /*suspicion_timeout=*/1.0, {});
  EXPECT_EQ(t.live_ranks().size(), 3u);
  const std::uint64_t epoch0 = t.epoch();

  t.suspect(1, 10.0);
  EXPECT_EQ(t.state(1), MemberState::kSuspect);
  // A suspect is still in the live view (it keeps its blocks until the
  // grace period runs out).
  EXPECT_EQ(t.live_ranks().size(), 3u);
  EXPECT_EQ(t.epoch(), epoch0);

  t.tick(10.9);  // before the deadline: nothing happens
  EXPECT_EQ(t.state(1), MemberState::kSuspect);
  t.tick(11.0);  // grace period over
  EXPECT_EQ(t.state(1), MemberState::kDead);
  EXPECT_EQ(t.live_ranks(), (std::vector<std::uint32_t>{0, 2}));
  EXPECT_GT(t.epoch(), epoch0);

  std::vector<Event> events;
  t.drain_events(events);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, EventKind::kSuspected);
  EXPECT_EQ(events[1].kind, EventKind::kDied);
  EXPECT_EQ(events[1].rank, 1u);

  // Rejoin with a bumped incarnation: back in the live view, kJoined.
  EXPECT_TRUE(t.apply({1, MemberState::kAlive, 1}, 12.0));
  EXPECT_EQ(t.live_ranks().size(), 3u);
  events.clear();
  t.drain_events(events);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, EventKind::kJoined);
  EXPECT_EQ(events[0].rank, 1u);
  EXPECT_EQ(t.stats().deaths_observed, 1u);
  EXPECT_EQ(t.stats().joins_observed, 1u);
}

TEST(MembershipTable, RefutesClaimsAboutSelfWithIncarnationBump) {
  MembershipTable t(1, 3, 1.0, {});
  EXPECT_EQ(t.incarnation(1), 0u);
  // Someone suspects US at our current incarnation: outbid it.
  EXPECT_TRUE(t.apply({1, MemberState::kSuspect, 0}, 0.0));
  EXPECT_EQ(t.state(1), MemberState::kAlive);
  EXPECT_EQ(t.incarnation(1), 1u);
  EXPECT_EQ(t.stats().refutations, 1u);
  // A stale claim (lower incarnation) changes nothing.
  EXPECT_FALSE(t.apply({1, MemberState::kDead, 0}, 0.0));
  EXPECT_EQ(t.incarnation(1), 1u);
  // A dead claim at our level: the rejoin path of a restarted rank.
  EXPECT_TRUE(t.apply({1, MemberState::kDead, 1}, 0.0));
  EXPECT_EQ(t.state(1), MemberState::kAlive);
  EXPECT_EQ(t.incarnation(1), 2u);
  // The refutation travels in every payload: own entry first.
  std::vector<MembershipUpdate> gossip;
  t.collect_gossip(4, 0, gossip);
  ASSERT_FALSE(gossip.empty());
  EXPECT_EQ(gossip[0].rank, 1u);
  EXPECT_EQ(gossip[0].state, MemberState::kAlive);
  EXPECT_EQ(gossip[0].incarnation, 2u);
}

TEST(MembershipTable, UnknownSlotJoinsOnFirstClaim) {
  // Slot 3 is a spare (not in initial_alive): kUnknown, outside the live
  // view, and its alive@0 — a claim that would LOSE against dead@0 —
  // joins because unknown accepts any first claim.
  MembershipTable t(0, 4, 1.0, {0, 1, 2});
  EXPECT_EQ(t.state(3), MemberState::kUnknown);
  EXPECT_EQ(t.live_ranks().size(), 3u);
  EXPECT_TRUE(t.apply({3, MemberState::kAlive, 0}, 0.0));
  EXPECT_EQ(t.live_ranks().size(), 4u);
  std::vector<Event> events;
  t.drain_events(events);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, EventKind::kJoined);
}

TEST(MembershipTable, GossipBudgetExhausts) {
  MembershipTable t(0, 8, 1.0, {});
  t.suspect(3, 0.0);
  // The suspect entry rides along until its retransmission budget (3
  // log2 w = 9 for w=8) is spent; the own alive entry rides forever.
  std::vector<MembershipUpdate> out;
  int carried = 0;
  for (int i = 0; i < 40; ++i) {
    t.collect_gossip(4, 1, out);
    bool has = false;
    for (const MembershipUpdate& u : out)
      if (u.rank == 3) has = true;
    if (has) ++carried;
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(out[0].rank, 0u);  // own entry always first
  }
  EXPECT_EQ(carried, 9);
}

TEST(MembershipTable, GossipToSuspectCarriesTheDemotion) {
  MembershipTable t(0, 4, 1.0, {});
  t.suspect(2, 0.0);
  // Exhaust the queued entry.
  std::vector<MembershipUpdate> out;
  for (int i = 0; i < 20; ++i) t.collect_gossip(4, 1, out);
  // A frame TO the suspect still carries its demotion (it cannot refute
  // a suspicion it never hears about).
  t.collect_gossip(4, 2, out);
  bool has = false;
  for (const MembershipUpdate& u : out)
    if (u.rank == 2 && u.state == MemberState::kSuspect) has = true;
  EXPECT_TRUE(has);
}

// ------------------------------------------------------------- the codec

TEST(GossipCodec, RoundTripsAndRejectsMalformed) {
  std::vector<MembershipUpdate> in = {
      {0, MemberState::kAlive, 7},
      {3, MemberState::kSuspect, 1},
      {2, MemberState::kDead, 12345678901ull},
  };
  std::vector<double> payload;
  encode_gossip(in, payload);
  EXPECT_EQ(payload.size(), 9u);
  std::vector<MembershipUpdate> out;
  ASSERT_TRUE(decode_gossip(payload, 4, out));
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i].rank, in[i].rank);
    EXPECT_EQ(out[i].state, in[i].state);
    EXPECT_EQ(out[i].incarnation, in[i].incarnation);
  }

  using V = std::vector<double>;
  EXPECT_FALSE(decode_gossip(V{1.0, 0.0}, 4, out));        // arity
  EXPECT_FALSE(decode_gossip(V{4.0, 0.0, 0.0}, 4, out));   // rank range
  EXPECT_FALSE(decode_gossip(V{1.0, 3.0, 0.0}, 4, out));   // kUnknown on wire
  EXPECT_FALSE(decode_gossip(V{1.5, 0.0, 0.0}, 4, out));   // non-integral
  EXPECT_FALSE(decode_gossip(V{1.0, 0.0, -1.0}, 4, out));  // negative
}

// ------------------------------------- the agent, on a virtual clock

/// Shuttles control frames between agents instantly (a zero-latency
/// network); dropping a rank silences it.
class AgentHarness {
 public:
  AgentHarness(std::size_t world, const Options& options) {
    for (std::uint32_t r = 0; r < world; ++r)
      agents_.push_back(std::make_unique<SwimAgent>(
          r, world, options, /*seed=*/99));
  }

  SwimAgent& agent(std::uint32_t r) { return *agents_[r]; }
  void silence(std::uint32_t r) { silenced_.push_back(r); }

  /// One protocol round at time `now`: tick everyone, deliver everything.
  void step(double now) {
    for (std::uint32_t r = 0; r < agents_.size(); ++r) {
      if (is_silenced(r)) continue;
      agents_[r]->tick(now);
    }
    // Deliver until quiescent (acks may trigger forwards).
    bool any = true;
    while (any) {
      any = false;
      for (std::uint32_t src = 0; src < agents_.size(); ++src) {
        auto& outbox = agents_[src]->outbox();
        if (outbox.empty()) continue;
        std::vector<ControlFrame> frames;
        frames.swap(outbox);
        any = true;
        if (is_silenced(src)) continue;  // sent into the void
        for (const ControlFrame& f : frames) {
          if (is_silenced(f.dst)) continue;
          transport::Message m;
          m.src = src;
          m.kind = f.kind;
          m.block = f.target;
          m.tag = f.seq;
          m.value = f.payload;
          agents_[f.dst]->on_frame(m, now);
        }
      }
    }
  }

 private:
  bool is_silenced(std::uint32_t r) const {
    for (const std::uint32_t s : silenced_)
      if (s == r) return true;
    return false;
  }
  std::vector<std::unique_ptr<SwimAgent>> agents_;
  std::vector<std::uint32_t> silenced_;
};

TEST(SwimAgent, AnsweredProbesKeepEveryoneAlive) {
  Options opt = fast_options();
  opt.probe_busy_members = true;
  AgentHarness net(3, opt);
  for (int i = 0; i < 100; ++i) net.step(0.02 * i);  // 2 seconds
  for (std::uint32_t r = 0; r < 3; ++r) {
    EXPECT_EQ(net.agent(r).table().live_ranks().size(), 3u) << "rank " << r;
    EXPECT_EQ(net.agent(r).stats().deaths_observed, 0u);
  }
  EXPECT_GT(net.agent(0).stats().pings_sent, 0u);
  EXPECT_GT(net.agent(0).stats().acks_received, 0u);
}

TEST(SwimAgent, SilencedRankIsSuspectedThenDeclaredDead) {
  Options opt = fast_options();
  opt.probe_busy_members = true;
  AgentHarness net(3, opt);
  for (int i = 0; i < 20; ++i) net.step(0.02 * i);
  net.silence(2);
  // ping_timeout 0.1 -> indirect at +0.1, suspect at +0.2, dead at +0.7;
  // run to 3 s for plenty of margin.
  for (int i = 20; i < 150; ++i) net.step(0.02 * i);
  for (std::uint32_t r = 0; r < 2; ++r) {
    EXPECT_EQ(net.agent(r).table().state(2), MemberState::kDead)
        << "rank " << r;
    EXPECT_EQ(net.agent(r).table().live_ranks(),
              (std::vector<std::uint32_t>{0, 1}));
  }
  // The escalation actually went through the indirect phase.
  EXPECT_GT(net.agent(0).stats().ping_reqs_sent +
                net.agent(1).stats().ping_reqs_sent,
            0u);
}

TEST(SwimAgent, RejoinAfterDeathBumpsIncarnation) {
  Options opt = fast_options();
  opt.probe_busy_members = true;
  AgentHarness net(3, opt);
  net.silence(2);
  for (int i = 0; i < 100; ++i) net.step(0.02 * i);  // rank 2 dies
  ASSERT_EQ(net.agent(0).table().state(2), MemberState::kDead);

  // "Restart" rank 2: a fresh table believes itself alive@0, hears the
  // dead@0 claim about itself, refutes with alive@1, and the survivors
  // accept the bumped alive — the crash-rejoin cycle.
  MembershipTable fresh(2, 3, opt.suspicion_timeout, {});
  EXPECT_TRUE(fresh.apply({2, MemberState::kDead, 0}, 2.1));
  EXPECT_EQ(fresh.incarnation(2), 1u);  // refuted past the death
  EXPECT_TRUE(net.agent(0).table().apply(
      {2, MemberState::kAlive, fresh.incarnation(2)}, 2.2));
  EXPECT_EQ(net.agent(0).table().state(2), MemberState::kAlive);
  EXPECT_EQ(net.agent(0).table().live_ranks().size(), 3u);
}

}  // namespace
}  // namespace asyncit::membership

namespace asyncit::transport {
namespace {

std::vector<std::uint16_t> grab_free_ports(std::size_t n);

// ---------------------------------------------- elastic TCP fabric

TEST(ElasticTcp, LateRankDialsInAndIsDialedBack) {
  // World of 3 slots with fixed ports; ranks 0 and 1 rendezvous at
  // launch, slot 2 is late. (bind-then-release port picking: the same
  // accepted race as scripts/launch_cluster.py.)
  const auto ports = grab_free_ports(3);
  TcpOptions base;
  for (const std::uint16_t p : ports) base.nodes.push_back({"127.0.0.1", p});
  base.elastic = true;
  base.expected_ranks = {0, 1};

  std::unique_ptr<TcpTransport> a, b;
  std::thread ta([&] {
    TcpOptions o = base;
    o.local_ranks = {0};
    a = std::make_unique<TcpTransport>(std::move(o));
  });
  std::thread tb([&] {
    TcpOptions o = base;
    o.local_ranks = {1};
    b = std::make_unique<TcpTransport>(std::move(o));
  });
  ta.join();
  tb.join();

  WallTimer clock;
  auto wait_receive = [&](Endpoint& ep, std::size_t want,
                          std::vector<transport::Message>& out) {
    const double deadline = clock.seconds() + 10.0;
    while (out.size() < want && clock.seconds() < deadline) {
      const std::uint64_t seen = ep.activity();
      if (ep.receive(clock.seconds(), out) == 0)
        ep.wait_for_activity(seen, 0.05);
    }
    return out.size() >= want;
  };

  MessageHeader h;
  h.block = 0;
  const la::Vector payload{1.0, 2.0, 3.0};

  // The launch pair works like the static mesh.
  EXPECT_TRUE(a->endpoint(0).send(1, h, payload, 0.0, false).sent);
  std::vector<transport::Message> got;
  ASSERT_TRUE(wait_receive(b->endpoint(1), 1, got));
  EXPECT_EQ(got[0].src, 0u);
  b->endpoint(1).recycle(got);

  // The late rank appears: no rendezvous (expected_ranks empty), dials
  // rank 0 lazily on its first send...
  TcpOptions oc = base;
  oc.local_ranks = {2};
  oc.expected_ranks = {};
  TcpTransport c(std::move(oc));
  const double t0 = clock.seconds();
  bool delivered = false;
  std::vector<transport::Message> at_a;
  // The first attempt may race the writer's dial; membership retries
  // periodically, so the test retries the same way.
  while (!delivered && clock.seconds() < t0 + 10.0) {
    c.endpoint(2).send(0, h, payload, clock.seconds(), true);
    delivered = wait_receive(a->endpoint(0), 1, at_a);
  }
  ASSERT_TRUE(delivered);
  EXPECT_EQ(at_a[0].src, 2u);
  a->endpoint(0).recycle(at_a);

  // ...and rank 0's unconnected out-link to slot 2 redials backward.
  const double t1 = clock.seconds();
  delivered = false;
  std::vector<transport::Message> at_c;
  while (!delivered && clock.seconds() < t1 + 10.0) {
    a->endpoint(0).send(2, h, payload, clock.seconds(), true);
    delivered = wait_receive(c.endpoint(2), 1, at_c);
  }
  ASSERT_TRUE(delivered);
  EXPECT_EQ(at_c[0].src, 0u);
  c.endpoint(2).recycle(at_c);
}

std::vector<std::uint16_t> grab_free_ports(std::size_t n) {
  // Bind n ephemeral listeners simultaneously so the ports are distinct,
  // then release them for the transports to re-bind.
  std::vector<std::uint16_t> ports;
  std::vector<int> fds;
  for (std::size_t i = 0; i < n; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    sa.sin_port = 0;
    EXPECT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&sa),
                     sizeof(sa)),
              0);
    socklen_t len = sizeof(sa);
    EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len), 0);
    ports.push_back(ntohs(sa.sin_port));
    fds.push_back(fd);
  }
  for (const int fd : fds) ::close(fd);
  return ports;
}

// -------------------------- detector under chaos-over-TCP data load

net::MpOptions detector_run_options(double seconds) {
  net::MpOptions opt;
  opt.workers = 3;
  opt.solve.mode = net::Mode::kAsync;
  // No stopping criterion at all: the run lasts exactly `seconds`, which
  // is the measurement window for the detector. The slowdown keeps the
  // value traffic at a realistic rate — an UNTHROTTLED microbenchmark
  // loop saturates the loopback sockets so thoroughly that acks queue
  // behind megabytes of block values and every rank looks dead, which
  // is a genuine overload condition, not a detector false positive.
  opt.worker_slowdown = {300.0, 300.0, 300.0};
  opt.solve.max_seconds = seconds;
  opt.solve.max_updates = ~0ull;
  opt.seed = 5;
  opt.membership.enabled = true;
  opt.membership.probe_busy_members = true;
  opt.membership.ping_period = 0.04;
  opt.membership.ping_timeout = 0.25;
  opt.membership.suspicion_timeout = 1.0;
  return opt;
}

TEST(DetectorOverChaosTcp, NoFalseDeathsWhenDelayIsUnderTheTimeout) {
  Rng rng(31);
  auto sys = problems::make_diagonally_dominant_system(24, 3, 2.0, rng);
  la::Partition partition = la::Partition::balanced(24, 6);
  op::JacobiOperator jacobi(sys.a, sys.b, partition);

  TcpOptions topts;
  topts.nodes = {{"127.0.0.1", 0}, {"127.0.0.1", 0}, {"127.0.0.1", 0}};
  TcpTransport tcp(std::move(topts));
  transport::DeliveryPolicy policy;
  policy.min_latency = 0.0;
  policy.max_latency = 0.02;  // well under ping_timeout 0.25
  ChaosTransport chaos(tcp, policy, 5);

  const net::MpOptions opt = detector_run_options(1.5);
  const net::MpResult r =
      net::run_message_passing(jacobi, la::zeros(24), opt, chaos);

  // The false-positive bound: injected delay far below the probe window
  // means nobody is EVER declared dead, however busy the ranks are.
  EXPECT_EQ(r.membership.deaths_observed, 0u);
  EXPECT_GT(r.membership.pings_sent, 0u);
  EXPECT_GT(r.membership.acks_received, 0u);
  EXPECT_EQ(r.membership.control_rejected, 0u);
  EXPECT_EQ(r.bad_frames, 0u);
  EXPECT_EQ(r.frames_rejected, 0u);
  EXPECT_EQ(r.reassignments, 0u);
}

TEST(DetectorOverChaosTcp, DelayBeyondTheProbeWindowRaisesSuspicions) {
  Rng rng(32);
  auto sys = problems::make_diagonally_dominant_system(24, 3, 2.0, rng);
  la::Partition partition = la::Partition::balanced(24, 6);
  op::JacobiOperator jacobi(sys.a, sys.b, partition);

  TcpOptions topts;
  topts.nodes = {{"127.0.0.1", 0}, {"127.0.0.1", 0}, {"127.0.0.1", 0}};
  TcpTransport tcp(std::move(topts));
  transport::DeliveryPolicy policy;
  policy.min_latency = 0.6;  // every ack misses the 2 x 0.25 s window
  policy.max_latency = 0.9;
  ChaosTransport chaos(tcp, policy, 5);

  net::MpOptions opt = detector_run_options(2.0);
  const net::MpResult r =
      net::run_message_passing(jacobi, la::zeros(24), opt, chaos);

  // Same detector, delays beyond the window: suspicions MUST fire (this
  // is the knob the false-positive bound is measured against). The long
  // suspicion_timeout (1 s) plus refutations keeps most of them from
  // maturing into deaths; deaths are possible and legal here, so only
  // the suspicion count is asserted.
  EXPECT_GT(r.membership.suspicions, 0u);
  EXPECT_EQ(r.membership.control_rejected, 0u);
}

// --------------------------------- full solve with the detector on

TEST(MembershipRuntime, ThreadedSolveConvergesWithDetectorRunning) {
  Rng rng(33);
  auto sys = problems::make_diagonally_dominant_system(48, 4, 2.0, rng);
  la::Partition partition = la::Partition::balanced(48, 8);
  op::JacobiOperator jacobi(sys.a, sys.b, partition);
  const la::Vector x_star =
      op::picard_solve(jacobi, la::zeros(48), 50000, 1e-14);

  net::MpOptions opt;
  opt.workers = 4;
  opt.solve.mode = net::Mode::kAsync;
  opt.solve.tol = 1e-9;
  opt.solve.x_star = x_star;
  opt.solve.max_seconds = 20.0;
  opt.seed = 7;
  opt.membership.enabled = true;
  opt.membership.ping_period = 0.02;
  opt.membership.ping_timeout = 0.2;
  opt.membership.suspicion_timeout = 2.0;

  const net::MpResult r =
      net::run_message_passing(jacobi, la::zeros(48), opt);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.membership.deaths_observed, 0u);
  EXPECT_EQ(r.frames_rejected, 0u);
  EXPECT_EQ(r.reassignments, 0u);
}

}  // namespace
}  // namespace asyncit::transport
