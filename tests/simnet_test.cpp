// Tests for the simnet/ virtual-time subsystem: engine dispatch order and
// byte-identical determinism, fiber time semantics (charge / advance /
// wait_until / wake), the WAN topology model behind SimTransport
// (latency, regions, asymmetry, fifo floors, partition windows, seeded
// drops), cross-backend parity against inproc, the obs trace-clock
// injection hook, and whole simulated worlds: the chaos convergence tests
// re-run over virtual time with NO wall-clock budget (the real-socket
// originals in transport_test/net_test stay as wall-time canaries), SWIM
// membership over virtual time, virtual solve budgets, partition/heal
// scenarios, and the PSGD train stack over run_train_world.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "asyncit/linalg/norms.hpp"
#include "asyncit/net/mp_runtime.hpp"
#include "asyncit/net/node_runtime.hpp"
#include "asyncit/obs/trace_recorder.hpp"
#include "asyncit/operators/jacobi.hpp"
#include "asyncit/problems/linear_system.hpp"
#include "asyncit/simnet/engine.hpp"
#include "asyncit/simnet/transport.hpp"
#include "asyncit/simnet/world.hpp"
#include "asyncit/support/rng.hpp"
#include "asyncit/train/dataset.hpp"
#include "asyncit/train/train.hpp"
#include "asyncit/transport/inproc.hpp"

namespace asyncit::simnet {
namespace {

// ----------------------------------------------------------------- engine

TEST(SimEngine, DispatchOrdersByVirtualTimeNotSpawnOrder) {
  SimEngine eng;
  std::vector<std::pair<std::uint32_t, double>> order;
  // Spawned 0,1,2 but sleeping 3s, 1s, 2s: resume order must be 1,2,0.
  eng.spawn(0, [&] { eng.advance(3.0); order.emplace_back(0, eng.now()); });
  eng.spawn(1, [&] { eng.advance(1.0); order.emplace_back(1, eng.now()); });
  eng.spawn(2, [&] { eng.advance(2.0); order.emplace_back(2, eng.now()); });
  eng.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], (std::pair<std::uint32_t, double>{1, 1.0}));
  EXPECT_EQ(order[1], (std::pair<std::uint32_t, double>{2, 2.0}));
  EXPECT_EQ(order[2], (std::pair<std::uint32_t, double>{0, 3.0}));
  EXPECT_EQ(eng.events_dispatched(), 6u);  // 3 spawns + 3 resumes
}

TEST(SimEngine, EqualTimesTieBreakInPushOrder) {
  SimEngine eng;
  std::vector<std::uint32_t> order;
  for (std::uint32_t r = 0; r < 4; ++r)
    eng.spawn(r, [&, r] {
      order.push_back(r);        // spawn slice, t = 0
      eng.advance(1.0);          // all resume at exactly t = 1
      order.push_back(r + 10);
    });
  eng.run();
  const std::vector<std::uint32_t> expect = {0, 1, 2, 3, 10, 11, 12, 13};
  EXPECT_EQ(order, expect);
}

TEST(SimEngine, ChargeAccruesCostWithoutYielding) {
  SimEngine eng;
  double t_mid = -1.0, t_end = -1.0;
  eng.spawn(0, [&] {
    eng.charge(0.25);
    t_mid = eng.now();  // accrued, no yield
    eng.advance(0.25);  // resumes at accrued + dt
    t_end = eng.now();
  });
  eng.run();
  EXPECT_DOUBLE_EQ(t_mid, 0.25);
  EXPECT_DOUBLE_EQ(t_end, 0.5);
}

TEST(SimEngine, WakeCutsAWaitShortAndRecordsTheWaker) {
  SimEngine::Options opts;
  opts.record_log = true;
  SimEngine eng(opts);
  double woke_at = -1.0;
  eng.spawn(0, [&] {
    eng.wait_until(10.0);
    woke_at = eng.now();
  });
  eng.spawn(1, [&] {
    eng.advance(2.0);
    eng.wake(0, eng.now() + 0.5, /*aux=*/1);
  });
  eng.run();
  EXPECT_DOUBLE_EQ(woke_at, 2.5);  // wake time, not the 10s deadline
  bool saw_wake = false;
  for (const EventRecord& ev : eng.log())
    if (ev.kind == static_cast<std::uint16_t>(EventKind::kWake)) {
      saw_wake = true;
      EXPECT_EQ(ev.rank, 0u);
      EXPECT_EQ(ev.aux, 1u);
      EXPECT_DOUBLE_EQ(ev.t, 2.5);
    }
  EXPECT_TRUE(saw_wake);
}

TEST(SimEngine, WaitWithNoWakeResumesAtTheDeadline) {
  SimEngine eng;
  double woke_at = -1.0;
  eng.spawn(0, [&] {
    eng.wait_until(4.0);
    woke_at = eng.now();
  });
  eng.spawn(1, [&] { eng.advance(1.0); });
  eng.run();
  EXPECT_DOUBLE_EQ(woke_at, 4.0);
}

std::pair<std::vector<EventRecord>, std::uint64_t> run_engine_script() {
  SimEngine::Options opts;
  opts.record_log = true;
  SimEngine eng(opts);
  eng.spawn(0, [&] {
    for (int i = 0; i < 5; ++i) eng.advance(0.25);
  });
  eng.spawn(1, [&] {
    for (int i = 0; i < 3; ++i) eng.advance(0.4);
    eng.wake(2, eng.now() + 0.1, 7);
  });
  eng.spawn(2, [&] { eng.wait_until(100.0); });
  eng.run();
  return {eng.log(), eng.log_hash()};
}

TEST(SimEngine, TwoRunsProduceByteIdenticalEventLogs) {
  const auto a = run_engine_script();
  const auto b = run_engine_script();
  EXPECT_EQ(a.second, b.second);
  ASSERT_EQ(a.first.size(), b.first.size());
  ASSERT_FALSE(a.first.empty());
  EXPECT_EQ(std::memcmp(a.first.data(), b.first.data(),
                        a.first.size() * sizeof(EventRecord)),
            0);
}

// -------------------------------------------------- transport (passive)

transport::MessageHeader value_header(std::uint64_t tag) {
  transport::MessageHeader h;
  h.block = 0;
  h.tag = tag;
  h.kind = net::MsgKind::kValue;
  return h;
}

TEST(SimTransport, PassiveDeliveryMaturesAfterTheLinkLatency) {
  SimConfig cfg;
  cfg.topology.latency = 1e-3;
  cfg.topology.jitter = 0.0;
  SimTransport fabric(2, cfg, 5, /*engine=*/nullptr);
  const double payload[3] = {1.0, 2.0, 3.0};
  const auto receipt =
      fabric.endpoint(0).send(1, value_header(1), payload, 0.0, false);
  ASSERT_TRUE(receipt.sent);
  EXPECT_DOUBLE_EQ(receipt.deliver_at, 1e-3);

  std::vector<net::Message> got;
  EXPECT_EQ(fabric.endpoint(1).receive(0.5e-3, got), 0u);  // not matured
  ASSERT_EQ(fabric.endpoint(1).receive(2e-3, got), 1u);
  EXPECT_EQ(got[0].src, 0u);
  EXPECT_EQ(got[0].tag, 1u);
  ASSERT_EQ(got[0].value.size(), 3u);
  EXPECT_DOUBLE_EQ(got[0].value[2], 3.0);
  EXPECT_EQ(fabric.endpoint(1).delivered(), 1u);
  EXPECT_GT(fabric.endpoint(1).delays().count(), 0u);
  fabric.endpoint(1).recycle(got);
  EXPECT_TRUE(got.empty());
}

TEST(SimTransport, BaseLatencyEncodesRegionsAndAsymmetry) {
  SimConfig cfg;
  cfg.topology.latency = 1e-3;
  cfg.topology.regions = 2;
  cfg.topology.cross_region = 4.0;
  {
    SimTransport fabric(4, cfg, 9, nullptr);
    // rank % regions: 0,2 share a region; 0 -> 1 crosses.
    EXPECT_DOUBLE_EQ(fabric.base_latency(0, 2), 1e-3);
    EXPECT_DOUBLE_EQ(fabric.base_latency(0, 1), 4e-3);
  }
  cfg.topology.asymmetry = 0.5;
  {
    SimTransport fabric(4, cfg, 9, nullptr);
    const double fwd = fabric.base_latency(0, 1);
    const double rev = fabric.base_latency(1, 0);
    EXPECT_NE(fwd, rev);  // routes are direction-specific
    for (const double b : {fwd, rev}) {
      EXPECT_GE(b, 4e-3 * 0.5);
      EXPECT_LE(b, 4e-3 * 1.5);
    }
    // and deterministic functions of the seed
    SimTransport again(4, cfg, 9, nullptr);
    EXPECT_DOUBLE_EQ(again.base_latency(0, 1), fwd);
    EXPECT_DOUBLE_EQ(again.base_latency(1, 0), rev);
  }
}

TEST(SimTransport, FifoFloorKeepsPerLinkOrderUnderHeavyJitter) {
  SimConfig cfg;
  cfg.topology.latency = 1e-3;
  cfg.topology.jitter = 0.9;
  cfg.topology.fifo = true;
  SimTransport fifo(2, cfg, 21, nullptr);
  cfg.topology.fifo = false;
  SimTransport loose(2, cfg, 21, nullptr);
  const double payload[1] = {1.0};
  for (std::uint64_t tag = 0; tag < 50; ++tag) {
    fifo.endpoint(0).send(1, value_header(tag), payload, 0.0, false);
    loose.endpoint(0).send(1, value_header(tag), payload, 0.0, false);
  }
  std::vector<net::Message> got;
  ASSERT_EQ(fifo.endpoint(1).receive(10.0, got), 50u);
  for (std::uint64_t tag = 0; tag < 50; ++tag)
    EXPECT_EQ(got[tag].tag, tag);  // in-order despite the jitter
  fifo.endpoint(1).recycle(got);

  ASSERT_EQ(loose.endpoint(1).receive(10.0, got), 50u);
  bool inverted = false;
  for (std::size_t i = 1; i < got.size(); ++i)
    inverted = inverted || got[i].tag < got[i - 1].tag;
  EXPECT_TRUE(inverted);  // same draws without the floor DO reorder
  loose.endpoint(1).recycle(got);
}

TEST(SimTransport, PartitionWindowSeversTheCutAndHeals) {
  SimConfig cfg;
  cfg.topology.latency = 1e-3;
  cfg.topology.jitter = 0.0;
  cfg.topology.partitions.push_back({0.0, 1.0, 2});  // {0,1} | {2,3}
  SimTransport fabric(4, cfg, 3, nullptr);
  const double payload[1] = {1.0};
  // Inside the window: cross-cut frames vanish (even with allow_drop
  // false — a severed link loses control frames too), same-side flow.
  EXPECT_FALSE(
      fabric.endpoint(0).send(2, value_header(1), payload, 0.5, false).sent);
  EXPECT_TRUE(
      fabric.endpoint(0).send(1, value_header(2), payload, 0.5, false).sent);
  EXPECT_EQ(fabric.partition_dropped(), 1u);
  EXPECT_EQ(fabric.endpoint(0).dropped(), 1u);
  // The window end is the heal.
  EXPECT_TRUE(
      fabric.endpoint(0).send(2, value_header(3), payload, 1.5, false).sent);
  std::vector<net::Message> got;
  EXPECT_EQ(fabric.endpoint(2).receive(5.0, got), 1u);
  fabric.endpoint(2).recycle(got);
}

TEST(SimTransport, SeededDropsReplayExactly) {
  SimConfig cfg;
  cfg.topology.latency = 1e-3;
  cfg.topology.drop_prob = 0.3;
  SimTransport a(2, cfg, 77, nullptr);
  SimTransport b(2, cfg, 77, nullptr);
  const double payload[1] = {1.0};
  for (std::uint64_t tag = 0; tag < 200; ++tag) {
    const double now = 1e-3 * static_cast<double>(tag);
    const bool sa =
        a.endpoint(0).send(1, value_header(tag), payload, now, true).sent;
    const bool sb =
        b.endpoint(0).send(1, value_header(tag), payload, now, true).sent;
    EXPECT_EQ(sa, sb) << "tag " << tag;
  }
  EXPECT_GT(a.endpoint(0).dropped(), 0u);
  EXPECT_GT(a.endpoint(0).sent() - a.endpoint(0).dropped(), 0u);
  EXPECT_EQ(a.endpoint(0).dropped(), b.endpoint(0).dropped());

  std::vector<net::Message> ga, gb;
  ASSERT_EQ(a.endpoint(1).receive(10.0, ga),
            b.endpoint(1).receive(10.0, gb));
  for (std::size_t i = 0; i < ga.size(); ++i)
    EXPECT_EQ(ga[i].tag, gb[i].tag);  // identical delivery sequence
  a.endpoint(1).recycle(ga);
  b.endpoint(1).recycle(gb);
}

// ------------------------------------------------- cross-backend parity

TEST(BackendParity, ScriptedSendsDrainInTheSameOrderAsInproc) {
  // Zero-latency topologies on both backends, one scripted driver
  // thread: the delivery ORDER must be the send order on both sides —
  // the determinism bar the engine's (t, seq) tie-break inherits.
  net::DeliveryPolicy instant;  // min=max=0, no drops
  instant.min_latency = 0.0;
  instant.max_latency = 0.0;
  transport::InprocTransport inproc(3, instant, 13);
  SimConfig cfg;
  cfg.topology.latency = 0.0;
  cfg.topology.jitter = 0.0;
  SimTransport sim(3, cfg, 13, nullptr);

  const double payload[2] = {4.0, 5.0};
  std::uint64_t tag = 0;
  for (int round = 0; round < 8; ++round)
    for (std::uint32_t src : {1u, 2u, 1u}) {
      inproc.endpoint(src).send(0, value_header(tag), payload, 0.0, false);
      sim.endpoint(src).send(0, value_header(tag), payload, 0.0, false);
      ++tag;
    }

  std::vector<net::Message> got_inproc, got_sim;
  ASSERT_EQ(inproc.endpoint(0).receive(1.0, got_inproc), tag);
  ASSERT_EQ(sim.endpoint(0).receive(1.0, got_sim), tag);
  for (std::size_t i = 0; i < got_sim.size(); ++i) {
    EXPECT_EQ(got_sim[i].src, got_inproc[i].src) << "position " << i;
    EXPECT_EQ(got_sim[i].tag, got_inproc[i].tag) << "position " << i;
  }
  inproc.endpoint(0).recycle(got_inproc);
  sim.endpoint(0).recycle(got_sim);
}

// ------------------------------------------- publish == ordered sends

/// Every frame shape a publish can carry, to repeated destinations: full
/// windows of the base, a delta window, a heartbeat, a codec frame with
/// its own payload (quantization params drive simnet's serialization
/// cost), and a payload-less control frame.
struct FanOutScript {
  la::Vector base;
  la::Vector codec = {0.5, 0.25, 0.125};

  FanOutScript() : base(16) {
    for (std::size_t i = 0; i < base.size(); ++i) base[i] = 0.1 * double(i);
  }

  std::vector<transport::Frame> frames(std::uint64_t tag) const {
    std::vector<transport::Frame> out;
    auto add = [&](std::uint32_t dst, std::span<const double> v) {
      transport::Frame& f = out.emplace_back();
      f.dst = dst;
      f.header = value_header(tag);
      f.header.round = tag;
      f.value = v;
    };
    add(1, base);
    add(2, std::span<const double>(base).subspan(3, 5));
    out.back().header.offset = 3;
    out.back().header.partial = true;
    out.back().header.complete = true;
    add(3, {});  // heartbeat
    out.back().header.partial = true;
    add(4, codec);
    out.back().header.quant_bits = 16;
    out.back().header.quant_min = 0.125;
    out.back().header.quant_scale = 0.375 / 65535.0;
    add(1, base);  // a second frame on an already-used link
    add(2, {});
    out.back().header.kind = net::MsgKind::kStop;
    return out;
  }
};

/// What a destination saw: headers, timing and the payload bytes.
struct Delivery {
  std::uint32_t dst, src;
  std::uint64_t tag, round;
  std::uint32_t offset;
  bool partial, complete;
  net::MsgKind kind;
  double t_send, deliver_at;
  std::vector<double> payload;
  bool operator==(const Delivery&) const = default;
};

/// Drives rank 0 through 40 fan-outs, either as publish() calls or as
/// the same frames passed to send() in order, then drains every rank.
template <class Fabric>
std::pair<std::vector<transport::SendReceipt>, std::vector<Delivery>>
drive_fan_out(Fabric& fabric, std::uint32_t world, bool publish) {
  const FanOutScript script;
  std::vector<transport::SendReceipt> receipts;
  for (std::uint64_t tag = 0; tag < 40; ++tag) {
    const double now = 1e-3 * double(tag);
    const std::vector<transport::Frame> frames = script.frames(tag);
    if (publish) {
      std::vector<transport::SendReceipt> r(frames.size());
      fabric.endpoint(0).publish(script.base, frames, now,
                                 /*allow_drop=*/true, r);
      receipts.insert(receipts.end(), r.begin(), r.end());
    } else {
      for (const transport::Frame& f : frames)
        receipts.push_back(fabric.endpoint(0).send(f.dst, f.header, f.value,
                                                   now, /*allow_drop=*/true));
    }
  }
  std::vector<Delivery> seen;
  std::vector<net::Message> got;
  for (std::uint32_t dst = 1; dst < world; ++dst) {
    fabric.endpoint(dst).receive(1e9, got);
    for (const net::Message& m : got)
      seen.push_back({dst, m.src, m.tag, m.round, m.offset, m.partial,
                      m.complete, m.kind, m.t_send, m.deliver_at,
                      std::vector<double>(m.value.begin(), m.value.end())});
    fabric.endpoint(dst).recycle(got);
  }
  return {receipts, seen};
}

void expect_same_receipts(const std::vector<transport::SendReceipt>& a,
                          const std::vector<transport::SendReceipt>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].sent, b[i].sent) << "frame " << i;
    EXPECT_EQ(a[i].t_send, b[i].t_send) << "frame " << i;
    EXPECT_EQ(a[i].deliver_at, b[i].deliver_at) << "frame " << i;
  }
}

TEST(PublishParity, SimnetPublishEqualsTheSameFramesSentInOrder) {
  // The whole publish contract, checked against its definition: same
  // receipts (draws, drops, partition cuts, serialization latency), same
  // per-destination delivery order (the (deliver_at, seq) order) and
  // bit-identical payloads, for every frame shape.
  SimConfig cfg;
  cfg.topology.latency = 1e-3;
  cfg.topology.jitter = 0.7;
  cfg.topology.drop_prob = 0.2;
  cfg.topology.bandwidth = 1e6;
  cfg.topology.partitions.push_back({0.01, 0.02, 2});
  SimTransport by_publish(5, cfg, 31, nullptr);
  SimTransport by_send(5, cfg, 31, nullptr);
  const auto [ra, da] = drive_fan_out(by_publish, 5, /*publish=*/true);
  const auto [rb, db] = drive_fan_out(by_send, 5, /*publish=*/false);
  expect_same_receipts(ra, rb);
  EXPECT_EQ(da, db);
  EXPECT_GT(by_publish.partition_dropped(), 0u);
  EXPECT_GT(by_publish.endpoint(0).dropped(),
            by_publish.partition_dropped());  // the loss model fired too
  // One copy of the base per publish (plus the codec frame's own
  // payload when it leaves), never one per destination — the per-frame
  // path copies every frame that leaves.
  const FanOutScript script;
  const std::size_t per_publish = script.frames(0).size();
  std::size_t codec_sent = 0;
  for (std::size_t i = 3; i < ra.size(); i += per_publish)
    codec_sent += ra[i].sent;  // frame 3 carries the codec payload
  EXPECT_EQ(by_publish.payload_doubles_copied(),
            40 * script.base.size() + codec_sent * script.codec.size());
  EXPECT_GT(by_send.payload_doubles_copied(),
            by_publish.payload_doubles_copied());
  EXPECT_EQ(by_publish.slabs_outstanding(), 0u);
  EXPECT_EQ(by_send.slabs_outstanding(), 0u);
}

TEST(PublishParity, InprocPublishEqualsTheSameFramesSentInOrder) {
  // Scripted from one thread over inproc: seeded per-link latency and
  // drop streams — publish must consume them exactly as ordered sends.
  net::DeliveryPolicy policy;
  policy.min_latency = 0.0;
  policy.max_latency = 2e-3;
  policy.drop_prob = 0.2;
  transport::InprocTransport by_publish(5, policy, 31);
  transport::InprocTransport by_send(5, policy, 31);
  const auto [ra, da] = drive_fan_out(by_publish, 5, /*publish=*/true);
  const auto [rb, db] = drive_fan_out(by_send, 5, /*publish=*/false);
  expect_same_receipts(ra, rb);
  EXPECT_EQ(da, db);
  EXPECT_GT(by_publish.endpoint(0).dropped(), 0u);
  EXPECT_EQ(by_publish.slabs_outstanding(), 0u);
  EXPECT_EQ(by_send.slabs_outstanding(), 0u);
}

// ------------------------------------------------------ trace clock hook

std::uint64_t g_fake_ns = 0;
std::uint64_t fake_clock() { return g_fake_ns; }

TEST(TraceClock, InjectedSourceDrivesRecorderTimestamps) {
  obs::set_trace_clock(&fake_clock);
  g_fake_ns = 5'000'000'000ull;
  obs::TraceConfig tc;
  tc.level = obs::TraceLevel::kMetrics;
  tc.ring_capacity = 64;
  obs::TraceRecorder::instance().enable(tc);
  // t0 latched from the injected source at enable(): elapsed reads 0.
  EXPECT_EQ(obs::TraceRecorder::instance().now_ns(), 0u);
  g_fake_ns += 1234;
  EXPECT_EQ(obs::TraceRecorder::instance().now_ns(), 1234u);
  obs::TraceRecorder::instance().disable();
  obs::set_trace_clock(nullptr);
  EXPECT_EQ(obs::trace_clock(), nullptr);
}

// ------------------------------------------------------ simulated worlds

class SimWorldFixture : public ::testing::Test {
 protected:
  SimWorldFixture() : rng_(61) {
    sys_ = problems::make_diagonally_dominant_system(128, 4, 2.0, rng_);
    partition_ = la::Partition::balanced(sys_.dim(), 16);
    jacobi_ =
        std::make_unique<op::JacobiOperator>(sys_.a, sys_.b, partition_);
    x_star_ = op::picard_solve(*jacobi_, la::zeros(sys_.dim()), 50000,
                               1e-14);
  }

  WorldOptions base_world(std::size_t world) const {
    WorldOptions o;
    o.mp.workers = world;
    o.mp.seed = 17;
    o.mp.solve.tol = 1e-9;
    o.mp.solve.x_star = x_star_;
    // VIRTUAL budget — generous because it costs nothing real.
    o.mp.solve.max_seconds = 300.0;
    o.mp.solve.max_updates = 100000000;
    o.sim.topology.latency = 2e-4;
    o.sim.topology.jitter = 0.5;
    o.sim.compute.phase = 1e-4;
    o.sim.compute.jitter = 0.3;
    return o;
  }

  Rng rng_;
  problems::LinearSystem sys_;
  la::Partition partition_;
  std::unique_ptr<op::JacobiOperator> jacobi_;
  la::Vector x_star_;
};

TEST_F(SimWorldFixture, AllThreeModesConvergeInVirtualTime) {
  // The net_test AllThreeModesConverge scenario with the wall clock
  // removed: there is NO wall budget to overrun here — time is virtual,
  // so a loaded CI host can slow the test but never flake it. The
  // real-socket original stays as the wall-time canary.
  for (const net::Mode mode :
       {net::Mode::kAsync, net::Mode::kSsp, net::Mode::kBsp}) {
    WorldOptions o = base_world(4);
    o.mp.solve.mode = mode;
    o.mp.solve.staleness = 2;
    const WorldResult r = run_world(*jacobi_, la::zeros(sys_.dim()), o);
    EXPECT_TRUE(r.all_converged)
        << "mode " << static_cast<int>(mode) << " residual "
        << r.final_residual;
    EXPECT_LT(r.final_residual, 1e-8);
    EXPECT_GT(r.virtual_seconds, 0.0);
    EXPECT_GT(r.events, 0u);
    EXPECT_GT(r.total_updates, 0u);
    EXPECT_GT(r.messages_delivered, 0u);
  }
}

TEST_F(SimWorldFixture, ChaosOverSimRunsTheDelayModelInVirtualTime) {
  // ChaosOverTcpRunsTheDelayModelOnRealSockets, minus the sockets and
  // minus the wall clock: the same decorator injects the same seeded
  // delay model, the delay floor survives, and the run is fully traced
  // and audited — with event timestamps in virtual nanoseconds.
  WorldOptions o = base_world(4);
  o.mp.solve.tol = 1e-8;
  o.chaos = true;
  o.chaos_policy.min_latency = 2e-4;
  o.chaos_policy.max_latency = 2e-3;
  o.mp.obs.trace_level = obs::TraceLevel::kFull;
  o.mp.obs.audit = true;
  const obs::TraceClockFn before = obs::trace_clock();
  const WorldResult r = run_world(*jacobi_, la::zeros(sys_.dim()), o);
  EXPECT_TRUE(r.all_converged) << "residual " << r.final_residual;
  EXPECT_GT(r.obs_events_recorded, 0u);
  EXPECT_EQ(obs::trace_clock(), before);  // the scope restored it
  for (const net::MpResult& rank : r.ranks) {
    ASSERT_GT(rank.delays.count(), 0u);
    // Every measured delay includes the injected hold: the model's
    // floor survives the virtual path exactly as it did the socket one.
    EXPECT_GE(rank.delays.min(), o.chaos_policy.min_latency);
    ASSERT_EQ(rank.admissibility.size(), 1u);
  }
}

TEST_F(SimWorldFixture, SixtyFourRanksReplayByteIdentically) {
  // One (config, seed) pair names exactly one execution: event logs are
  // byte-equal and the iterates bit-equal across runs — at a world size
  // no thread-backed backend could ever schedule reproducibly.
  la::Partition fine = la::Partition::balanced(sys_.dim(), 128);
  op::JacobiOperator jacobi(sys_.a, sys_.b, fine);
  WorldOptions o = base_world(64);
  o.sim.record_log = true;
  const WorldResult a = run_world(jacobi, la::zeros(sys_.dim()), o);
  const WorldResult b = run_world(jacobi, la::zeros(sys_.dim()), o);
  EXPECT_TRUE(a.all_converged) << "residual " << a.final_residual;
  EXPECT_EQ(a.log_hash, b.log_hash);
  EXPECT_EQ(a.events, b.events);
  ASSERT_EQ(a.event_log.size(), b.event_log.size());
  ASSERT_FALSE(a.event_log.empty());
  EXPECT_FALSE(a.log_truncated);
  EXPECT_EQ(std::memcmp(a.event_log.data(), b.event_log.data(),
                        a.event_log.size() * sizeof(EventRecord)),
            0);
  EXPECT_EQ(a.final_residual, b.final_residual);  // bitwise, not approx
  for (std::size_t r = 0; r < a.ranks.size(); ++r)
    EXPECT_EQ(la::dist_inf(a.ranks[r].x, b.ranks[r].x), 0.0);
}

TEST_F(SimWorldFixture, PartitionWindowDelaysButDoesNotPreventConvergence) {
  WorldOptions o = base_world(4);
  // Sever {0,1} from {2,3} for the first 50 virtual ms — long enough
  // that the halves exhaust local progress — then heal.
  o.sim.topology.partitions.push_back({0.0, 0.05, 2});
  const WorldResult healed = run_world(*jacobi_, la::zeros(sys_.dim()), o);
  EXPECT_TRUE(healed.all_converged)
      << "residual " << healed.final_residual;
  EXPECT_GT(healed.partition_dropped, 0u);
  // The cut has to cost virtual time against the unpartitioned run.
  WorldOptions clean = base_world(4);
  const WorldResult base = run_world(*jacobi_, la::zeros(sys_.dim()), clean);
  EXPECT_GT(healed.virtual_seconds, base.virtual_seconds);
  EXPECT_GT(healed.virtual_seconds, 0.05);  // converged after the heal
}

TEST_F(SimWorldFixture, CompressedWorldReplaysByteIdenticallyOverSimnet) {
  // The full wire-efficiency stack — delta encoding, top-k windows,
  // 16-bit quantization — under the virtual-time engine: one (config,
  // seed) pair still names exactly one execution, and a finite bandwidth
  // makes the serialization cost track TRUE bytes on the wire (a
  // quantized frame occupies the link for fewer virtual seconds than the
  // raw frame it replaced).
  WorldOptions o = base_world(4);
  o.mp.solve.tol = 1e-3;  // lossy codec: residual band, not bit equality
  o.mp.wire.delta = true;
  o.mp.wire.topk = 4;
  o.mp.wire.quant_bits = 16;
  o.mp.wire.refresh_every = 4;
  o.sim.topology.bandwidth = 1e6;
  o.sim.record_log = true;
  const WorldResult a = run_world(*jacobi_, la::zeros(sys_.dim()), o);
  const WorldResult b = run_world(*jacobi_, la::zeros(sys_.dim()), o);
  EXPECT_TRUE(a.all_converged) << "residual " << a.final_residual;
  EXPECT_LT(a.final_residual, 1e-2);
  EXPECT_EQ(a.log_hash, b.log_hash);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.final_residual, b.final_residual);  // bitwise, not approx
  for (std::size_t r = 0; r < a.ranks.size(); ++r)
    EXPECT_EQ(la::dist_inf(a.ranks[r].x, b.ranks[r].x), 0.0);
  std::uint64_t raw = 0, wired = 0, codec_frames = 0;
  for (const net::MpResult& rank : a.ranks) {
    raw += rank.bytes_sent_raw;
    wired += rank.bytes_sent_wire;
    codec_frames += rank.wire_frames_codec;
  }
  EXPECT_GT(codec_frames, 0u);
  EXPECT_LT(wired, raw);  // the compressed world is actually smaller
}

TEST_F(SimWorldFixture, DeltaWorldMatchesTheRawWorldBitForBit) {
  // The hard parity contract: with the link order-preserving (fifo, no
  // jitter) and bandwidth infinite (the default: serialization cost is
  // byte-independent), the delta-encoded world runs the IDENTICAL
  // schedule as the raw world — frame counts are invariant (unchanged
  // blocks still send heartbeats, so every per-frame draw lines up) and
  // exact deltas reconstruct the identical doubles at the receiver. The
  // finals must therefore agree bit for bit, not within a band.
  WorldOptions off = base_world(4);
  off.sim.topology.jitter = 0.0;
  off.sim.topology.fifo = true;
  const WorldResult raw = run_world(*jacobi_, la::zeros(sys_.dim()), off);
  ASSERT_TRUE(raw.all_converged) << "residual " << raw.final_residual;

  WorldOptions on = off;
  on.mp.wire.delta = true;
  on.mp.wire.refresh_every = 8;
  const WorldResult delta = run_world(*jacobi_, la::zeros(sys_.dim()), on);
  ASSERT_TRUE(delta.all_converged) << "residual " << delta.final_residual;

  EXPECT_EQ(raw.events, delta.events);
  EXPECT_EQ(raw.final_residual, delta.final_residual);  // bitwise
  ASSERT_EQ(raw.ranks.size(), delta.ranks.size());
  std::uint64_t hb = 0;
  for (std::size_t r = 0; r < raw.ranks.size(); ++r) {
    EXPECT_EQ(la::dist_inf(raw.ranks[r].x, delta.ranks[r].x), 0.0);
    EXPECT_EQ(raw.ranks[r].messages_sent, delta.ranks[r].messages_sent);
    EXPECT_LE(delta.ranks[r].bytes_sent_wire,
              delta.ranks[r].bytes_sent_raw);
    hb += delta.ranks[r].wire_frames_heartbeat +
          delta.ranks[r].wire_frames_delta;
  }
  EXPECT_GT(hb, 0u);  // the delta layer actually engaged
}

TEST_F(SimWorldFixture, VirtualBudgetStopsAnUnconvergableRun) {
  WorldOptions o = base_world(4);
  o.mp.solve.tol = 1e-30;  // below attainable precision: never converges
  o.mp.solve.max_seconds = 0.01;
  const WorldResult r = run_world(*jacobi_, la::zeros(sys_.dim()), o);
  EXPECT_FALSE(r.all_converged);
  // Every rank ran out its VIRTUAL budget; the engine still quiesced.
  EXPECT_GE(r.virtual_seconds, 0.01);
  EXPECT_LT(r.virtual_seconds, 1.0);
  for (const net::MpResult& rank : r.ranks)
    EXPECT_GE(rank.wall_seconds, 0.01);  // SimClock, not a real timer
}

TEST_F(SimWorldFixture, SwimMembershipProbesOverVirtualTime) {
  WorldOptions o = base_world(4);
  o.mp.membership.enabled = true;
  o.mp.membership.probe_busy_members = true;
  o.mp.membership.ping_period = 5e-4;
  o.mp.membership.ping_timeout = 2e-3;
  o.mp.membership.suspicion_timeout = 0.05;
  const WorldResult r = run_world(*jacobi_, la::zeros(sys_.dim()), o);
  EXPECT_TRUE(r.all_converged) << "residual " << r.final_residual;
  std::uint64_t pings = 0, deaths = 0;
  for (const net::MpResult& rank : r.ranks) {
    EXPECT_EQ(rank.live_at_exit.size(), 4u);  // nobody falsely killed
    pings += rank.membership.pings_sent;
    deaths += rank.membership.deaths_observed;
  }
  EXPECT_GT(pings, 0u);  // the detector actually ran on virtual cadence
  EXPECT_EQ(deaths, 0u);
}

TEST(SimTrainWorld, TapTrainingConvergesAndReplaysDeterministically) {
  problems::LogisticConfig dcfg;
  dcfg.samples = 240;
  dcfg.features = 48;
  dcfg.density = 0.3;
  dcfg.separation = 3.0;
  dcfg.label_noise = 0.0;
  dcfg.ridge = 0.01;
  const train::Dataset data = train::make_synthetic_dataset(dcfg, 7);

  TrainWorldOptions o;
  o.train.workers = 3;
  o.train.seed = 7;
  o.train.sgd.discipline = train::Discipline::kTap;
  o.train.sgd.learning_rate = 0.5;
  o.train.sgd.batch_size = 16;
  o.train.sgd.max_epochs = 1000000;
  o.train.sgd.max_seconds = 300.0;  // virtual
  o.train.sgd.target_accuracy = 0.95;
  o.train.sgd.eval_every = 4;
  o.sim.topology.latency = 2e-4;
  o.sim.compute.phase = 1e-4;
  const la::Vector x0 = la::zeros(data.features());
  const TrainWorldResult a = run_train_world(data, x0, o);
  const TrainWorldResult b = run_train_world(data, x0, o);
  ASSERT_EQ(a.ranks.size(), 4u);  // server + 3 workers
  EXPECT_TRUE(a.ranks[0].converged);  // server reached the target
  EXPECT_GE(a.ranks[0].final_accuracy, 0.95);
  EXPECT_GT(a.virtual_seconds, 0.0);
  EXPECT_EQ(a.log_hash, b.log_hash);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(la::dist_inf(a.ranks[0].x, b.ranks[0].x), 0.0);
}

TEST_F(SimWorldFixture, AdaptiveSspSteersDeterministically) {
  // Auditor-fed staleness steering over virtual time: one (config, seed)
  // pair names one execution, so two runs must agree on every steering
  // decision — the same byte-identical bar as the plain replay test.
  WorldOptions o = base_world(4);
  o.mp.solve.mode = net::Mode::kSsp;
  o.mp.solve.staleness = 1;
  o.mp.solve.adaptive.enabled = true;
  o.mp.solve.adaptive.min_bound = 1;
  o.mp.solve.adaptive.max_bound = 8;
  o.mp.solve.adaptive.decide_every = 8;
  o.sim.compute.straggler_every = 4;  // rank 3 computes 10x slower
  o.sim.record_log = true;
  const WorldResult a = run_world(*jacobi_, la::zeros(sys_.dim()), o);
  const WorldResult b = run_world(*jacobi_, la::zeros(sys_.dim()), o);
  EXPECT_TRUE(a.all_converged) << "residual " << a.final_residual;
  EXPECT_EQ(a.log_hash, b.log_hash);
  EXPECT_EQ(a.events, b.events);
  ASSERT_EQ(a.event_log.size(), b.event_log.size());
  ASSERT_FALSE(a.event_log.empty());
  EXPECT_EQ(std::memcmp(a.event_log.data(), b.event_log.data(),
                        a.event_log.size() * sizeof(EventRecord)),
            0);
  std::uint64_t decisions = 0;
  ASSERT_EQ(a.ranks.size(), b.ranks.size());
  for (std::size_t r = 0; r < a.ranks.size(); ++r) {
    EXPECT_EQ(a.ranks[r].steering_decisions, b.ranks[r].steering_decisions);
    EXPECT_EQ(a.ranks[r].staleness_at_exit, b.ranks[r].staleness_at_exit);
    EXPECT_EQ(a.ranks[r].gate_stalls, b.ranks[r].gate_stalls);
    EXPECT_EQ(la::dist_inf(a.ranks[r].x, b.ranks[r].x), 0.0);
    decisions += a.ranks[r].steering_decisions;
    // Steering implies the auditor even though obs.audit is off.
    EXPECT_EQ(a.ranks[r].admissibility.size(), 1u);
  }
  EXPECT_GT(decisions, 0u);  // the controller actually ran
}

TEST_F(SimWorldFixture, AdaptiveSspStallsLessThanFixedBoundUnderStragglers) {
  // The steering payoff the bound exists for: with an injected straggler
  // a tight fixed bound makes the fast ranks stall at the round gate;
  // the adaptive bound tracks the measured delay up and frees them.
  // Deterministic comparison — both sides are pure functions of the
  // options, so this is an exact regression, not a tendency.
  WorldOptions fixed = base_world(4);
  fixed.mp.solve.mode = net::Mode::kSsp;
  fixed.mp.solve.staleness = 1;
  fixed.sim.compute.straggler_every = 4;
  const WorldResult f = run_world(*jacobi_, la::zeros(sys_.dim()), fixed);

  WorldOptions adaptive = fixed;
  adaptive.mp.solve.adaptive.enabled = true;
  adaptive.mp.solve.adaptive.min_bound = 1;
  // The measured delay saturates near the straggler's compute factor
  // (the fast ranks keep absorbing its updates, so the observed lag is
  // the real schedule lag, not the artificial gate lead); the gain puts
  // the bound a margin above that so the gate opens ahead of demand.
  adaptive.mp.solve.adaptive.max_bound = 64;
  adaptive.mp.solve.adaptive.gain = 5.0;
  adaptive.mp.solve.adaptive.decide_every = 1;
  const WorldResult s = run_world(*jacobi_, la::zeros(sys_.dim()), adaptive);

  EXPECT_TRUE(f.all_converged) << "residual " << f.final_residual;
  EXPECT_TRUE(s.all_converged) << "residual " << s.final_residual;
  std::uint64_t stalls_fixed = 0, stalls_adaptive = 0, bound_max = 0;
  for (const net::MpResult& rank : f.ranks) stalls_fixed += rank.gate_stalls;
  for (const net::MpResult& rank : s.ranks) {
    stalls_adaptive += rank.gate_stalls;
    bound_max = std::max(bound_max, rank.staleness_at_exit);
  }
  EXPECT_GT(stalls_fixed, 0u);  // the fixed bound really does gate
  EXPECT_LT(stalls_adaptive, stalls_fixed);
  EXPECT_GT(bound_max, 1u);  // the controller raised past the initial
}

TEST_F(SimWorldFixture, StragglersStretchVirtualTimeDeterministically) {
  WorldOptions o = base_world(4);
  const WorldResult uniform = run_world(*jacobi_, la::zeros(sys_.dim()), o);
  o.sim.compute.straggler_every = 4;  // rank 3 computes 10x slower
  const WorldResult skewed = run_world(*jacobi_, la::zeros(sys_.dim()), o);
  EXPECT_TRUE(uniform.all_converged);
  EXPECT_TRUE(skewed.all_converged)
      << "residual " << skewed.final_residual;
  // Totally asynchronous: the fast ranks keep iterating, the world
  // still converges, and the straggler's cost shows up as virtual time.
  EXPECT_GT(skewed.virtual_seconds, uniform.virtual_seconds);
}

// ------------------------------------------------ pinned replay goldens

/// The replay fingerprint of one small world. Recorded on the transport
/// that copied every payload once per destination: publishing by
/// reference must not move a single draw, wake or delivery, so every
/// field — the event-log hash above all — stays exactly these values.
struct Fingerprint {
  const char* name;
  std::uint64_t log_hash, events, sent, delivered, dropped, updates;
  std::uint64_t bytes_raw, bytes_wire, frames_full;
};

/// bytes_wire of a LOSSLESS delta world is not pinned: each delta range
/// spans the coordinates that changed bitwise, which follows the
/// kernel's floating-point rounding (SIMD level, optimization level).
/// Which frames are full refreshes does not, so frames_full is pinned.
constexpr std::uint64_t kRoundingDependent = ~std::uint64_t{0};

TEST_F(SimWorldFixture, ReplayFingerprintsMatchThePinnedGoldens) {
  auto config = [&](const std::string& name) {
    WorldOptions o = base_world(4);
    if (name == "async_delta") {
      o.mp.wire.delta = true;
      o.mp.wire.refresh_every = 8;
    } else if (name == "async_topk_quant") {
      o.mp.solve.tol = 1e-3;
      o.mp.wire.delta = true;
      o.mp.wire.topk = 4;
      o.mp.wire.quant_bits = 16;
      o.mp.wire.refresh_every = 4;
      o.sim.topology.bandwidth = 1e6;
    } else if (name == "ssp") {
      o.mp.solve.mode = net::Mode::kSsp;
      o.mp.solve.staleness = 2;
    } else if (name == "bsp") {
      o.mp.solve.mode = net::Mode::kBsp;
    } else if (name == "partition_drop") {
      o.sim.topology.partitions.push_back({0.0, 0.05, 2});
      o.sim.topology.drop_prob = 0.05;
    } else if (name == "chaos") {
      o.chaos = true;
      o.chaos_policy.min_latency = 2e-4;
      o.chaos_policy.max_latency = 2e-3;
      o.mp.solve.tol = 1e-8;
    } else if (name == "delta16_drop") {
      o.mp.workers = 16;
      o.sim.topology.drop_prob = 0.1;
      o.mp.wire.delta = true;
      o.mp.wire.refresh_every = 4;
    } else if (name == "swim") {
      o.mp.membership.enabled = true;
      o.mp.membership.probe_busy_members = true;
      o.mp.membership.ping_period = 5e-4;
      o.mp.membership.ping_timeout = 2e-3;
      o.mp.membership.suspicion_timeout = 0.05;
    }
    return o;
  };
  const Fingerprint golden[] = {
      {"async", 0x8a5f9aea32660088ull, 560, 1356, 1137, 0, 448, 161280,
       161280, 1344},
      {"async_delta", 0x8a5f9aea32660088ull, 560, 1356, 1137, 0, 448, 161280,
       kRoundingDependent, 168},
      {"async_topk_quant", 0x49e873e825b15a76ull, 320, 780, 729, 0, 256,
       92160, 71424, 192},
      {"ssp", 0x4f2d1b9a7a430de0ull, 380, 777, 740, 0, 256, 92160, 92160,
       768},
      {"bsp", 0x7154fbcb8cbbbee4ull, 756, 1548, 1488, 0, 512, 184320,
       184320, 1536},
      {"partition_drop", 0x58107ca32bf8ca05ull, 2560, 6156, 2783, 3335, 2048,
       737280, 737280, 6144},
      {"chaos", 0x62b809d9712126ecull, 1280, 3084, 2941, 0, 1024, 368640,
       368640, 3072},
      {"delta16_drop", 0xdf3d1b002aae213dull, 2048, 15600, 13499, 1588, 1024,
       1843200, kRoundingDependent, 3932},
      {"swim", 0x5a39f4b866bd3115ull, 640, 1804, 1760, 0, 512, 184320,
       184320, 1536},
  };
  for (const Fingerprint& g : golden) {
    const WorldResult r =
        run_world(*jacobi_, la::zeros(sys_.dim()), config(g.name));
    std::uint64_t raw = 0, wire = 0, full = 0;
    for (const net::MpResult& rank : r.ranks) {
      raw += rank.bytes_sent_raw;
      wire += rank.bytes_sent_wire;
      full += rank.wire_frames_full;
    }
    EXPECT_EQ(r.log_hash, g.log_hash) << g.name;
    EXPECT_EQ(r.events, g.events) << g.name;
    EXPECT_EQ(r.messages_sent, g.sent) << g.name;
    EXPECT_EQ(r.messages_delivered, g.delivered) << g.name;
    EXPECT_EQ(r.messages_dropped, g.dropped) << g.name;
    EXPECT_EQ(r.total_updates, g.updates) << g.name;
    EXPECT_EQ(raw, g.bytes_raw) << g.name;
    EXPECT_EQ(full, g.frames_full) << g.name;
    if (g.bytes_wire == kRoundingDependent)
      EXPECT_LT(wire, raw) << g.name;  // the delta layer engaged
    else
      EXPECT_EQ(wire, g.bytes_wire) << g.name;
  }
}

TEST(SimTrainWorld, ReplayFingerprintsMatchThePinnedGoldens) {
  // The PSGD server publishes its model to every worker in one fan-out;
  // pinned against the per-destination-copy transport like the solve
  // worlds above (server-side counters).
  problems::LogisticConfig dcfg;
  dcfg.samples = 240;
  dcfg.features = 48;
  dcfg.density = 0.3;
  dcfg.separation = 3.0;
  dcfg.label_noise = 0.0;
  dcfg.ridge = 0.01;
  const train::Dataset data = train::make_synthetic_dataset(dcfg, 7);
  struct Golden {
    train::Discipline discipline;
    std::uint64_t log_hash, events, sent, delivered, versions, deltas;
  };
  const Golden golden[] = {
      {train::Discipline::kTap, 0x2ac944c7acc62552ull, 33, 11, 9, 8, 8},
      {train::Discipline::kSsp, 0xbf1dba3d577f6bd9ull, 62, 15, 20, 20, 20},
      {train::Discipline::kBsp, 0x9d7e99a547de7a22ull, 119, 27, 24, 8, 24},
  };
  for (const Golden& g : golden) {
    TrainWorldOptions o;
    o.train.workers = 3;
    o.train.seed = 7;
    o.train.sgd.discipline = g.discipline;
    o.train.sgd.learning_rate = 0.5;
    o.train.sgd.batch_size = 16;
    o.train.sgd.max_epochs = 1000000;
    o.train.sgd.max_seconds = 300.0;  // virtual
    o.train.sgd.target_accuracy = 0.95;
    o.train.sgd.eval_every = 4;
    o.train.sgd.staleness = 2;
    o.sim.topology.latency = 2e-4;
    o.sim.compute.phase = 1e-4;
    const TrainWorldResult r =
        run_train_world(data, la::zeros(data.features()), o);
    const int d = static_cast<int>(g.discipline);
    EXPECT_EQ(r.log_hash, g.log_hash) << "discipline " << d;
    EXPECT_EQ(r.events, g.events) << "discipline " << d;
    EXPECT_EQ(r.ranks[0].messages_sent, g.sent) << "discipline " << d;
    EXPECT_EQ(r.ranks[0].messages_delivered, g.delivered)
        << "discipline " << d;
    EXPECT_EQ(r.ranks[0].versions, g.versions) << "discipline " << d;
    EXPECT_EQ(r.ranks[0].deltas_applied, g.deltas) << "discipline " << d;
  }
}

// --------------------------------------------------- payload lifetimes

TEST_F(SimWorldFixture, EveryPayloadSlabIsHomeAfterQuiesce) {
  // Each slab must return to its sender's pool once every frame of its
  // publish is consumed — whatever became of the frames: dropped by the
  // loss model, cut by a partition, rejected by the receiver, held back
  // by BSP, or carrying a codec payload. An extra rank (outside the
  // solve's world) publishes frames every peer must reject.
  auto lossy = base_world(4);
  lossy.mp.solve.tol = 1e-3;
  lossy.mp.solve.max_seconds = 0.2;
  lossy.mp.wire.delta = true;
  lossy.mp.wire.topk = 4;
  lossy.mp.wire.quant_bits = 8;
  lossy.mp.wire.refresh_every = 4;
  lossy.sim.topology.drop_prob = 0.2;
  lossy.sim.topology.partitions.push_back({0.0, 0.01, 2});
  // BSP with stragglers, stopped by its virtual budget: the fast ranks
  // wait at the gate holding back each other's next-round frames, and
  // exit still holding them.
  auto bsp = base_world(4);
  bsp.mp.solve.mode = net::Mode::kBsp;
  bsp.sim.compute.straggler_every = 2;
  bsp.sim.compute.straggler_factor = 3.0;
  bsp.mp.wire.delta = true;
  bsp.mp.wire.quant_bits = 16;
  bsp.mp.solve.tol = 1e-300;
  bsp.mp.solve.max_seconds = 0.05;
  for (const WorldOptions& o : {lossy, bsp}) {
    const std::uint32_t workers = static_cast<std::uint32_t>(o.mp.workers);
    SimEngine engine;
    SimTransport fabric(workers + 1, o.sim, o.mp.seed, &engine);
    SimClock clock(&engine);
    net::MpOptions per_rank = o.mp;
    per_rank.obs.link_delays = false;
    std::vector<net::MpResult> results(workers);
    for (std::uint32_t r = 0; r < workers; ++r)
      engine.spawn(r, [&, r] {
        results[r] = net::run_node(*jacobi_, la::zeros(sys_.dim()), per_rank,
                                   fabric.endpoint(r), clock);
      });
    engine.spawn(workers, [&] {
      const la::Vector payload(8, 1.0);
      std::vector<transport::Frame> frames(workers);
      std::vector<transport::SendReceipt> receipts(workers);
      for (std::uint32_t dst = 0; dst < workers; ++dst)
        frames[dst] = {dst, value_header(1), payload};
      for (int k = 0; k < 20; ++k) {
        fabric.endpoint(workers).publish(payload, frames, engine.now(),
                                         /*allow_drop=*/false, receipts);
        engine.advance(1e-3);
      }
    });
    engine.run();
    // Quiesce: whatever is still in flight is drained and consumed.
    std::vector<net::Message> got;
    for (std::uint32_t r = 0; r <= workers; ++r) {
      fabric.endpoint(r).receive(1e9, got);
      fabric.endpoint(r).recycle(got);
    }
    EXPECT_EQ(fabric.slabs_outstanding(), 0u)
        << "mode " << static_cast<int>(o.mp.solve.mode);
    std::uint64_t rejected = 0, codec = 0;
    for (const net::MpResult& r : results) {
      rejected += r.frames_rejected;
      codec += r.wire_frames_codec;
    }
    EXPECT_GT(rejected, 0u);
    EXPECT_GT(codec, 0u);
    if (o.mp.solve.mode == net::Mode::kAsync) {
      EXPECT_GT(fabric.partition_dropped(), 0u);
      std::uint64_t dropped = 0;
      for (std::uint32_t r = 0; r < workers; ++r)
        dropped += fabric.endpoint(r).dropped();
      EXPECT_GT(dropped, fabric.partition_dropped());  // the loss model too
    }
  }
}

}  // namespace
}  // namespace asyncit::simnet
