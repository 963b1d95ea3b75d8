// Allocation-count regression test for the operator hot path.
//
// The PR-2 contract: once a worker's op::Workspace is warm, steady-state
// block updates, full applications, and residual polls perform ZERO heap
// allocations — the allocator must never appear in the asynchronous update
// loop. This binary replaces the global operator new/delete with counting
// versions and pins that contract; if somebody reintroduces a per-call
// temporary (the pre-PR BackwardForward prox scratch, the residual
// monitor's per-poll vectors), this test fails with the allocation count.
//
// The counters are only sampled inside explicit windows between gtest
// assertions, so gtest's own allocations don't pollute the measurement.
#include <atomic>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "asyncit/linalg/simd_dispatch.hpp"
#include "asyncit/net/peer.hpp"
#include "asyncit/obs/metrics.hpp"
#include "asyncit/obs/trace_recorder.hpp"
#include "asyncit/operators/jacobi.hpp"
#include "asyncit/operators/krasnoselskii.hpp"
#include "asyncit/operators/operator.hpp"
#include "asyncit/operators/prox.hpp"
#include "asyncit/operators/prox_gradient.hpp"
#include "asyncit/problems/linear_system.hpp"
#include "asyncit/problems/quadratic.hpp"
#include "asyncit/runtime/pacing.hpp"
#include "asyncit/runtime/shared_iterate.hpp"
#include "asyncit/simnet/transport.hpp"
#include "asyncit/simnet/world.hpp"
#include "asyncit/support/rng.hpp"
#include "asyncit/support/timer.hpp"
#include "asyncit/train/dataset.hpp"
#include "asyncit/train/psgd.hpp"
#include "asyncit/transport/chaos.hpp"
#include "asyncit/transport/inproc.hpp"
#include "asyncit/transport/wire.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace asyncit {
namespace {

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

TEST(AllocationRegression, JacobiApplyBlockSteadyStateAllocatesNothing) {
  Rng rng(1);
  auto sys = problems::make_diagonally_dominant_system(128, 6, 2.0, rng);
  const la::Partition partition = la::Partition::balanced(128, 8);
  op::JacobiOperator jac(sys.a, sys.b, partition);
  la::Vector x(128, 0.3), out(partition.max_block_size());
  op::Workspace ws;

  // Warm-up: one pass over every code path grows the workspace to its
  // high-water mark.
  for (la::BlockId b = 0; b < jac.num_blocks(); ++b) {
    out.resize(partition.range(b).size());
    jac.apply_block(b, x, out, ws);
    jac.apply_block_residual(b, x, out, ws);
  }

  const std::uint64_t before = allocations();
  for (int sweep = 0; sweep < 100; ++sweep) {
    for (la::BlockId b = 0; b < jac.num_blocks(); ++b) {
      out.resize(partition.range(b).size());
      jac.apply_block(b, x, out, ws);
      jac.apply_block_residual(b, x, out, ws);
    }
  }
  const std::uint64_t during = allocations() - before;
  EXPECT_EQ(during, 0u) << "steady-state apply_block allocated";
}

TEST(AllocationRegression, SimdDispatchResolvesOnceAndNeverOnTheHotPath) {
  // The PR-5 contract: the SIMD dispatch layer installs its function
  // pointers at startup (or when a test forces a level) and the steady
  // state never re-resolves — no cpuid, no env lookup, no allocation per
  // kernel call. The resolutions() hook counts table installs; a block
  // update loop at EVERY supported level must leave it untouched.
  Rng rng(6);
  auto sys = problems::make_diagonally_dominant_system(96, 5, 2.0, rng);
  const la::Partition partition = la::Partition::balanced(96, 8);
  op::JacobiOperator jac(sys.a, sys.b, partition);
  la::Vector x(96, 0.2), out(partition.max_block_size());
  op::Workspace ws;

  const la::simd::Level original = la::simd::active_level();
  for (const la::simd::Level level : la::simd::supported_levels()) {
    ASSERT_TRUE(la::simd::force(level));
    for (la::BlockId b = 0; b < jac.num_blocks(); ++b) {  // warm-up pass
      out.resize(partition.range(b).size());
      jac.apply_block(b, x, out, ws);
      jac.apply_block_residual(b, x, out, ws);
    }

    const std::uint64_t resolutions_before = la::simd::resolutions();
    const std::uint64_t alloc_before = allocations();
    for (int sweep = 0; sweep < 100; ++sweep) {
      for (la::BlockId b = 0; b < jac.num_blocks(); ++b) {
        out.resize(partition.range(b).size());
        jac.apply_block(b, x, out, ws);
        jac.apply_block_residual(b, x, out, ws);
      }
    }
    EXPECT_EQ(allocations() - alloc_before, 0u)
        << la::simd::to_string(level) << ": steady-state update allocated";
    EXPECT_EQ(la::simd::resolutions(), resolutions_before)
        << la::simd::to_string(level)
        << ": hot path re-resolved the dispatch table";
  }
  la::simd::force(original);
}

TEST(AllocationRegression, ResidualMonitorsSteadyStateAllocateNothing) {
  Rng rng(2);
  auto sys = problems::make_diagonally_dominant_system(96, 5, 2.0, rng);
  const la::Partition partition = la::Partition::balanced(96, 12);
  op::JacobiOperator jac(sys.a, sys.b, partition);
  la::Vector x(96, 0.1), y(96);
  op::Workspace ws;

  op::fixed_point_residual(jac, x, ws);  // warm-up
  op::max_block_residual(jac, x, ws);
  jac.apply(x, y, ws);

  const std::uint64_t before = allocations();
  double sink = 0.0;
  for (int it = 0; it < 100; ++it) {
    sink += op::fixed_point_residual(jac, x, ws);
    sink += op::max_block_residual(jac, x, ws);
    jac.apply(x, y, ws);
  }
  const std::uint64_t during = allocations() - before;
  EXPECT_EQ(during, 0u) << "residual monitors allocated (sink=" << sink
                        << ")";
}

TEST(AllocationRegression, BackwardForwardKmStackSteadyStateAllocatesNothing) {
  // The deepest operator composition in the tree: KM averaging wrapping
  // the Definition-4 backward-forward operator, whose prox pass needs a
  // full-dimension workspace scratch per block application.
  Rng rng(3);
  auto f = problems::make_separable_quadratic(64, 1.0, 8.0, rng);
  auto g = op::make_l1_prox(0.1);
  const la::Partition partition = la::Partition::balanced(64, 16);
  op::BackwardForwardOperator bf(*f, *g, f->suggested_step(), partition);
  op::KrasnoselskiiMannOperator km(bf, 0.8);
  la::Vector x(64, 0.4), out(partition.max_block_size());
  op::Workspace ws;

  for (la::BlockId b = 0; b < km.num_blocks(); ++b)
    km.apply_block(b, x, out, ws);  // warm-up

  const std::uint64_t before = allocations();
  for (int sweep = 0; sweep < 100; ++sweep)
    for (la::BlockId b = 0; b < km.num_blocks(); ++b)
      km.apply_block(b, x, out, ws);
  const std::uint64_t during = allocations() - before;
  EXPECT_EQ(during, 0u) << "BF+KM apply_block allocated";
}

TEST(AllocationRegression, DisplacementStopPollSteadyStateAllocatesNothing) {
  // The monitor path of rt::run_async_threads and the net:: orchestrator:
  // displacement scan + snapshot + residual confirmation, all through the
  // workspace (the pre-PR version allocated the snapshot and the residual
  // scratch on every confirmation poll).
  Rng rng(4);
  auto sys = problems::make_diagonally_dominant_system(64, 4, 2.0, rng);
  const la::Partition partition = la::Partition::balanced(64, 8);
  op::JacobiOperator jac(sys.a, sys.b, partition);
  rt::SharedIterate shared(la::Vector(64, 0.2));
  std::vector<double> last_displacement(8, 0.0);  // all below tol:
  op::Workspace ws;                               // every poll confirms
  rt::DisplacementStop rule;
  auto snapshot_into = [&](std::span<double> s) { shared.snapshot_into(s); };

  rule.should_stop(last_displacement, jac, 1e-3, snapshot_into, ws);  // warm

  const std::uint64_t before = allocations();
  bool sink = false;
  for (int poll = 0; poll < 100; ++poll) {
    rt::DisplacementStop fresh;  // defeat the backoff between polls
    sink ^= fresh.should_stop(last_displacement, jac, 1e-3, snapshot_into,
                              ws);
  }
  const std::uint64_t during = allocations() - before;
  EXPECT_EQ(during, 0u) << "DisplacementStop poll allocated (sink=" << sink
                        << ")";
}

TEST(AllocationRegression, InprocMessagingRoundTripAllocatesNothing) {
  // The PR-3 contract extension: once the transport pools are warm, a
  // full send -> stamp -> post -> drain -> incorporate -> recycle round
  // trip performs ZERO heap allocations — the allocator is out of the
  // messaging path, not just the update loop (the pre-transport peer
  // allocated a fresh value vector for every message it sent).
  const la::Partition partition = la::Partition::from_sizes({6, 6});
  transport::InprocTransport tx(2, transport::DeliveryPolicy{}, 3);
  transport::Endpoint& e0 = tx.endpoint(0);
  transport::Endpoint& e1 = tx.endpoint(1);
  net::LocalView view(la::Vector(12, 0.0), 2);
  la::Vector payload(6, 1.25);
  std::vector<transport::Message> inbox;
  transport::MessageHeader header;
  header.block = 0;

  auto round_trip = [&](int count) {
    for (int i = 0; i < count; ++i) {
      header.tag = static_cast<model::Step>(i + 1);
      e0.send(1, header, payload, 1e-4 * i, /*allow_drop=*/false);
      e1.receive(1e9, inbox);
      for (const transport::Message& m : inbox)
        net::incorporate(partition, model::OverwritePolicy::kLastArrivalWins,
                         m, view);
      e1.recycle(inbox);
    }
  };

  round_trip(50);  // warm-up: pools, mailbox, inbox reach high water

  const std::uint64_t before = allocations();
  round_trip(200);
  const std::uint64_t during = allocations() - before;
  EXPECT_EQ(during, 0u) << "steady-state messaging round trip allocated";
}

TEST(AllocationRegression, MessagingWithFullTracingStillAllocatesNothing) {
  // The PR-6 contract: the observability layer rides the hot path for
  // free. With the recorder at kFull and events recorded per round trip
  // — including ring WRAPS, which must recycle slots, never grow — the
  // steady state stays at zero allocations. The only alloc the recorder
  // ever makes is the one-time per-thread ring claim, which the warm-up
  // absorbs; cached metric handles keep the registry off the path too.
  obs::TraceConfig tc;
  tc.level = obs::TraceLevel::kFull;
  tc.ring_capacity = 128;  // small: the measured loop wraps many times
  obs::TraceRecorder::instance().enable(tc);
  obs::Counter& frames = obs::MetricsRegistry::instance().counter(
      "alloc_test.frames");
  obs::Histogram delays;

  const la::Partition partition = la::Partition::from_sizes({6, 6});
  transport::InprocTransport tx(2, transport::DeliveryPolicy{}, 3);
  transport::Endpoint& e0 = tx.endpoint(0);
  transport::Endpoint& e1 = tx.endpoint(1);
  net::LocalView view(la::Vector(12, 0.0), 2);
  la::Vector payload(6, 1.25);
  std::vector<transport::Message> inbox;
  transport::MessageHeader header;
  header.block = 0;

  auto round_trip = [&](int count) {
    for (int i = 0; i < count; ++i) {
      header.tag = static_cast<model::Step>(i + 1);
      e0.send(1, header, payload, 1e-4 * i, /*allow_drop=*/false);
      obs::record(obs::EventType::kFrameSend, 0, 1, header.tag, 48.0);
      e1.receive(1e9, inbox);
      for (const transport::Message& m : inbox) {
        net::incorporate(partition, model::OverwritePolicy::kLastArrivalWins,
                         m, view);
        obs::record(obs::EventType::kFrameRecv, 0, 0, m.tag, 1e-4);
        frames.add(1);
        delays.add(1e-4);
      }
      e1.recycle(inbox);
    }
  };

  round_trip(200);  // warm-up: pools, inbox, ring claim

  const std::uint64_t before = allocations();
  round_trip(400);  // 800 events through a 128-slot ring: 6+ wraps
  const std::uint64_t during = allocations() - before;
  EXPECT_EQ(during, 0u) << "full-tracing messaging round trip allocated";
  EXPECT_GT(obs::TraceRecorder::instance().stats().dropped, 0u)
      << "the measured loop was supposed to wrap the ring";
  obs::TraceRecorder::instance().disable();
}

TEST(AllocationRegression, ChaosWireFramingSteadyStateAllocatesNothing) {
  // The chaos decorator's hold queue and the wire encoder both recycle:
  // stamping, encoding into a pooled frame, and the receiver-side staging
  // of delayed frames stay off the allocator once warm.
  transport::DeliveryPolicy zero;
  transport::InprocTransport inner(2, zero, 1);
  transport::DeliveryPolicy policy;
  policy.min_latency = 1e-5;
  policy.max_latency = 1e-4;
  transport::ChaosTransport chaos(inner, policy, 9);
  transport::Endpoint& e0 = chaos.endpoint(0);
  transport::Endpoint& e1 = chaos.endpoint(1);
  la::Vector payload(8, 0.5);
  std::vector<transport::Message> inbox;
  std::vector<std::uint8_t> frame;
  transport::Message scratch, decoded;
  std::vector<double> decoded_payload;
  transport::MessageHeader header;

  auto cycle = [&](int count, double base) {
    for (int i = 0; i < count; ++i) {
      const double now = base + 1e-3 * i;
      header.tag = static_cast<model::Step>(i + 1);
      e0.send(1, header, payload, now, /*allow_drop=*/false);
      e1.receive(now, inbox);          // stage
      e1.receive(now + 1.0, inbox);    // mature everything
      e1.recycle(inbox);
      // Wire framing round trip with reused buffers.
      scratch.value = payload;
      transport::encode_frame(scratch, frame);
      std::size_t consumed = 0;
      transport::decode_frame(frame, consumed, decoded, decoded_payload);
    }
  };

  cycle(50, 0.0);

  const std::uint64_t before = allocations();
  cycle(200, 1.0);
  const std::uint64_t during = allocations() - before;
  EXPECT_EQ(during, 0u) << "chaos/wire steady state allocated";
}

TEST(AllocationRegression, PsgdDeltaRoundTripSteadyStateAllocatesNothing) {
  // The PR-7 contract: the training delta path is as allocation-free as
  // the solve messaging path. One TAP server + one worker co-driven
  // single-threaded over inproc: every worker pump samples a minibatch,
  // computes the scaled delta into construction-sized scratch, ships it
  // as a pooled partial frame; every server pump drains, folds the delta
  // into the model, replies with a pooled full-params frame, and every
  // eval_every deltas runs the full-train loss/accuracy sweep. Once the
  // pools, inboxes and scratch are warm, NONE of that may allocate.
  problems::LogisticConfig dcfg;
  dcfg.samples = 64;
  dcfg.features = 16;
  dcfg.density = 0.3;
  dcfg.separation = 3.0;
  dcfg.label_noise = 0.0;
  dcfg.ridge = 0.01;
  const train::Dataset data = train::make_synthetic_dataset(dcfg, 21);

  train::TrainOptions options;
  options.workers = 1;
  options.seed = 21;
  options.sgd.discipline = train::Discipline::kTap;
  options.sgd.learning_rate = 0.3;
  options.sgd.batch_size = 8;
  options.sgd.max_epochs = 1000000;  // the measured loop must not finish
  options.sgd.max_seconds = 1e9;
  options.sgd.target_accuracy = 0.0;  // nor the server stop
  options.sgd.eval_every = 8;         // evals INSIDE the measured window

  WallTimer timer;
  train::PsgdContext ctx;
  ctx.data = &data;
  ctx.options = &options;
  ctx.clock = &timer;

  transport::InprocTransport tx(2, transport::DeliveryPolicy{}, options.seed);
  train::PsgdServer server(ctx, la::zeros(data.features()),
                           tx.endpoint(0));
  train::PsgdWorker worker(ctx, 0, la::zeros(data.features()),
                           tx.endpoint(1));

  auto co_drive = [&](int slices) {
    for (int i = 0; i < slices; ++i) {
      worker.pump();  // step + send delta, drain params
      server.pump();  // fold delta, reply params, periodic eval
    }
  };

  co_drive(200);  // warm-up: frame pools, inboxes, eval scratch

  const std::uint64_t before = allocations();
  co_drive(400);
  const std::uint64_t during = allocations() - before;
  EXPECT_EQ(during, 0u) << "PSGD delta round trip allocated";
  EXPECT_FALSE(server.finished());
  EXPECT_FALSE(worker.finished());
  EXPECT_GE(server.deltas_applied(), 400u);
  EXPECT_GE(server.last_accuracy(), 0.0) << "eval never ran in the window";
}

/// Forwards block updates to `inner` and samples the global allocation
/// counter at the `open`-th and `close`-th update, so a whole simulated
/// world is measured from inside its own steady state (simnet runs every
/// rank on one thread: every allocation in the window is the world's).
class AllocWindowOperator final : public op::BlockOperator {
 public:
  AllocWindowOperator(const op::BlockOperator& inner, std::uint64_t open,
                      std::uint64_t close)
      : inner_(inner), open_(open), close_(close) {}

  const la::Partition& partition() const override {
    return inner_.partition();
  }
  void apply_block(la::BlockId b, std::span<const double> x,
                   std::span<double> out, op::Workspace& ws) const override {
    const std::uint64_t n = calls_++;
    if (n == open_) at_open_ = allocations();
    if (n == close_) at_close_ = allocations();
    inner_.apply_block(b, x, out, ws);
  }
  std::string name() const override { return "alloc-window"; }

  bool closed() const { return calls_ > close_; }
  std::uint64_t allocated() const { return at_close_ - at_open_; }

 private:
  const op::BlockOperator& inner_;
  const std::uint64_t open_, close_;
  mutable std::uint64_t calls_ = 0;
  mutable std::uint64_t at_open_ = 0, at_close_ = 0;
};

/// A gated (SSP or BSP) 4-rank Jacobi world over simnet that never meets
/// its tolerance: the whole peer loop — gate waits, round ring, holdback,
/// publish fan-out, drain, incorporate, recycle — runs to the virtual
/// budget, and the window covers updates 4000..12000.
std::uint64_t gated_world_allocations(net::Mode mode) {
  Rng rng(8);
  auto sys = problems::make_diagonally_dominant_system(64, 4, 2.0, rng);
  op::JacobiOperator jac(sys.a, sys.b, la::Partition::balanced(64, 16));
  AllocWindowOperator window(jac, 4000, 12000);
  simnet::WorldOptions o;
  o.mp.workers = 4;
  o.mp.seed = 8;
  o.mp.solve.mode = mode;
  o.mp.solve.staleness = 2;
  o.mp.solve.tol = 1e-300;  // never met: the budget ends the run
  o.mp.solve.x_star = la::zeros(64);
  o.mp.solve.max_seconds = 1.0;  // virtual
  o.mp.solve.max_updates = 100000000;
  o.sim.topology.latency = 2e-4;
  o.sim.topology.jitter = 0.5;
  o.sim.compute.phase = 1e-4;
  o.sim.compute.jitter = 0.3;
  simnet::run_world(window, la::zeros(64), o);
  EXPECT_TRUE(window.closed()) << "the world stopped before the window";
  return window.allocated();
}

TEST(AllocationRegression, SspPeerLoopSteadyStateAllocatesNothing) {
  EXPECT_EQ(gated_world_allocations(net::Mode::kSsp), 0u)
      << "SSP peer loop allocated (round ring / gate / publish path)";
}

TEST(AllocationRegression, BspPeerLoopSteadyStateAllocatesNothing) {
  EXPECT_EQ(gated_world_allocations(net::Mode::kBsp), 0u)
      << "BSP peer loop allocated (holdback / round ring / publish path)";
}

/// Publish fan-outs from rank 0 to ranks 1..7: full frames, a delta
/// window, a heartbeat and a frame with its own (codec-style) payload;
/// every destination drains and recycles after each publish.
struct FanOut {
  la::Vector base = la::Vector(16, 0.5);
  la::Vector own = la::Vector(4, 0.25);
  std::vector<transport::Frame> frames;
  std::vector<transport::SendReceipt> receipts =
      std::vector<transport::SendReceipt>(7);
  std::vector<transport::Message> inbox;

  FanOut() {
    inbox.reserve(64);
    for (std::uint32_t dst = 1; dst <= 7; ++dst) {
      transport::Frame f;
      f.dst = dst;
      f.value = dst == 2   ? std::span<const double>(base).subspan(3, 5)
                : dst == 3 ? std::span<const double>()
                : dst == 4 ? std::span<const double>(own)
                           : std::span<const double>(base);
      frames.push_back(f);
    }
  }

  template <class Fabric>
  void run(Fabric& tx, int count, double t0) {
    for (int i = 0; i < count; ++i) {
      const double now = t0 + 1e-3 * i;
      for (transport::Frame& f : frames)
        f.header.tag = static_cast<model::Step>(i + 1);
      tx.endpoint(0).publish(base, frames, now, /*allow_drop=*/true,
                             receipts);
      for (std::uint32_t dst = 1; dst <= 7; ++dst) {
        tx.endpoint(dst).receive(now + 1.0, inbox);
        tx.endpoint(dst).recycle(inbox);
      }
    }
  }
};

TEST(AllocationRegression, SimnetPublishFanOutAllocatesNothing) {
  simnet::SimConfig cfg;
  cfg.topology.latency = 1e-4;
  cfg.topology.jitter = 0.5;
  cfg.topology.drop_prob = 0.1;
  simnet::SimTransport tx(8, cfg, 5, /*engine=*/nullptr);  // passive
  FanOut fan;
  fan.run(tx, 200, 0.0);  // warm-up: slab pool, pending queues, windows
  const std::uint64_t before = allocations();
  fan.run(tx, 400, 10.0);
  const std::uint64_t during = allocations() - before;
  EXPECT_EQ(during, 0u) << "steady-state simnet publish fan-out allocated";
  EXPECT_EQ(tx.slabs_outstanding(), 0u);
}

TEST(AllocationRegression, InprocPublishFanOutAllocatesNothing) {
  transport::DeliveryPolicy policy;
  policy.max_latency = 1e-4;
  policy.drop_prob = 0.1;
  transport::InprocTransport tx(8, policy, 5);
  FanOut fan;
  fan.run(tx, 200, 0.0);  // warm-up: slab pool, mailboxes, windows
  const std::uint64_t before = allocations();
  fan.run(tx, 400, 10.0);
  const std::uint64_t during = allocations() - before;
  EXPECT_EQ(during, 0u) << "steady-state inproc publish fan-out allocated";
  EXPECT_EQ(tx.slabs_outstanding(), 0u);
}

TEST(AllocationRegression, ThreadWorkspaceConvenienceWarmsUpToo) {
  // The Workspace-less convenience overloads route through the thread's
  // shared workspace; after warm-up they must be allocation-free as well.
  Rng rng(5);
  auto sys = problems::make_diagonally_dominant_system(48, 4, 2.0, rng);
  op::JacobiOperator jac(sys.a, sys.b, la::Partition::balanced(48, 6));
  la::Vector x(48, 0.5), out(8);

  jac.apply_block(0, x, out);        // warm the thread workspace
  op::max_block_residual(jac, x);

  const std::uint64_t before = allocations();
  double sink = 0.0;
  for (int it = 0; it < 100; ++it) {
    jac.apply_block(it % 6, x, out);
    sink += op::max_block_residual(jac, x);
  }
  const std::uint64_t during = allocations() - before;
  EXPECT_EQ(during, 0u) << "thread-workspace path allocated (sink=" << sink
                        << ")";
}

}  // namespace
}  // namespace asyncit
