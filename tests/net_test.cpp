// Tests for the message-passing runtime: channel determinism under seed,
// delivery-order semantics, label inversions and their receiver-side
// filtering, and convergence of all three coordination modes with parity
// against the shared-memory executors.
#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <iterator>

#include "asyncit/linalg/norms.hpp"
#include "asyncit/net/mp_runtime.hpp"
#include "asyncit/net/peer.hpp"
#include "asyncit/obs/watchdog.hpp"
#include "chaos_tuning.hpp"
#include "asyncit/operators/gradient.hpp"
#include "asyncit/operators/jacobi.hpp"
#include "asyncit/problems/linear_system.hpp"
#include "asyncit/problems/quadratic.hpp"
#include "asyncit/runtime/executors.hpp"
#include "asyncit/support/check.hpp"

namespace asyncit::net {
namespace {

// -------------------------------------------------------- incorporation

TEST(PeerStats, PlusEqualsSumsEveryCounter) {
  // Every counter, in declaration order. The size check fails when a
  // field is added to PeerStats without being listed here.
  constexpr std::uint64_t PeerStats::*kFields[] = {
      &PeerStats::partials_sent,         &PeerStats::peers_stopped,
      &PeerStats::frames_rejected,       &PeerStats::reassignments,
      &PeerStats::snapshot_blocks_sent,  &PeerStats::snapshot_blocks_suppressed,
      &PeerStats::bytes_sent_raw,        &PeerStats::bytes_sent_wire,
      &PeerStats::wire_frames_full,      &PeerStats::wire_frames_delta,
      &PeerStats::wire_frames_heartbeat, &PeerStats::wire_frames_codec,
      &PeerStats::gate_stalls,
  };
  static_assert(sizeof(PeerStats) ==
                std::size(kFields) * sizeof(std::uint64_t));
  // Distinct values per field, so a counter left out of += (or summed
  // into a neighbour) shows up.
  PeerStats a, b;
  for (std::size_t k = 0; k < std::size(kFields); ++k) {
    a.*kFields[k] = k + 1;
    b.*kFields[k] = 100 * (k + 1);
  }
  MpResult sum;  // the fold's target type: PeerStats is its base
  sum += a;
  sum += b;
  for (std::size_t k = 0; k < std::size(kFields); ++k)
    EXPECT_EQ(sum.*kFields[k], 101 * (k + 1)) << "field " << k;
}

class IncorporateTest : public ::testing::Test {
 protected:
  IncorporateTest()
      : partition_(la::Partition::from_sizes({2, 2})),
        view_(la::Vector{0, 0, 0, 0}, 2) {}

  transport::Message block0(model::Step tag, double v) {
    transport::Message m;
    m.block = 0;
    m.tag = tag;
    m.value = payloads_.emplace_back(la::Vector{v, v});
    return m;
  }

  la::Partition partition_;
  LocalView view_;
  std::deque<la::Vector> payloads_;  ///< storage the messages view
};

TEST_F(IncorporateTest, LastArrivalWinsSuffersLabelInversions) {
  incorporate(partition_, model::OverwritePolicy::kLastArrivalWins,
              block0(2, 2.0), view_);
  incorporate(partition_, model::OverwritePolicy::kLastArrivalWins,
              block0(1, 1.0), view_);
  // the stale tag-1 value clobbered the fresher tag-2 value
  EXPECT_DOUBLE_EQ(view_.x[0], 1.0);
  EXPECT_EQ(view_.tags[0], 1u);
  EXPECT_EQ(view_.max_tag[0], 2u);
  EXPECT_EQ(view_.inversions, 1u);
  EXPECT_EQ(view_.stale_filtered, 0u);
}

TEST_F(IncorporateTest, NewestTagWinsFiltersStaleArrivals) {
  incorporate(partition_, model::OverwritePolicy::kNewestTagWins,
              block0(2, 2.0), view_);
  incorporate(partition_, model::OverwritePolicy::kNewestTagWins,
              block0(1, 1.0), view_);
  // the inversion is OBSERVED but the stale value is refused
  EXPECT_DOUBLE_EQ(view_.x[0], 2.0);
  EXPECT_EQ(view_.tags[0], 2u);
  EXPECT_EQ(view_.inversions, 1u);
  EXPECT_EQ(view_.stale_filtered, 1u);
}

// ------------------------------------------------------------ end-to-end

class MpRuntimeFixture : public ::testing::Test {
 protected:
  MpRuntimeFixture() : rng_(61) {
    sys_ = problems::make_diagonally_dominant_system(128, 4, 2.0, rng_);
    partition_ = la::Partition::balanced(sys_.dim(), 16);
    jacobi_ = std::make_unique<op::JacobiOperator>(sys_.a, sys_.b,
                                                   partition_);
    x_star_ = op::picard_solve(*jacobi_, la::zeros(sys_.dim()), 50000,
                               1e-14);
  }

  MpOptions base_options() const {
    MpOptions opt;
    opt.workers = 4;
    opt.chaos.delivery.min_latency = 1e-4;
    opt.chaos.delivery.max_latency = 1e-3;
    opt.solve.tol = 1e-9;
    opt.solve.x_star = x_star_;
    opt.solve.max_seconds = 20.0;
    opt.solve.max_updates = 100000000;
    return opt;
  }

  Rng rng_;
  problems::LinearSystem sys_;
  la::Partition partition_;
  std::unique_ptr<op::JacobiOperator> jacobi_;
  la::Vector x_star_;
};

// Wall-clock canary: the virtual-time twin (simnet_test's
// AllThreeModesConvergeInVirtualTime) carries the convergence coverage
// with no wall budget at all; this original stays to exercise the real
// threaded runtime under real time.
TEST_F(MpRuntimeFixture, AllThreeModesConverge) {
  for (const Mode mode : {Mode::kAsync, Mode::kSsp, Mode::kBsp}) {
    MpOptions opt = base_options();
    opt.solve.mode = mode;
    opt.solve.staleness = 2;
    // Loaded host: compress the injected chaos window so the real-time
    // canary measures the runtime, not the CI scheduler.
    chaos_tuning::scale_latency_window("AllThreeModesConverge",
                                       opt.chaos.delivery.min_latency,
                                       opt.chaos.delivery.max_latency);
    // Shares the ChaosOverTcp wall-budget flake history (ROADMAP): run
    // fully traced under a watchdog 2s inside the 20s budget so an
    // overrun dumps the per-thread event rings instead of timing out
    // with no diagnostic.
    opt.obs.trace_level = obs::TraceLevel::kFull;
    obs::Watchdog dog(18.0, std::string("AllThreeModesConverge mode ") +
                                std::to_string(static_cast<int>(mode)));
    auto result = net::run_message_passing(*jacobi_, la::zeros(sys_.dim()),
                                           opt);
    dog.disarm();
    EXPECT_FALSE(dog.fired()) << "solve overran the 18s watchdog";
    EXPECT_TRUE(result.converged) << "mode " << static_cast<int>(mode)
                                  << " error " << result.final_error;
    EXPECT_GT(result.total_updates, 0u);
    EXPECT_GT(result.messages_delivered, 0u);
    EXPECT_GT(result.delays.count(), 0u);  // delays measured, not assumed
    EXPECT_GT(result.delays.mean(), 0.0);
    EXPECT_EQ(result.updates_per_worker.size(), 4u);
  }
}

TEST_F(MpRuntimeFixture, ConvergenceParityWithSharedMemoryRuntime) {
  // the same Jacobi problem through the shared-memory threads and through
  // message passing: both reach the same fixed point to oracle tolerance
  rt::RuntimeOptions shared_opt;
  shared_opt.workers = 2;
  shared_opt.tol = 1e-9;
  shared_opt.x_star = x_star_;
  shared_opt.max_seconds = 20.0;
  auto shared = rt::run_async_threads(*jacobi_, la::zeros(sys_.dim()),
                                      shared_opt);
  ASSERT_TRUE(shared.converged);

  MpOptions opt = base_options();
  auto mp = net::run_message_passing(*jacobi_, la::zeros(sys_.dim()), opt);
  ASSERT_TRUE(mp.converged);
  EXPECT_LT(la::dist_inf(mp.x, shared.x), 1e-7);
}

TEST_F(MpRuntimeFixture, ReportsTheCertifiedStopAndItsDrift) {
  // converged/final_error describe the snapshot the oracle certified; x
  // is the state after the join, and post_stop_drift is how far the
  // wind-down moved it. Last-arrival-wins over non-FIFO links is the
  // regime where late, stale arrivals can regress the joined state.
  MpOptions opt = base_options();
  opt.solve.overwrite = model::OverwritePolicy::kLastArrivalWins;
  const auto r = net::run_message_passing(*jacobi_, la::zeros(sys_.dim()),
                                          opt);
  ASSERT_TRUE(r.converged) << "error " << r.final_error;
  EXPECT_LT(r.final_error, opt.solve.tol);
  EXPECT_GE(r.post_stop_drift, 0.0);
  const la::WeightedMaxNorm norm{partition_};
  // The triangle inequality ties the three reported numbers together.
  EXPECT_LE(norm.distance(r.x, x_star_),
            r.final_error + r.post_stop_drift + 1e-15);
}

TEST_F(MpRuntimeFixture, QuadraticParityWithSharedMemoryRuntime) {
  Rng rng(62);
  auto f = problems::make_separable_quadratic(64, 1.0, 8.0, rng);
  const double gamma = 2.0 / (f->mu() + f->lipschitz());
  la::Partition partition = la::Partition::balanced(64, 8);
  op::GradientOperator grad(*f, gamma, partition);
  const la::Vector& x_bar = f->minimizer();

  rt::RuntimeOptions shared_opt;
  shared_opt.workers = 2;
  shared_opt.tol = 1e-9;
  shared_opt.x_star = x_bar;
  shared_opt.max_seconds = 20.0;
  auto shared = rt::run_async_threads(grad, la::zeros(64), shared_opt);
  ASSERT_TRUE(shared.converged);

  for (const Mode mode : {Mode::kAsync, Mode::kSsp, Mode::kBsp}) {
    MpOptions opt = base_options();
    opt.workers = 4;
    opt.solve.mode = mode;
    opt.solve.x_star = x_bar;
    auto mp = net::run_message_passing(grad, la::zeros(64), opt);
    ASSERT_TRUE(mp.converged) << "mode " << static_cast<int>(mode)
                              << " error " << mp.final_error;
    EXPECT_LT(la::dist_inf(mp.x, x_bar), 1e-8);
  }
}

TEST_F(MpRuntimeFixture, NonFifoChannelsProduceLabelInversions) {
  // wide latency spread + non-FIFO links: later messages overtake earlier
  // ones, so receivers observe out-of-order tags on real threads
  MpOptions opt = base_options();
  opt.solve.mode = Mode::kAsync;
  opt.chaos.delivery.min_latency = 1e-4;
  opt.chaos.delivery.max_latency = 5e-3;
  opt.solve.overwrite = model::OverwritePolicy::kLastArrivalWins;
  auto raw = net::run_message_passing(*jacobi_, la::zeros(sys_.dim()), opt);
  EXPECT_TRUE(raw.converged);  // paper: convergence despite inversions
  EXPECT_GT(raw.inversions_observed, 0u);
  EXPECT_EQ(raw.stale_filtered, 0u);  // last-arrival-wins filters nothing

  opt.solve.overwrite = model::OverwritePolicy::kNewestTagWins;
  auto filtered = net::run_message_passing(*jacobi_, la::zeros(sys_.dim()),
                                           opt);
  EXPECT_TRUE(filtered.converged);
  EXPECT_GT(filtered.inversions_observed, 0u);
  EXPECT_GT(filtered.stale_filtered, 0u);  // ...newest-tag-wins does
}

TEST_F(MpRuntimeFixture, FifoChannelsDeliverInOrder) {
  MpOptions opt = base_options();
  opt.chaos.delivery.fifo = true;
  opt.chaos.delivery.min_latency = 1e-4;
  opt.chaos.delivery.max_latency = 5e-3;
  auto result = net::run_message_passing(*jacobi_, la::zeros(sys_.dim()),
                                         opt);
  EXPECT_TRUE(result.converged);
  // per-link FIFO + monotone tags per block: no inversions possible
  EXPECT_EQ(result.inversions_observed, 0u);
}

TEST_F(MpRuntimeFixture, SurvivesMessageLoss) {
  MpOptions opt = base_options();
  opt.solve.mode = Mode::kAsync;
  opt.chaos.delivery.drop_prob = 0.3;
  auto result = net::run_message_passing(*jacobi_, la::zeros(sys_.dim()),
                                         opt);
  EXPECT_TRUE(result.converged) << "error " << result.final_error;
  EXPECT_GT(result.messages_dropped, 0u);
}

TEST_F(MpRuntimeFixture, FlexibleCommunicationSendsPartials) {
  MpOptions opt = base_options();
  opt.solve.inner_steps = 4;
  opt.solve.publish_partials = true;
  auto result = net::run_message_passing(*jacobi_, la::zeros(sys_.dim()),
                                         opt);
  EXPECT_TRUE(result.converged);
  EXPECT_GT(result.partials_sent, 0u);
}

TEST_F(MpRuntimeFixture, DisplacementStoppingWithoutOracle) {
  MpOptions opt = base_options();
  opt.solve.x_star.reset();
  opt.solve.displacement_tol = 1e-10;
  auto result = net::run_message_passing(*jacobi_, la::zeros(sys_.dim()),
                                         opt);
  EXPECT_LT(result.total_updates, opt.solve.max_updates);
  EXPECT_LT(la::dist_inf(result.x, x_star_), 1e-7);
}

TEST_F(MpRuntimeFixture, RecordsTraceEvents) {
  MpOptions opt = base_options();
  opt.obs.record_trace = true;
  auto result = net::run_message_passing(*jacobi_, la::zeros(sys_.dim()),
                                         opt);
  ASSERT_TRUE(result.converged);
  EXPECT_GT(result.log.phases().size(), 0u);
  EXPECT_GT(result.log.messages().size(), 0u);
  EXPECT_LE(result.log.phases().size() + result.log.messages().size(),
            opt.obs.max_trace_events);
}

// -------------------------------------------------- snapshot-join dedupe

TEST(SnapshotPlan, PartitionsBlocksDisjointlyAcrossEstablishedRanks) {
  // Every established rank runs the plan for the SAME joiner: the shares
  // must cover all blocks exactly once — the whole point of the dedupe
  // is that a joiner hears each block from one rank, not every owner.
  const std::vector<std::uint32_t> live{0, 1, 2, 5};
  std::vector<int> seen(10, 0);
  for (const std::uint32_t self : {0u, 1u, 2u}) {
    for (const la::BlockId b : snapshot_plan(10, live, self, 5)) {
      ASSERT_LT(b, 10u);
      ++seen[b];
    }
  }
  for (const int c : seen) EXPECT_EQ(c, 1);
  // The joiner itself plans nothing (it has nothing to welcome itself
  // with), and a rank outside the live view plans nothing either.
  EXPECT_TRUE(snapshot_plan(10, live, 5, 5).empty());
  EXPECT_TRUE(snapshot_plan(10, live, 7, 5).empty());
  // More established ranks than blocks: the surplus ranks send nothing,
  // the first `blocks` ranks send one block each.
  const std::vector<std::uint32_t> crowd{0, 1, 2, 3, 4};
  std::vector<int> seen2(3, 0);
  std::size_t senders = 0;
  for (const std::uint32_t self : {0u, 1u, 2u, 3u}) {
    const auto plan = snapshot_plan(3, crowd, self, 4);
    if (!plan.empty()) ++senders;
    for (const la::BlockId b : plan) ++seen2[b];
  }
  EXPECT_EQ(senders, 3u);
  for (const int c : seen2) EXPECT_EQ(c, 1);
}

// ------------------------------------------------------- wire efficiency

TEST_F(MpRuntimeFixture, DeltaEncodingKeepsBspFinalsInTheOracleBand) {
  // Exact deltas deliver the identical doubles a full frame would, so
  // the barriered computation is unchanged — but thread-mode stopping is
  // an asynchronous monitor poll, so the two runs may halt a poll apart.
  // The band is therefore 2x the post-stop tolerance band, not bitwise
  // equality (the bit-for-bit contract lives in simnet_test, where the
  // schedule itself is deterministic).
  MpOptions off = base_options();
  off.solve.mode = Mode::kBsp;
  off.solve.tol = 1e-9;
  const auto base = net::run_message_passing(*jacobi_, la::zeros(sys_.dim()),
                                             off);
  ASSERT_TRUE(base.converged) << "error " << base.final_error;

  MpOptions on = off;
  on.wire.delta = true;
  on.wire.refresh_every = 8;
  const auto delta = net::run_message_passing(*jacobi_, la::zeros(sys_.dim()),
                                              on);
  ASSERT_TRUE(delta.converged) << "error " << delta.final_error;
  EXPECT_LT(la::dist_inf(base.x, delta.x), 2e-8);

  // Accounting invariants: every publish lands in exactly one frame
  // class, and the wire never costs more than the raw encoding.
  EXPECT_GT(delta.wire_frames_full, 0u);
  EXPECT_GT(delta.wire_frames_full + delta.wire_frames_delta +
                delta.wire_frames_heartbeat,
            0u);
  EXPECT_LE(delta.bytes_sent_wire, delta.bytes_sent_raw);
  EXPECT_GT(delta.bytes_sent_raw, 0u);
  // The delta-off run pays raw cost on the wire by definition.
  EXPECT_EQ(base.bytes_sent_wire, base.bytes_sent_raw);
}

TEST_F(MpRuntimeFixture, DeltaEncodingConvergesInAsyncAndSspModes) {
  for (const Mode mode : {Mode::kAsync, Mode::kSsp}) {
    MpOptions opt = base_options();
    opt.solve.mode = mode;
    opt.solve.staleness = 2;
    opt.wire.delta = true;
    opt.wire.refresh_every = 8;
    const auto r = net::run_message_passing(*jacobi_, la::zeros(sys_.dim()),
                                            opt);
    EXPECT_TRUE(r.converged) << "mode " << static_cast<int>(mode)
                             << " error " << r.final_error;
    EXPECT_LT(la::dist_inf(r.x, x_star_), 1e-7);
    EXPECT_LE(r.bytes_sent_wire, r.bytes_sent_raw);
  }
}

TEST_F(MpRuntimeFixture, LossyCodecStaysWithinResidualTolerance) {
  // Top-k + quantization are LOSSY between refreshes: the gate is a
  // residual band around the uncompressed oracle, not bit equality. The
  // quantization floor is range * 2^-bits per delivery, far below the
  // 1e-3 tolerance used here; the periodic full refresh bounds top-k
  // drift.
  for (const Mode mode : {Mode::kAsync, Mode::kSsp, Mode::kBsp}) {
    MpOptions opt = base_options();
    opt.solve.mode = mode;
    opt.solve.staleness = 2;
    opt.solve.tol = 1e-3;
    opt.wire.delta = true;
    opt.wire.topk = 4;  // narrower than the 8-wide blocks
    opt.wire.quant_bits = 16;
    opt.wire.refresh_every = 4;
    const auto r = net::run_message_passing(*jacobi_, la::zeros(sys_.dim()),
                                            opt);
    EXPECT_TRUE(r.converged) << "mode " << static_cast<int>(mode)
                             << " error " << r.final_error;
    EXPECT_LT(la::dist_inf(r.x, x_star_), 1e-2);
    EXPECT_GT(r.wire_frames_codec, 0u);
    // Quantized payloads are strictly smaller than raw doubles.
    EXPECT_LT(r.bytes_sent_wire, r.bytes_sent_raw);
  }
}

TEST(MpRuntimeValidation, RejectsBadConfigurations) {
  Rng rng(63);
  auto sys = problems::make_diagonally_dominant_system(8, 2, 2.0, rng);
  op::JacobiOperator jac(sys.a, sys.b, la::Partition::balanced(8, 4));
  MpOptions opt;
  opt.workers = 5;  // only 4 blocks
  EXPECT_THROW(net::run_message_passing(jac, la::zeros(8), opt), asyncit::CheckError);
  opt.workers = 2;
  opt.chaos.delivery.min_latency = 2.0;
  opt.chaos.delivery.max_latency = 1.0;  // inverted range
  EXPECT_THROW(net::run_message_passing(jac, la::zeros(8), opt), asyncit::CheckError);
}

}  // namespace
}  // namespace asyncit::net
