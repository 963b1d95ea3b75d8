// Tests for the parameter-server training mode (train/): the SSP
// admission clock on a virtual schedule, delta support spans, the
// delta-frame wire round trip, BSP bit-exact parity against a serial
// minibatch-SGD oracle, convergence of all three disciplines on the
// synthetic logistic set, and the per-rank run_training_node entry.
#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "asyncit/linalg/vector_ops.hpp"
#include "asyncit/problems/synthetic.hpp"
#include "asyncit/train/psgd.hpp"
#include "asyncit/train/sgd.hpp"
#include "asyncit/train/train.hpp"
#include "asyncit/transport/inproc.hpp"
#include "asyncit/transport/wire.hpp"

namespace {

using namespace asyncit;

/// Cleanly separable instance (no label noise): every discipline should
/// drive train accuracy to 1.0, so a 0.95 target is a robust bar.
problems::LogisticConfig easy_config() {
  problems::LogisticConfig cfg;
  cfg.samples = 240;
  cfg.features = 48;
  cfg.density = 0.3;
  cfg.separation = 3.0;
  cfg.label_noise = 0.0;
  cfg.ridge = 0.01;
  return cfg;
}

train::TrainOptions base_options(train::Discipline d) {
  train::TrainOptions options;
  options.workers = 3;
  options.seed = 7;
  options.sgd.discipline = d;
  options.sgd.learning_rate = 0.5;
  options.sgd.batch_size = 16;
  options.sgd.max_epochs = 200;
  options.sgd.max_seconds = 15.0;
  options.sgd.target_accuracy = 0.95;
  options.sgd.eval_every = 4;
  return options;
}

TEST(SspClock, AdmissionBoundOnVirtualSchedule) {
  train::SspClock clock(/*workers=*/3, /*staleness=*/2);
  // All clocks at 0: everyone may run steps 0, 1, 2 but not 3.
  EXPECT_TRUE(clock.admissible(0));
  EXPECT_TRUE(clock.admissible(2));
  EXPECT_FALSE(clock.admissible(3));

  // Workers 0 and 1 sprint to 5; worker 2 lags at 1 and pins the min.
  clock.advance(0, 5);
  clock.advance(1, 5);
  clock.advance(2, 1);
  EXPECT_EQ(clock.min_active(), 1u);
  EXPECT_TRUE(clock.admissible(3));
  EXPECT_FALSE(clock.admissible(4));

  // advance() is monotone: a stale report cannot move a clock backward.
  clock.advance(0, 2);
  EXPECT_EQ(clock.min_active(), 1u);

  // The straggler leaves: the min jumps to the survivors and previously
  // gated clocks become admissible.
  clock.deactivate(2);
  EXPECT_EQ(clock.active(), 2u);
  EXPECT_EQ(clock.min_active(), 5u);
  EXPECT_TRUE(clock.admissible(7));
  EXPECT_FALSE(clock.admissible(8));

  // No active workers: min degenerates to 0 (callers keep a high-water
  // mark; see PsgdServer::rounds()).
  clock.deactivate(0);
  clock.deactivate(1);
  EXPECT_EQ(clock.active(), 0u);
  EXPECT_EQ(clock.min_active(), 0u);
}

TEST(SgdMath, DeltaSupportSpanIsExact) {
  const train::Dataset data =
      train::make_synthetic_dataset(easy_config(), /*seed=*/11);
  la::Vector x = la::zeros(data.features());
  la::Vector delta = la::zeros(data.features());
  Rng rng = train::worker_stream(/*seed=*/11, /*w=*/0);
  const train::DeltaSpan span = train::sgd_minibatch_delta(
      data, data.shard(0, 2), /*batch_size=*/8, /*learning_rate=*/0.5, x,
      rng, delta);
  ASSERT_GT(span.count, 0u);
  ASSERT_LE(span.offset + span.count, data.features());
  // Entries outside the reported support are exactly zero, so a frame
  // truncated to [offset, offset+count) loses nothing.
  for (std::size_t i = 0; i < span.offset; ++i) EXPECT_EQ(delta[i], 0.0);
  for (std::size_t i = span.offset + span.count; i < delta.size(); ++i)
    EXPECT_EQ(delta[i], 0.0);
  // Endpoints of the span are nonzero (tightest range).
  EXPECT_NE(delta[span.offset], 0.0);
  EXPECT_NE(delta[span.offset + span.count - 1], 0.0);
}

TEST(DeltaFrame, WireRoundTripPreservesClockAndSupport) {
  // A worker delta frame is an ordinary partial-block kValue frame:
  // round carries the worker clock, tag the send counter, offset/count
  // the support span. Encode with the TX fast path, decode, compare.
  transport::MessageHeader h;
  h.block = 0;
  h.tag = 42;          // per-worker send counter
  h.round = 17;        // worker clock (completed steps)
  h.partial = true;
  h.offset = 5;
  const std::vector<double> payload = {0.25, -1.5, 3.0};

  std::vector<std::uint8_t> bytes;
  transport::encode_frame(/*src=*/2, h, payload, /*t_send=*/1.25, bytes);
  ASSERT_EQ(bytes.size(), transport::frame_bytes(payload.size()));

  transport::Message out;
  std::vector<double> out_payload;
  std::size_t consumed = 0;
  ASSERT_EQ(transport::decode_frame(bytes, consumed, out, out_payload),
            transport::DecodeStatus::kOk);
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(out.src, 2u);
  EXPECT_EQ(out.kind, transport::MsgKind::kValue);
  EXPECT_EQ(out.block, 0u);
  EXPECT_EQ(out.tag, 42u);
  EXPECT_EQ(out.round, 17u);
  EXPECT_TRUE(out.partial);
  EXPECT_EQ(out.offset, 5u);
  ASSERT_EQ(out.value.size(), payload.size());
  for (std::size_t i = 0; i < payload.size(); ++i)
    EXPECT_EQ(out.value[i], payload[i]);
}

TEST(TrainBsp, BitExactParityWithSerialOracle) {
  // samples divisible by workers => equal shards => equal step budgets,
  // so every worker participates in every round and the distributed run
  // is a pure data-flow reordering of the serial schedule.
  problems::LogisticConfig cfg = easy_config();
  cfg.samples = 120;
  cfg.features = 32;
  constexpr std::size_t kWorkers = 3;
  constexpr std::size_t kBatch = 8;
  constexpr std::uint64_t kEpochs = 3;  // 3 * ceil(40/8) = 15 rounds
  constexpr std::uint64_t kRounds = 15;
  const std::uint64_t seed = 21;

  const train::Dataset data = train::make_synthetic_dataset(cfg, seed);
  ASSERT_EQ(data.samples() % kWorkers, 0u);

  train::TrainOptions options = base_options(train::Discipline::kBsp);
  options.workers = kWorkers;
  options.seed = seed;
  options.sgd.batch_size = kBatch;
  options.sgd.max_epochs = kEpochs;
  options.sgd.target_accuracy = 0.0;  // run the full budget
  const train::TrainResult r =
      train::run_training(data, la::zeros(data.features()), options);

  EXPECT_EQ(r.rounds, kRounds);
  EXPECT_EQ(r.deltas_applied, kRounds * kWorkers);
  ASSERT_EQ(r.steps_per_worker.size(), kWorkers);
  for (const std::uint64_t s : r.steps_per_worker) EXPECT_EQ(s, kRounds);
  EXPECT_EQ(r.epochs, kEpochs);
  EXPECT_EQ(r.messages_dropped, 0u);
  EXPECT_EQ(r.frames_rejected, 0u);

  // Serial oracle: per round, every worker computes its delta against
  // the FROZEN round model, then deltas apply in rank order with
  // factor 1/W — the exact float schedule of PsgdServer's barrier.
  const std::size_t n = data.features();
  la::Vector x = la::zeros(n);
  std::vector<Rng> streams;
  for (std::size_t w = 0; w < kWorkers; ++w)
    streams.push_back(train::worker_stream(seed, w));
  std::vector<la::Vector> deltas(kWorkers, la::zeros(n));
  std::vector<train::DeltaSpan> spans(kWorkers);
  for (std::uint64_t round = 0; round < kRounds; ++round) {
    for (std::size_t w = 0; w < kWorkers; ++w)
      spans[w] = train::sgd_minibatch_delta(
          data, data.shard(w, kWorkers), kBatch, options.sgd.learning_rate,
          x, streams[w], deltas[w]);
    for (std::size_t w = 0; w < kWorkers; ++w)
      for (std::size_t i = spans[w].offset;
           i < spans[w].offset + spans[w].count; ++i)
        x[i] += (1.0 / kWorkers) * deltas[w][i];
  }

  ASSERT_EQ(r.x.size(), x.size());
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(r.x[i], x[i]) << "i=" << i;
}

TEST(TrainTap, ConvergesToTargetAccuracy) {
  const train::Dataset data =
      train::make_synthetic_dataset(easy_config(), /*seed=*/7);
  const train::TrainOptions options = base_options(train::Discipline::kTap);
  const train::TrainResult r =
      train::run_training(data, la::zeros(data.features()), options);
  EXPECT_TRUE(r.converged);
  EXPECT_GE(r.final_accuracy, 0.95);
  EXPECT_GT(r.deltas_applied, 0u);
  EXPECT_GT(r.examples_processed, 0u);
  EXPECT_EQ(r.frames_rejected, 0u);
}

TEST(TrainSsp, ConvergesToTargetAccuracy) {
  const train::Dataset data =
      train::make_synthetic_dataset(easy_config(), /*seed=*/7);
  train::TrainOptions options = base_options(train::Discipline::kSsp);
  options.sgd.staleness = 2;
  const train::TrainResult r =
      train::run_training(data, la::zeros(data.features()), options);
  EXPECT_TRUE(r.converged);
  EXPECT_GE(r.final_accuracy, 0.95);
  // SSP publishes a round whenever the min worker clock advances, so the
  // server must have observed rounds.
  EXPECT_GT(r.rounds, 0u);
}

TEST(TrainTap, SurvivesLossyChaosDelivery) {
  // Delta and parameter frames are droppable in TAP (allow_drop); stop
  // frames are not, so the run still terminates cleanly under loss.
  const train::Dataset data =
      train::make_synthetic_dataset(easy_config(), /*seed=*/9);
  train::TrainOptions options = base_options(train::Discipline::kTap);
  options.seed = 9;
  options.chaos.delivery.drop_prob = 0.05;
  const train::TrainResult r =
      train::run_training(data, la::zeros(data.features()), options);
  EXPECT_TRUE(r.converged);
  EXPECT_GE(r.final_accuracy, 0.95);
  EXPECT_GT(r.messages_dropped, 0u);
}

TEST(TrainNode, PerRankEntryReachesTargetAndStopsWorkers) {
  // One run_training_node per rank over a shared in-process transport —
  // the exact shape of the per-process deployment (tools/asyncit_node).
  const problems::LogisticConfig cfg = easy_config();
  constexpr std::size_t kWorkers = 3;
  train::TrainOptions options = base_options(train::Discipline::kTap);
  options.workers = kWorkers;
  // TAP workers never gate, so a finite step budget can drain before the
  // server's stop frame arrives; make the budget unreachable so the stop
  // frame is what ends every worker.
  options.sgd.max_epochs = 1000000;

  const train::Dataset data = train::make_synthetic_dataset(cfg, 7);
  transport::InprocTransport transport(kWorkers + 1,
                                       options.chaos.delivery, options.seed);

  std::vector<train::TrainResult> results(kWorkers + 1);
  std::vector<std::thread> threads;
  for (std::uint32_t rank = 0; rank <= kWorkers; ++rank)
    threads.emplace_back([&, rank] {
      // Every rank rebuilds the dataset from the config, as a real node
      // process would.
      const train::Dataset local = train::make_synthetic_dataset(cfg, 7);
      results[rank] = train::run_training_node(
          local, la::zeros(local.features()), options,
          transport.endpoint(rank));
    });
  for (std::thread& th : threads) th.join();
  transport.flush(/*timeout_seconds=*/1.0);

  EXPECT_TRUE(results[0].converged);
  EXPECT_GE(results[0].final_accuracy, 0.95);
  for (std::uint32_t rank = 1; rank <= kWorkers; ++rank) {
    // The budget is generous, so the server's stop frame (not the local
    // step budget) ends each worker.
    EXPECT_TRUE(results[rank].converged) << "rank " << rank;
    ASSERT_EQ(results[rank].steps_per_worker.size(), 1u);
    EXPECT_GT(results[rank].steps_per_worker[0], 0u);
  }
}

}  // namespace
