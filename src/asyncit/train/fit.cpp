#include "asyncit/train/fit.hpp"

#include <algorithm>
#include <cmath>

#include "asyncit/support/check.hpp"

namespace asyncit::train {

namespace {

/// log(1 + exp(t)) without overflow.
double log1pexp(double t) {
  return t > 0.0 ? t + std::log1p(std::exp(-t)) : std::log1p(std::exp(t));
}

/// Chunk `c`'s loss sum and correct count, rows in order.
void fit_chunk(const Dataset& data, std::size_t c, std::span<const double> x,
               double& loss_sum, std::size_t& correct) {
  const std::size_t begin = c * kFitChunkRows;
  const std::size_t end = std::min(begin + kFitChunkRows, data.samples());
  double sum = 0.0;
  std::size_t hits = 0;
  for (std::size_t h = begin; h < end; ++h) {
    const double score = data.design.row_dot(h, x);
    const int z = data.labels[h];
    sum += log1pexp(-static_cast<double>(z) * score);
    hits += (score >= 0.0 ? 1 : -1) == z;
  }
  loss_sum = sum;
  correct = hits;
}

Fit finish(const Dataset& data, std::span<const double> x, double loss_sum,
           std::size_t correct) {
  double sq = 0.0;
  for (const double xi : x) sq += xi * xi;
  const double m = static_cast<double>(data.samples());
  return {loss_sum / m + 0.5 * data.ridge * sq,
          static_cast<double>(correct) / m};
}

}  // namespace

std::size_t fit_chunks(const Dataset& data) {
  return (data.samples() + kFitChunkRows - 1) / kFitChunkRows;
}

Fit dataset_fit(const Dataset& data, std::span<const double> x) {
  ASYNCIT_CHECK(x.size() == data.features());
  double loss_sum = 0.0;
  std::size_t correct = 0;
  const std::size_t chunks = fit_chunks(data);
  for (std::size_t c = 0; c < chunks; ++c) {
    double chunk_loss = 0.0;
    std::size_t chunk_correct = 0;
    fit_chunk(data, c, x, chunk_loss, chunk_correct);
    loss_sum += chunk_loss;
    correct += chunk_correct;
  }
  return finish(data, x, loss_sum, correct);
}

FitEvaluator::FitEvaluator(const Dataset& data, std::size_t helpers)
    : data_(&data), partials_(fit_chunks(data)) {
  threads_.reserve(helpers);
  for (std::size_t i = 0; i < helpers; ++i)
    threads_.emplace_back([this] { helper_loop(); });
}

FitEvaluator::~FitEvaluator() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    quit_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : threads_) t.join();
}

std::size_t FitEvaluator::default_helpers(const Dataset& data) {
  const std::size_t hw = std::thread::hardware_concurrency();
  const std::size_t chunks = fit_chunks(data);
  return std::min(hw > 1 ? hw - 1 : 0, chunks > 1 ? chunks - 1 : 0);
}

void FitEvaluator::run_chunks() {
  const std::size_t chunks = partials_.size();
  for (std::size_t c = next_chunk_.fetch_add(1, std::memory_order_relaxed);
       c < chunks; c = next_chunk_.fetch_add(1, std::memory_order_relaxed))
    fit_chunk(*data_, c, x_, partials_[c].loss_sum, partials_[c].correct);
}

void FitEvaluator::helper_loop() {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    wake_.wait(lock, [&] { return quit_ || generation_ != seen; });
    if (quit_) return;
    seen = generation_;
    lock.unlock();
    run_chunks();
    lock.lock();
    if (--busy_ == 0) done_.notify_one();
  }
}

Fit FitEvaluator::fit(std::span<const double> x) {
  ASYNCIT_CHECK(x.size() == data_->features());
  {
    // The mutex orders x_ and the reset counter before every helper's
    // claims, and (below) every helper's partials before the sum.
    std::lock_guard<std::mutex> lock(mu_);
    x_ = x;
    next_chunk_.store(0, std::memory_order_relaxed);
    busy_ = threads_.size();
    ++generation_;
  }
  wake_.notify_all();
  run_chunks();
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_.wait(lock, [this] { return busy_ == 0; });
  }
  double loss_sum = 0.0;
  std::size_t correct = 0;
  for (const Partial& p : partials_) {
    loss_sum += p.loss_sum;
    correct += p.correct;
  }
  return finish(*data_, x, loss_sum, correct);
}

}  // namespace asyncit::train
