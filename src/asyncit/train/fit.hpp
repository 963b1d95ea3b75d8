// Full-train evaluation: loss and accuracy of a model in one pass.
//
// The rows are cut into fixed kFitChunkRows-row chunks. A chunk computes
// each row's dot product once and reduces the chunk to a partial: the sum
// of log(1 + exp(−z·s)) and the count of rows with sign(s) == z. The
// partials are then summed in chunk order. The chunk boundaries depend
// only on the row count, so the result is bit-identical however many
// threads ran the chunks and whichever thread ran which: dataset_fit
// (serial) and FitEvaluator (the server's helper pool) return the same
// bits for the same x. Accuracy is an exact count.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "asyncit/train/dataset.hpp"

namespace asyncit::train {

/// Mean logistic loss + ridge, and the fraction of rows classified
/// correctly by sign(⟨a_h, x⟩) (Dataset's loss convention).
struct Fit {
  double loss = 0.0;
  double accuracy = 0.0;
};

/// Rows per evaluation chunk: the unit of work and of the loss sum order.
inline constexpr std::size_t kFitChunkRows = 2048;

/// Number of evaluation chunks of `data` (the last one may be short).
std::size_t fit_chunks(const Dataset& data);

/// Serial full-train fit. Allocation-free.
Fit dataset_fit(const Dataset& data, std::span<const double> x);

/// A persistent pool that runs dataset_fit's chunks on `helpers` threads
/// plus the caller. fit() claims chunks through an atomic counter, works
/// on them itself, and returns only when every chunk is done, so x is
/// read only while the caller is blocked. Dispatch is a generation
/// counter under a mutex/condvar: allocation-free after construction.
class FitEvaluator {
 public:
  FitEvaluator(const Dataset& data, std::size_t helpers);
  ~FitEvaluator();
  FitEvaluator(const FitEvaluator&) = delete;
  FitEvaluator& operator=(const FitEvaluator&) = delete;

  /// min(hardware threads − 1, chunks − 1): one-chunk datasets get none.
  static std::size_t default_helpers(const Dataset& data);

  std::size_t helpers() const { return threads_.size(); }

  /// Bit-identical to dataset_fit(data, x).
  Fit fit(std::span<const double> x);

 private:
  struct Partial {
    double loss_sum = 0.0;
    std::size_t correct = 0;
  };
  void helper_loop();
  void run_chunks();

  const Dataset* data_;
  std::vector<Partial> partials_;  ///< one per chunk
  std::span<const double> x_;
  std::atomic<std::size_t> next_chunk_{0};

  std::mutex mu_;
  std::condition_variable wake_;  ///< helpers: a new generation or quit
  std::condition_variable done_;  ///< caller: busy_ reached 0
  std::uint64_t generation_ = 0;
  std::size_t busy_ = 0;  ///< helpers still inside the current generation
  bool quit_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace asyncit::train
