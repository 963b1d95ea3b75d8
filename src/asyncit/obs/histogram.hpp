// Log-spaced histogram of measured delays (seconds) — the one histogram
// type of the stack (DESIGN.md §8).
//
// Every transport endpoint records drain time minus t_send per delivered
// frame here, net::Peer keeps one per source link, and results merge
// them. simnet adds one sample per delivered frame on its engine thread,
// so the class is deliberately plain: single writer, no atomics, no
// allocation. Every instance shares one fixed bucket layout (1 µs .. 10 s,
// 36 log-spaced buckets plus an overflow bucket), so histograms merge
// bucket by bucket and copy as one flat block.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace asyncit::obs {

class Histogram {
 public:
  static constexpr std::size_t kBins = 37;  ///< 36 finite + overflow

  void add(double delay_seconds);
  void merge(const Histogram& other);

  std::uint64_t count() const { return count_; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return max_; }
  double mean() const { return count_ ? sum_ / double(count_) : 0.0; }
  /// Approximate quantile (upper edge of the bucket holding rank p*count;
  /// the exact max for the overflow bucket).
  double quantile(double p) const;
  /// Named quantiles exported through the node/cluster JSON (schema
  /// asyncit-node/2); max() above completes the set.
  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }

  /// Bucket upper edges (seconds; last = +inf), shared by every instance.
  static const std::array<double, kBins>& edges();
  /// Per-bucket counts, aligned with edges().
  const std::array<std::uint64_t, kBins>& counts() const { return counts_; }

 private:
  std::array<std::uint64_t, kBins> counts_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace asyncit::obs
