#include "asyncit/obs/histogram.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "asyncit/support/check.hpp"

namespace asyncit::obs {

const std::array<double, Histogram::kBins>& Histogram::edges() {
  // 1 microsecond .. 10 seconds: covers everything from same-quantum
  // delivery to stragglers.
  static const std::array<double, kBins> table = [] {
    constexpr double kLo = 1e-6;
    constexpr double kHi = 10.0;
    std::array<double, kBins> e{};
    const double ratio = std::pow(kHi / kLo, 1.0 / double(kBins - 2));
    double edge = kLo;
    for (std::size_t i = 0; i + 1 < kBins; ++i, edge *= ratio) e[i] = edge;
    e[kBins - 1] = std::numeric_limits<double>::infinity();
    return e;
  }();
  return table;
}

void Histogram::add(double delay_seconds) {
  const double d = std::max(0.0, delay_seconds);
  const auto& e = edges();
  ++counts_[static_cast<std::size_t>(std::lower_bound(e.begin(), e.end(), d) -
                                     e.begin())];
  ++count_;
  sum_ += d;
  min_ = (count_ == 1) ? d : std::min(min_, d);
  max_ = std::max(max_, d);
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  for (std::size_t i = 0; i < kBins; ++i) counts_[i] += other.counts_[i];
  min_ = (count_ == 0) ? other.min_ : std::min(min_, other.min_);
  count_ += other.count_;
  sum_ += other.sum_;
  max_ = std::max(max_, other.max_);
}

double Histogram::quantile(double p) const {
  ASYNCIT_CHECK(p >= 0.0 && p <= 1.0);
  if (count_ == 0) return 0.0;
  const double rank = p * double(count_);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBins; ++i) {
    seen += counts_[i];
    if (double(seen) >= rank) return i + 1 == kBins ? max_ : edges()[i];
  }
  return max_;
}

}  // namespace asyncit::obs
