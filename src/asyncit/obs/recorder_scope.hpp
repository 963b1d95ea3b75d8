// RAII arming of the process-global recorder for one run entry point.
//
// Every solve/train entry point (net::run_message_passing, net::run_node,
// train::run_training[_node], simnet::run_world / run_train_world) opens
// exactly one RecorderScope from its ObsOptions. The contract:
//   * kOff touches nothing — a recorder the caller armed itself (benches,
//     a simnet world hosting per-rank runtimes) keeps running, its events
//     and clock untouched;
//   * otherwise the scope installs `clock` (when given), enables the
//     recorder (resetting rings and the metrics registry), and on
//     finish() or destruction disables it and restores the prior clock —
//     the recorded events stay snapshot-able for exporters that run after
//     the entry point returns (tools/asyncit_node).
#pragma once

#include <cstddef>
#include <cstdint>

#include "asyncit/obs/metrics.hpp"
#include "asyncit/obs/trace_recorder.hpp"

namespace asyncit::obs {

class RecorderScope {
 public:
  RecorderScope(TraceLevel level, std::size_t ring_capacity,
                std::uint16_t rank = 0, TraceClockFn clock = nullptr)
      : armed_(level != TraceLevel::kOff), prev_clock_(trace_clock()) {
    if (!armed_) return;
    if (clock != nullptr) set_trace_clock(clock);
    TraceRecorder::instance().enable({level, ring_capacity, rank});
    MetricsRegistry::instance().reset();
  }
  ~RecorderScope() { disarm(); }

  RecorderScope(const RecorderScope&) = delete;
  RecorderScope& operator=(const RecorderScope&) = delete;

  /// Disarms now (the destructor then does nothing) and writes the run's
  /// recorder accounting into the two result fields — left untouched
  /// under kOff.
  void finish(std::uint64_t& recorded, std::uint64_t& dropped) {
    if (!armed_) return;
    disarm();
    const RecorderStats stats = TraceRecorder::instance().stats();
    recorded = stats.recorded;
    dropped = stats.dropped;
  }

 private:
  void disarm() {
    if (!armed_) return;
    armed_ = false;
    TraceRecorder::instance().disable();
    set_trace_clock(prev_clock_);
  }

  bool armed_;
  TraceClockFn prev_clock_;
};

}  // namespace asyncit::obs
