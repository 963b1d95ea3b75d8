// The per-rank layer ledger of a traced benchmark run, and the decorators
// that fill it from outside the program.
//
// Spans are recorded only around calls into each layer's public
// functions: op::BlockOperator (TracedOperator) and transport::Endpoint
// (TracedEndpoint, handed to the runtimes through the existing Transport
// overloads and, on simnet, through run_node). Nothing inside src/ is
// instrumented. Each rank's wall time then splits into the spans
// attributed to it plus an explicit remainder — the rank's own code
// between layer calls (incorporate, delta diff, gate logic, the PSGD
// server's apply + eval, a worker's gradient).
//
// What a "rank's wall time" is depends on how ranks are carried:
//
//   threads  one thread per rank; the rank's wall is the interval from
//            the entry of its first layer call to the exit of its last.
//            Operator calls made on a thread that never touched an
//            endpoint (the message-passing monitor) land on an extra
//            "monitor" row.
//   simnet   every rank is a fiber on ONE thread. receive() and
//            wait_for_activity() yield the fiber, so they are counted but
//            not timed; a rank's wall is the sum of its on-CPU slices
//            between yields (fiber start → first yield, return from a
//            yield → next yield, last return → fiber end). The extra
//            "engine" row holds the world wall no slice covers: engine
//            dispatch, fiber switches and the yielding calls themselves.
//
// One endpoint is driven by one thread, so the per-row accumulators need
// no atomics. Aggregates and a bounded per-row span sample stay in memory
// until write_json().
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "asyncit/linalg/csr_matrix.hpp"
#include "asyncit/operators/operator.hpp"
#include "asyncit/transport/transport.hpp"

namespace perfbench {

using Ns = std::int64_t;

/// steady_clock nanoseconds.
Ns now_ns();

enum class Layer : std::uint8_t {
  kOpUpdate,    ///< BlockOperator::apply_block
  kOpResidual,  ///< apply_block_residual / apply (monitor, stop checks)
  kSend,        ///< Endpoint::send
  kRecv,        ///< Endpoint::receive
  kWait,        ///< Endpoint::wait_for_activity
};
inline constexpr std::size_t kLayers = 5;

/// Log-linear histogram of per-call durations: four buckets per octave
/// of nanoseconds, so a quantile is within 25% of the true value.
/// (net::DelayHistogram starts at 1 µs; most sends take less.)
class CallHistogram {
 public:
  void add(Ns ns);
  void merge(const CallHistogram& other);
  /// Upper edge (ns) of the bucket holding rank p * count; 0 when empty.
  double quantile(double p) const;

 private:
  static constexpr std::size_t kBuckets = 160;
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
};

struct Span {
  Ns start = 0;  ///< relative to the ledger's origin
  Ns duration = 0;
  Layer layer = Layer::kOpUpdate;
};

/// Uniform-in-order sample of at most kCapacity spans: when full, every
/// other kept span is dropped and the sampling stride doubles.
class SpanSample {
 public:
  static constexpr std::size_t kCapacity = 32;
  void offer(const Span& span);
  const std::vector<Span>& spans() const { return kept_; }
  std::uint64_t stride() const { return stride_; }

 private:
  std::vector<Span> kept_;
  std::uint64_t stride_ = 1;
  std::uint64_t seen_ = 0;
};

struct alignas(64) RankRow {
  std::array<std::uint64_t, kLayers> calls{};
  std::array<Ns, kLayers> busy{};
  std::array<CallHistogram, kLayers> hist;
  std::uint64_t send_doubles = 0;
  std::uint64_t send_wire_bytes = 0;
  std::uint64_t recv_frames = 0;
  std::uint64_t update_nnz = 0;
  std::uint64_t update_bytes = 0;  ///< computed, not measured
  // threads: wall = last - first over the row's spans
  Ns first = -1;
  Ns last = -1;
  // simnet: wall = Σ on-CPU slices
  Ns slices = 0;
  Ns resume = 0;
  /// End of the row's last span (or start of its current slice), and the
  /// spans that began before it — a rank's spans must be disjoint.
  Ns cursor = -1;
  std::uint64_t overlaps = 0;
  SpanSample sample;
};

enum class Carrier { kThreads, kSim };

struct LayerTotals {
  std::uint64_t calls = 0;
  double self_s = 0.0;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
};

struct LedgerSummary {
  std::array<LayerTotals, kLayers> layers;
  std::uint64_t send_doubles = 0;
  std::uint64_t send_wire_bytes = 0;
  std::uint64_t recv_frames = 0;
  std::uint64_t update_nnz = 0;
  std::uint64_t update_bytes = 0;
  double wall_s = 0.0;       ///< Σ row walls (incl. the extra row)
  double attributed_s = 0.0;  ///< Σ spans
  double remainder_s = 0.0;   ///< Σ row remainders
  /// Per-row remainder (wall − Σ spans), rank order, extra row last.
  std::vector<double> row_remainder_s;
  /// Every row's spans are disjoint and lie inside its wall, so no
  /// remainder is negative (Σ spans + remainder = wall holds exactly, in
  /// integer nanoseconds).
  bool closed = false;
  std::string closure_error;
};

class Ledger {
 public:
  /// `ranks` rows plus one extra (monitor on threads, engine on simnet).
  /// With timing off only send-side counters are kept (no clock reads):
  /// the wire-byte count of an untraced run.
  Ledger(std::size_t ranks, Carrier carrier, bool timing);

  bool timing() const { return timing_; }
  Carrier carrier() const { return carrier_; }
  std::size_t ranks() const { return rows_.size() - 1; }
  RankRow& row(std::size_t r) { return rows_[r]; }

  /// Row of the rank running the caller (engine fiber on simnet, the
  /// thread's last endpoint on threads, else the monitor row).
  std::size_t caller_row() const;
  /// Marks the calling thread as carrying `rank` (threads only).
  static void bind_thread(std::uint32_t rank);
  static void unbind_thread();

  void span(std::size_t r, Layer layer, Ns t0, Ns t1);
  void count(std::size_t r, Layer layer) { ++rows_[r].calls[idx(layer)]; }

  // simnet slices
  void slice_begin(std::size_t r) {
    rows_[r].resume = rows_[r].cursor = now_ns();
  }
  void slice_end(std::size_t r);
  /// Wall of the whole world (engine.run()); its uncovered part is the
  /// engine row.
  void set_world_wall(Ns wall) { world_wall_ = wall; }

  LedgerSummary summarize() const;
  /// Aggregates per row plus the span samples, as JSON.
  void write_json(const std::string& path, const std::string& label) const;

 private:
  static std::size_t idx(Layer l) { return static_cast<std::size_t>(l); }
  Ns row_wall(std::size_t r) const;

  Carrier carrier_;
  bool timing_;
  Ns origin_;
  Ns world_wall_ = 0;
  std::vector<RankRow> rows_;
};

/// BlockOperator decorator: times every virtual and forwards it, so the
/// inner operator's fused paths (apply_block_residual, apply) stay in use.
/// `a` supplies per-block nnz for the computed-bytes counter.
class TracedOperator final : public asyncit::op::BlockOperator {
 public:
  TracedOperator(const asyncit::op::BlockOperator& inner,
                 const asyncit::la::CsrMatrix& a, Ledger& ledger);

  const asyncit::la::Partition& partition() const override {
    return inner_.partition();
  }
  using BlockOperator::apply_block;
  using BlockOperator::apply;
  void apply_block(asyncit::la::BlockId b, std::span<const double> x,
                   std::span<double> out,
                   asyncit::op::Workspace& ws) const override;
  double apply_block_residual(asyncit::la::BlockId b,
                              std::span<const double> x,
                              std::span<double> out,
                              asyncit::op::Workspace& ws) const override;
  void apply(std::span<const double> x, std::span<double> y,
             asyncit::op::Workspace& ws) const override;
  std::string name() const override { return inner_.name(); }

 private:
  const asyncit::op::BlockOperator& inner_;
  Ledger& ledger_;
  std::vector<std::uint64_t> block_nnz_;
  std::vector<std::uint64_t> block_bytes_;
};

class TracedEndpoint final : public asyncit::transport::Endpoint {
 public:
  TracedEndpoint(asyncit::transport::Endpoint& inner, Ledger& ledger)
      : inner_(inner), ledger_(ledger), rank_(inner.rank()) {}

  std::uint32_t rank() const override { return rank_; }
  asyncit::transport::SendReceipt send(
      std::uint32_t dst, const asyncit::transport::MessageHeader& header,
      std::span<const double> value, double now, bool allow_drop) override;
  std::size_t receive(double now,
                      std::vector<asyncit::net::Message>& out) override;
  void recycle(std::vector<asyncit::net::Message>& consumed) override {
    inner_.recycle(consumed);
  }
  std::uint64_t activity() const override { return inner_.activity(); }
  void wait_for_activity(std::uint64_t seen, double timeout_seconds) override;
  double next_delivery() const override { return inner_.next_delivery(); }
  std::uint64_t sent() const override { return inner_.sent(); }
  std::uint64_t dropped() const override { return inner_.dropped(); }
  std::uint64_t delivered() const override { return inner_.delivered(); }
  asyncit::net::DelayHistogram delays() const override {
    return inner_.delays();
  }

 private:
  asyncit::transport::Endpoint& inner_;
  Ledger& ledger_;
  std::uint32_t rank_;
};

/// Transport decorator handing out one TracedEndpoint per local rank.
class TracedTransport final : public asyncit::transport::Transport {
 public:
  TracedTransport(asyncit::transport::Transport& inner, Ledger& ledger);

  std::size_t world() const override { return inner_.world(); }
  std::vector<std::uint32_t> local_ranks() const override {
    return inner_.local_ranks();
  }
  asyncit::transport::Endpoint& endpoint(std::uint32_t rank) override {
    return endpoints_[rank];
  }
  const char* backend() const override { return inner_.backend(); }
  void flush(double timeout_seconds) override {
    inner_.flush(timeout_seconds);
  }
  std::uint64_t bad_frames() const override { return inner_.bad_frames(); }

 private:
  asyncit::transport::Transport& inner_;
  std::vector<TracedEndpoint> endpoints_;
};

}  // namespace perfbench
