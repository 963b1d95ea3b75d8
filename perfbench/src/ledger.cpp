#include "ledger.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <memory>

#include "asyncit/simnet/engine.hpp"
#include "asyncit/transport/wire.hpp"

namespace perfbench {

namespace {

thread_local int tl_rank = -1;

std::size_t bucket_of(Ns ns) {
  const auto v = static_cast<std::uint64_t>(std::max<Ns>(ns, 0));
  if (v < 4) return static_cast<std::size_t>(v);
  const int octave = std::min(static_cast<int>(std::bit_width(v)) - 1, 39);
  const std::uint64_t sub = (v >> (octave - 2)) & 3u;
  return 4 + static_cast<std::size_t>(octave - 2) * 4 + sub;
}

/// Exclusive upper edge of bucket i, in ns.
Ns bucket_upper(std::size_t i) {
  if (i < 4) return static_cast<Ns>(i + 1);
  const std::size_t octave = (i - 4) / 4 + 2;
  const std::size_t sub = (i - 4) % 4;
  return static_cast<Ns>((4 + sub + 1) << (octave - 2));
}

}  // namespace

Ns now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------- CallHistogram

void CallHistogram::add(Ns ns) {
  ++counts_[bucket_of(ns)];
  ++count_;
}

void CallHistogram::merge(const CallHistogram& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
}

double CallHistogram::quantile(double p) const {
  if (count_ == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(p * double(count_ - 1)) + 1;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += counts_[i];
    if (seen >= rank) return static_cast<double>(bucket_upper(i));
  }
  return static_cast<double>(bucket_upper(kBuckets - 1));
}

// ---------------------------------------------------------- SpanSample

void SpanSample::offer(const Span& span) {
  const std::uint64_t index = seen_++;
  if (index % stride_ != 0) return;
  if (kept_.size() == kCapacity) {
    std::size_t w = 0;
    for (std::size_t i = 0; i < kept_.size(); i += 2) kept_[w++] = kept_[i];
    kept_.resize(w);
    stride_ *= 2;
    if (index % stride_ != 0) return;
  }
  kept_.push_back(span);
}

// -------------------------------------------------------------- Ledger

Ledger::Ledger(std::size_t ranks, Carrier carrier, bool timing)
    : carrier_(carrier), timing_(timing), origin_(now_ns()),
      rows_(ranks + 1) {}

std::size_t Ledger::caller_row() const {
  if (carrier_ == Carrier::kSim) {
    const asyncit::simnet::SimEngine* engine =
        asyncit::simnet::SimEngine::active();
    if (engine != nullptr && engine->in_fiber()) return engine->current_rank();
    return ranks();
  }
  return tl_rank >= 0 && static_cast<std::size_t>(tl_rank) < ranks()
             ? static_cast<std::size_t>(tl_rank)
             : ranks();
}

void Ledger::bind_thread(std::uint32_t rank) {
  tl_rank = static_cast<int>(rank);
}

void Ledger::unbind_thread() { tl_rank = -1; }

void Ledger::span(std::size_t r, Layer layer, Ns t0, Ns t1) {
  RankRow& row = rows_[r];
  const std::size_t l = idx(layer);
  const Ns d = t1 - t0;
  ++row.calls[l];
  row.busy[l] += d;
  row.hist[l].add(d);
  row.sample.offer({t0 - origin_, d, layer});
  if (t0 < row.cursor) ++row.overlaps;
  row.cursor = t1;
  if (row.first < 0) row.first = t0;
  row.last = t1;
}

void Ledger::slice_end(std::size_t r) {
  RankRow& row = rows_[r];
  const Ns t = now_ns();
  if (t < row.cursor) ++row.overlaps;
  row.slices += t - row.resume;
}

Ns Ledger::row_wall(std::size_t r) const {
  const RankRow& row = rows_[r];
  if (carrier_ == Carrier::kThreads)
    return row.first < 0 ? 0 : row.last - row.first;
  if (r < ranks()) return row.slices;
  Ns covered = 0;
  for (std::size_t i = 0; i < ranks(); ++i) covered += rows_[i].slices;
  return world_wall_ - covered;
}

LedgerSummary Ledger::summarize() const {
  LedgerSummary s;
  std::array<CallHistogram, kLayers> merged;
  Ns wall = 0, attributed = 0, remainder = 0;
  s.closed = true;
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    const RankRow& row = rows_[r];
    Ns spans = 0;
    for (std::size_t l = 0; l < kLayers; ++l) {
      s.layers[l].calls += row.calls[l];
      spans += row.busy[l];
      merged[l].merge(row.hist[l]);
    }
    s.send_doubles += row.send_doubles;
    s.send_wire_bytes += row.send_wire_bytes;
    s.recv_frames += row.recv_frames;
    s.update_nnz += row.update_nnz;
    s.update_bytes += row.update_bytes;
    const Ns w = row_wall(r);
    const Ns rem = w - spans;
    if (row.overlaps > 0 || rem < 0) {
      if (s.closed) {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "row %zu: wall %lld ns, spans %lld ns, remainder %lld "
                      "ns, %llu overlapping spans",
                      r, static_cast<long long>(w),
                      static_cast<long long>(spans),
                      static_cast<long long>(rem),
                      static_cast<unsigned long long>(row.overlaps));
        s.closure_error = buf;
      }
      s.closed = false;
    }
    wall += w;
    attributed += spans;
    remainder += rem;
    s.row_remainder_s.push_back(1e-9 * double(rem));
  }
  for (std::size_t l = 0; l < kLayers; ++l) {
    Ns busy = 0;
    for (const RankRow& row : rows_) busy += row.busy[l];
    s.layers[l].self_s = 1e-9 * double(busy);
    s.layers[l].p50_ns = merged[l].quantile(0.50);
    s.layers[l].p99_ns = merged[l].quantile(0.99);
  }
  s.wall_s = 1e-9 * double(wall);
  s.attributed_s = 1e-9 * double(attributed);
  s.remainder_s = 1e-9 * double(remainder);
  return s;
}

void Ledger::write_json(const std::string& path,
                        const std::string& label) const {
  static constexpr const char* kNames[kLayers] = {
      "op.update", "op.residual", "transport.send", "transport.recv",
      "transport.wait"};
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (!f) return;
  std::fprintf(f.get(),
               "{\"schema\": \"perfbench-ledger/1\", \"run\": \"%s\", "
               "\"carrier\": \"%s\", \"rows\": [\n",
               label.c_str(),
               carrier_ == Carrier::kSim ? "simnet" : "threads");
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    const RankRow& row = rows_[r];
    Ns spans = 0;
    for (const Ns b : row.busy) spans += b;
    const char* kind = r < ranks()
                           ? "rank"
                           : (carrier_ == Carrier::kSim ? "engine" : "monitor");
    std::fprintf(f.get(),
                 "  {\"row\": %zu, \"kind\": \"%s\", \"wall_ns\": %lld, "
                 "\"spans_ns\": %lld, \"remainder_ns\": %lld, \"layers\": {",
                 r, kind, static_cast<long long>(row_wall(r)),
                 static_cast<long long>(spans),
                 static_cast<long long>(row_wall(r) - spans));
    for (std::size_t l = 0; l < kLayers; ++l)
      std::fprintf(f.get(), "%s\"%s\": [%llu, %lld]", l ? ", " : "",
                   kNames[l], static_cast<unsigned long long>(row.calls[l]),
                   static_cast<long long>(row.busy[l]));
    std::fprintf(f.get(), "}, \"sample_stride\": %llu, \"sample\": [",
                 static_cast<unsigned long long>(row.sample.stride()));
    const std::vector<Span>& spans_kept = row.sample.spans();
    for (std::size_t i = 0; i < spans_kept.size(); ++i)
      std::fprintf(f.get(), "%s[\"%s\", %lld, %lld]", i ? ", " : "",
                   kNames[idx(spans_kept[i].layer)],
                   static_cast<long long>(spans_kept[i].start),
                   static_cast<long long>(spans_kept[i].duration));
    std::fprintf(f.get(), "]}%s\n", r + 1 < rows_.size() ? "," : "");
  }
  std::fprintf(f.get(), "]}\n");
}

// ------------------------------------------------------ TracedOperator

TracedOperator::TracedOperator(const asyncit::op::BlockOperator& inner,
                               const asyncit::la::CsrMatrix& a,
                               Ledger& ledger)
    : inner_(inner), ledger_(ledger) {
  // Computed bytes of one block update: every stored entry's value,
  // column index and gathered x, plus per row the row pointer, rhs,
  // inverse diagonal and output.
  const asyncit::la::Partition& p = inner.partition();
  const std::span<const std::size_t> row_ptr = a.row_ptr();
  for (std::size_t b = 0; b < p.num_blocks(); ++b) {
    const asyncit::la::BlockRange range = p.range(b);
    const std::uint64_t nnz = row_ptr[range.end] - row_ptr[range.begin];
    block_nnz_.push_back(nnz);
    block_bytes_.push_back(nnz * (sizeof(double) + sizeof(std::uint32_t) +
                                  sizeof(double)) +
                           range.size() * (sizeof(std::size_t) +
                                           3 * sizeof(double)));
  }
}

void TracedOperator::apply_block(asyncit::la::BlockId b,
                                 std::span<const double> x,
                                 std::span<double> out,
                                 asyncit::op::Workspace& ws) const {
  const Ns t0 = now_ns();
  inner_.apply_block(b, x, out, ws);
  const Ns t1 = now_ns();
  const std::size_t r = ledger_.caller_row();
  ledger_.span(r, Layer::kOpUpdate, t0, t1);
  ledger_.row(r).update_nnz += block_nnz_[b];
  ledger_.row(r).update_bytes += block_bytes_[b];
}

double TracedOperator::apply_block_residual(asyncit::la::BlockId b,
                                            std::span<const double> x,
                                            std::span<double> out,
                                            asyncit::op::Workspace& ws) const {
  const Ns t0 = now_ns();
  const double res = inner_.apply_block_residual(b, x, out, ws);
  ledger_.span(ledger_.caller_row(), Layer::kOpResidual, t0, now_ns());
  return res;
}

void TracedOperator::apply(std::span<const double> x, std::span<double> y,
                           asyncit::op::Workspace& ws) const {
  const Ns t0 = now_ns();
  inner_.apply(x, y, ws);
  ledger_.span(ledger_.caller_row(), Layer::kOpResidual, t0, now_ns());
}

// ------------------------------------------------------ TracedEndpoint

asyncit::transport::SendReceipt TracedEndpoint::send(
    std::uint32_t dst, const asyncit::transport::MessageHeader& header,
    std::span<const double> value, double now, bool allow_drop) {
  RankRow& row = ledger_.row(rank_);
  row.send_doubles += value.size();
  row.send_wire_bytes +=
      asyncit::transport::wire_frame_bytes(value.size(), header.quant_bits);
  if (!ledger_.timing())
    return inner_.send(dst, header, value, now, allow_drop);
  Ledger::bind_thread(rank_);
  const Ns t0 = now_ns();
  const asyncit::transport::SendReceipt receipt =
      inner_.send(dst, header, value, now, allow_drop);
  ledger_.span(rank_, Layer::kSend, t0, now_ns());
  return receipt;
}

std::size_t TracedEndpoint::receive(double now,
                                    std::vector<asyncit::net::Message>& out) {
  if (!ledger_.timing()) return inner_.receive(now, out);
  std::size_t got = 0;
  if (ledger_.carrier() == Carrier::kSim) {
    ledger_.slice_end(rank_);
    got = inner_.receive(now, out);
    ledger_.slice_begin(rank_);
    ledger_.count(rank_, Layer::kRecv);
  } else {
    Ledger::bind_thread(rank_);
    const Ns t0 = now_ns();
    got = inner_.receive(now, out);
    ledger_.span(rank_, Layer::kRecv, t0, now_ns());
  }
  ledger_.row(rank_).recv_frames += got;
  return got;
}

void TracedEndpoint::wait_for_activity(std::uint64_t seen,
                                       double timeout_seconds) {
  if (!ledger_.timing()) return inner_.wait_for_activity(seen, timeout_seconds);
  if (ledger_.carrier() == Carrier::kSim) {
    ledger_.slice_end(rank_);
    inner_.wait_for_activity(seen, timeout_seconds);
    ledger_.slice_begin(rank_);
    ledger_.count(rank_, Layer::kWait);
    return;
  }
  Ledger::bind_thread(rank_);
  const Ns t0 = now_ns();
  inner_.wait_for_activity(seen, timeout_seconds);
  ledger_.span(rank_, Layer::kWait, t0, now_ns());
}

// ----------------------------------------------------- TracedTransport

TracedTransport::TracedTransport(asyncit::transport::Transport& inner,
                                 Ledger& ledger)
    : inner_(inner) {
  endpoints_.reserve(inner.world());
  for (std::uint32_t r = 0; r < inner.world(); ++r)
    endpoints_.emplace_back(inner.endpoint(r), ledger);
}

}  // namespace perfbench
