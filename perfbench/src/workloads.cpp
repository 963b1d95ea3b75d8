#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>
#include <utility>

#include "asyncit/asyncit.hpp"
#include "asyncit/net/node_runtime.hpp"
#include "asyncit/simnet/transport.hpp"
#include "asyncit/simnet/world.hpp"
#include "asyncit/train/train.hpp"
#include "asyncit/transport/inproc.hpp"

namespace perfbench {

using namespace asyncit;

namespace {

double seconds_since(Ns t0) { return 1e-9 * double(now_ns() - t0); }

std::string fmt(const char* f, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof buf, f, a, b);
  return buf;
}

// ------------------------------------------------------------- simnet

/// c15's lasso operator: a Jacobi sweep followed by coordinatewise
/// soft-thresholding. The shrink is 1-Lipschitz per component, so the
/// composition keeps the Jacobi max-norm contraction while producing
/// EXACT zeros — the sparsity the per-link delta layer turns into
/// heartbeats and short ranges.
class ProxJacobiOperator final : public op::BlockOperator {
 public:
  ProxJacobiOperator(const op::JacobiOperator& inner, double tau)
      : inner_(inner), tau_(tau) {}

  const la::Partition& partition() const override {
    return inner_.partition();
  }
  using BlockOperator::apply_block;
  void apply_block(la::BlockId b, std::span<const double> x,
                   std::span<double> out, op::Workspace& ws) const override {
    inner_.apply_block(b, x, out, ws);
    for (double& v : out)
      v = v > tau_ ? v - tau_ : (v < -tau_ ? v + tau_ : 0.0);
  }
  std::string name() const override { return "prox_jacobi_lasso"; }

 private:
  const op::JacobiOperator& inner_;
  double tau_;
};

/// What run_world does, assembled from its public parts so the operator
/// and every endpoint can be decorated: SimEngine + SimTransport +
/// run_node(..., SimClock) per rank fiber.
simnet::WorldResult run_traced_world(const op::BlockOperator& op,
                                     const la::Vector& x0,
                                     const simnet::WorldOptions& options,
                                     Ledger& ledger) {
  const std::size_t world = options.mp.workers;
  simnet::SimEngine::Options eo;
  eo.stack_bytes = options.sim.stack_bytes;
  eo.record_log = options.sim.record_log;
  eo.log_capacity = options.sim.log_capacity;
  simnet::SimEngine engine(eo);
  simnet::SimTransport fabric(world, options.sim, options.mp.seed, &engine);
  TracedTransport traced(fabric, ledger);

  net::MpOptions per_rank = options.mp;
  per_rank.obs.trace_level = obs::TraceLevel::kOff;
  per_rank.obs.link_delays = false;
  simnet::SimClock clock(&engine);

  simnet::WorldResult result;
  result.ranks.resize(world);
  for (std::size_t r = 0; r < world; ++r) {
    engine.spawn(static_cast<std::uint32_t>(r), [&, r] {
      ledger.slice_begin(r);
      result.ranks[r] = net::run_node(
          op, x0, per_rank, traced.endpoint(static_cast<std::uint32_t>(r)),
          clock);
      ledger.slice_end(r);
    });
  }
  const Ns t0 = now_ns();
  engine.run();
  ledger.set_world_wall(now_ns() - t0);

  result.virtual_seconds = engine.now();
  result.events = engine.events_dispatched();
  result.log_hash = engine.log_hash();
  result.all_converged = options.mp.solve.x_star.has_value();
  for (const net::MpResult& rank : result.ranks) {
    result.all_converged = result.all_converged && rank.converged;
    result.final_residual = std::max(result.final_residual, rank.final_error);
    result.total_updates += rank.total_updates;
    result.messages_sent += rank.messages_sent;
    result.messages_delivered += rank.messages_delivered;
  }
  return result;
}

/// A seeded Jacobi-family solve over simnet, stopped by the oracle.
class SimSolve : public Workload {
 public:
  Carrier carrier() const override { return Carrier::kSim; }
  std::size_t ranks() const override { return options_.mp.workers; }
  int min_solves() const override { return 2; }

  Outcome solve(Ledger* ledger) override {
    const la::Vector x0 = la::zeros(sys_.dim());
    const Ns t0 = now_ns();
    simnet::WorldResult w;
    if (ledger == nullptr) {
      w = simnet::run_world(*op_, x0, options_);
    } else {
      TracedOperator traced(*op_, sys_.a, *ledger);
      w = run_traced_world(traced, x0, options_, *ledger);
    }
    Outcome o;
    o.solve_s = seconds_since(t0);
    std::uint64_t raw = 0, wire = 0, full = 0, delta = 0, heartbeat = 0;
    for (const net::MpResult& r : w.ranks) {
      raw += r.bytes_sent_raw;
      wire += r.bytes_sent_wire;
      full += r.wire_frames_full;
      delta += r.wire_frames_delta;
      heartbeat += r.wire_frames_heartbeat;
    }
    o.wire_raw = double(raw);
    o.wire_bytes = double(wire);
    o.frames_full = double(full);
    o.frames_delta = double(delta);
    o.frames_heartbeat = double(heartbeat);
    o.frames = double(w.messages_delivered);
    o.updates = double(w.total_updates);
    o.examples = o.updates * double(sys_.dim()) /
                 double(op_->partition().num_blocks());
    o.clock_s = w.virtual_seconds;
    o.sim_events = double(w.events);
    o.sim_frames = double(w.messages_sent);
    o.log_hash = w.log_hash;
    o.witness = {w.log_hash,      w.events, w.messages_sent,
                 w.messages_delivered, w.total_updates, raw, wire, full,
                 delta, heartbeat};
    o.ok = w.all_converged && w.final_residual < residual_bound_;
    if (!o.ok)
      o.failure = fmt("converged=%g, oracle error %.3e",
                      w.all_converged ? 1 : 0, w.final_residual);
    return o;
  }

 protected:
  problems::LinearSystem sys_;
  simnet::WorldOptions options_;
  double residual_bound_ = 0.0;
  std::unique_ptr<op::JacobiOperator> jacobi_;
  const op::BlockOperator* op_ = nullptr;
};

/// c14's seeded Jacobi at 1000 ranks (one block each): dense broadcast,
/// delta off, oracle stop at tol 1e-6.
class SimDense1000 final : public SimSolve {
 public:
  explicit SimDense1000(std::uint64_t seed) {
    constexpr std::size_t kWorld = 1000;
    Rng rng(seed);
    sys_ = problems::make_diagonally_dominant_system(kWorld, 3, 8.0, rng);
    options_.mp.workers = kWorld;
    options_.mp.seed = seed;
    options_.mp.solve.tol = 1e-6;
    options_.mp.solve.max_seconds = 300.0;  // virtual
    options_.mp.solve.max_updates = 100000000;
    options_.mp.solve.check_every = 4;
    options_.sim.compute.phase = 1e-3;
    options_.sim.compute.jitter = 0.3;
    options_.sim.topology.latency = 1e-4;
    options_.sim.topology.jitter = 0.5;
    residual_bound_ = 1e-5;
    setup();
    options_.mp.solve.x_star =
        op::picard_solve(*op_, la::zeros(kWorld), 50000, 1e-14);
  }

  int setup_reps() const override { return 201; }
  // One call is ~20 s of single-threaded work; warm-up would double it.
  int warmup_solves() const override { return 0; }
  double setup() override {
    const Ns t0 = now_ns();
    jacobi_ = std::make_unique<op::JacobiOperator>(
        sys_.a, sys_.b, la::Partition::balanced(sys_.dim(), sys_.dim()));
    op_ = jacobi_.get();
    return seconds_since(t0);
  }
};

/// c15's prox-Jacobi lasso at 256 ranks x 64 coordinates, RHS support in
/// the first eighth, per-link delta encoding on (lossless).
class SimLassoDelta final : public SimSolve {
 public:
  explicit SimLassoDelta(std::uint64_t seed) {
    constexpr std::size_t kWorld = 256;
    constexpr std::size_t kDim = kWorld * 64;
    Rng rng(seed);
    sys_ = problems::make_diagonally_dominant_system(kDim, 4, 2.0, rng);
    for (std::size_t i = kDim / 8; i < kDim; ++i) sys_.b[i] = 0.0;
    options_.mp.workers = kWorld;
    options_.mp.seed = seed;
    // Every seed stops at the first oracle check (16 updates per rank);
    // at 1e-5 some seeds need a second round, which makes every
    // frame and time metric bimodal across seeds.
    options_.mp.solve.tol = 1e-4;
    options_.mp.solve.max_seconds = 300.0;  // virtual
    options_.mp.solve.max_updates = 1000000000;
    options_.mp.solve.check_every = 4;
    options_.mp.wire.delta = true;
    options_.mp.wire.refresh_every = 64;
    options_.sim.topology.latency = 2e-4;
    options_.sim.topology.jitter = 0.0;
    options_.sim.topology.fifo = true;
    options_.sim.compute.phase = 1e-4;
    residual_bound_ = 1e-3;
    setup();
    options_.mp.solve.x_star =
        op::picard_solve(*op_, la::zeros(kDim), 50000, 1e-14);
  }

  int setup_reps() const override { return 21; }
  double setup() override {
    const Ns t0 = now_ns();
    jacobi_ = std::make_unique<op::JacobiOperator>(
        sys_.a, sys_.b, la::Partition::balanced(sys_.dim(), ranks()));
    lasso_ = std::make_unique<ProxJacobiOperator>(*jacobi_, kTau);
    op_ = lasso_.get();
    return seconds_since(t0);
  }

 private:
  static constexpr double kTau = 0.02;
  std::unique_ptr<ProxJacobiOperator> lasso_;
};

// ------------------------------------------------------------ threads

/// Synchronous point-Jacobi sweeps with plain loops (none of the
/// program's kernels), rows split over up to four threads, until the
/// sweep moves no component by `tol` or more. With contraction α the
/// result is within tol·α/(1−α) of x*.
la::Vector reference_jacobi(const problems::LinearSystem& sys, double tol) {
  const la::CsrMatrix& a = sys.a;
  const std::size_t n = sys.dim();
  const std::size_t parts =
      std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
  la::Vector x = la::zeros(n), y(n);
  std::vector<double> moved(parts);
  for (int sweep = 0; sweep < 1000; ++sweep) {
    auto rows = [&](std::size_t p) {
      double m = 0.0;
      for (std::size_t r = p * n / parts; r < (p + 1) * n / parts; ++r) {
        const std::span<const std::uint32_t> cols = a.row_cols(r);
        const std::span<const double> vals = a.row_values(r);
        double off = 0.0, diag = 0.0;
        for (std::size_t k = 0; k < cols.size(); ++k) {
          if (cols[k] == r) diag += vals[k];
          else off += vals[k] * x[cols[k]];
        }
        y[r] = (sys.b[r] - off) / diag;
        m = std::max(m, std::abs(y[r] - x[r]));
      }
      moved[p] = m;
    };
    std::vector<std::thread> pool;
    for (std::size_t p = 1; p < parts; ++p) pool.emplace_back(rows, p);
    rows(0);
    for (std::thread& t : pool) t.join();
    std::swap(x, y);
    if (*std::max_element(moved.begin(), moved.end()) < tol) break;
  }
  return x;
}

/// run_message_passing over inproc, zero injected latency, async, with
/// the program's own displacement stop. 2^21 unknowns x 8 off-diagonals:
/// the CSR is about twice a 105 MB L3.
class ThreadsJacobi2m final : public Workload {
 public:
  explicit ThreadsJacobi2m(std::uint64_t seed) {
    Rng rng(seed);
    sys_ = problems::make_diagonally_dominant_system(kDim, 8, kDominance, rng);
    options_.workers = kWorkers;
    options_.seed = seed;
    options_.solve.displacement_tol = kTol;
    options_.solve.max_seconds = 60.0;
    options_.solve.max_updates = 100000000;
    setup();
    x_ref_ = reference_jacobi(sys_, 1e-10);
    bound_ = kTol / (1.0 - jacobi_->contraction_bound());
  }

  Carrier carrier() const override { return Carrier::kThreads; }
  std::size_t ranks() const override { return kWorkers; }
  double setup() override {
    const Ns t0 = now_ns();
    jacobi_ = std::make_unique<op::JacobiOperator>(
        sys_.a, sys_.b, la::Partition::balanced(kDim, kBlocks));
    return seconds_since(t0);
  }

  Outcome solve(Ledger* ledger) override {
    const la::Vector x0 = la::zeros(kDim);
    const Ns t0 = now_ns();
    net::MpResult r;
    if (ledger == nullptr) {
      r = net::run_message_passing(*jacobi_, x0, options_);
    } else {
      transport::InprocTransport fabric(kWorkers, options_.chaos.delivery,
                                        options_.seed);
      TracedTransport traced(fabric, *ledger);
      TracedOperator op(*jacobi_, sys_.a, *ledger);
      Ledger::unbind_thread();
      r = net::run_message_passing(op, x0, options_, traced);
    }
    Outcome o;
    o.solve_s = seconds_since(t0);
    o.frames = double(r.messages_delivered);
    o.updates = double(r.total_updates);
    o.examples = o.updates * double(kDim / kBlocks);
    o.clock_s = r.wall_seconds;
    o.wire_bytes = double(r.bytes_sent_wire);
    o.wire_raw = double(r.bytes_sent_raw);
    o.frames_full = double(r.wire_frames_full);
    o.frames_delta = double(r.wire_frames_delta);
    o.frames_heartbeat = double(r.wire_frames_heartbeat);
    // MpResult::converged is only set by an oracle stop; the displacement
    // stop counts as reached when neither budget ran out.
    const bool stopped = r.wall_seconds < options_.solve.max_seconds &&
                         r.total_updates < options_.solve.max_updates;
    const double err = la::dist_inf(r.x, x_ref_);
    o.ok = stopped && err <= bound_;
    if (!o.ok)
      o.failure = fmt("budget exhausted=%g, |x - x_ref|_inf %.3e (certified "
                      "bound tol / (1 - alpha))",
                      stopped ? 0 : 1, err);
    return o;
  }

 private:
  static constexpr std::size_t kDim = std::size_t{1} << 21;
  static constexpr std::size_t kBlocks = 64;
  static constexpr std::size_t kWorkers = 3;
  static constexpr double kDominance = 2.0;
  static constexpr double kTol = 1e-6;

  problems::LinearSystem sys_;
  net::MpOptions options_;
  std::unique_ptr<op::JacobiOperator> jacobi_;
  la::Vector x_ref_;
  double bound_ = 0.0;
};

/// Mean logistic loss + ridge and train accuracy, computed here rather
/// than by the program under test.
struct Fit {
  double loss = 0.0;
  double accuracy = 0.0;
};

Fit evaluate(const train::Dataset& d, std::span<const double> x) {
  double loss = 0.0;
  std::size_t right = 0;
  for (std::size_t h = 0; h < d.samples(); ++h) {
    const double m = d.labels[h] * d.design.row_dot(h, x);
    loss += m > 0.0 ? std::log1p(std::exp(-m)) : -m + std::log1p(std::exp(m));
    right += m > 0.0;
  }
  double sq = 0.0;
  for (const double v : x) sq += v * v;
  return {loss / double(d.samples()) + 0.5 * d.ridge * sq,
          double(right) / double(d.samples())};
}

/// The reference loss the trained model is checked against: 100 steps
/// of full-batch gradient descent with step 1/L, L bounded by the
/// largest row norm. That is plenty for the 1e-3 slack the check allows.
double reference_loss(const train::Dataset& d) {
  const std::size_t m = d.samples();
  double row_sq_max = 0.0;
  for (std::size_t h = 0; h < m; ++h) {
    double s = 0.0;
    for (const double v : d.design.row_values(h)) s += v * v;
    row_sq_max = std::max(row_sq_max, s);
  }
  const double step = 1.0 / (0.25 * row_sq_max + d.ridge);
  la::Vector x = la::zeros(d.features());
  la::Vector g(d.features());
  for (int it = 0; it < 100; ++it) {
    for (std::size_t j = 0; j < g.size(); ++j) g[j] = d.ridge * x[j];
    for (std::size_t h = 0; h < m; ++h) {
      const double z = d.labels[h];
      const double s = -z / (1.0 + std::exp(z * d.design.row_dot(h, x))) /
                       double(m);
      const std::span<const std::uint32_t> cols = d.design.row_cols(h);
      const std::span<const double> vals = d.design.row_values(h);
      for (std::size_t k = 0; k < cols.size(); ++k) g[cols[k]] += s * vals[k];
    }
    double gn = 0.0;
    for (std::size_t j = 0; j < g.size(); ++j) {
      x[j] -= step * g[j];
      gn = std::max(gn, std::abs(g[j]));
    }
    if (gn < 1e-10) break;
  }
  return evaluate(d, x).loss;
}

/// run_training, TAP, 3 workers + server over inproc, on a synthetic
/// logistic dataset; the server evaluates the full train set every 64
/// deltas.
class ThreadsPsgdTap final : public Workload {
 public:
  explicit ThreadsPsgdTap(std::uint64_t seed) {
    problems::LogisticConfig cfg;
    cfg.samples = 50000;
    cfg.features = 512;
    cfg.density = 0.02;
    cfg.separation = 1.0;
    cfg.label_noise = 0.1;
    cfg.ridge = 0.001;
    const train::Dataset generated = train::make_synthetic_dataset(cfg, seed);
    rows_ = generated.samples();
    cols_ = generated.features();
    ridge_ = generated.ridge;
    labels_ = generated.labels;
    for (std::size_t h = 0; h < rows_; ++h) {
      const std::span<const std::uint32_t> c = generated.design.row_cols(h);
      const std::span<const double> v = generated.design.row_values(h);
      for (std::size_t k = 0; k < c.size(); ++k)
        triplets_.push_back({static_cast<std::uint32_t>(h), c[k], v[k]});
    }
    ref_loss_ = reference_loss(generated);

    options_.workers = kWorkers;
    options_.seed = seed;
    options_.sgd.discipline = train::Discipline::kTap;
    options_.sgd.learning_rate = 0.1;
    options_.sgd.batch_size = 64;
    options_.sgd.max_epochs = 20;
    options_.sgd.max_seconds = 60.0;
    options_.sgd.eval_every = 64;
    setup();
  }

  Carrier carrier() const override { return Carrier::kThreads; }
  std::size_t ranks() const override { return kWorkers + 1; }

  /// Assembles the trainer's row-major dataset from the generated
  /// triplets (run_training cuts the worker shards from it itself).
  double setup() override {
    std::vector<la::Triplet> triplets = triplets_;
    const Ns t0 = now_ns();
    data_.design =
        la::CsrMatrix::from_triplets(rows_, cols_, std::move(triplets));
    data_.labels = labels_;
    data_.ridge = ridge_;
    return seconds_since(t0);
  }

  Outcome solve(Ledger* ledger) override {
    const la::Vector x0 = la::zeros(cols_);
    // TrainResult carries no byte counter, so even the untraced run goes
    // through the decorator — with timing off it only counts sends.
    Ledger counter(kWorkers + 1, Carrier::kThreads, false);
    Ledger& l = ledger != nullptr ? *ledger : counter;
    const Ns t0 = now_ns();
    transport::InprocTransport fabric(kWorkers + 1, options_.chaos.delivery,
                                      options_.seed);
    TracedTransport traced(fabric, l);
    Ledger::unbind_thread();
    const train::TrainResult r =
        train::run_training(data_, x0, options_, traced);
    Outcome o;
    o.solve_s = seconds_since(t0);
    Ledger::unbind_thread();
    o.frames = double(r.messages_delivered);
    o.updates = double(r.deltas_applied);
    o.examples = double(r.examples_processed);
    o.clock_s = r.wall_seconds;
    o.wire_bytes = double(l.summarize().send_wire_bytes);
    o.wire_raw = o.wire_bytes;  // no delta layer: raw == wire
    o.deltas_applied = double(r.deltas_applied);
    o.versions = double(r.versions);
    const Fit fit = evaluate(data_, r.x);
    o.ok = fit.accuracy >= kMinAccuracy &&
           fit.loss <= ref_loss_ + kLossSlack &&
           std::abs(fit.loss - r.final_loss) <= 1e-9 * std::abs(fit.loss);
    if (!o.ok)
      o.failure = fmt("accuracy %.4f (floor 0.89), loss %.6f (reference "
                      "+ 1e-3 allowed; must match the program's own)",
                      fit.accuracy, fit.loss);
    return o;
  }

 private:
  static constexpr std::size_t kWorkers = 3;
  static constexpr double kMinAccuracy = 0.89;
  static constexpr double kLossSlack = 1e-3;

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  double ridge_ = 0.0;
  std::vector<int> labels_;
  std::vector<la::Triplet> triplets_;
  double ref_loss_ = 0.0;
  train::TrainOptions options_;
  train::Dataset data_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "sim_lasso_delta", "sim_dense_1000", "threads_jacobi_2m",
      "threads_psgd_tap"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "sim_dense_1000") return std::make_unique<SimDense1000>(seed);
  if (name == "sim_lasso_delta") return std::make_unique<SimLassoDelta>(seed);
  if (name == "threads_jacobi_2m")
    return std::make_unique<ThreadsJacobi2m>(seed);
  if (name == "threads_psgd_tap") return std::make_unique<ThreadsPsgdTap>(seed);
  return nullptr;
}

}  // namespace perfbench
