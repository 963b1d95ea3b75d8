// Configuration for the simnet/ virtual-time backend (DESIGN.md §10).
//
// Everything the simulator models is described here as plain data so the
// node_config schema SSOT (net/node_config.cpp) can expose every knob as
// a `sim_*` config key without simnet depending on net/ or vice versa:
// this header has no dependencies beyond <cstdint>/<vector> and is safe
// to include from the config layer, the tools and the benches alike.
//
// All times are virtual seconds, all sizes bytes. Every stochastic knob
// draws from streams derived from the run's master seed (per directed
// link for the wire, per rank for compute), so one (config, seed) pair
// names exactly one execution — the reproducibility contract the
// unbounded-delay experiments rely on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace asyncit::simnet {

/// One scheduled network partition: while t0 <= t < t1, frames crossing
/// the cut {rank < boundary} | {rank >= boundary} are dropped (counted,
/// never silent). The window end IS the heal schedule; overlapping
/// windows compose (a frame is dropped if ANY active window cuts it).
struct PartitionWindow {
  double t0 = 0.0;
  double t1 = 0.0;
  std::uint32_t boundary = 0;
};

/// WAN topology of the simulated fabric. Per-directed-link base latency
/// is derived deterministically from (latency, regions, cross_region,
/// asymmetry) — an explicit world x world matrix would be O(ranks^2)
/// memory for what is, in every WAN we care to model, a low-rank
/// structure (region pairs + per-link skew).
struct TopologyConfig {
  /// Base one-way latency in seconds for an intra-region link.
  double latency = 1e-3;
  /// Per-message uniform jitter as a fraction of the link's base
  /// latency: each frame draws from [base*(1-j), base*(1+j)). j >= 1
  /// gives the paper's unbounded-ish heavy reordering regime.
  double jitter = 0.5;
  /// Deterministic per-directed-link base skew fraction: link (s, d)
  /// scales its base by (1 + asymmetry * u(s,d)) with u(s,d) in [-1, 1)
  /// hashed from the seed — (s, d) and (d, s) draw independently, so
  /// routes are asymmetric like real WAN paths.
  double asymmetry = 0.0;
  /// Link bandwidth in bytes/second; adds frame_bytes/bandwidth of
  /// serialization delay per frame. 0 = infinite.
  double bandwidth = 0.0;
  /// In-order delivery floor per directed link (sim analogue of
  /// transport::DeliveryPolicy::fifo). Off by default: out-of-order
  /// delivery is the phenomenon under study.
  bool fifo = false;
  /// Per-frame loss probability (droppable frames only, exactly the
  /// transport::LinkStamper contract; drop_control extends it to control
  /// frames).
  double drop_prob = 0.0;
  bool drop_control = false;
  /// Ranks are assigned round-robin to `regions` regions; links whose
  /// endpoints live in different regions scale their base latency by
  /// `cross_region`.
  std::uint32_t regions = 1;
  double cross_region = 4.0;
  std::vector<PartitionWindow> partitions;
};

/// Virtual cost of computation. The engine charges one draw from
/// [phase*(1-jitter), phase*(1+jitter)) per endpoint drain — the peer
/// loop drains once per update phase, so the draw IS the phase cost, and
/// a gate poll is charged the same draw (a poll occupies a scheduling
/// slot). Stragglers model the paper's unbounded heterogeneity: every
/// `straggler_every`-th rank multiplies its draws by `straggler_factor`.
struct ComputeModel {
  double phase = 1e-3;
  double jitter = 0.5;
  std::uint32_t straggler_every = 0;  ///< 0 = no stragglers
  double straggler_factor = 10.0;
};

/// Everything run_world / SimTransport need beyond the solver options.
struct SimConfig {
  TopologyConfig topology;
  ComputeModel compute;
  /// Per-rank fiber stack (lazily committed mmap; sanitizer builds
  /// enforce a larger floor — see simnet/fiber.cpp).
  std::size_t stack_bytes = 256 * 1024;
  /// Record the full dispatch log (EventRecord stream) for byte-identical
  /// replay comparison. The rolling log hash is always maintained; the
  /// full log is opt-in because 10M-event runs would hold ~240 MB.
  bool record_log = false;
  std::size_t log_capacity = 1 << 20;
};

}  // namespace asyncit::simnet
