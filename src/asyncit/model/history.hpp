// Executable form of Definition 1's bookkeeping: the steering sequence S,
// the label sequence L, and the recorded trace of a run.
//
// Step j = 0 is the initial vector x(0); updates happen at steps j >= 1.
// An update at step j of the components in S_j reads component i at label
// l_i(j) <= j - 1 (condition a). The trace stores, per step, the updated
// set, the minimum label l(j) = min_h l_h(j) (all that Definition 2 needs),
// optionally the full label tuple (for out-of-order analysis), and the
// machine that performed the update (for epoch analysis).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "asyncit/linalg/partition.hpp"

namespace asyncit::model {

using Step = std::uint64_t;
using MachineId = std::uint32_t;

struct StepRecord {
  std::vector<la::BlockId> updated;  ///< S_j
  Step l_min = 0;                    ///< l(j) = min_h l_h(j)
  std::vector<Step> labels;          ///< full tuple (empty if not recorded)
  MachineId machine = 0;             ///< performer (epoch analysis)
};

/// Receiver-side incorporation policy for an arriving tagged block
/// value, shared by the virtual-time simulator (sim::) and the
/// message-passing runtime (net::).
enum class OverwritePolicy {
  /// Incoming value always overwrites the local copy (one-sided put / DMA
  /// semantics). With non-FIFO links this lets a stale value clobber a
  /// fresher one: a genuine out-of-order label inversion.
  kLastArrivalWins,
  /// Receiver keeps the newest tag (receiver-side filtering).
  kNewestTagWins,
};

enum class LabelRecording {
  kMinOnly,  ///< store only l(j) — O(1) per step
  kFull,     ///< store the whole tuple l_1(j)..l_m(j) — O(m) per step
};

/// Recorded schedule of a finite asynchronous run.
class ScheduleTrace {
 public:
  ScheduleTrace(std::size_t num_blocks, LabelRecording recording)
      : num_blocks_(num_blocks), recording_(recording) {}

  std::size_t num_blocks() const { return num_blocks_; }
  LabelRecording recording() const { return recording_; }

  /// Appends the record for step j = steps()+1.
  void record(std::vector<la::BlockId> updated, Step l_min,
              std::vector<Step> labels, MachineId machine);

  /// Number of recorded steps; step j corresponds to index j-1.
  Step steps() const { return static_cast<Step>(records_.size()); }
  const StepRecord& step(Step j) const;
  const std::vector<StepRecord>& records() const { return records_; }

  /// Delay of component i at step j: d_i(j) = j - l_i(j). Requires full
  /// label recording.
  Step delay(la::BlockId i, Step j) const;

  /// Count of label inversions for component i: pairs of consecutive steps
  /// j < j' with l_i(j') < l_i(j). A positive count is the trace-level
  /// signature of out-of-order messages. Requires full recording.
  std::size_t label_inversions(la::BlockId i) const;
  /// Sum over all components.
  std::size_t total_label_inversions() const;

  /// Label inversions WITHIN each machine's own subsequence of steps —
  /// the quantity whose vanishing is the monotone-label premise of the
  /// epoch analysis (Miellou's monotone l_i; Mishchenko et al. §III).
  /// A machine's reads regress only when messages genuinely arrive out of
  /// order (non-FIFO channels with last-arrival-wins overwrite). Requires
  /// full recording.
  std::size_t per_machine_label_inversions() const;

 private:
  std::size_t num_blocks_;
  LabelRecording recording_;
  std::vector<StepRecord> records_;
};

}  // namespace asyncit::model
