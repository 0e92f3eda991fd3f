// Configuration-management policies.
//
// The paper's configuration manager (selection unit + loader steering) is
// one strategy among several the experiments compare:
//   Steered      — the paper: 4-candidate minimal-error selection
//   StaticFfu    — never configures RFUs (the 5 fixed units only)
//   StaticPreset — one predefined configuration preloaded and frozen
//   Oracle       — per-cycle ideal fabric, rewritten instantly (upper bound)
//   FullReconfig — selection as Steered, but the loader rewrites the whole
//                  fabric at once ([7]-style, no partial reconfiguration)
//   Random       — uniformly random candidate every interval (sanity floor)
#pragma once

#include <memory>
#include <span>

#include "common/rng.hpp"
#include "config/loader.hpp"
#include "config/selection_unit.hpp"
#include "obs/audit.hpp"
#include "obs/trace.hpp"

namespace steersim {

struct SteerContext {
  /// Opcodes of queue entries awaiting execution, oldest first.
  std::span<const Opcode> ready_ops;
  /// Units of each type currently configured (RFU + FFU).
  FuCounts current_total{};
  /// Pre-decoded unit requirements of the trace line about to be fetched
  /// (the [7]-style trace-cache annotation), or nullptr when the next
  /// fetch is not a trace hit. Enables lookahead steering.
  const FuCounts* lookahead = nullptr;
  /// Current simulation cycle (timestamps trace/audit observations).
  std::uint64_t cycle = 0;
  /// False when `ready_ops` is unchanged since the previous steer() (same
  /// rows, same order) — policies may then reuse cached requirement
  /// encodings. Defaults to true (recompute), which is always safe.
  bool ready_changed = true;
};

struct PolicyStats {
  std::array<std::uint64_t, kNumCandidates> selections{};
  std::uint64_t steer_events = 0;

  /// Metric-registry enumeration (docs/OBSERVABILITY.md).
  template <typename V>
  void visit_metrics(V&& visit) const {
    visit("steer_events", static_cast<double>(steer_events));
    for (unsigned c = 0; c < kNumCandidates; ++c) {
      visit("selections." + std::to_string(c),
            static_cast<double>(selections[c]));
    }
  }
};

class SteeringPolicy {
 public:
  virtual ~SteeringPolicy() = default;

  /// Called once per cycle before the loader steps; may call
  /// loader.request() to retarget the fabric. Reads only `ctx`, the loader
  /// and the policy's own state: that contract is what lets skip-ahead
  /// call it cycle by cycle inside a proven-idle window.
  virtual void steer(const SteerContext& ctx, ConfigurationLoader& loader) = 0;

  const PolicyStats& stats() const { return stats_; }

  /// Attaches the cycle tracer and steering audit log (either may be
  /// nullptr). Observation only — steering decisions are unaffected.
  void attach_observers(Tracer* tracer, SteeringAuditLog* audit) {
    tracer_ = tracer;
    audit_ = audit;
  }

 protected:
  PolicyStats stats_;
  Tracer* tracer_ = nullptr;          ///< optional observer; never owns
  SteeringAuditLog* audit_ = nullptr; ///< optional observer; never owns
};

/// The paper's configuration manager.
///
/// `confirm` is an extension knob (default 1 = the paper's behaviour): a
/// selection other than the current configuration must repeat on `confirm`
/// consecutive steering decisions before the loader is retargeted,
/// damping churn when queue contents fluctuate.
class SteeredPolicy final : public SteeringPolicy {
 public:
  SteeredPolicy(const SteeringSet& set, CemMode cem = CemMode::kShiftApprox,
                TieBreak tie_break = TieBreak::kPaper,
                unsigned interval = 1, unsigned confirm = 1,
                bool lookahead = false);

  void steer(const SteerContext& ctx, ConfigurationLoader& loader) override;
  const ConfigSelectionUnit& selection_unit() const { return unit_; }

 private:
  /// Candidate costs for the current loader state, recomputed only when
  /// the allocation or unplaceable set moved (reconfig_cost is pure in
  /// those).
  const std::array<unsigned, kNumCandidates>& candidate_costs(
      const ConfigurationLoader& loader);
  /// Requirement encoding of the ready set, recomputed only when the set
  /// changed; the lookahead merge happens per call (it is cheap and tracks
  /// the fetch PC, not the queue).
  FuCounts merged_requirements(const SteerContext& ctx);
  /// CEM selection for (required, current_total, costs), memoized on its
  /// exact inputs (between reconfigurations every input is stable).
  const SelectionTrace& cached_selection(
      const FuCounts& required, const FuCounts& current_total,
      const std::array<unsigned, kNumCandidates>& cost);

  ConfigSelectionUnit unit_;
  std::array<AllocationVector, kNumPresetConfigs> preset_allocs_;
  unsigned interval_;
  unsigned countdown_ = 0;
  unsigned confirm_;
  unsigned pending_selection_ = 0;
  unsigned pending_streak_ = 0;
  bool lookahead_;

  /// Ready-set change latch: steer() may early-return on countdown cycles
  /// without reading ctx, so changes observed then must survive until the
  /// next actual decision consumes them.
  bool ready_dirty_ = true;
  bool have_required_ = false;
  FuCounts base_required_{};
  bool have_costs_ = false;
  AllocationVector cost_alloc_;
  SlotMask cost_avoid_;
  std::array<unsigned, kNumCandidates> cost_{};
  bool have_selection_ = false;
  FuCounts sel_required_{};
  FuCounts sel_total_{};
  std::array<unsigned, kNumCandidates> sel_cost_{};
  SelectionTrace sel_trace_;
};

/// Extension (the paper's stated future work): dynamic reconfiguration
/// *without* predefined configurations. Tracks an exponentially smoothed
/// requirement vector and greedily re-packs the fabric (OraclePolicy::pack)
/// through the real loader whenever the smoothed demand drifts from what
/// the current target provides. Unlike the oracle it pays real rewrite
/// latency, so it repacks at a throttled interval.
class GreedyPolicy final : public SteeringPolicy {
 public:
  /// `interval`: cycles between repack decisions; `smoothing` in (0,1]:
  /// EWMA weight of the newest requirement sample.
  explicit GreedyPolicy(const SteeringSet& set, unsigned interval = 32,
                        double smoothing = 0.125);

  void steer(const SteerContext& ctx, ConfigurationLoader& loader) override;

 private:
  SteeringSet set_;
  unsigned interval_;
  unsigned countdown_ = 0;
  double smoothing_;
  std::array<double, kNumFuTypes> smoothed_{};
  /// Requirement sample of the current ready set (resampled only when the
  /// set changes; the EWMA still folds it in every cycle).
  bool have_sample_ = false;
  FuCounts sample_cache_{};
};

/// No steering at all (covers both FFU-only and frozen-preset machines —
/// the difference is the initial allocation the processor is built with).
class StaticPolicy final : public SteeringPolicy {
 public:
  void steer(const SteerContext&, ConfigurationLoader&) override {}
};

/// Ideal upper bound: each cycle, packs the fabric greedily to the current
/// requirement vector. Pair with LoaderParams::instant.
class OraclePolicy final : public SteeringPolicy {
 public:
  explicit OraclePolicy(const SteeringSet& set);
  void steer(const SteerContext& ctx, ConfigurationLoader& loader) override;

  /// Greedy fabric packing for a requirement vector: repeatedly gives a
  /// slot region to the type with the largest unmet demand per configured
  /// unit. Exposed for tests.
  static AllocationVector pack(const FuCounts& required, const FuCounts& ffu,
                               unsigned num_slots);

 private:
  SteeringSet set_;
  /// pack() of the current ready set, recomputed only when the set changes.
  bool have_packed_ = false;
  FuCounts required_cache_{};
  AllocationVector packed_cache_;
};

/// Uniform-random candidate every `interval` cycles.
class RandomPolicy final : public SteeringPolicy {
 public:
  RandomPolicy(const SteeringSet& set, std::uint64_t seed,
               unsigned interval = 16);
  void steer(const SteerContext& ctx, ConfigurationLoader& loader) override;

 private:
  std::array<AllocationVector, kNumPresetConfigs> preset_allocs_;
  Xoshiro256 rng_;
  unsigned interval_;
  unsigned countdown_ = 0;
};

}  // namespace steersim
