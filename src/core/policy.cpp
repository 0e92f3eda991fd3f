#include "core/policy.hpp"

#include <algorithm>

#include "common/contracts.hpp"

namespace steersim {

SteeredPolicy::SteeredPolicy(const SteeringSet& set, CemMode cem,
                             TieBreak tie_break, unsigned interval,
                             unsigned confirm, bool lookahead)
    : unit_(set, cem, tie_break),
      preset_allocs_{set.preset_allocation(0), set.preset_allocation(1),
                     set.preset_allocation(2)},
      interval_(interval), confirm_(confirm), lookahead_(lookahead) {
  STEERSIM_EXPECTS(interval >= 1);
  STEERSIM_EXPECTS(confirm >= 1);
}

const std::array<unsigned, kNumCandidates>& SteeredPolicy::candidate_costs(
    const ConfigurationLoader& loader) {
  // reconfig_cost is a pure function of the loader's allocation and its
  // unplaceable set (fenced plus outside-quota slots); both are stable
  // between reconfigurations and quota repartitions.
  if (!have_costs_ || loader.allocation() != cost_alloc_ ||
      loader.unplaceable() != cost_avoid_) {
    cost_alloc_ = loader.allocation();
    cost_avoid_ = loader.unplaceable();
    cost_[0] = 0;  // staying on the current configuration rewrites nothing
    for (unsigned p = 0; p < kNumPresetConfigs; ++p) {
      cost_[p + 1] = loader.reconfig_cost(preset_allocs_[p]);
    }
    have_costs_ = true;
  }
  return cost_;
}

FuCounts SteeredPolicy::merged_requirements(const SteerContext& ctx) {
  if (!have_required_ || ready_dirty_) {
    base_required_ = encode_requirements(ctx.ready_ops);
    have_required_ = true;
    ready_dirty_ = false;
  }
  FuCounts required = base_required_;
  if (lookahead_ && ctx.lookahead != nullptr) {
    // Merge the pre-decoded requirements of the upcoming trace (3-bit
    // saturating addition, as the hardware encoders would).
    for (unsigned t = 0; t < kNumFuTypes; ++t) {
      required[t] = static_cast<std::uint8_t>(
          std::min<unsigned>(7, required[t] + (*ctx.lookahead)[t]));
    }
  }
  return required;
}

const SelectionTrace& SteeredPolicy::cached_selection(
    const FuCounts& required, const FuCounts& current_total,
    const std::array<unsigned, kNumCandidates>& cost) {
  if (!have_selection_ || required != sel_required_ ||
      current_total != sel_total_ || cost != sel_cost_) {
    sel_required_ = required;
    sel_total_ = current_total;
    sel_cost_ = cost;
    sel_trace_ = unit_.select_counts(required, current_total, cost);
    have_selection_ = true;
  }
  return sel_trace_;
}

void SteeredPolicy::steer(const SteerContext& ctx,
                          ConfigurationLoader& loader) {
  // Latch ready-set changes before the countdown gate: the decision after
  // the countdown must see every change that happened during it.
  ready_dirty_ = ready_dirty_ || ctx.ready_changed;
  if (countdown_ > 0) {
    --countdown_;
    return;
  }
  countdown_ = interval_ - 1;

  const std::array<unsigned, kNumCandidates>& cost = candidate_costs(loader);
  const FuCounts required = merged_requirements(ctx);
  const SelectionTrace& trace =
      cached_selection(required, ctx.current_total, cost);
  ++stats_.steer_events;
  ++stats_.selections[trace.selection];

  // Hysteresis extension: a non-current selection only takes effect after
  // `confirm_` consecutive identical decisions.
  if (trace.selection == pending_selection_) {
    ++pending_streak_;
  } else {
    pending_selection_ = trace.selection;
    pending_streak_ = 1;
  }
  AuditIntent intent = AuditIntent::kHold;
  if (trace.selection != 0) {
    if (pending_streak_ >= confirm_) {
      intent = AuditIntent::kRetarget;
      loader.request(preset_allocs_[trace.selection - 1]);
    } else {
      intent = AuditIntent::kAwaitConfirm;
    }
  } else {
    // Selecting the current configuration freezes the target where the
    // fabric already is, so no further rewrites begin.
    loader.request(loader.allocation());
  }

  if (audit_ != nullptr) {
    AuditRecord rec;
    rec.cycle = ctx.cycle;
    rec.num_types = kNumFuTypes;
    rec.num_candidates = kNumCandidates;
    for (unsigned t = 0; t < kNumFuTypes; ++t) {
      rec.required[t] = required[t];
    }
    for (unsigned c = 0; c < kNumCandidates; ++c) {
      rec.errors[c] = trace.errors[c];
      rec.costs[c] = trace.costs[c];
    }
    rec.selection = trace.selection;
    rec.tie_broken = trace.tie_broken;
    rec.streak = pending_streak_;
    rec.confirm = confirm_;
    rec.intent = intent;
    audit_->record(rec);
  }
  if (tracer_ != nullptr) {
    tracer_->instant_steer(ctx.cycle, trace.selection,
                           trace.errors[trace.selection],
                           trace.costs[trace.selection], pending_streak_,
                           audit_intent_name(intent));
  }
}

GreedyPolicy::GreedyPolicy(const SteeringSet& set, unsigned interval,
                           double smoothing)
    : set_(set), interval_(interval), smoothing_(smoothing) {
  STEERSIM_EXPECTS(interval >= 1);
  STEERSIM_EXPECTS(smoothing > 0.0 && smoothing <= 1.0);
}

void GreedyPolicy::steer(const SteerContext& ctx,
                         ConfigurationLoader& loader) {
  // Sample every cycle so the EWMA sees the demand between decisions; the
  // encoding is only recomputed when the ready set actually changed.
  if (!have_sample_ || ctx.ready_changed) {
    sample_cache_ = encode_requirements(ctx.ready_ops);
    have_sample_ = true;
  }
  for (unsigned t = 0; t < kNumFuTypes; ++t) {
    smoothed_[t] = (1.0 - smoothing_) * smoothed_[t] +
                   smoothing_ * static_cast<double>(sample_cache_[t]);
  }
  if (countdown_ > 0) {
    --countdown_;
    return;
  }
  countdown_ = interval_ - 1;
  ++stats_.steer_events;

  FuCounts demand{};
  for (unsigned t = 0; t < kNumFuTypes; ++t) {
    demand[t] =
        static_cast<std::uint8_t>(std::min(7.0, smoothed_[t] + 0.5));
  }
  const AllocationVector packed =
      OraclePolicy::pack(demand, set_.ffu, set_.num_slots);
  // Only retarget when the pack demands rewrites; an equal-provision
  // repacking (same counts, different slots) is pure churn.
  if (packed.counts() != loader.target().counts()) {
    loader.request(packed);
  }
}

OraclePolicy::OraclePolicy(const SteeringSet& set) : set_(set) {}

AllocationVector OraclePolicy::pack(const FuCounts& required,
                                    const FuCounts& ffu,
                                    unsigned num_slots) {
  AllocationVector alloc(num_slots);
  FuCounts provided = ffu;
  unsigned next_slot = 0;
  while (true) {
    // Give the next region to the type with the largest demand per unit of
    // capacity already provided; keep filling while any demanded type fits
    // (spare capacity costs nothing for an instant-rewrite oracle).
    int best = -1;
    double best_score = 0.0;
    for (unsigned t = 0; t < kNumFuTypes; ++t) {
      const FuType type = static_cast<FuType>(t);
      if (next_slot + slot_cost(type) > num_slots || required[t] == 0) {
        continue;
      }
      const double score =
          provided[t] == 0
              ? 1e9 * static_cast<double>(required[t])
              : static_cast<double>(required[t]) /
                    static_cast<double>(provided[t]);
      if (score > best_score) {
        best_score = score;
        best = static_cast<int>(t);
      }
    }
    if (best < 0) {
      break;
    }
    const FuType type = static_cast<FuType>(best);
    alloc.write_region(SlotRegion{type, next_slot, slot_cost(type)});
    next_slot += slot_cost(type);
    ++provided[static_cast<unsigned>(best)];
  }
  return alloc;
}

void OraclePolicy::steer(const SteerContext& ctx,
                         ConfigurationLoader& loader) {
  if (!have_packed_ || ctx.ready_changed) {
    required_cache_ = encode_requirements(ctx.ready_ops);
    packed_cache_ = pack(required_cache_, set_.ffu, set_.num_slots);
    have_packed_ = true;
  }
  ++stats_.steer_events;
  loader.request(packed_cache_);
}

RandomPolicy::RandomPolicy(const SteeringSet& set, std::uint64_t seed,
                           unsigned interval)
    : preset_allocs_{set.preset_allocation(0), set.preset_allocation(1),
                     set.preset_allocation(2)},
      rng_(seed), interval_(interval) {
  STEERSIM_EXPECTS(interval >= 1);
}

void RandomPolicy::steer(const SteerContext&, ConfigurationLoader& loader) {
  if (countdown_ > 0) {
    --countdown_;
    return;
  }
  countdown_ = interval_ - 1;
  const auto pick =
      static_cast<unsigned>(rng_.next_below(kNumCandidates));
  ++stats_.steer_events;
  ++stats_.selections[pick];
  if (pick != 0) {
    loader.request(preset_allocs_[pick - 1]);
  }
}

}  // namespace steersim
