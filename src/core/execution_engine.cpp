#include "core/execution_engine.hpp"

#include <algorithm>
#include <optional>

#include "common/contracts.hpp"

namespace steersim {

ExecutionEngine::ExecutionEngine(const FuCounts& ffu, bool pipelined)
    : ffu_(ffu), pipelined_(pipelined) {
  begin_cycle(AllocationVector(0));
}

void ExecutionEngine::begin_cycle(const AllocationVector& rfu_allocation) {
  issued_this_cycle_.clear();
  if (units_cached_ && rfu_allocation == last_allocation_) {
    return;  // unit list is a pure function of the allocation
  }
  units_.clear();
  for (const FuType t : kAllFuTypes) {
    for (unsigned n = 0; n < ffu_[fu_index(t)]; ++n) {
      units_.push_back(UnitInstance{t, true, n, 1});
    }
  }
  for (const auto& region : rfu_allocation.regions()) {
    if (region.len == slot_cost(region.type)) {  // complete units only
      units_.push_back(
          UnitInstance{region.type, false, region.base, region.len});
    }
  }
  // Head slots per type, for issue_view(): resource_vector() semantics,
  // where any head code (even of a transiently truncated unit) drives its
  // type's availability line while its slot is idle.
  head_slots_ = {};
  for (unsigned slot = 0; slot < rfu_allocation.num_slots(); ++slot) {
    if (const auto type = type_from_encoding(rfu_allocation.code(slot))) {
      head_slots_[fu_index(*type)].set(slot);
    }
  }
  last_allocation_ = rfu_allocation;
  units_cached_ = true;
  unit_counts_ = {};
  rfu_bases_ = {};
  for (const auto& unit : units_) {
    ++unit_counts_[fu_index(unit.type)];
    if (!unit.fixed) {
      rfu_bases_[fu_index(unit.type)].set(unit.base);
    }
  }
}

bool ExecutionEngine::unit_busy(const UnitInstance& unit) const {
  return std::ranges::any_of(occupying(), [&unit](const InFlight& f) {
    return f.fixed == unit.fixed && f.base == unit.base &&
           f.type == unit.type;
  });
}

ResourceVector ExecutionEngine::resource_vector(
    const AllocationVector& rfu_allocation) const {
  // Per-slot availability: a busy unit drives all of its slots low.
  SlotMask rfu_avail;
  for (unsigned i = 0; i < rfu_allocation.num_slots(); ++i) {
    rfu_avail.set(i);
  }
  std::array<bool, kMaxResourceEntries> ffu_avail{};
  std::size_t ffu_total = 0;
  for (const FuType t : kAllFuTypes) {
    for (unsigned n = 0; n < ffu_[fu_index(t)]; ++n) {
      ffu_avail[ffu_total++] = true;
    }
  }
  for (const auto& f : occupying()) {
    if (f.fixed) {
      // Locate the fixed unit's position in FuType-major order.
      unsigned ordinal = 0;
      for (const FuType t : kAllFuTypes) {
        if (t == f.type) {
          break;
        }
        ordinal += ffu_[fu_index(t)];
      }
      ffu_avail[ordinal + f.base] = false;
    } else {
      const unsigned len = slot_cost(f.type);
      for (unsigned i = 0; i < len; ++i) {
        rfu_avail.reset(f.base + i);
      }
    }
  }
  return ResourceVector::build(rfu_allocation, rfu_avail, ffu_,
                               {ffu_avail.data(), ffu_total});
}

ResourceAvail ExecutionEngine::availability(
    const AllocationVector& rfu_allocation) const {
  const ResourceVector rv = resource_vector(rfu_allocation);
  ResourceAvail avail{};
  for (const FuType t : kAllFuTypes) {
    avail[fu_index(t)] = rv.available(t);
  }
  return avail;
}

std::array<unsigned, kNumFuTypes> ExecutionEngine::free_units() const {
  std::array<unsigned, kNumFuTypes> free{};
  for (const auto& unit : units_) {
    if (!unit_busy(unit)) {
      ++free[fu_index(unit.type)];
    }
  }
  return free;
}

FuCounts ExecutionEngine::configured_units() const {
  FuCounts counts{};
  for (unsigned t = 0; t < kNumFuTypes; ++t) {
    counts[t] = static_cast<std::uint8_t>(std::min(unit_counts_[t], 255u));
  }
  return counts;
}

ExecutionEngine::IssueView ExecutionEngine::issue_view() const {
  IssueView view;
  // One pass over the occupancy list: per-type busy fixed-unit counts
  // (assign never double-books a unit, so each record is a distinct unit),
  // the base slots of busy RFU units, and the slot spans they drive low.
  std::array<unsigned, kNumFuTypes> busy_ffu{};
  std::array<SlotMask, kNumFuTypes> busy_bases{};
  SlotMask busy_spans;
  for (const auto& f : occupying()) {
    if (f.fixed) {
      ++busy_ffu[fu_index(f.type)];
    } else {
      busy_bases[fu_index(f.type)].set(f.base);
      const unsigned len = slot_cost(f.type);
      for (unsigned i = 0; i < len; ++i) {
        busy_spans.set(f.base + i);
      }
    }
  }
  // RFU availability: an idle head slot of the type (resource_vector()
  // semantics, head masks cached per allocation in begin_cycle). Free
  // counts: idle fixed units plus complete RFU units whose base is idle.
  const SlotMask idle = ~busy_spans;
  for (unsigned t = 0; t < kNumFuTypes; ++t) {
    const unsigned free_ffu = ffu_[t] - busy_ffu[t];
    view.available[t] = free_ffu > 0 || (head_slots_[t] & idle).any();
    view.free[t] = free_ffu + (rfu_bases_[t] & ~busy_bases[t]).count();
  }
  return view;
}

bool ExecutionEngine::assign(FuType t, unsigned latency,
                             unsigned wakeup_row) {
  STEERSIM_EXPECTS(latency >= 1);
  // Prefer fixed units (lowest ordinal) so RFU slots stay reconfigurable as
  // long as possible; among RFUs pick the lowest base.
  const unsigned ti = fu_index(t);
  std::optional<InFlight> record;
  for (unsigned n = 0; n < ffu_[ti] && !record.has_value(); ++n) {
    if (!unit_busy(UnitInstance{t, true, n, 1})) {
      record = InFlight{t, true, n, latency, wakeup_row};
    }
  }
  if (!record.has_value()) {
    SlotMask busy_bases;
    for (const auto& f : occupying()) {
      if (!f.fixed && f.type == t) {
        busy_bases.set(f.base);
      }
    }
    const SlotMask idle = rfu_bases_[ti] & ~busy_bases;
    if (idle.none()) {
      return false;
    }
    record = InFlight{t, false, idle.lowest(), latency, wakeup_row};
  }
  in_flight_.push_back(*record);
  if (pipelined_) {
    issued_this_cycle_.push_back(*record);
  }
  ++stats_.issues;
  ++stats_.issues_by_type[ti];
  return true;
}

FixedVector<unsigned, kMaxWakeupEntries> ExecutionEngine::step() {
  FixedVector<unsigned, kMaxWakeupEntries> completed;
  for (auto it = in_flight_.begin(); it != in_flight_.end();) {
    STEERSIM_ENSURES(it->remaining > 0);
    if (--it->remaining == 0) {
      completed.push_back(it->wakeup_row);
      it = in_flight_.erase(it);
    } else {
      ++it;
    }
  }
  return completed;
}

void ExecutionEngine::cancel(unsigned wakeup_row) {
  const auto it = std::ranges::find_if(
      in_flight_,
      [wakeup_row](const InFlight& f) { return f.wakeup_row == wakeup_row; });
  if (it != in_flight_.end()) {
    in_flight_.erase(it);
    ++stats_.cancels;
  }
}

FixedVector<unsigned, kMaxWakeupEntries> ExecutionEngine::kill_slot(
    unsigned slot) {
  FixedVector<unsigned, kMaxWakeupEntries> killed;
  for (auto it = in_flight_.begin(); it != in_flight_.end();) {
    const unsigned len = slot_cost(it->type);
    if (!it->fixed && slot >= it->base && slot < it->base + len) {
      killed.push_back(it->wakeup_row);
      it = in_flight_.erase(it);
    } else {
      ++it;
    }
  }
  return killed;
}

SlotMask ExecutionEngine::slot_busy() const {
  SlotMask mask;
  for (const auto& f : in_flight_) {
    if (!f.fixed) {
      const unsigned len = slot_cost(f.type);
      for (unsigned i = 0; i < len; ++i) {
        mask.set(f.base + i);
      }
    }
  }
  return mask;
}

void ExecutionEngine::note_utilization() {
  for (unsigned t = 0; t < kNumFuTypes; ++t) {
    stats_.configured_unit_cycles[t] += unit_counts_[t];
  }
  for (const auto& f : in_flight_) {
    ++stats_.busy_unit_cycles[fu_index(f.type)];
  }
}

unsigned ExecutionEngine::min_remaining() const {
  unsigned min = 0;
  for (const auto& f : in_flight_) {
    if (min == 0 || f.remaining < min) {
      min = f.remaining;
    }
  }
  return min;
}

void ExecutionEngine::fast_forward(std::uint64_t cycles) {
  if (cycles == 0) {
    return;
  }
  for (auto& f : in_flight_) {
    STEERSIM_EXPECTS(f.remaining > cycles);
    f.remaining -= static_cast<unsigned>(cycles);
  }
  for (unsigned t = 0; t < kNumFuTypes; ++t) {
    stats_.configured_unit_cycles[t] += cycles * unit_counts_[t];
  }
  for (const auto& f : in_flight_) {
    stats_.busy_unit_cycles[fu_index(f.type)] += cycles;
  }
}

}  // namespace steersim
