#include "core/ruu.hpp"

namespace steersim {

RegisterUpdateUnit::RegisterUpdateUnit(unsigned capacity) : ring_(capacity) {
  STEERSIM_EXPECTS(capacity >= 1);
  rebuild_rename_map();
}

std::uint64_t* RegisterUpdateUnit::rename_slot(const RuuEntry& entry) {
  if (!entry.writes_reg()) {
    return nullptr;
  }
  STEERSIM_EXPECTS(entry.inst.rd < kNumIntRegs);
  return &rename_[rename_class(op_info(entry.inst.op).rd_class)]
                 [entry.inst.rd];
}

RuuEntry& RegisterUpdateUnit::allocate(const Instruction& inst) {
  STEERSIM_EXPECTS(!full());
  RuuEntry& entry = ring_[ring_index(count_)];
  ++count_;
  entry = RuuEntry{};
  entry.inst = inst;
  entry.id = next_id_++;
  if (std::uint64_t* slot = rename_slot(entry)) {
    *slot = entry.id;
  }
  return entry;
}

void RegisterUpdateUnit::retire_head() {
  STEERSIM_EXPECTS(count_ > 0);
  const RuuEntry& head = ring_[head_];
  if (std::uint64_t* slot = rename_slot(head); slot != nullptr &&
                                               *slot == head.id) {
    *slot = kNoProducer;
  }
  head_ = ring_index(1);
  --count_;
}

void RegisterUpdateUnit::rebuild_rename_map() {
  for (auto& row : rename_) {
    row.fill(kNoProducer);
  }
  for (unsigned pos = 0; pos < count_; ++pos) {
    const RuuEntry& entry = at(pos);
    if (std::uint64_t* slot = rename_slot(entry)) {
      *slot = entry.id;
    }
  }
}

}  // namespace steersim
