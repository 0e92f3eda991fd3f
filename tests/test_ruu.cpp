// Unit tests for the register update unit: allocation order, producer
// lookup (the rename map), id-based find, in-order retirement, and squash
// semantics (including id rollback).
#include <gtest/gtest.h>

#include <array>

#include "common/rng.hpp"
#include "core/ruu.hpp"

namespace steersim {
namespace {

RuuEntry& add_writer(RegisterUpdateUnit& ruu, Opcode op, std::uint8_t rd) {
  return ruu.allocate(Instruction{op, rd, 1, 2, 0});
}

const Instruction kNop{};

TEST(Ruu, AllocateAssignsSequentialIds) {
  RegisterUpdateUnit ruu(4);
  EXPECT_EQ(ruu.allocate(kNop).id, 0u);
  EXPECT_EQ(ruu.allocate(kNop).id, 1u);
  EXPECT_EQ(ruu.size(), 2u);
  EXPECT_FALSE(ruu.full());
}

TEST(Ruu, FindByIdAndRetire) {
  RegisterUpdateUnit ruu(4);
  const auto id0 = ruu.allocate(kNop).id;
  const auto id1 = ruu.allocate(kNop).id;
  EXPECT_NE(ruu.find(id0), nullptr);
  EXPECT_EQ(ruu.find(999), nullptr);
  EXPECT_EQ(ruu.at(0).id, id0);
  ruu.retire_head();
  EXPECT_EQ(ruu.find(id0), nullptr);  // retired
  EXPECT_NE(ruu.find(id1), nullptr);
  EXPECT_EQ(ruu.at(0).id, id1);
}

TEST(Ruu, RingWrapsAcrossManyRetirements) {
  RegisterUpdateUnit ruu(3);
  for (int round = 0; round < 10; ++round) {
    const auto id = ruu.allocate(kNop).id;
    EXPECT_EQ(ruu.find(id)->id, id);
    ruu.retire_head();
  }
  EXPECT_TRUE(ruu.empty());
}

TEST(Ruu, LatestProducerFindsYoungestWriter) {
  RegisterUpdateUnit ruu(8);
  const auto first = add_writer(ruu, Opcode::kAdd, 5).id;
  add_writer(ruu, Opcode::kAdd, 6);
  const auto second = add_writer(ruu, Opcode::kMul, 5).id;
  EXPECT_NE(first, second);
  EXPECT_EQ(ruu.latest_producer(RegClass::kInt, 5), second);
  EXPECT_EQ(ruu.latest_producer(RegClass::kInt, 7), kNoProducer);
}

TEST(Ruu, R0HasNoProducer) {
  RegisterUpdateUnit ruu(8);
  add_writer(ruu, Opcode::kAdd, 0);
  EXPECT_EQ(ruu.latest_producer(RegClass::kInt, 0), kNoProducer);
}

TEST(Ruu, IntAndFpNamespacesSeparate) {
  RegisterUpdateUnit ruu(8);
  const auto int_writer = add_writer(ruu, Opcode::kAdd, 3).id;
  const RuuEntry& fp = ruu.allocate(make_rr(Opcode::kFadd, 3, 1, 2));
  EXPECT_EQ(ruu.latest_producer(RegClass::kInt, 3), int_writer);
  EXPECT_EQ(ruu.latest_producer(RegClass::kFp, 3), fp.id);
}

TEST(Ruu, FpCompareProducesIntRegister) {
  RegisterUpdateUnit ruu(8);
  const RuuEntry& cmp =
      ruu.allocate(make_rr(Opcode::kFlt, 4, 1, 2));  // writes int r4
  EXPECT_EQ(ruu.latest_producer(RegClass::kInt, 4), cmp.id);
  EXPECT_EQ(ruu.latest_producer(RegClass::kFp, 4), kNoProducer);
}

TEST(Ruu, SquashYoungerRollsBackIds) {
  RegisterUpdateUnit ruu(8);
  const auto keep = add_writer(ruu, Opcode::kAdd, 1).id;
  add_writer(ruu, Opcode::kAdd, 2);
  add_writer(ruu, Opcode::kAdd, 3);
  std::vector<std::uint64_t> squashed;
  const unsigned n = ruu.squash_younger_than(
      keep, [&squashed](const RuuEntry& e) { squashed.push_back(e.id); });
  EXPECT_EQ(n, 2u);
  ASSERT_EQ(squashed.size(), 2u);
  EXPECT_GT(squashed[0], squashed[1]) << "youngest squashed first";
  EXPECT_EQ(ruu.size(), 1u);
  // Ids restart contiguously after the survivor.
  const auto next = ruu.allocate(kNop).id;
  EXPECT_EQ(next, keep + 1);
  EXPECT_EQ(ruu.find(next)->id, next);
}

TEST(Ruu, SquashEverythingYoungerThanNothingClearsAll) {
  RegisterUpdateUnit ruu(4);
  add_writer(ruu, Opcode::kAdd, 1);
  add_writer(ruu, Opcode::kAdd, 2);
  unsigned count = 0;
  // id threshold below every entry squashes the whole window... except the
  // oldest entry id 0 (id <= threshold keeps it). Use the head's id.
  ruu.squash_younger_than(ruu.at(0).id, [&count](const RuuEntry&) {
    ++count;
  });
  EXPECT_EQ(count, 1u);
  EXPECT_EQ(ruu.size(), 1u);
}

TEST(Ruu, WritesRegHelper) {
  RegisterUpdateUnit ruu(8);
  EXPECT_TRUE(ruu.allocate(make_rr(Opcode::kAdd, 5, 1, 2)).writes_reg());
  EXPECT_FALSE(ruu.allocate(make_rr(Opcode::kAdd, 0, 1, 2)).writes_reg());
  EXPECT_FALSE(ruu.allocate(make_store(Opcode::kSw, 1, 2, 0)).writes_reg());
  EXPECT_TRUE(ruu.allocate(make_rr(Opcode::kFadd, 0, 1, 2)).writes_reg())
      << "f0 is a real register";
}

TEST(Ruu, FullRejectsViaContract) {
  RegisterUpdateUnit ruu(2);
  ruu.allocate(kNop);
  ruu.allocate(kNop);
  EXPECT_TRUE(ruu.full());
  EXPECT_DEATH(ruu.allocate(kNop), "Expects");
}

/// The dependency-buffer definition the rename map must reproduce: walk the
/// window youngest-first for the first entry whose destination matches.
std::uint64_t walk_latest_producer(const RegisterUpdateUnit& ruu,
                                   RegClass cls, std::uint8_t reg) {
  if (cls == RegClass::kNone || (cls == RegClass::kInt && reg == 0)) {
    return kNoProducer;
  }
  for (unsigned pos = ruu.size(); pos > 0; --pos) {
    const RuuEntry& entry = ruu.at(pos - 1);
    if (op_info(entry.inst.op).rd_class == cls && entry.inst.rd == reg) {
      return entry.id;
    }
  }
  return kNoProducer;
}

void expect_map_matches_walk(const RegisterUpdateUnit& ruu, int step) {
  for (const RegClass cls : {RegClass::kInt, RegClass::kFp}) {
    for (unsigned reg = 0; reg < kNumIntRegs; ++reg) {
      const auto r = static_cast<std::uint8_t>(reg);
      ASSERT_EQ(ruu.latest_producer(cls, r), walk_latest_producer(ruu, cls, r))
          << "step " << step << " class " << static_cast<int>(cls) << " reg "
          << reg;
    }
  }
}

TEST(Ruu, RenameMapMatchesWindowWalkUnderRandomTraffic) {
  // Int writers (r0 included), FP writers (f0 included), FP compares and
  // conversions that write the int file, and ops with no destination.
  constexpr std::array kOps{Opcode::kAdd,  Opcode::kLw,  Opcode::kMul,
                            Opcode::kFadd, Opcode::kFlw, Opcode::kFmul,
                            Opcode::kFlt,  Opcode::kCvtFI, Opcode::kCvtIF,
                            Opcode::kSw,   Opcode::kBeq, Opcode::kNop};
  Xoshiro256 rng(20260);
  unsigned allocations = 0;
  unsigned retirements = 0;
  unsigned squashes = 0;
  for (const unsigned capacity : {1u, 3u, 8u, 32u}) {
    RegisterUpdateUnit ruu(capacity);
    for (int step = 0; step < 6000; ++step) {
      const std::uint64_t roll = rng.next_below(100);
      if (roll < 50 && !ruu.full()) {
        // Mostly a few hot registers so writers shadow each other; now and
        // then any register of the file.
        const auto rd = static_cast<std::uint8_t>(
            rng.next_below(4) == 0 ? rng.next_below(kNumIntRegs)
                                   : rng.next_below(3));
        const Opcode op = kOps[rng.next_below(kOps.size())];
        const std::uint64_t id = ruu.allocate(Instruction{op, rd, 1, 2, 0}).id;
        EXPECT_EQ(ruu.at(ruu.size() - 1).id, id);
        ++allocations;
      } else if (roll < 85 && !ruu.empty()) {
        ruu.retire_head();
        ++retirements;
      } else if (roll < 97 && !ruu.empty()) {
        const unsigned keep =
            static_cast<unsigned>(rng.next_below(ruu.size()));
        const std::uint64_t survivor = ruu.at(keep).id;
        ruu.squash_younger_than(survivor, [](const RuuEntry&) {});
        EXPECT_EQ(ruu.size(), keep + 1);
        ++squashes;
      } else {
        ruu.squash_all([](const RuuEntry&) {});
        EXPECT_TRUE(ruu.empty());
        ++squashes;
      }
      expect_map_matches_walk(ruu, step);
      if (HasFatalFailure()) {
        return;
      }
    }
  }
  // The sequence must actually exercise the ring: many wraps at every
  // capacity, and squashes interleaved with retirement.
  EXPECT_GT(retirements, 4u * 32u);
  EXPECT_GT(squashes, 100u);
  EXPECT_GT(allocations, retirements);
}

TEST(Ruu, RetireKeepsAYoungerWritersMapping) {
  RegisterUpdateUnit ruu(4);
  add_writer(ruu, Opcode::kAdd, 5);
  const auto younger = add_writer(ruu, Opcode::kAdd, 5).id;
  ruu.retire_head();
  EXPECT_EQ(ruu.latest_producer(RegClass::kInt, 5), younger);
  ruu.retire_head();
  EXPECT_EQ(ruu.latest_producer(RegClass::kInt, 5), kNoProducer);
}

TEST(Ruu, SquashRestoresTheOlderWriter) {
  RegisterUpdateUnit ruu(4);
  const auto older = add_writer(ruu, Opcode::kFadd, 0).id;  // f0 is real
  add_writer(ruu, Opcode::kFadd, 0);
  ruu.squash_younger_than(older, [](const RuuEntry&) {});
  EXPECT_EQ(ruu.latest_producer(RegClass::kFp, 0), older);
  ruu.squash_all([](const RuuEntry&) {});
  EXPECT_EQ(ruu.latest_producer(RegClass::kFp, 0), kNoProducer);
}

}  // namespace
}  // namespace steersim
