// Per-stage host timers (STEERSIM_PROFILE_STAGES builds only; see
// docs/OBSERVABILITY.md). A traced, sampled, steered run of a phased
// program must reach every stage, and the exclusive stage times must fit
// inside the wall time of the run that produced them.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <string>

#include "sim/runner.hpp"
#include "workload/synthetic.hpp"

namespace steersim {
namespace {

#ifndef STEERSIM_PROFILE_STAGES
#error "test_stage_profile needs a STEERSIM_PROFILE_STAGES=ON build"
#endif

TEST(StageProfile, EveryStageRunsAndStagesFitInTheWallTime) {
  const std::string trace_path = "test_stage_profile_trace.json";
  MachineConfig cfg;
  cfg.trace.enabled = true;
  cfg.trace.path = trace_path;
  cfg.sample.period = 256;  // in-memory windows; each one flushes the tracer
  const auto cpu =
      make_processor(generate_synthetic(alternating_phases(512, 2, 7)), cfg,
                     {.kind = PolicyKind::kSteered});

  const auto start = std::chrono::steady_clock::now();
  const RunOutcome outcome = cpu->run(1'000'000);
  const auto wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  ASSERT_EQ(outcome, RunOutcome::kHalted);

  const StageProfile& profile = cpu->stage_profile();
  for (unsigned s = 0; s < kNumStages; ++s) {
    EXPECT_GT(profile.ns(static_cast<Stage>(s)), 0u) << kStageNames[s];
  }
  EXPECT_LE(profile.total_ns(), wall_ns);
  std::remove(trace_path.c_str());
}

}  // namespace
}  // namespace steersim
