// Host-side wall-clock profiling (docs/OBSERVABILITY.md).
//
// Where does *simulator* time go? simulate() times its phases (processor
// construction, the run loop, statistics collection) with these helpers
// and reports them in SimResult::host, from which bench_sim_throughput
// derives simulated-cycles-per-second and KIPS. A build configured with
// STEERSIM_PROFILE_STAGES=ON also splits the run loop across the pipeline
// stages (StageProfile). Host timings are about the simulator process,
// never the simulated machine: they have no effect on any simulated
// statistic.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string_view>

namespace steersim {

/// Wall-clock stopwatch (steady clock; immune to system time changes).
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}

  /// Seconds since construction or the last restart().
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

  void restart() { start_ = std::chrono::steady_clock::now(); }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Per-phase wall-clock breakdown of one simulate() call.
struct HostProfile {
  double build_seconds = 0.0;    ///< processor construction
  double run_seconds = 0.0;      ///< the cycle loop
  double collect_seconds = 0.0;  ///< statistics gathering

  double total_seconds() const {
    return build_seconds + run_seconds + collect_seconds;
  }

  /// Simulated cycles per host second (0 when the run took no time).
  double cycles_per_sec(std::uint64_t cycles) const {
    return run_seconds <= 0.0
               ? 0.0
               : static_cast<double>(cycles) / run_seconds;
  }
  /// Simulated kilo-instructions (retired) per host second.
  double kips(std::uint64_t retired) const {
    return run_seconds <= 0.0
               ? 0.0
               : static_cast<double>(retired) / run_seconds / 1000.0;
  }
};

/// The parts of Processor's cycle loop a STEERSIM_PROFILE_STAGES build
/// times separately.
enum class Stage : std::uint8_t {
  kFetch,
  kDispatch,
  kIssue,
  kSteer,
  kComplete,
  kRetire,
  kSkip,        ///< try_skip: the idle proof and any skipped window
  kSample,      ///< maybe_sample: the window check and sampler snapshot
  kTraceFlush,  ///< tracer ring drains at sampler window boundaries
  kCount_,
};

inline constexpr unsigned kNumStages = static_cast<unsigned>(Stage::kCount_);

inline constexpr std::array<std::string_view, kNumStages> kStageNames{
    "fetch", "dispatch", "issue",  "steer",      "complete",
    "retire", "skip",    "sample", "trace_flush"};

/// Exclusive wall time per stage. Entering a stage pauses the enclosing
/// one, so nested stages (the sampler inside try_skip, the tracer flush
/// inside the sampler) are counted once and the stages never sum to more
/// than the wall time they ran in.
class StageProfile {
 public:
  using Clock = std::chrono::steady_clock;

  /// Charges its lifetime to one stage (less any nested scopes).
  class Scope {
   public:
    Scope(StageProfile& profile, Stage stage)
        : profile_(profile), outer_(profile.enter(stage)) {}
    ~Scope() { profile_.leave(outer_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    StageProfile& profile_;
    int outer_;
  };

  std::uint64_t ns(Stage stage) const {
    return ns_[static_cast<unsigned>(stage)];
  }
  std::uint64_t total_ns() const {
    std::uint64_t total = 0;
    for (const std::uint64_t n : ns_) {
      total += n;
    }
    return total;
  }

 private:
  int enter(Stage stage) {
    charge();
    const int outer = current_;
    current_ = static_cast<int>(stage);
    return outer;
  }
  void leave(int outer) {
    charge();
    current_ = outer;
  }
  /// Bills the time since the last boundary to the running stage.
  void charge() {
    const Clock::time_point now = Clock::now();
    if (current_ >= 0) {
      ns_[static_cast<unsigned>(current_)] += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(now - mark_)
              .count());
    }
    mark_ = now;
  }

  std::array<std::uint64_t, kNumStages> ns_{};
  int current_ = -1;  ///< running stage, -1 outside every stage
  Clock::time_point mark_{};
};

}  // namespace steersim

/// Times the rest of the enclosing block as `stage` of `profile` in a
/// STEERSIM_PROFILE_STAGES build; expands to nothing otherwise, so the
/// default build neither reads the clock nor names `profile`.
#ifdef STEERSIM_PROFILE_STAGES
#define STEERSIM_STAGE_SCOPE_NAME2(line) steersim_stage_scope_##line
#define STEERSIM_STAGE_SCOPE_NAME(line) STEERSIM_STAGE_SCOPE_NAME2(line)
#define STEERSIM_STAGE_SCOPE(profile, stage)                       \
  const ::steersim::StageProfile::Scope STEERSIM_STAGE_SCOPE_NAME( \
      __LINE__)(profile, stage)
#else
#define STEERSIM_STAGE_SCOPE(profile, stage)
#endif
