// solo_steer and solo_traced: one core under the steered policy, running
// long seeded phased programs that cycle through the five standard mixes.
// solo_traced runs the same programs with the Chrome tracer (all
// categories) and the interval sampler on, writing into memory-backed
// files.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>

#include "common/rng.hpp"
#include "harness.hpp"
#include "isa/assembler.hpp"
#include "workload/mix.hpp"
#include "workload/synthetic.hpp"

namespace steerbench {

using namespace steersim;

namespace {

/// Distinct programs per seed; the timed loop cycles through them. Sixteen
/// random programs average out how much any one seed's programs differ.
constexpr unsigned kPrograms = 16;
/// Five 64-instruction phases x 50 iterations, the whole sequence run
/// twice: about 40k simulated cycles per program, so the run loop
/// dominates build and collect, yet every program repeats often enough in
/// one run for its median latency to hold.
constexpr unsigned kOuterRepeats = 2;
constexpr unsigned kBodyLength = 64;
constexpr unsigned kIterations = 50;
/// The latency tail reported, over the programs' best latencies.
constexpr double kTailQuantile = 0.9;
/// Set-up repetitions, spread over the CPUs; setup_s is their median.
constexpr unsigned kSetupReps = 12;
constexpr std::uint64_t kBudget = 50'000'000;

SyntheticSpec program_spec(std::uint64_t seed, unsigned k) {
  SyntheticSpec spec;
  spec.name = "solo" + std::to_string(k);
  spec.seed = seed * 7919 + k + 1;
  spec.outer_repeats = kOuterRepeats;
  std::vector<MixSpec> mixes = standard_mixes();
  Xoshiro256 rng(spec.seed);
  for (std::size_t i = mixes.size(); i > 1; --i) {
    std::swap(mixes[i - 1], mixes[rng.next_below(i)]);
  }
  for (const MixSpec& mix : mixes) {
    spec.phases.push_back({mix, kBodyLength, kIterations});
  }
  return spec;
}

/// Generation, assembly and one processor build per program: what a user
/// pays before the first simulated cycle.
std::vector<Program> set_up(std::uint64_t seed, SpanLog* log) {
  SpanScope root(log, "bench.setup");
  std::vector<Program> programs;
  for (unsigned k = 0; k < kPrograms; ++k) {
    const SyntheticSpec spec = program_spec(seed, k);
    std::string source;
    {
      SpanScope s(log, "workload.generate");
      source = generate_synthetic_asm(spec);
    }
    {
      SpanScope s(log, "isa.assemble");
      programs.push_back(assemble(source, spec.name));
    }
    SpanScope s(log, "sim.build");
    make_processor(programs.back(), MachineConfig{}, PolicySpec{});
  }
  return programs;
}

struct ObservedRun {
  SimResult result;
  double run_s = 0.0;
  double close_s = 0.0;
  std::uint64_t events = 0;
};

/// One run with the machine's tracer on; closes the tracer (timed) before
/// the processor goes away.
ObservedRun observed_run(const Program& program, const MachineConfig& cfg) {
  ObservedRun out;
  auto cpu = make_processor(program, cfg, PolicySpec{});
  const double t0 = now_s();
  const RunOutcome outcome = cpu->run(kBudget);
  out.run_s = now_s() - t0;
  out.result = collect_result(*cpu, PolicySpec{}, outcome);
  const double t1 = now_s();
  cpu->tracer()->close();
  out.close_s = now_s() - t1;
  out.events = cpu->tracer()->events_emitted();
  return out;
}

}  // namespace

void run_solo(const Options& options, bool traced_sim, Report& report,
              SpanSet& spans) {
  MemFile trace_file;
  MemFile sample_file;
  if (traced_sim && (!trace_file.ok() || !sample_file.ok())) {
    report.fail("memfd_create failed; cannot run the traced workload");
    report.attempt();
    return;
  }
  MachineConfig job_cfg;
  if (traced_sim) {
    job_cfg.trace.enabled = true;
    job_cfg.trace.categories = trace_cat::kAll;
    job_cfg.trace.path = trace_file.path();
    job_cfg.sample.period = 4096;
    job_cfg.sample.csv_path = sample_file.path();
  }

  // Set-up, repeated; the median is setup_s.
  std::vector<Program> programs;
  SpanLog* setup_log = options.trace ? spans.new_log() : nullptr;
  const double setup_s = median_setup_seconds(kSetupReps, [&] {
    programs = set_up(options.seed, nullptr);
  });
  if (setup_log != nullptr) {
    programs = set_up(options.seed, setup_log);
  }

  // One job: build, run, collect (and close the tracer on solo_traced),
  // timed as a user of simulate() would see it; the stats check runs after
  // the clock stops. Each program runs twice in a row; in the traced pass
  // the second run of each pair records spans.
  std::vector<std::uint64_t> first_digest(kPrograms, 0);
  SpanLog* job_log = options.trace ? spans.new_log() : nullptr;
  const auto job = [&](std::uint64_t i) {
    const unsigned k = static_cast<unsigned>((i / 2) % kPrograms);
    SpanLog* log = i % 2 == 1 ? job_log : nullptr;
    SpanScope root(log, "bench.job", i + 1);
    JobSample sample;
    sample.program = k;
    SimResult result;
    const double t0 = now_s();
    {
      std::unique_ptr<Processor> cpu;
      {
        SpanScope s(log, "sim.build");
        cpu = make_processor(programs[k], job_cfg, PolicySpec{});
      }
      RunOutcome outcome;
      {
        SpanScope s(log, "sim.run");
        outcome = cpu->run(kBudget);
        s.set_counts(cpu->stats().cycles, cpu->stats().retired);
      }
      {
        SpanScope s(log, "sim.collect");
        result = collect_result(*cpu, PolicySpec{}, outcome);
      }
      if (traced_sim) {
        SpanScope s(log, "obs.close");
        cpu->tracer()->close();
      }
    }
    sample.latency_s = now_s() - t0;
    sample.cycles = result.stats.cycles;
    sample.retired = result.stats.retired;
    report.attempt();
    const std::uint64_t digest = stats_digest(result);
    if (first_digest[k] == 0) {
      first_digest[k] = digest;
    }
    if (result.outcome != RunOutcome::kHalted || digest != first_digest[k]) {
      report.fail("job " + std::to_string(i) +
                  ": stats differ from the first run of program " +
                  std::to_string(k));
    }
    if (traced_sim) {
      trace_file.clear();
      sample_file.clear();
    }
    return sample;
  };
  const LoopResult loop = timed_loop(options.seconds, 2 * kPrograms, job);
  // Memory of the workload itself, before the verification's own runs.
  report.metric("peak_rss_mb", peak_rss_mb());

  // Verification pass, one run per distinct program: reference
  // equivalence, the simulated counts, and the observed runs (skip-only
  // tracer everywhere; the full tracer too on solo_traced) whose stats must
  // equal the plain run's, which must equal the timed loop's.
  SimCounts counts;
  ObservedTotals observed;
  for (unsigned k = 0; k < kPrograms; ++k) {
    report.attempt();
    const std::string label = "program " + std::to_string(k);
    auto cpu = make_processor(programs[k], MachineConfig{}, PolicySpec{});
    const double t0 = now_s();
    const RunOutcome outcome = cpu->run(kBudget);
    observed.plain_run_s += now_s() - t0;
    const SimResult plain = collect_result(*cpu, PolicySpec{}, outcome);
    const std::uint64_t expected = stats_digest(plain);
    counts.add(plain);
    if (outcome != RunOutcome::kHalted) {
      report.fail(label + ": did not halt");
    }
    if (const std::string diff = check_reference(programs[k], *cpu);
        !diff.empty()) {
      report.fail(label + ": " + diff);
    }
    if (first_digest[k] != 0 && first_digest[k] != expected) {
      report.fail(label + (traced_sim
                               ? ": traced stats differ from solo_steer's"
                               : ": timed runs differ from the plain run"));
    }

    MachineConfig skip_cfg;
    skip_cfg.trace.enabled = true;
    skip_cfg.trace.categories = trace_cat::kSkip;
    skip_cfg.trace.path = options.out_dir + "/skip-" +
                          std::to_string(getpid()) + ".json";
    const ObservedRun skip = observed_run(programs[k], skip_cfg);
    const std::uint64_t skip_bytes = file_size(skip_cfg.trace.path);
    std::uint64_t skipped = 0;
    if (!skip_cycles_in_trace(skip_cfg.trace.path, skipped)) {
      report.fail(label + ": skip-only trace does not parse");
    }
    std::remove(skip_cfg.trace.path.c_str());
    counts.add_skip(skipped, skip.result.stats.cycles, false);
    if (stats_digest(skip.result) != expected) {
      report.fail(label + ": skip-traced stats differ from the plain run");
    }

    if (traced_sim) {
      const ObservedRun full = observed_run(programs[k], job_cfg);
      if (stats_digest(full.result) != expected) {
        report.fail(label + ": traced stats differ from solo_steer's");
      }
      observed.observed_run_s += full.run_s;
      observed.close_s += full.close_s;
      observed.events += full.events;
      observed.trace_bytes += trace_file.size();
      trace_file.clear();
      sample_file.clear();
    } else {
      observed.observed_run_s += skip.run_s;
      observed.close_s += skip.close_s;
      observed.events += skip.events;
      observed.trace_bytes += skip_bytes;
    }
  }

  report.note("programs", std::to_string(kPrograms) +
                              " phased programs (5 mixes x " +
                              std::to_string(kBodyLength) + " insts x " +
                              std::to_string(kIterations) + " iters x " +
                              std::to_string(kOuterRepeats) + " repeats)");
  if (traced_sim) {
    report.note("trace_sink",
                "memfd (anonymous memory-backed file), all categories, "
                "sampler period 4096");
  }
  if (!options.trace) {
    report_throughput(report, loop, RateEstimate::kPerProgramBest,
                      kTailQuantile);
    report.metric("sim_ipc", counts.ipc());
    report.metric("setup_s", setup_s);
    return;
  }

  report_span_layers(report, spans, alternating_overhead(loop));
  report.absent("frontend.");
  report.absent("multicore.");
  report.absent("svc.");
  counts.report(report);
  observed.runs = kPrograms;
  report_observed(report, observed);
}

}  // namespace steerbench
