// quad_fabric: four cores on one SharedFabric under the prop-share
// arbiter. Integer-heavy and FP-heavy tenants run side by side, so the
// shared configuration port and the slot quotas stay contended.
#include <unistd.h>

#include <cstdio>

#include "harness.hpp"
#include "isa/assembler.hpp"
#include "sim/metrics.hpp"
#include "workload/mix.hpp"
#include "workload/synthetic.hpp"

namespace steerbench {

using namespace steersim;

namespace {

constexpr unsigned kCores = 4;
/// Distinct four-tenant jobs per seed; the timed loop cycles through them.
constexpr unsigned kJobs = 8;
/// About 20k simulated cycles per core (three phases x 64 instructions x 40
/// iterations, run twice): every job repeats often enough in one run for
/// its median latency to hold.
constexpr unsigned kBodyLength = 64;
constexpr unsigned kIterations = 40;
constexpr unsigned kOuterRepeats = 2;
/// The latency tail reported, over the jobs' best latencies.
constexpr double kTailQuantile = 0.9;
/// Set-up repetitions, spread over the CPUs; setup_s is their median.
constexpr unsigned kSetupReps = 12;
constexpr std::uint64_t kBudget = 50'000'000;

/// Even cores get integer tenants, odd cores FP tenants.
SyntheticSpec tenant_spec(std::uint64_t seed, unsigned job, unsigned core) {
  SyntheticSpec spec;
  spec.name = "quad" + std::to_string(job) + "_core" + std::to_string(core);
  spec.seed = seed * 7919 + job * kCores + core + 1;
  spec.outer_repeats = kOuterRepeats;
  const bool fp = core % 2 == 1;
  const std::vector<MixSpec> mixes =
      fp ? std::vector<MixSpec>{fp_heavy_mix(), mixed_mix(), fp_heavy_mix()}
         : std::vector<MixSpec>{int_heavy_mix(), mdu_heavy_mix(),
                                int_heavy_mix()};
  for (const MixSpec& mix : mixes) {
    spec.phases.push_back({mix, kBodyLength, kIterations});
  }
  return spec;
}

MultiCoreParams quad_params() {
  MultiCoreParams params;
  params.arbiter = ArbiterKind::kPropShare;
  return params;
}

std::vector<std::vector<CoreSpec>> set_up(std::uint64_t seed, SpanLog* log) {
  SpanScope root(log, "bench.setup");
  std::vector<std::vector<CoreSpec>> jobs(kJobs);
  for (unsigned j = 0; j < kJobs; ++j) {
    for (unsigned c = 0; c < kCores; ++c) {
      const SyntheticSpec spec = tenant_spec(seed, j, c);
      std::string source;
      {
        SpanScope s(log, "workload.generate");
        source = generate_synthetic_asm(spec);
      }
      SpanScope s(log, "isa.assemble");
      jobs[j].push_back({assemble(source, spec.name), PolicySpec{}});
    }
    SpanScope s(log, "multicore.build");
    MultiCoreSim sim(jobs[j], quad_params());
  }
  return jobs;
}

std::uint64_t core_cycles(const MultiCoreResult& result) {
  std::uint64_t cycles = 0;
  for (const SimResult& core : result.cores) {
    cycles += core.stats.cycles;
  }
  return cycles;
}

std::uint64_t result_digest(const MultiCoreResult& result) {
  return fnv1a(collect_multicore_metrics(result).to_json());
}

}  // namespace

void run_quad(const Options& options, Report& report, SpanSet& spans) {
  std::vector<std::vector<CoreSpec>> jobs;
  SpanLog* setup_log = options.trace ? spans.new_log() : nullptr;
  const double setup_s = median_setup_seconds(
      kSetupReps, [&] { jobs = set_up(options.seed, nullptr); });
  if (setup_log != nullptr) {
    jobs = set_up(options.seed, setup_log);
  }

  // Each job runs twice in a row; in the traced pass the second run of each
  // pair records spans.
  std::vector<std::uint64_t> first_digest(kJobs, 0);
  SpanLog* job_log = options.trace ? spans.new_log() : nullptr;
  const auto job = [&](std::uint64_t i) {
    const unsigned j = static_cast<unsigned>((i / 2) % kJobs);
    SpanLog* log = i % 2 == 1 ? job_log : nullptr;
    SpanScope root(log, "bench.job", i + 1);
    JobSample sample;
    sample.program = j;
    MultiCoreResult result;
    RunOutcome outcome;
    const double t0 = now_s();
    {
      std::unique_ptr<MultiCoreSim> sim;
      {
        SpanScope s(log, "multicore.build");
        sim = std::make_unique<MultiCoreSim>(jobs[j], quad_params());
      }
      {
        SpanScope s(log, "multicore.run");
        outcome = sim->run(kBudget);
        std::uint64_t cycles = 0, retired = 0;
        for (unsigned c = 0; c < kCores; ++c) {
          cycles += sim->core(c).stats().cycles;
          retired += sim->core(c).stats().retired;
        }
        s.set_counts(cycles, retired, sim->cycles());
      }
      SpanScope s(log, "multicore.collect");
      result = sim->collect();
    }
    sample.latency_s = now_s() - t0;
    sample.cycles = core_cycles(result);
    sample.retired = result.fabric.total_retired;
    report.attempt();
    const std::uint64_t digest = result_digest(result);
    if (first_digest[j] == 0) {
      first_digest[j] = digest;
    }
    if (outcome != RunOutcome::kHalted || digest != first_digest[j]) {
      report.fail("job " + std::to_string(i) +
                  ": stats differ from the first run of quad job " +
                  std::to_string(j));
    }
    return sample;
  };
  const LoopResult loop = timed_loop(options.seconds, 2 * kJobs, job);
  // Memory of the workload itself, before the verification's own runs.
  report.metric("peak_rss_mb", peak_rss_mb());

  // Verification: every core of every distinct job against the reference,
  // the simulated counts, and a skip-only traced run whose statistics must
  // equal the plain run's, which must equal the timed loop's.
  SimCounts counts;
  ObservedTotals observed;
  for (unsigned j = 0; j < kJobs; ++j) {
    report.attempt();
    const std::string label = "quad job " + std::to_string(j);
    MultiCoreSim sim(jobs[j], quad_params());
    const double t0 = now_s();
    const RunOutcome outcome = sim.run(kBudget);
    observed.plain_run_s += now_s() - t0;
    const MultiCoreResult plain = sim.collect();
    const std::uint64_t expected = result_digest(plain);
    counts.add_multi(plain);
    if (outcome != RunOutcome::kHalted) {
      report.fail(label + ": did not halt");
    }
    for (unsigned c = 0; c < kCores; ++c) {
      if (const std::string diff =
              check_reference(jobs[j][c].program, sim.core(c));
          !diff.empty()) {
        report.fail(label + " core " + std::to_string(c) + ": " + diff);
      }
    }
    if (first_digest[j] != 0 && first_digest[j] != expected) {
      report.fail(label + ": timed runs differ from the plain run");
    }

    MultiCoreParams skip_params = quad_params();
    skip_params.machine.trace.enabled = true;
    skip_params.machine.trace.categories = trace_cat::kSkip;
    skip_params.machine.trace.path =
        options.out_dir + "/skip-" + std::to_string(getpid()) + ".json";
    MultiCoreSim traced(jobs[j], skip_params);
    const double t1 = now_s();
    traced.run(kBudget);
    observed.observed_run_s += now_s() - t1;
    const double t2 = now_s();
    const MultiCoreResult skip = traced.collect();  // closes and merges
    observed.close_s += now_s() - t2;
    for (unsigned c = 0; c < kCores; ++c) {
      observed.events += traced.core(c).tracer()->events_emitted();
    }
    const std::string& path = skip_params.machine.trace.path;
    observed.trace_bytes += file_size(path);
    std::uint64_t skipped = 0;
    if (!skip_cycles_in_trace(path, skipped)) {
      report.fail(label + ": skip-only trace does not parse");
    }
    std::remove(path.c_str());
    counts.add_skip(skipped, core_cycles(skip), /*multicore=*/true);
    counts.add_skip(skipped, core_cycles(skip), /*multicore=*/false);
    if (result_digest(skip) != expected) {
      report.fail(label + ": skip-traced stats differ from the plain run");
    }
  }

  report.note("jobs", std::to_string(kJobs) +
                          " four-core jobs, prop-share arbiter, int tenants "
                          "on even cores and fp tenants on odd cores");
  if (!options.trace) {
    report_throughput(report, loop, RateEstimate::kPerProgramBest,
                      kTailQuantile);
    report.metric("sim_ipc", counts.ipc());
    report.metric("setup_s", setup_s);
    return;
  }

  report.absent("frontend.");
  report.absent("svc.");
  report_span_layers(report, spans, alternating_overhead(loop));
  // MultiCoreSim builds and collects its cores itself: on this workload the
  // processor build and collect costs are the whole-fabric ones.
  const auto totals = spans.by_name();
  for (const auto& [metric, span] :
       {std::pair{"sim.build_ms", "multicore.build"},
        std::pair{"sim.collect_ms", "multicore.collect"}}) {
    const SpanTotals& t = totals.at(span);
    report.metric(metric, t.total_s * 1e3 / static_cast<double>(t.count));
  }
  counts.report(report);
  observed.runs = kJobs;
  report_observed(report, observed);
}

}  // namespace steerbench
