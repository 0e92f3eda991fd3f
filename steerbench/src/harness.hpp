// Shared benchmark plumbing: options, the metric tables, the report that
// prints every metric with its unit, timed job loops, correctness checks
// against ReferenceInterpreter, and the host/build fingerprint.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "isa/program.hpp"
#include "multicore/multicore.hpp"
#include "sim/runner.hpp"
#include "spans.hpp"

namespace steerbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// 0: untraced run, prints the end-to-end metrics. 1: traced run (spans
  /// on), prints the per-layer metrics.
  bool trace = false;
  /// Source-tree identity, supplied by run.py (the binary cannot know
  /// whether the tree it was built from was dirty).
  std::string git_describe = "unknown";
  std::string source_digest = "unknown";
  /// Scratch and report directory, relative to the working directory.
  std::string out_dir = ".bench_out";
};

struct MetricDef {
  std::string_view name;
  std::string_view unit;
  std::string_view better;  ///< "higher" | "lower"
};

/// End-to-end metrics, printed by every untraced run of every workload.
const std::vector<MetricDef>& end_to_end_metrics();
/// Per-layer metrics, printed by every traced run of every workload.
const std::vector<MetricDef>& per_layer_metrics();

/// Collects metrics, notes and the attempted/failed operation counts, and
/// prints them: one `name value unit` line per metric, the fingerprint,
/// then the machine-readable JSON object as the last line of stdout.
class Report {
 public:
  void metric(std::string_view name, double value);
  /// Sets every per-layer metric whose name starts with `prefix` to 0:
  /// the workload does not exercise that layer.
  void absent(std::string_view prefix);
  void note(std::string key, std::string value);
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// Records one failed operation with its reason (the first few reasons
  /// are printed).
  void fail(const std::string& reason);

  /// Prints the report for the metric table the run mode selects and
  /// writes it to `<out_dir>/report-<workload>-seed<N>-trace<T>.json`.
  /// Returns false (after printing the problem to stderr) if a metric of
  /// that table is missing or not finite — a benchmark bug.
  bool print(const Options& options) const;

 private:
  std::map<std::string, double, std::less<>> values_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Host and build fingerprint: CPU model, nproc, compiler, build type,
/// git describe (with dirty flag) and source digest, seed.
std::vector<std::pair<std::string, std::string>> fingerprint(
    const Options& options);

double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Peak resident set size of this process, in MB (10^6 bytes).
double peak_rss_mb();

/// Monotonic seconds since an arbitrary epoch.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One completed job of a timed loop.
struct JobSample {
  double latency_s = 0.0;
  double end_s = 0.0;         ///< completion, seconds after the loop began
  std::uint64_t cycles = 0;   ///< simulated cycles (per-core sum)
  std::uint64_t retired = 0;  ///< retired instructions (all cores)
  unsigned program = 0;       ///< which distinct input the job ran
};

struct LoopResult {
  std::vector<JobSample> jobs;
  double wall_s = 0.0;
};

/// Runs `job(i)` for i = 0, 1, ... until `seconds` have elapsed (at least
/// one job). The job times itself and returns its sample; the loop stamps
/// its completion time.
///
/// Each job runs pinned to one CPU, the next CPU in turn, with the
/// rotation advanced once per `round` jobs: a job that repeats every
/// `round` jobs visits every CPU. On a shared or virtualised host one CPU
/// can be slowed by its neighbours for tens of seconds; rotating spreads
/// every input over all of them, and the best repetition filters the slow
/// ones out. The thread's CPU affinity is restored afterwards.
LoopResult timed_loop(double seconds, std::uint64_t round,
                      const std::function<JobSample(std::uint64_t)>& job);

/// How a loop's latency and throughput are estimated. Host timing noise on
/// a shared or virtualised machine only ever adds time, in bursts that can
/// last seconds, so no estimate uses the loop's total wall time.
enum class RateEstimate : std::uint8_t {
  /// Repeated inputs: each distinct input's latency is its best (fastest)
  /// repetition; the latency quantiles are taken over the inputs, and the
  /// rates are those of running every input once at that speed.
  kPerProgramBest,
  /// Distinct inputs (a job stream): latency quantiles over all jobs, and
  /// rates as the median over one-second windows of the work completed in
  /// the window.
  kWindowMedian,
};

/// jobs_per_sec, job_p50_ms, job_tail_ms, sim_cycles_per_sec and sim_kips
/// from a loop, plus notes stating the sample counts behind them.
void report_throughput(Report& report, const LoopResult& loop,
                       RateEstimate estimate, double tail_quantile);

/// Median seconds of `reps` calls of `setup`, each pinned to the next CPU
/// in turn (as in timed_loop). `setup` must not start threads.
double median_setup_seconds(unsigned reps, const std::function<void()>& setup);

/// FNV-1a/64 over a byte string (stats and reply fingerprints).
std::uint64_t fnv1a(std::string_view bytes);

/// Digest of every simulated statistic of a result (collect_metrics, which
/// excludes host timings): equal digests mean bit-identical statistics.
std::uint64_t stats_digest(const steersim::SimResult& result);

/// Runs `program` on ReferenceInterpreter and compares the final
/// registers, data memory and retired count against the pipeline's.
/// Returns an empty string on agreement, else what differed.
std::string check_reference(const steersim::Program& program,
                            const steersim::Processor& cpu);

/// Aggregated simulated statistics of a fixed set of runs: the source of
/// sim_ipc and of every simulated per-layer count. Sums of integer
/// counters, so a set repeats bit-identically for a seed.
class SimCounts {
 public:
  /// One single-core run.
  void add(const steersim::SimResult& result);
  /// One multi-core run: every core (counted as above, except that the
  /// run's lockstep rounds are its IPC denominator) plus the fabric.
  void add_multi(const steersim::MultiCoreResult& result);
  void add_skip(std::uint64_t skipped_cycles, std::uint64_t total_cycles,
                bool multicore);

  /// sim_ipc: retired over cycles, where multi-core runs contribute
  /// lockstep rounds as their cycles.
  double ipc() const;
  /// Adds every simulated per-layer metric.
  void report(Report& report) const;

 private:
  std::uint64_t ipc_retired_ = 0;
  std::uint64_t ipc_cycles_ = 0;
  std::uint64_t cycles_ = 0;  ///< per-core cycle sum
  std::uint64_t resource_starved_ = 0;
  std::uint64_t branches_ = 0;
  std::uint64_t mispredicts_ = 0;
  std::uint64_t queue_occupancy_ = 0;
  std::uint64_t tcache_lookups_ = 0;
  std::uint64_t tcache_hits_ = 0;
  std::uint64_t slots_rewritten_ = 0;
  std::uint64_t blocked_cycles_ = 0;
  std::uint64_t steer_events_ = 0;
  std::uint64_t grants_ = 0;
  std::uint64_t reschedules_ = 0;
  std::vector<std::uint64_t> busy_;
  std::vector<std::uint64_t> configured_;
  std::uint64_t port_denials_ = 0;
  double grant_latency_sum_ = 0.0;
  std::uint64_t grant_samples_ = 0;
  std::uint64_t slot_used_ = 0;
  std::uint64_t slot_total_ = 0;
  std::uint64_t steals_ = 0;
  std::uint64_t repartitions_ = 0;
  std::uint64_t skip_core_ = 0, skip_core_total_ = 0;
  std::uint64_t skip_multi_ = 0, skip_multi_total_ = 0;
  bool any_multi_ = false;
};

/// Sums the durations (cycles) of the skip-ahead spans in a Chrome trace
/// written with the trace_cat::kSkip mask. Returns false if the file does
/// not parse.
bool skip_cycles_in_trace(const std::string& path, std::uint64_t& cycles);

/// Size of a file in bytes (0 if it cannot be read).
std::uint64_t file_size(const std::string& path);

/// An anonymous memory-backed file (memfd): the tracer writes through
/// path(), a /proc/self/fd link, so a multi-hundred-MB trace never touches
/// a disk or any directory.
class MemFile {
 public:
  MemFile();
  ~MemFile();
  MemFile(const MemFile&) = delete;
  MemFile& operator=(const MemFile&) = delete;
  bool ok() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }
  std::uint64_t size() const;
  /// Drops the contents (frees the memory).
  void clear();

 private:
  int fd_ = -1;
  std::string path_;
};

/// Totals over a workload's observed runs (the machine tracer on) and the
/// plain runs of the same inputs, for the obs.* metrics.
struct ObservedTotals {
  double plain_run_s = 0.0;     ///< plain Processor/MultiCoreSim::run
  double observed_run_s = 0.0;  ///< the same runs with the tracer on
  double close_s = 0.0;         ///< tracer close (and merge)
  std::uint64_t trace_bytes = 0;
  std::uint64_t events = 0;
  unsigned runs = 0;  ///< observed runs
};

/// obs.trace_base_ms, obs.trace_overhead, obs.events, obs.trace_mb,
/// obs.trace_mb_per_s and obs.close_ms (per observed run).
void report_observed(Report& report, const ObservedTotals& totals);

/// Span overhead of a traced pass whose odd-numbered jobs record spans and
/// even-numbered ones do not, over the same inputs: mean latency of the
/// traced jobs over mean latency of the untraced ones.
double alternating_overhead(const LoopResult& loop);

/// Per-layer host-time metrics derived from a span set: mean span
/// durations, per-cycle costs and each layer's self-time share, plus the
/// span overhead.
void report_span_layers(Report& report, const SpanSet& spans,
                        double span_overhead);

/// Workload entry points (solo.cpp, quad.cpp, svc.cpp). Each sets up,
/// runs its timed loop, verifies every output and fills `report`; with
/// options.trace it records its traced pass into `spans`.
void run_solo(const Options& options, bool traced_sim, Report& report,
              SpanSet& spans);
void run_quad(const Options& options, Report& report, SpanSet& spans);
void run_svc(const Options& options, Report& report, SpanSet& spans);

}  // namespace steerbench
