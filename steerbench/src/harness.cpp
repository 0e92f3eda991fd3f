#include "harness.hpp"

#include <sched.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "common/strings.hpp"
#include "core/reference.hpp"
#include "isa/fu_type.hpp"
#include "sim/json.hpp"
#include "sim/metrics.hpp"

namespace steerbench {

using namespace steersim;

namespace {

std::string fu_metric_suffix(FuType type) {
  std::string name(fu_type_name(type));
  for (char& c : name) {
    c = c == '-' ? '_'
                 : static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return name;
}

std::vector<MetricDef> build_per_layer() {
  std::vector<MetricDef> defs = {
      {"core.ns_per_cycle", "ns", "lower"},
      {"core.ns_per_retired", "ns", "lower"},
      {"core.skip_share", "ratio", "higher"},
      {"wakeup.grants_per_cycle", "1/cycle", "higher"},
      {"wakeup.reschedules", "count", "lower"},
      {"sim.resource_starved_per_cycle", "1/cycle", "lower"},
      {"sim.mispredict_rate", "ratio", "lower"},
      {"sim.avg_queue_occupancy", "entries", "lower"},
      {"tcache.hit_rate", "ratio", "higher"},
      {"loader.slots_rewritten", "count", "lower"},
      {"loader.blocked_cycles", "cycles", "lower"},
      {"steer.steer_events", "count", "lower"},
  };
  // Names must outlive the returned views: keep them in a static store.
  static std::vector<std::string> util_names;
  if (util_names.empty()) {
    for (const FuType type : kAllFuTypes) {
      util_names.push_back("engine.util." + fu_metric_suffix(type));
    }
  }
  for (const std::string& name : util_names) {
    defs.push_back({name, "ratio", "higher"});
  }
  const std::vector<MetricDef> rest = {
      {"workload.generate_ms", "ms", "lower"},
      {"isa.assemble_ms", "ms", "lower"},
      {"frontend.elf_load_ms", "ms", "lower"},
      {"sim.build_ms", "ms", "lower"},
      {"sim.collect_ms", "ms", "lower"},
      {"obs.trace_overhead", "x", "lower"},
      {"obs.trace_base_ms", "ms", "lower"},
      {"obs.trace_mb", "MB", "lower"},
      {"obs.trace_mb_per_s", "MB/s", "higher"},
      {"obs.events", "count", "lower"},
      {"obs.close_ms", "ms", "lower"},
      {"multicore.ns_per_round", "ns", "lower"},
      {"multicore.collect_ms", "ms", "lower"},
      {"multicore.skip_share", "ratio", "higher"},
      {"fabric.port_denials", "count", "lower"},
      {"fabric.grant_latency_mean", "cycles", "lower"},
      {"fabric.utilization", "ratio", "higher"},
      {"fabric.steal_events", "count", "lower"},
      {"fabric.repartitions", "count", "lower"},
      {"svc.ping_us", "us", "lower"},
      {"svc.protocol_us", "us", "lower"},
      {"svc.hit_us", "us", "lower"},
      {"svc.sim_ms", "ms", "lower"},
      {"svc.cache_hit_ratio", "ratio", "higher"},
      {"svc.cache_evictions", "count", "lower"},
      {"svc.admit_p50_ms", "ms", "lower"},
      {"svc.queue_depth_max", "jobs", "lower"},
      {"span.overhead", "x", "lower"},
      {"span.count", "count", "lower"},
      {"self.bench", "%", "lower"},
      {"self.workload", "%", "lower"},
      {"self.isa", "%", "lower"},
      {"self.frontend", "%", "lower"},
      {"self.sim", "%", "lower"},
      {"self.multicore", "%", "lower"},
      {"self.obs", "%", "lower"},
      {"self.svc", "%", "lower"},
  };
  defs.insert(defs.end(), rest.begin(), rest.end());
  return defs;
}

const MetricDef* find_def(std::string_view name) {
  for (const auto* table : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricDef& def : *table) {
      if (def.name == name) {
        return &def;
      }
    }
  }
  return nullptr;
}

std::string json_string(std::string_view text) {
  std::string out = "\"";
  append_json_escaped(out, text);
  return out + "\"";
}

}  // namespace

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"sim_cycles_per_sec", "1/s", "higher"},
      {"sim_kips", "kinst/s", "higher"},
      {"sim_ipc", "inst/cycle", "higher"},
      {"jobs_per_sec", "1/s", "higher"},
      {"job_p50_ms", "ms", "lower"},
      {"job_tail_ms", "ms", "lower"},
      {"setup_s", "s", "lower"},
      {"peak_rss_mb", "MB", "lower"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = build_per_layer();
  return defs;
}

void Report::metric(std::string_view name, double value) {
  values_.insert_or_assign(std::string(name), value);
}

void Report::absent(std::string_view prefix) {
  for (const MetricDef& def : per_layer_metrics()) {
    if (def.name.starts_with(prefix)) {
      metric(def.name, 0.0);
    }
  }
}

void Report::note(std::string key, std::string value) {
  notes_.emplace_back(std::move(key), std::move(value));
}

void Report::fail(const std::string& reason) {
  ++failed_;
  if (failures_.size() < 8) {
    failures_.push_back(reason);
  }
}

bool Report::print(const Options& options) const {
  const std::vector<MetricDef>& table =
      options.trace ? per_layer_metrics() : end_to_end_metrics();
  bool complete = true;
  for (const MetricDef& def : table) {
    const auto it = values_.find(def.name);
    if (it == values_.end() || !std::isfinite(it->second)) {
      std::fprintf(stderr, "steerbench: metric %.*s missing or not finite\n",
                   static_cast<int>(def.name.size()), def.name.data());
      complete = false;
    }
  }
  if (!complete) {
    return false;
  }

  const auto print_pairs =
      [](const std::vector<std::pair<std::string, std::string>>& pairs) {
        for (const auto& [key, value] : pairs) {
          std::printf("  %-28s %s\n", key.c_str(), value.c_str());
        }
      };
  const auto fp = fingerprint(options);
  std::printf("steerbench %s seed=%llu seconds=%s trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              json_number(options.seconds).c_str(), options.trace ? 1 : 0);
  std::printf("fingerprint:\n");
  print_pairs(fp);
  std::printf("notes:\n");
  print_pairs(notes_);
  std::printf("metrics (%s):\n", options.trace ? "per-layer" : "end-to-end");
  for (const MetricDef& def : table) {
    std::printf("  %-32.*s %-24s %.*s\n", static_cast<int>(def.name.size()),
                def.name.data(),
                json_number(values_.find(def.name)->second).c_str(),
                static_cast<int>(def.unit.size()), def.unit.data());
  }
  std::printf("operations: attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (const std::string& reason : failures_) {
    std::printf("  FAILED: %s\n", reason.c_str());
  }

  std::string metrics = "{";
  for (const MetricDef& def : table) {
    if (metrics.size() > 1) {
      metrics += ", ";
    }
    metrics += json_string(def.name) + ": {\"value\": " +
               json_number(values_.find(def.name)->second) +
               ", \"unit\": " + json_string(def.unit) + "}";
  }
  metrics += "}";
  const std::string result =
      std::string("{\"correct\": ") + (failed_ == 0 ? "true" : "false") +
      ", \"attempted\": " + std::to_string(attempted_) +
      ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": " +
      metrics + "}";

  // The full report (every metric measured, fingerprint, notes) for later
  // comparison; the last stdout line below carries only the table.
  std::string all = "{";
  for (const auto& [name, value] : values_) {
    if (all.size() > 1) {
      all += ", ";
    }
    const MetricDef* def = find_def(name);
    all += json_string(name) + ": {\"value\": " + json_number(value) +
           ", \"unit\": " + json_string(def ? def->unit : "") + "}";
  }
  all += "}";
  const auto object = [](const auto& pairs) {
    std::string out = "{";
    for (const auto& [key, value] : pairs) {
      if (out.size() > 1) {
        out += ", ";
      }
      out += json_string(key) + ": " + json_string(value);
    }
    return out + "}";
  };
  const std::string path = options.out_dir + "/report-" + options.workload +
                           "-seed" + std::to_string(options.seed) + "-trace" +
                           (options.trace ? "1" : "0") + ".json";
  std::ofstream file(path);
  file << "{\"schema\": \"steerbench/1\", \"workload\": "
       << json_string(options.workload) << ", \"fingerprint\": " << object(fp)
       << ", \"notes\": " << object(notes_) << ", \"metrics\": " << all
       << ", \"result\": " << result << "}\n";
  std::printf("report: %s\n", path.c_str());
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return true;
}

std::vector<std::pair<std::string, std::string>> fingerprint(
    const Options& options) {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.starts_with("model name")) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        cpu = line.substr(line.find_first_not_of(' ', colon + 1));
      }
      break;
    }
  }
  return {
      {"cpu", cpu},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"compiler", std::string(STEERBENCH_COMPILER) + " (" + __VERSION__ + ")"},
      {"build_type", STEERBENCH_BUILD_TYPE},
      {"git_describe", options.git_describe},
      {"source_digest", options.source_digest},
      {"seed", std::to_string(options.seed)},
  };
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  // Linear interpolation between closest ranks (numpy's default).
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;
}

namespace {

/// Pins the calling thread to one of the CPUs it may run on at a time;
/// restores the original affinity on destruction. Threads started while
/// pinned would inherit the pin, so no workload starts threads under it.
class CpuRotation {
 public:
  CpuRotation() {
    ok_ = sched_getaffinity(0, sizeof(original_), &original_) == 0;
    for (int c = 0; ok_ && c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &original_)) {
        cpus_.push_back(c);
      }
    }
  }
  ~CpuRotation() {
    if (ok_) {
      sched_setaffinity(0, sizeof(original_), &original_);
    }
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins to CPU `k` modulo the CPU count.
  void pin(std::uint64_t k) {
    if (cpus_.empty()) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[k % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t original_{};
  bool ok_ = false;
  std::vector<int> cpus_;
};

}  // namespace

LoopResult timed_loop(double seconds, std::uint64_t round,
                      const std::function<JobSample(std::uint64_t)>& job) {
  CpuRotation rotation;
  LoopResult loop;
  const double start = now_s();
  const double deadline = start + seconds;
  std::uint64_t i = 0;
  do {
    rotation.pin(i + i / std::max<std::uint64_t>(round, 1));
    JobSample sample = job(i++);
    sample.end_s = now_s() - start;
    loop.jobs.push_back(sample);
  } while (now_s() < deadline);
  loop.wall_s = now_s() - start;
  return loop;
}

void report_throughput(Report& report, const LoopResult& loop,
                       RateEstimate estimate, double tail_quantile) {
  std::vector<double> latency_ms;
  std::uint64_t cycles = 0, retired = 0;
  for (const JobSample& s : loop.jobs) {
    latency_ms.push_back(s.latency_s * 1e3);
    cycles += s.cycles;
    retired += s.retired;
  }
  double jobs_rate = 0.0, cycle_rate = 0.0, retire_rate = 0.0;
  std::vector<double> tail_basis = latency_ms;
  if (estimate == RateEstimate::kPerProgramBest) {
    std::map<unsigned, double> best;
    std::map<unsigned, unsigned> reps;
    std::map<unsigned, const JobSample*> first;
    for (const JobSample& s : loop.jobs) {
      const auto [it, fresh] = best.emplace(s.program, s.latency_s);
      it->second = std::min(it->second, s.latency_s);
      ++reps[s.program];
      first.emplace(s.program, &s);
    }
    double seconds = 0.0, program_cycles = 0.0, program_retired = 0.0;
    tail_basis.clear();
    for (const auto& [program, latency] : best) {
      seconds += latency;
      tail_basis.push_back(latency * 1e3);
      program_cycles += static_cast<double>(first[program]->cycles);
      program_retired += static_cast<double>(first[program]->retired);
    }
    jobs_rate = static_cast<double>(best.size()) / seconds;
    cycle_rate = program_cycles / seconds;
    retire_rate = program_retired / seconds;
    unsigned fewest = ~0u;
    for (const auto& [program, n] : reps) {
      fewest = std::min(fewest, n);
    }
    report.note("estimate", "best of >= " + std::to_string(fewest) +
                                " repetitions for each of " +
                                std::to_string(best.size()) + " inputs");
  } else {
    // Whole one-second windows by completion time; a partial last window
    // would read low.
    const auto windows =
        std::max<std::size_t>(1, static_cast<std::size_t>(loop.wall_s));
    std::vector<double> jobs(windows, 0.0), cyc(windows, 0.0),
        ret(windows, 0.0);
    for (const JobSample& s : loop.jobs) {
      const auto w = static_cast<std::size_t>(s.end_s);
      if (w < windows) {
        jobs[w] += 1.0;
        cyc[w] += static_cast<double>(s.cycles);
        ret[w] += static_cast<double>(s.retired);
      }
    }
    jobs_rate = median(jobs);
    cycle_rate = median(cyc);
    retire_rate = median(ret);
    report.note("estimate", "rates: median over " + std::to_string(windows) +
                                " one-second windows");
  }
  const double tail = quantile(tail_basis, tail_quantile);
  report.metric("jobs_per_sec", jobs_rate);
  report.metric("job_p50_ms", quantile(tail_basis, 0.5));
  report.metric("job_tail_ms", tail);
  report.metric("sim_cycles_per_sec", cycle_rate);
  report.metric("sim_kips", retire_rate / 1e3);
  const auto beyond = static_cast<std::uint64_t>(
      std::count_if(tail_basis.begin(), tail_basis.end(),
                    [tail](double v) { return v > tail; }));
  report.note("latency_samples", std::to_string(latency_ms.size()) +
                                     " jobs, quantiles over " +
                                     std::to_string(tail_basis.size()));
  report.note("job_tail_quantile", json_number(tail_quantile));
  report.note("latency_samples_beyond_tail", std::to_string(beyond));
  report.note("timed_wall_s", json_number(loop.wall_s));
  report.note("timed_sim_cycles", std::to_string(cycles));
  report.note("timed_retired", std::to_string(retired));
}

double median_setup_seconds(unsigned reps,
                            const std::function<void()>& setup) {
  CpuRotation rotation;
  std::vector<double> times;
  for (unsigned r = 0; r < reps; ++r) {
    rotation.pin(r);
    const double start = now_s();
    setup();
    times.push_back(now_s() - start);
  }
  return median(times);
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

std::uint64_t stats_digest(const SimResult& result) {
  return fnv1a(collect_metrics(result).to_json());
}

std::string check_reference(const Program& program, const Processor& cpu) {
  ReferenceInterpreter ref(cpu.config().data_memory_bytes);
  const ReferenceResult r = ref.run(program);
  if (!r.halted) {
    return "reference interpreter did not halt";
  }
  if (r.instructions != cpu.stats().retired) {
    return "retired " + std::to_string(cpu.stats().retired) +
           " != reference " + std::to_string(r.instructions);
  }
  if (!(ref.registers() == cpu.registers())) {
    return "final registers differ from the reference";
  }
  if (!(ref.memory() == cpu.memory())) {
    return "final data memory differs from the reference";
  }
  return {};
}

void SimCounts::add(const SimResult& r) {
  ipc_retired_ += r.stats.retired;
  ipc_cycles_ += r.stats.cycles;
  cycles_ += r.stats.cycles;
  resource_starved_ += r.stats.resource_starved;
  branches_ += r.stats.branches;
  mispredicts_ += r.stats.mispredicts;
  queue_occupancy_ += r.stats.queue_occupancy_sum;
  tcache_lookups_ += r.trace_cache.lookups;
  tcache_hits_ += r.trace_cache.hits;
  slots_rewritten_ += r.loader.slots_rewritten;
  blocked_cycles_ += r.loader.blocked_cycles;
  steer_events_ += r.steering.steer_events;
  grants_ += r.wakeup.grants;
  reschedules_ += r.wakeup.reschedules;
  busy_.resize(kNumFuTypes, 0);
  configured_.resize(kNumFuTypes, 0);
  for (unsigned t = 0; t < kNumFuTypes; ++t) {
    busy_[t] += r.engine.busy_unit_cycles[t];
    configured_[t] += r.engine.configured_unit_cycles[t];
  }
}

void SimCounts::add_multi(const MultiCoreResult& result) {
  for (const SimResult& core : result.cores) {
    add(core);
    ipc_cycles_ -= core.stats.cycles;
  }
  ipc_cycles_ += result.cycles;
  const FabricStats& f = result.fabric;
  port_denials_ += f.port_denials;
  grant_latency_sum_ += f.grant_latency.sum();
  grant_samples_ += f.grant_latency.count();
  slot_used_ += f.slot_cycles_used;
  slot_total_ += f.slot_cycles_total;
  steals_ += f.steal_events;
  repartitions_ += f.repartitions;
  any_multi_ = true;
}

void SimCounts::add_skip(std::uint64_t skipped_cycles,
                         std::uint64_t total_cycles, bool multicore) {
  if (multicore) {
    skip_multi_ += skipped_cycles;
    skip_multi_total_ += total_cycles;
  } else {
    skip_core_ += skipped_cycles;
    skip_core_total_ += total_cycles;
  }
}

double SimCounts::ipc() const {
  return ipc_cycles_ == 0 ? 0.0
                          : static_cast<double>(ipc_retired_) /
                                static_cast<double>(ipc_cycles_);
}

void SimCounts::report(Report& report) const {
  const auto ratio = [](std::uint64_t num, std::uint64_t den) {
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
  };
  report.metric("wakeup.grants_per_cycle", ratio(grants_, cycles_));
  report.metric("wakeup.reschedules", static_cast<double>(reschedules_));
  report.metric("sim.resource_starved_per_cycle",
                ratio(resource_starved_, cycles_));
  report.metric("sim.mispredict_rate", ratio(mispredicts_, branches_));
  report.metric("sim.avg_queue_occupancy", ratio(queue_occupancy_, cycles_));
  report.metric("tcache.hit_rate", ratio(tcache_hits_, tcache_lookups_));
  report.metric("loader.slots_rewritten",
                static_cast<double>(slots_rewritten_));
  report.metric("loader.blocked_cycles", static_cast<double>(blocked_cycles_));
  report.metric("steer.steer_events", static_cast<double>(steer_events_));
  for (unsigned t = 0; t < kNumFuTypes && t < busy_.size(); ++t) {
    report.metric("engine.util." + fu_metric_suffix(kAllFuTypes[t]),
                  ratio(busy_[t], configured_[t]));
  }
  // Skip shares: the denominator is every simulated cycle of the runs
  // traced with the skip mask.
  report.metric("core.skip_share", ratio(skip_core_, skip_core_total_));
  report.metric("multicore.skip_share", ratio(skip_multi_, skip_multi_total_));
  if (any_multi_) {
    report.metric("fabric.port_denials", static_cast<double>(port_denials_));
    report.metric("fabric.grant_latency_mean",
                  grant_samples_ == 0
                      ? 0.0
                      : grant_latency_sum_ /
                            static_cast<double>(grant_samples_));
    report.metric("fabric.utilization", ratio(slot_used_, slot_total_));
    report.metric("fabric.steal_events", static_cast<double>(steals_));
    report.metric("fabric.repartitions", static_cast<double>(repartitions_));
  } else {
    report.absent("fabric.");
  }
}

bool skip_cycles_in_trace(const std::string& path, std::uint64_t& cycles) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    return false;
  }
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  JsonValue doc;
  if (!parse_json_strict(text, doc)) {
    return false;
  }
  const JsonValue* events = doc.get("traceEvents");
  if (events == nullptr || events->kind != JsonValue::Kind::kArray) {
    return false;
  }
  cycles = 0;
  for (const JsonValue& event : events->array) {
    const JsonValue* cat = event.get("cat");
    const JsonValue* dur = event.get("dur");
    std::uint64_t value = 0;
    if (cat != nullptr && cat->kind == JsonValue::Kind::kString &&
        cat->string == "skip" && dur != nullptr && dur->as_u64(value)) {
      cycles += value;
    }
  }
  return true;
}

std::uint64_t file_size(const std::string& path) {
  struct stat st {};
  return stat(path.c_str(), &st) == 0 ? static_cast<std::uint64_t>(st.st_size)
                                      : 0;
}

MemFile::MemFile() {
  fd_ = memfd_create("steerbench-trace", 0);
  if (fd_ >= 0) {
    path_ = "/proc/self/fd/" + std::to_string(fd_);
  }
}

MemFile::~MemFile() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

std::uint64_t MemFile::size() const {
  struct stat st {};
  if (fd_ < 0 || fstat(fd_, &st) != 0) {
    return 0;
  }
  return static_cast<std::uint64_t>(st.st_size);
}

void MemFile::clear() {
  if (fd_ >= 0 && ftruncate(fd_, 0) != 0) {
    std::perror("steerbench: ftruncate");
  }
}

double alternating_overhead(const LoopResult& loop) {
  double sum[2] = {0.0, 0.0};
  std::uint64_t count[2] = {0, 0};
  for (std::size_t i = 0; i < loop.jobs.size(); ++i) {
    sum[i % 2] += loop.jobs[i].latency_s;
    ++count[i % 2];
  }
  if (count[0] == 0 || count[1] == 0 || sum[0] <= 0.0) {
    return 1.0;
  }
  return (sum[1] / static_cast<double>(count[1])) /
         (sum[0] / static_cast<double>(count[0]));
}

void report_observed(Report& report, const ObservedTotals& t) {
  report.metric("obs.trace_base_ms", t.plain_run_s * 1e3);
  report.metric("obs.trace_overhead", t.observed_run_s / t.plain_run_s);
  report.metric("obs.events", static_cast<double>(t.events));
  report.metric("obs.trace_mb", static_cast<double>(t.trace_bytes) / 1e6);
  report.metric("obs.trace_mb_per_s", static_cast<double>(t.trace_bytes) /
                                          1e6 /
                                          (t.observed_run_s + t.close_s));
  report.metric("obs.close_ms", t.close_s * 1e3 / t.runs);
}

void report_span_layers(Report& report, const SpanSet& spans,
                        double span_overhead) {
  const std::map<std::string, SpanTotals> totals = spans.by_name();
  const auto mean_ms = [&](const char* metric, const char* span) {
    const auto it = totals.find(span);
    if (it != totals.end() && it->second.count > 0) {
      report.metric(metric, it->second.total_s * 1e3 /
                                static_cast<double>(it->second.count));
    }
  };
  mean_ms("workload.generate_ms", "workload.generate");
  mean_ms("isa.assemble_ms", "isa.assemble");
  mean_ms("frontend.elf_load_ms", "frontend.elf_load");
  mean_ms("sim.build_ms", "sim.build");
  mean_ms("sim.collect_ms", "sim.collect");
  mean_ms("multicore.collect_ms", "multicore.collect");

  // Host cost per simulated cycle: Processor::run on single-core jobs,
  // MultiCoreSim::run (per core-cycle) where no single-core run exists.
  const auto run = totals.find("sim.run");
  const auto multi = totals.find("multicore.run");
  const SpanTotals* core =
      run != totals.end() ? &run->second
                          : (multi != totals.end() ? &multi->second : nullptr);
  if (core != nullptr && core->cycles > 0 && core->retired > 0) {
    report.metric("core.ns_per_cycle",
                  core->total_s * 1e9 / static_cast<double>(core->cycles));
    report.metric("core.ns_per_retired",
                  core->total_s * 1e9 / static_cast<double>(core->retired));
  }
  if (multi != totals.end() && multi->second.rounds > 0) {
    report.metric("multicore.ns_per_round",
                  multi->second.total_s * 1e9 /
                      static_cast<double>(multi->second.rounds));
  }

  const double root = spans.root_seconds();
  const std::map<std::string, double> self = spans.self_by_layer();
  for (const char* layer : {"bench", "workload", "isa", "frontend", "sim",
                            "multicore", "obs", "svc"}) {
    const auto it = self.find(layer);
    report.metric(std::string("self.") + layer,
                  it == self.end() || root <= 0.0
                      ? 0.0
                      : 100.0 * it->second / root);
  }
  report.metric("span.count", static_cast<double>(spans.size()));
  report.metric("span.overhead", span_overhead);
}

}  // namespace steerbench
