// svc_mixed: a closed loop over the AF_UNIX socket against an in-process
// SocketServer/SimService. Each of nproc clients waits for its reply before
// sending the next job, the way steersim_client and sweep scripts drive
// steersimd. The seeded job stream mixes synthetic assembly, named kernels,
// RV32 ELF fixtures and multi-core jobs across policies and machine knobs;
// about a quarter are exact repeats of a recent job, so cache hits run
// beside cache inserts.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <set>
#include <span>
#include <thread>
#include <tuple>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "frontend/elf_loader.hpp"
#include "harness.hpp"
#include "isa/assembler.hpp"
#include "sim/sweep.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"
#include "workload/kernels.hpp"
#include "workload/mix.hpp"
#include "workload/rv32_fixtures.hpp"
#include "workload/synthetic.hpp"

namespace steerbench {

using namespace steersim;
using namespace steersim::svc;

namespace {

/// Repetitions of each set-up part; setup_s sums their medians.
constexpr unsigned kSetupReps = 8;
/// Share of jobs that repeat a recent fresh job, kept well away from one
/// half so the latency median never straddles hit and miss latency.
constexpr double kRepeatShare = 0.25;
/// A repeat copies one of the last kRepeatWindow fresh jobs, skipping the
/// newest kRepeatGap (likely still in flight on another client).
constexpr unsigned kRepeatWindow = 48;
constexpr unsigned kRepeatGap = 8;
/// Upper bound on jobs a run can issue per second of measurement; the
/// stream is generated this long up front.
constexpr unsigned kMaxJobsPerSecond = 2000;
/// The longest ELF fixture (~54k cycles) runs as a single-core job only: in
/// a lockstep multi-core job it would set the job's length and dominate
/// the latency tail.
constexpr std::string_view kLongFixture = "rv32_phases";
/// The latency tail reported: a ten-second run has thousands of jobs, so
/// well over ten samples lie beyond p99.
constexpr double kTailQuantile = 0.99;
/// The service's default cycle budget; every job halts well within it.
constexpr std::uint64_t kBudget = 200'000;

enum class Kind : std::uint8_t { kAsm, kKernel, kElf, kMulti };

const std::vector<std::string>& policies() {
  static const std::vector<std::string> names = {
      "steered",       "static-ffu",    "static-integer", "static-memory",
      "static-float",  "full-reconfig", "greedy",         "oracle"};
  return names;
}

struct CoreDesc {
  bool elf = false;
  unsigned program = 0;  ///< kernel or fixture index
  unsigned policy = 0;
};

/// One job of the stream, before its request is rendered.
struct JobDesc {
  Kind kind = Kind::kAsm;
  std::uint64_t synth_seed = 0;
  unsigned program = 0;  ///< kernel or fixture index
  unsigned policy = 0;
  unsigned ruu = 32, queue = 7, fetch = 4;
  unsigned interval = 1, confirm = 1;
  std::vector<CoreDesc> cores;  ///< kMulti only
  unsigned arbiter = 0;
  bool repeat = false;

  auto key() const {
    std::vector<std::tuple<bool, unsigned, unsigned>> c;
    for (const CoreDesc& d : cores) {
      c.emplace_back(d.elf, d.program, d.policy);
    }
    return std::tuple(kind, synth_seed, program, policy, ruu, queue, fetch,
                      interval, confirm, c, arbiter);
  }
};

template <typename T>
const T& pick(Xoshiro256& rng, const std::vector<T>& values) {
  return values[rng.next_below(values.size())];
}

JobDesc fresh_job(Xoshiro256& rng, std::uint64_t serial) {
  JobDesc d;
  const double u = rng.next_double();
  d.kind = u < 0.40   ? Kind::kAsm
           : u < 0.70 ? Kind::kKernel
           : u < 0.85 ? Kind::kElf
                      : Kind::kMulti;
  d.synth_seed = d.kind == Kind::kAsm ? serial + 1 : 0;
  if (d.kind == Kind::kKernel) {
    d.program = static_cast<unsigned>(rng.next_below(kernel_library().size()));
  } else if (d.kind == Kind::kElf) {
    d.program =
        static_cast<unsigned>(rng.next_below(rv32_fixture_library().size()));
  }
  d.policy = static_cast<unsigned>(rng.next_below(policies().size()));
  d.ruu = pick(rng, std::vector<unsigned>{16, 24, 32, 48});
  d.queue = pick(rng, std::vector<unsigned>{5, 6, 7, 8});
  d.fetch = pick(rng, std::vector<unsigned>{2, 4});
  d.interval = pick(rng, std::vector<unsigned>{1, 2, 4});
  d.confirm = pick(rng, std::vector<unsigned>{1, 2});
  if (d.kind == Kind::kMulti) {
    d.policy = 0;
    const auto n = 2 + static_cast<unsigned>(rng.next_below(3));
    for (unsigned c = 0; c < n; ++c) {
      CoreDesc core;
      core.elf = rng.next_bool(0.3);
      do {
        core.program = static_cast<unsigned>(
            rng.next_below(core.elf ? rv32_fixture_library().size()
                                    : kernel_library().size()));
      } while (core.elf &&
               rv32_fixture_library()[core.program].name == kLongFixture);
      core.policy = static_cast<unsigned>(rng.next_below(policies().size()));
      d.cores.push_back(core);
    }
    d.arbiter = static_cast<unsigned>(rng.next_below(all_arbiters().size()));
  }
  return d;
}

/// The seeded job stream: fresh jobs are pairwise distinct (a fresh job
/// never hits the cache by accident); repeats copy a recent fresh job.
std::vector<JobDesc> job_stream(std::uint64_t seed, std::size_t length) {
  Xoshiro256 rng(seed * 7919 + 17);
  std::vector<JobDesc> stream;
  std::vector<std::size_t> fresh;  // stream indices of fresh jobs
  std::set<decltype(JobDesc{}.key())> seen;
  while (stream.size() < length) {
    if (fresh.size() > kRepeatGap && rng.next_bool(kRepeatShare)) {
      const std::size_t span =
          std::min<std::size_t>(kRepeatWindow, fresh.size() - kRepeatGap);
      const std::size_t back = kRepeatGap + rng.next_below(span);
      JobDesc d = stream[fresh[fresh.size() - 1 - back]];
      d.repeat = true;
      stream.push_back(std::move(d));
      continue;
    }
    JobDesc d = fresh_job(rng, stream.size());
    if (!seen.insert(d.key()).second) {
      continue;
    }
    fresh.push_back(stream.size());
    stream.push_back(std::move(d));
  }
  return stream;
}

/// The fixed set: fresh jobs of the stream, taken in order until every
/// cell of a fixed composition is full. Per policy, six synthetic-assembly
/// and four kernel jobs; one job per (ELF fixture, policy); sixteen
/// multi-core jobs. It is simulated in-process on every run, whatever the
/// service completed: the set behind sim_ipc and the simulated per-layer
/// counts, with a composition that does not vary with the seed.
std::vector<std::size_t> fixed_set(const std::vector<JobDesc>& stream) {
  std::map<std::tuple<Kind, unsigned, unsigned>, unsigned> taken;
  std::vector<std::size_t> out;
  for (std::size_t n = 0; n < stream.size(); ++n) {
    const JobDesc& d = stream[n];
    if (d.repeat) {
      continue;
    }
    unsigned quota = 16;
    auto cell = std::tuple(d.kind, 0u, 0u);
    switch (d.kind) {
      case Kind::kAsm:
        quota = 6;
        cell = {d.kind, 0u, d.policy};
        break;
      case Kind::kKernel:
        quota = 4;
        cell = {d.kind, 0u, d.policy};
        break;
      case Kind::kElf:
        quota = 1;
        cell = {d.kind, d.program, d.policy};
        break;
      case Kind::kMulti:
        break;
    }
    if (taken[cell] < quota) {
      ++taken[cell];
      out.push_back(n);
    }
  }
  return out;
}

SyntheticSpec asm_spec(std::uint64_t synth_seed) {
  SyntheticSpec spec;
  spec.name = "svc_asm";
  spec.seed = synth_seed;
  std::vector<MixSpec> mixes = standard_mixes();
  Xoshiro256 rng(synth_seed);
  for (std::size_t i = mixes.size(); i > 1; --i) {
    std::swap(mixes[i - 1], mixes[rng.next_below(i)]);
  }
  for (const MixSpec& mix : mixes) {
    spec.phases.push_back({mix, 48, 24});
  }
  return spec;
}

Request build_request(const JobDesc& d, std::uint64_t serial, SpanLog* log) {
  Request r;
  r.type = RequestType::kSubmit;
  r.id = std::to_string(serial);
  switch (d.kind) {
    case Kind::kAsm: {
      SpanScope s(log, "workload.generate");
      r.asm_source = generate_synthetic_asm(asm_spec(d.synth_seed));
      break;
    }
    case Kind::kKernel:
      r.kernel = kernel_library()[d.program].name;
      break;
    case Kind::kElf:
      r.elf = rv32_fixture_library()[d.program].name;
      break;
    case Kind::kMulti:
      for (const CoreDesc& c : d.cores) {
        MultiEntry e;
        (c.elf ? e.elf : e.kernel) =
            c.elf ? rv32_fixture_library()[c.program].name
                  : kernel_library()[c.program].name;
        e.policy = policies()[c.policy];
        r.multi.push_back(e);
      }
      r.arbiter = std::string(arbiter_name(all_arbiters()[d.arbiter]));
      break;
  }
  if (d.kind != Kind::kMulti) {
    r.policy = policies()[d.policy];
  }
  r.interval = d.interval;
  r.confirm = d.confirm;
  r.config = {{"fetch_width", static_cast<double>(d.fetch)},
              {"queue_entries", static_cast<double>(d.queue)},
              {"ruu_entries", static_cast<double>(d.ruu)}};
  return r;
}

/// What an in-process simulation of a job produced.
struct LocalResult {
  bool ok = false;
  std::string error;
  std::uint64_t cycles = 0;       ///< rounds for multi-core jobs
  std::uint64_t core_cycles = 0;  ///< per-core sum
  std::uint64_t retired = 0;
  double seconds = 0.0;  ///< build + run + collect
  double run_s = 0.0;    ///< Processor::run / MultiCoreSim::run only
  /// With a machine tracer attached: tracer close time (for multi-core
  /// jobs, collect(), which closes and merges the per-core traces) and
  /// events recorded.
  double close_s = 0.0;
  std::uint64_t events = 0;
  SimResult single;
  MultiCoreResult multi;
};

PolicySpec policy_spec(unsigned policy, const JobDesc& d) {
  PolicySpec spec;
  parse_policy(policies()[policy], spec);
  spec.interval = d.interval;
  spec.confirm = d.confirm;
  return spec;
}

MachineConfig machine(const JobDesc& d) {
  MachineConfig cfg;
  cfg.ruu_entries = d.ruu;
  cfg.queue_entries = d.queue;
  cfg.fetch_width = d.fetch;
  return cfg;
}

Program load_program(bool elf, unsigned index, SpanLog* log) {
  if (elf) {
    const std::vector<std::uint8_t> image =
        rv32_fixture_elf(rv32_fixture_library()[index]);
    SpanScope s(log, "frontend.elf_load");
    return elf::load_elf_program(
        std::span<const std::uint8_t>(image.data(), image.size()),
        rv32_fixture_library()[index].name);
  }
  const Kernel& kernel = kernel_library()[index];
  SpanScope s(log, "isa.assemble");
  return assemble(kernel.source, kernel.name);
}

/// Simulates a job in-process through the library's public entry points,
/// independently of the service. With `check_ref`, every program's final
/// state is also compared against ReferenceInterpreter. `trace` (optional)
/// attaches a machine tracer config.
LocalResult simulate_local(const JobDesc& d, SpanLog* log, bool check_ref,
                           const TraceConfig* trace = nullptr) {
  LocalResult out;
  SpanScope root(log, "bench.replay");
  MachineConfig cfg = machine(d);
  if (trace != nullptr) {
    cfg.trace = *trace;
  }
  try {
    if (d.kind == Kind::kMulti) {
      std::vector<CoreSpec> cores;
      for (const CoreDesc& c : d.cores) {
        cores.push_back({load_program(c.elf, c.program, log),
                         policy_spec(c.policy, d)});
      }
      MultiCoreParams params;
      parse_arbiter(std::string(arbiter_name(all_arbiters()[d.arbiter])),
                    params.arbiter);
      params.machine = cfg;
      const double t0 = now_s();
      std::unique_ptr<MultiCoreSim> sim;
      {
        SpanScope s(log, "multicore.build");
        sim = std::make_unique<MultiCoreSim>(cores, params);
      }
      RunOutcome outcome;
      {
        SpanScope s(log, "multicore.run");
        const double r0 = now_s();
        outcome = sim->run(kBudget);
        out.run_s = now_s() - r0;
        std::uint64_t cycles = 0, retired = 0;
        for (unsigned c = 0; c < sim->num_cores(); ++c) {
          cycles += sim->core(c).stats().cycles;
          retired += sim->core(c).stats().retired;
        }
        s.set_counts(cycles, retired, sim->cycles());
      }
      const double t1 = now_s();
      {
        SpanScope s(log, "multicore.collect");
        out.multi = sim->collect();
      }
      out.seconds = now_s() - t0;
      if (trace != nullptr) {
        out.close_s = now_s() - t1;
        for (unsigned c = 0; c < sim->num_cores(); ++c) {
          out.events += sim->core(c).tracer()->events_emitted();
        }
      }
      out.cycles = out.multi.cycles;
      out.retired = out.multi.fabric.total_retired;
      for (const SimResult& core : out.multi.cores) {
        out.core_cycles += core.stats.cycles;
      }
      out.ok = outcome == RunOutcome::kHalted;
      if (!out.ok) {
        out.error = "multi-core job did not halt";
      }
      for (unsigned c = 0; check_ref && c < cores.size(); ++c) {
        if (std::string diff = check_reference(cores[c].program, sim->core(c));
            !diff.empty()) {
          out.ok = false;
          out.error = "core " + std::to_string(c) + ": " + diff;
        }
      }
      return out;
    }
    Program program;
    if (d.kind == Kind::kAsm) {
      std::string source;
      {
        SpanScope s(log, "workload.generate");
        source = generate_synthetic_asm(asm_spec(d.synth_seed));
      }
      SpanScope s(log, "isa.assemble");
      program = assemble(source, "asm");
    } else {
      program = load_program(d.kind == Kind::kElf, d.program, log);
    }
    const PolicySpec spec = policy_spec(d.policy, d);
    const double t0 = now_s();
    std::unique_ptr<Processor> cpu;
    {
      SpanScope s(log, "sim.build");
      cpu = make_processor(program, cfg, spec);
    }
    RunOutcome outcome;
    {
      SpanScope s(log, "sim.run");
      const double r0 = now_s();
      outcome = cpu->run(kBudget);
      out.run_s = now_s() - r0;
      s.set_counts(cpu->stats().cycles, cpu->stats().retired);
    }
    {
      SpanScope s(log, "sim.collect");
      out.single = collect_result(*cpu, spec, outcome);
    }
    out.seconds = now_s() - t0;
    if (trace != nullptr) {
      const double t1 = now_s();
      cpu->tracer()->close();
      out.close_s = now_s() - t1;
      out.events = cpu->tracer()->events_emitted();
    }
    out.cycles = out.core_cycles = out.single.stats.cycles;
    out.retired = out.single.stats.retired;
    out.ok = outcome == RunOutcome::kHalted;
    if (!out.ok) {
      out.error = "job did not halt";
    }
    if (check_ref) {
      if (std::string diff = check_reference(program, *cpu); !diff.empty()) {
        out.ok = false;
        out.error = diff;
      }
    }
  } catch (const std::exception& e) {
    out.ok = false;
    out.error = e.what();
  }
  return out;
}

/// One reply as the checks need it.
struct Record {
  std::uint64_t serial = 0;
  double latency_s = 0.0;
  double end_s = 0.0;  ///< completion, seconds after the loop began
  bool ok = false;  ///< a halted result
  bool hit = false;
  std::uint64_t digest = 0;
  std::uint64_t cycles = 0;
  std::uint64_t retired = 0;
  std::uint64_t body = 0;  ///< hash of the reply with id and cache cleared
  std::string error;
};

/// A started service: SimService, SocketServer on its own thread, and one
/// connected client per client thread.
class Stack {
 public:
  Stack(const std::string& socket_path, unsigned workers, unsigned clients) {
    ServiceConfig config;
    config.workers = workers;
    service_ = std::make_unique<SimService>(config);
    server_ = std::make_unique<SocketServer>(*service_,
                                             ServerOptions{socket_path});
    ok_ = server_->listen();
    if (!ok_) {
      return;
    }
    thread_ = std::thread([this] { server_->serve(); });
    for (unsigned c = 0; c < clients; ++c) {
      ClientOptions options;
      options.socket_path = socket_path;
      options.jitter_seed = c + 1;
      clients_.push_back(std::make_unique<SteersimClient>(options));
      Request ping;
      ping.type = RequestType::kPing;
      if (clients_.back()->call(ping).type != ReplyType::kPong) {
        ok_ = false;
      }
    }
  }
  ~Stack() {
    clients_.clear();
    if (server_ != nullptr) {
      server_->stop();
    }
    if (thread_.joinable()) {
      thread_.join();
    }
  }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  bool ok() const { return ok_; }
  SimService& service() { return *service_; }
  SteersimClient& client(unsigned c) { return *clients_[c]; }

 private:
  std::unique_ptr<SimService> service_;
  std::unique_ptr<SocketServer> server_;
  std::thread thread_;
  std::vector<std::unique_ptr<SteersimClient>> clients_;
  bool ok_ = false;
};

struct Frame {
  Request request;
  Reply reply;
};

struct ClosedLoop {
  std::vector<Record> records;
  /// With spans: the first request/reply pairs of each client, for the
  /// protocol cost measurement.
  std::vector<Frame> frames;
  double wall_s = 0.0;
  std::uint64_t queue_depth_max = 0;
};

/// Runs the closed loop for `seconds`: each client takes the next job of
/// the stream, renders it (outside its latency), calls, and records. A
/// monitor thread samples SimService::stats() for the queue depth. With
/// `spans`, jobs with an odd serial record spans and even ones do not.
ClosedLoop closed_loop(Stack& stack, unsigned clients,
                       const std::vector<JobDesc>& stream,
                       std::atomic<std::size_t>& next, double seconds,
                       SpanSet* spans) {
  ClosedLoop out;
  std::vector<std::vector<Record>> per_client(clients);
  std::vector<std::vector<Frame>> frames(clients);
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> depth_max{0};
  const double start = now_s();
  const double deadline = start + seconds;
  {
    std::vector<std::jthread> threads;
    for (unsigned c = 0; c < clients; ++c) {
      SpanLog* log = spans ? spans->new_log() : nullptr;
      threads.emplace_back([&, c, log] {
        while (now_s() < deadline) {
          const std::size_t n = next.fetch_add(1);
          if (n >= stream.size()) {
            return;
          }
          SpanLog* job_log = n % 2 == 1 ? log : nullptr;
          SpanScope root(job_log, "bench.job", n + 1);
          const Request request = build_request(stream[n], n, job_log);
          Record rec;
          rec.serial = n;
          Reply reply;
          const double t0 = now_s();
          {
            SpanScope s(job_log, "svc.call");
            reply = stack.client(c).call(request);
          }
          rec.latency_s = now_s() - t0;
          rec.end_s = now_s() - start;
          rec.ok = reply.type == ReplyType::kResult && reply.outcome == "halted";
          if (!rec.ok) {
            rec.error = reply.type == ReplyType::kError
                            ? reply.code + ": " + reply.message
                            : "unexpected reply type";
          }
          rec.hit = reply.cache == "hit";
          rec.digest = fnv1a(reply.digest);
          rec.cycles = reply.cycles;
          rec.retired = reply.retired;
          if (spans != nullptr && frames[c].size() < 64) {
            frames[c].push_back({request, reply});
          }
          reply.id.clear();
          reply.cache.clear();
          rec.body = fnv1a(reply.to_json());
          per_client[c].push_back(std::move(rec));
        }
      });
    }
    SpanLog* monitor_log = spans ? spans->new_log() : nullptr;
    threads.emplace_back([&, monitor_log] {
      while (!done.load()) {
        std::uint64_t depth = 0;
        {
          SpanScope s(monitor_log, "svc.stats");
          depth = stack.service().stats().queue_depth;
        }
        if (depth > depth_max.load()) {
          depth_max.store(depth);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });
    // Client threads join first (they stop at the deadline); then the
    // monitor is told to stop.
    for (unsigned c = 0; c < clients; ++c) {
      threads[c].join();
    }
    out.wall_s = now_s() - start;
    done.store(true);
  }
  for (unsigned c = 0; c < clients; ++c) {
    out.records.insert(out.records.end(), per_client[c].begin(),
                       per_client[c].end());
    out.frames.insert(out.frames.end(), frames[c].begin(), frames[c].end());
  }
  out.queue_depth_max = depth_max.load();
  return out;
}

}  // namespace

void run_svc(const Options& options, Report& report, SpanSet& spans) {
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  // Half the host's CPUs: client, connection and server threads need CPU
  // too, and an oversubscribed host turns scheduler noise into latency.
  const unsigned workers = std::max(1u, nproc / 2);
  const unsigned clients = workers;
  const std::string socket_path =
      options.out_dir + "/svc-" + std::to_string(getpid()) + ".sock";

  // The seeded job stream is the benchmark's own bookkeeping and is not
  // timed; its length bounds the jobs a run can issue.
  const auto stream_length =
      static_cast<std::size_t>(kMaxJobsPerSecond * options.seconds) + 1000;
  const std::vector<JobDesc> stream = job_stream(options.seed, stream_length);
  const std::vector<std::size_t> fixed_jobs = fixed_set(stream);

  // Set-up: generating the programs of the fixed set's synthetic-assembly
  // jobs (a sample whose size does not grow with --seconds; in the loop each
  // client generates its asm job's program outside the job's latency), then
  // starting the service and server and connecting every client. Each part
  // repeats and setup_s is the sum of their medians; generation repeats
  // across the CPUs, start-up unpinned (its threads would inherit a pin).
  // The previous repetition's teardown is not timed.
  std::vector<std::uint64_t> asm_sample;
  for (const std::size_t n : fixed_jobs) {
    if (stream[n].kind == Kind::kAsm) {
      asm_sample.push_back(stream[n].synth_seed);
    }
  }
  std::size_t generated_bytes = 0;
  const auto generate = [&](SpanLog* log) {
    generated_bytes = 0;
    for (const std::uint64_t synth_seed : asm_sample) {
      SpanScope s(log, "workload.generate");
      generated_bytes += generate_synthetic_asm(asm_spec(synth_seed)).size();
    }
  };
  const double generate_s =
      median_setup_seconds(kSetupReps, [&] { generate(nullptr); });
  std::unique_ptr<Stack> stack;
  std::vector<double> start_times;
  for (unsigned rep = 0; rep < kSetupReps; ++rep) {
    stack.reset();
    const double t0 = now_s();
    stack = std::make_unique<Stack>(socket_path, workers, clients);
    start_times.push_back(now_s() - t0);
  }
  const double start_s = median(start_times);
  const double setup_s = generate_s + start_s;
  report.note("setup_generate_s",
              json_number(generate_s) + " (" +
                  std::to_string(asm_sample.size()) +
                  " synthetic-assembly programs, " +
                  std::to_string(generated_bytes) + " bytes)");
  report.note("setup_start_s", json_number(start_s) +
                                   " (service start, listen, " +
                                   std::to_string(clients) +
                                   " clients connected)");
  if (options.trace) {
    SpanLog* log = spans.new_log();
    stack.reset();
    SpanScope root(log, "bench.setup");
    generate(log);
    SpanScope s(log, "svc.start");
    stack = std::make_unique<Stack>(socket_path, workers, clients);
  }
  report.attempt();
  if (!stack->ok()) {
    report.fail("service did not start or a client could not connect");
    return;
  }

  std::atomic<std::size_t> next{0};
  const ClosedLoop loop =
      closed_loop(*stack, clients, stream, next, options.seconds,
                  options.trace ? &spans : nullptr);
  // Memory of the workload itself, before the verification's own runs.
  report.metric("peak_rss_mb", peak_rss_mb());
  if (next.load() >= stream.size()) {
    report.fail("job stream exhausted: raise kMaxJobsPerSecond");
  }
  const ServiceStats stats = stack->service().stats();

  // Pings and the protocol cost of the workload's own frames.
  std::vector<double> ping_us;
  SpanLog* probe_log = options.trace ? spans.new_log() : nullptr;
  if (options.trace) {
    Request ping;
    ping.type = RequestType::kPing;
    for (int i = 0; i < 200; ++i) {
      const double t0 = now_s();
      SpanScope s(probe_log, "svc.ping");
      stack->client(0).call(ping);
      ping_us.push_back((now_s() - t0) * 1e6);
    }
  }
  stack.reset();
  std::remove(socket_path.c_str());

  // Checks. Every reply must be a halted result; every hit must be
  // byte-identical to the miss that filled its cache entry; every distinct
  // cold job must match an in-process simulation.
  std::map<std::uint64_t, const Record*> miss_by_digest;
  for (const Record& r : loop.records) {
    if (r.ok && !r.hit) {
      miss_by_digest.emplace(r.digest, &r);
    }
  }
  // Client-observed latency and simulated work per job, indexed by serial
  // (the clients claim serials in order, so they are contiguous).
  LoopResult timed;
  timed.wall_s = loop.wall_s;
  for (const Record& r : loop.records) {
    timed.jobs.resize(std::max<std::size_t>(timed.jobs.size(), r.serial + 1));
    timed.jobs[r.serial].latency_s = r.latency_s;
    timed.jobs[r.serial].end_s = r.end_s;
  }
  std::vector<double> hit_us;
  std::vector<const Record*> cold;
  for (const Record& r : loop.records) {
    report.attempt();
    if (!r.ok) {
      report.fail("job " + std::to_string(r.serial) + ": " + r.error);
      continue;
    }
    if (r.hit) {
      hit_us.push_back(r.latency_s * 1e6);
      const auto miss = miss_by_digest.find(r.digest);
      if (miss == miss_by_digest.end() || miss->second->body != r.body) {
        report.fail("job " + std::to_string(r.serial) +
                    ": cache hit differs from its miss");
        continue;
      }
    } else {
      cold.push_back(&r);
    }
  }
  std::map<std::uint64_t, std::size_t> cold_index;  // digest -> job slot
  std::vector<std::function<LocalResult()>> cold_jobs;
  for (const Record* r : cold) {
    if (cold_index.emplace(r->digest, cold_jobs.size()).second) {
      const JobDesc& d = stream[r->serial];
      cold_jobs.push_back([&d] { return simulate_local(d, nullptr, false); });
    }
  }
  const double cold_start = now_s();
  const std::vector<LocalResult> local =
      parallel_map(cold_jobs, std::max(1u, nproc));
  std::vector<double> local_ms;
  for (const LocalResult& l : local) {
    local_ms.push_back(l.seconds * 1e3);
  }
  // Simulated work per reply: cold jobs only (a hit simulates nothing),
  // per-core cycles for multi-core jobs.
  for (const Record* r : cold) {
    const LocalResult& l = local[cold_index.at(r->digest)];
    timed.jobs[r->serial].cycles = l.core_cycles;
    timed.jobs[r->serial].retired = r->retired;
    if (!l.ok || l.cycles != r->cycles || l.retired != r->retired) {
      report.fail("job " + std::to_string(r->serial) +
                  ": reply cycles/retired differ from in-process simulate()" +
                  (l.error.empty() ? "" : " (" + l.error + ")"));
    }
  }

  // The fixed set: reference equivalence, simulated counts, skip shares.
  // Each job runs plain and then with the skip-only tracer; jobs run in
  // parallel and are summed in stream order. In the traced pass each job
  // then replays twice more, once recording spans (one span log per job)
  // and once bare, in alternating order: span.overhead compares the two on
  // the same inputs.
  struct FixedRun {
    LocalResult plain;
    LocalResult traced;
    bool parsed = false;
    std::uint64_t skipped = 0;
    std::uint64_t trace_bytes = 0;
    double spanned_s = 0.0;
    double bare_s = 0.0;
  };
  const double fixed_start = now_s();
  report.note("cold_check_s", std::to_string(fixed_start - cold_start));
  const auto fixed = static_cast<unsigned>(fixed_jobs.size());
  std::vector<std::function<FixedRun()>> fixed_work;
  for (std::size_t i = 0; i < fixed_jobs.size(); ++i) {
    const std::size_t n = fixed_jobs[i];
    SpanLog* log = options.trace ? spans.new_log() : nullptr;
    fixed_work.push_back([&, i, n, log] {
      FixedRun run;
      run.plain = simulate_local(stream[n], nullptr, true);
      TraceConfig skip;
      skip.enabled = true;
      skip.categories = trace_cat::kSkip;
      skip.path = options.out_dir + "/skip-" + std::to_string(getpid()) +
                  "-" + std::to_string(n) + ".json";
      run.traced = simulate_local(stream[n], nullptr, false, &skip);
      run.trace_bytes = file_size(skip.path);
      run.parsed = skip_cycles_in_trace(skip.path, run.skipped);
      std::remove(skip.path.c_str());
      if (log != nullptr) {
        const auto replay = [&](SpanLog* l) {
          const double t0 = now_s();
          simulate_local(stream[n], l, false);
          return now_s() - t0;
        };
        if (i % 2 == 0) {
          run.spanned_s = replay(log);
          run.bare_s = replay(nullptr);
        } else {
          run.bare_s = replay(nullptr);
          run.spanned_s = replay(log);
        }
      }
      return run;
    });
  }
  // Half the CPUs: a traced multi-core run holds one 32 MiB tracer buffer
  // per core plus one for the fabric.
  const std::vector<FixedRun> fixed_runs = parallel_map(fixed_work, workers);
  SimCounts counts;
  ObservedTotals observed;
  for (std::size_t i = 0; i < fixed_runs.size(); ++i) {
    const FixedRun& run = fixed_runs[i];
    const std::string label = "fixed-set job " + std::to_string(fixed_jobs[i]);
    const bool multi = stream[fixed_jobs[i]].kind == Kind::kMulti;
    report.attempt();
    if (!run.plain.ok) {
      report.fail(label + ": " + run.plain.error);
      continue;
    }
    if (multi) {
      counts.add_multi(run.plain.multi);
    } else {
      counts.add(run.plain.single);
    }
    observed.plain_run_s += run.plain.run_s;
    observed.observed_run_s += run.traced.run_s;
    observed.close_s += run.traced.close_s;
    observed.events += run.traced.events;
    observed.trace_bytes += run.trace_bytes;
    if (!run.parsed) {
      report.fail(label + ": skip-only trace does not parse");
    }
    counts.add_skip(run.skipped, run.traced.core_cycles, multi);
    const bool same =
        multi ? fnv1a(collect_multicore_metrics(run.traced.multi).to_json()) ==
                    fnv1a(collect_multicore_metrics(run.plain.multi).to_json())
              : stats_digest(run.traced.single) ==
                    stats_digest(run.plain.single);
    if (!same) {
      report.fail(label + ": skip-traced stats differ from the plain run");
    }
  }

  const std::uint64_t hits = stats.cache_hits;
  const std::uint64_t lookups = stats.cache_hits + stats.cache_misses;
  report.note("clients", std::to_string(clients) + " closed-loop clients, " +
                             std::to_string(workers) + " workers");
  report.note("jobs", std::to_string(loop.records.size()) + " (" +
                          std::to_string(hit_us.size()) + " cache hits)");
  report.note("fixed_set", std::to_string(fixed) + " fresh jobs, checked in " +
                               std::to_string(now_s() - fixed_start) + " s");

  if (!options.trace) {
    report_throughput(report, timed, RateEstimate::kWindowMedian,
                      kTailQuantile);
    report.metric("sim_ipc", counts.ipc());
    report.metric("setup_s", setup_s);
    return;
  }

  // Protocol: encode and parse of the workload's own request/reply frames.
  SpanLog* proto_log = spans.new_log();
  double proto_s = 0.0;
  for (const Frame& f : loop.frames) {
    const double t0 = now_s();
    std::string error;
    {
      SpanScope s(proto_log, "svc.encode");
      const std::string req = f.request.to_json();
      const std::string rep = f.reply.to_json();
      SpanScope p(proto_log, "svc.parse");
      Request rq;
      Reply rp;
      if (!Request::parse(req, rq, error) || !Reply::parse(rep, rp, error) ||
          !(rq == f.request)) {
        report.fail("protocol round trip failed: " + error);
      }
    }
    proto_s += now_s() - t0;
  }

  std::vector<double> span_ratios;
  for (const FixedRun& run : fixed_runs) {
    if (run.bare_s > 0.0) {
      span_ratios.push_back(run.spanned_s / run.bare_s);
    }
  }
  report_span_layers(report, spans, median(span_ratios));
  counts.report(report);
  report.metric("svc.ping_us", median(ping_us));
  report.metric("svc.protocol_us",
                loop.frames.empty()
                    ? 0.0
                    : proto_s * 1e6 / static_cast<double>(loop.frames.size()));
  report.metric("svc.hit_us", median(hit_us));
  report.metric("svc.sim_ms", local_ms.empty() ? 0.0 : median(local_ms));
  report.metric("svc.cache_hit_ratio",
                lookups == 0 ? 0.0
                             : static_cast<double>(hits) /
                                   static_cast<double>(lookups));
  report.metric("svc.cache_evictions",
                static_cast<double>(stats.cache_evictions));
  report.metric("svc.admit_p50_ms", stats.latency_p50_ms);
  report.metric("svc.queue_depth_max",
                static_cast<double>(loop.queue_depth_max));
  observed.runs = fixed;
  report_observed(report, observed);
}

}  // namespace steerbench
