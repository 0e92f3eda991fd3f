// In-memory span recording for the benchmark's traced pass.
//
// Spans are recorded by the benchmark around its calls into steersim's
// public functions (never inside the library): each holds a name
// ("layer.call"), start and end, its parent span and a job id shared by
// every span of one job. A thread records into its own SpanLog with no
// locking; a SpanSet owns the logs and, after the run, writes them out as
// one Chrome trace document (Perfetto opens it) and derives per-name and
// per-layer totals, where a layer's self time is its spans' duration minus
// the part their child spans cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace steerbench {

struct Span {
  const char* name = "";  ///< static "layer.call" literal
  std::uint64_t job = 0;  ///< shared by every span of one job; 0 = none
  std::int32_t parent = -1;  ///< index in the same log; -1 = root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Simulated work the span covered, where meaningful: per-core cycle
  /// sum, retired instructions, lockstep rounds.
  std::uint64_t cycles = 0;
  std::uint64_t retired = 0;
  std::uint64_t rounds = 0;
};

/// One thread's spans. Not thread-safe: exactly one recording thread.
class SpanLog {
 public:
  explicit SpanLog(unsigned tid) : tid_(tid) {}
  unsigned tid() const { return tid_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  friend class SpanScope;
  unsigned tid_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;  ///< stack of open span indices
};

/// RAII span: opens on construction, closes on destruction. A null log
/// records nothing, so untraced runs pay one branch per scope.
class SpanScope {
 public:
  /// `job` = 0 inherits the enclosing span's job id.
  SpanScope(SpanLog* log, const char* name, std::uint64_t job = 0);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  void set_counts(std::uint64_t cycles, std::uint64_t retired,
                  std::uint64_t rounds = 0);

 private:
  SpanLog* log_;
  std::int32_t index_ = -1;
};

/// Per-name aggregate over a span set.
struct SpanTotals {
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
  std::uint64_t cycles = 0;
  std::uint64_t retired = 0;
  std::uint64_t rounds = 0;
};

class SpanSet {
 public:
  /// A new log for the calling thread; stable address until the set dies.
  SpanLog* new_log();

  std::size_t size() const;
  /// Totals keyed by span name.
  std::map<std::string, SpanTotals> by_name() const;
  /// Self time summed by layer (the name's part before the first '.').
  std::map<std::string, double> self_by_layer() const;
  /// Summed duration of root spans.
  double root_seconds() const;

  /// Writes a Chrome trace-event document ("ph":"X" events, microsecond
  /// timestamps; args carry span, parent, job and the simulated counts).
  /// False on I/O error.
  bool write_chrome(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<SpanLog>> logs_;
};

/// Nanoseconds on the steady clock.
inline std::int64_t span_clock_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace steerbench
