// Interval telemetry sampler (docs/OBSERVABILITY.md).
//
// The metric registry answers "what happened over the whole run"; the
// sampler answers "when". Every `period` cycles it snapshots the live
// visit_metrics() registry and differences the counter metrics against the
// previous snapshot, producing one window row: windowed IPC plus the
// per-window delta of every counter (per-FU-type issues, queue occupancy,
// steering decisions, slot rewrites, fault and recovery counts, ...).
// Windows stream to CSV (or accumulate in memory, audit-log style) and —
// through the tracer's kCounter category — to Chrome trace-event counter
// tracks, so Perfetto renders IPC-over-time directly under the event lanes.
//
// Contracts, shared with the tracer and test-enforced:
//   - zero overhead when off: a disabled sampler is a null pointer, so the
//     processor pays one pointer compare per cycle;
//   - observation-only: an enabled sampler changes no simulated statistic;
//   - conservation: because the final partial window is flushed at end of
//     run, each counter's window deltas sum exactly to its end-of-run
//     registry total.
//
// Derived metrics (rates, means — Metric::derived) are excluded from the
// delta schema: the difference of two ratios is meaningless. Windowed IPC
// is recomputed from the retired-count delta instead.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace steersim {

struct SamplerConfig {
  /// Window length in cycles; 0 disables sampling entirely.
  std::uint64_t period = 0;
  /// Empty: keep windows in memory (query via windows()). Non-empty:
  /// stream one CSV row per window to this file instead.
  std::string csv_path;

  bool enabled() const { return period > 0; }
};

/// One completed sampling window.
struct SampleWindow {
  std::uint64_t cycle = 0;          ///< cycle count at the window's end
  std::uint64_t window_cycles = 0;  ///< cycles covered (final one may be short)
  double ipc = 0.0;                 ///< retired delta / window_cycles
  /// Per-counter deltas, parallel to IntervalSampler::counter_names().
  std::vector<double> deltas;
};

class IntervalSampler {
 public:
  /// `tracer` may be null (no counter tracks); its trace_cat::kCounter
  /// bit decides whether windows become counter tracks. The sampler never
  /// owns it.
  IntervalSampler(const SamplerConfig& config, Tracer* tracer);
  ~IntervalSampler();

  IntervalSampler(const IntervalSampler&) = delete;
  IntervalSampler& operator=(const IntervalSampler&) = delete;

  /// True when `cycle` (the just-finished cycle count) ends a window.
  bool due(std::uint64_t cycle) const { return cycle % config_.period == 0; }

  /// Records the window ending at `cycle` from a live metric snapshot.
  /// The first call fixes the counter schema; later registries must
  /// enumerate the same counters (guaranteed by visit_metrics: only
  /// derived metrics may appear conditionally).
  void sample(const MetricRegistry& live, std::uint64_t cycle);

  /// Records the final partial window at end of run; no-op when `cycle`
  /// was already sampled or nothing ran. After this, per-counter deltas
  /// sum to the end-of-run totals.
  void flush(const MetricRegistry& live, std::uint64_t cycle);

  /// Counter-metric names, in registry order (fixed at the first sample).
  const std::vector<std::string>& counter_names() const {
    return counter_names_;
  }
  /// In-memory windows (empty when streaming to CSV).
  const std::vector<SampleWindow>& windows() const { return windows_; }
  std::uint64_t samples_taken() const { return samples_; }
  const SamplerConfig& config() const { return config_; }

  /// The CSV header row matching the fixed schema.
  std::string csv_header() const;

 private:
  void capture(const MetricRegistry& live, std::uint64_t cycle);

  SamplerConfig config_;
  Tracer* tracer_;
  std::ofstream csv_;
  bool schema_fixed_ = false;
  std::vector<std::string> counter_names_;
  /// "win."-prefixed track names, parallel to counter_names_; empty when
  /// the counter is not tracked. Built once when the schema is fixed.
  std::vector<std::string> track_names_;
  std::vector<double> last_values_;
  std::size_t retired_index_ = 0;  ///< index of "sim.retired" in the schema
  std::uint64_t last_cycle_ = 0;
  std::uint64_t samples_ = 0;
  std::vector<SampleWindow> windows_;
};

}  // namespace steersim
