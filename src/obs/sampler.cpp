#include "obs/sampler.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "common/contracts.hpp"
#include "common/strings.hpp"

namespace steersim {
namespace {

/// Counter deltas are integral; windowed IPC is not. Match the metric
/// registry's CSV convention: integers without a fraction.
std::string format_value(double value) {
  if (std::isnan(value)) {
    return "nan";
  }
  if (value == static_cast<double>(static_cast<std::int64_t>(value)) &&
      std::abs(value) < 1e15) {
    return std::to_string(static_cast<std::int64_t>(value));
  }
  return format_double(value, 6);
}

/// Counter metrics whose deltas become Perfetto tracks, selected by name
/// prefix ("engine.issues." covers every FU type). The windowed-IPC track
/// is always emitted.
constexpr std::string_view kTrackPrefixes[] = {
    "sim.retired", "sim.issued", "sim.queue_occupancy_sum", "engine.issues.",
    "steer.steer_events", "loader.slots_rewritten", "fault.", "recovery."};

bool tracked(const std::string& name) {
  return std::any_of(
      std::begin(kTrackPrefixes), std::end(kTrackPrefixes),
      [&](std::string_view prefix) { return starts_with(name, prefix); });
}

}  // namespace

IntervalSampler::IntervalSampler(const SamplerConfig& config, Tracer* tracer)
    : config_(config), tracer_(tracer) {
  STEERSIM_EXPECTS(config.enabled());
  if (!config_.csv_path.empty()) {
    csv_.open(config_.csv_path);
    STEERSIM_EXPECTS(csv_.good());
  }
}

IntervalSampler::~IntervalSampler() {
  if (csv_.is_open()) {
    csv_.flush();
  }
}

std::string IntervalSampler::csv_header() const {
  std::string header = "cycle,window_cycles,window_ipc";
  for (const std::string& name : counter_names_) {
    header += ',';
    header += name;
  }
  return header;
}

void IntervalSampler::sample(const MetricRegistry& live, std::uint64_t cycle) {
  capture(live, cycle);
}

void IntervalSampler::flush(const MetricRegistry& live, std::uint64_t cycle) {
  // A window boundary may coincide with the end of run (or no cycles ran).
  if (cycle != last_cycle_) {
    capture(live, cycle);
  }
  if (csv_.is_open()) {
    csv_.flush();  // the run is over; make the file readable immediately
  }
}

void IntervalSampler::capture(const MetricRegistry& live,
                              std::uint64_t cycle) {
  STEERSIM_EXPECTS(cycle > last_cycle_ || (cycle == 0 && samples_ == 0));
  if (!schema_fixed_) {
    for (const Metric& m : live.metrics()) {
      if (!m.derived) {
        counter_names_.push_back(m.name);
      }
    }
    retired_index_ = counter_names_.size();
    for (std::size_t i = 0; i < counter_names_.size(); ++i) {
      if (counter_names_[i] == "sim.retired") {
        retired_index_ = i;
      }
    }
    STEERSIM_ENSURES(retired_index_ < counter_names_.size());
    last_values_.assign(counter_names_.size(), 0.0);
    track_names_.reserve(counter_names_.size());
    for (const std::string& name : counter_names_) {
      track_names_.push_back(tracked(name) ? "win." + name : std::string());
    }
    schema_fixed_ = true;
    if (csv_.is_open()) {
      csv_ << csv_header() << '\n';
    }
  }

  SampleWindow window;
  window.cycle = cycle;
  window.window_cycles = cycle - last_cycle_;
  window.deltas.reserve(counter_names_.size());
  std::size_t i = 0;
  for (const Metric& m : live.metrics()) {
    if (m.derived) {
      continue;
    }
    // The counter schema is fixed at the first sample; every later
    // snapshot must enumerate the same counters in the same order.
    STEERSIM_ENSURES(i < counter_names_.size() &&
                     counter_names_[i] == m.name);
    window.deltas.push_back(m.value - last_values_[i]);
    last_values_[i] = m.value;
    ++i;
  }
  STEERSIM_ENSURES(i == counter_names_.size());
  window.ipc = window.window_cycles == 0
                   ? 0.0
                   : window.deltas[retired_index_] /
                         static_cast<double>(window.window_cycles);

  if (tracer_ != nullptr) {
    tracer_->counter("win.ipc", cycle, window.ipc);
    for (std::size_t k = 0; k < track_names_.size(); ++k) {
      if (!track_names_[k].empty()) {
        tracer_->counter(track_names_[k], cycle, window.deltas[k]);
      }
    }
  }

  if (csv_.is_open()) {
    std::string row = std::to_string(window.cycle);
    row += ',';
    row += std::to_string(window.window_cycles);
    row += ',';
    row += format_value(window.ipc);
    for (const double delta : window.deltas) {
      row += ',';
      row += format_value(delta);
    }
    csv_ << row << '\n';
  } else {
    windows_.push_back(std::move(window));
  }
  last_cycle_ = cycle;
  ++samples_;
}

}  // namespace steersim
