#include "spans.hpp"

#include <cstdio>
#include <fstream>

namespace steerbench {

SpanScope::SpanScope(SpanLog* log, const char* name, std::uint64_t job)
    : log_(log) {
  if (log_ == nullptr) {
    return;
  }
  Span span;
  span.name = name;
  if (!log_->open_.empty()) {
    span.parent = log_->open_.back();
    span.job = log_->spans_[static_cast<std::size_t>(span.parent)].job;
  }
  if (job != 0) {
    span.job = job;
  }
  index_ = static_cast<std::int32_t>(log_->spans_.size());
  log_->open_.push_back(index_);
  span.start_ns = span_clock_ns();
  log_->spans_.push_back(span);
}

SpanScope::~SpanScope() {
  if (log_ == nullptr) {
    return;
  }
  log_->spans_[static_cast<std::size_t>(index_)].end_ns = span_clock_ns();
  log_->open_.pop_back();
}

void SpanScope::set_counts(std::uint64_t cycles, std::uint64_t retired,
                           std::uint64_t rounds) {
  if (log_ != nullptr) {
    Span& span = log_->spans_[static_cast<std::size_t>(index_)];
    span.cycles = cycles;
    span.retired = retired;
    span.rounds = rounds;
  }
}

SpanLog* SpanSet::new_log() {
  std::lock_guard lock(mutex_);
  logs_.push_back(
      std::make_unique<SpanLog>(static_cast<unsigned>(logs_.size())));
  return logs_.back().get();
}

std::size_t SpanSet::size() const {
  std::lock_guard lock(mutex_);
  std::size_t n = 0;
  for (const auto& log : logs_) {
    n += log->spans().size();
  }
  return n;
}

namespace {

double seconds_of(const Span& s) {
  return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
}

/// Child time per span of one log. Children of one parent are recorded by
/// one thread inside the parent's scope, so they never overlap each other
/// and their durations sum to the covered part of the parent.
std::vector<double> child_seconds(const SpanLog& log) {
  std::vector<double> child(log.spans().size(), 0.0);
  for (const Span& s : log.spans()) {
    if (s.parent >= 0) {
      child[static_cast<std::size_t>(s.parent)] += seconds_of(s);
    }
  }
  return child;
}

}  // namespace

std::map<std::string, SpanTotals> SpanSet::by_name() const {
  std::lock_guard lock(mutex_);
  std::map<std::string, SpanTotals> out;
  for (const auto& log : logs_) {
    const std::vector<double> child = child_seconds(*log);
    for (std::size_t i = 0; i < log->spans().size(); ++i) {
      const Span& s = log->spans()[i];
      SpanTotals& t = out[s.name];
      ++t.count;
      t.total_s += seconds_of(s);
      t.self_s += seconds_of(s) - child[i];
      t.cycles += s.cycles;
      t.retired += s.retired;
      t.rounds += s.rounds;
    }
  }
  return out;
}

std::map<std::string, double> SpanSet::self_by_layer() const {
  std::map<std::string, double> out;
  for (const auto& [name, totals] : by_name()) {
    out[name.substr(0, name.find('.'))] += totals.self_s;
  }
  return out;
}

double SpanSet::root_seconds() const {
  std::lock_guard lock(mutex_);
  double total = 0.0;
  for (const auto& log : logs_) {
    for (const Span& s : log->spans()) {
      if (s.parent < 0) {
        total += seconds_of(s);
      }
    }
  }
  return total;
}

bool SpanSet::write_chrome(const std::string& path) const {
  std::lock_guard lock(mutex_);
  std::int64_t epoch = 0;
  bool have_epoch = false;
  for (const auto& log : logs_) {
    for (const Span& s : log->spans()) {
      if (!have_epoch || s.start_ns < epoch) {
        epoch = s.start_ns;
        have_epoch = true;
      }
    }
  }
  std::ofstream out(path);
  if (!out.good()) {
    return false;
  }
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  bool first = true;
  char buf[512];
  for (const auto& log : logs_) {
    for (std::size_t i = 0; i < log->spans().size(); ++i) {
      const Span& s = log->spans()[i];
      const std::string name = s.name;
      const std::string layer = name.substr(0, name.find('.'));
      // Span ids are unique per document: log index in the high bits.
      const std::uint64_t id = (std::uint64_t{log->tid()} << 32) | i;
      const long long parent =
          s.parent < 0 ? -1
                       : static_cast<long long>(
                             (std::uint64_t{log->tid()} << 32) |
                             static_cast<std::uint64_t>(s.parent));
      std::snprintf(
          buf, sizeof(buf),
          "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
          "\"dur\":%.3f,\"pid\":1,\"tid\":%u,\"args\":{\"span\":%llu,"
          "\"parent\":%lld,\"job\":%llu,\"cycles\":%llu,\"retired\":%llu,"
          "\"rounds\":%llu}}",
          first ? "" : ",\n", name.c_str(), layer.c_str(),
          static_cast<double>(s.start_ns - epoch) * 1e-3,
          static_cast<double>(s.end_ns - s.start_ns) * 1e-3, log->tid(),
          static_cast<unsigned long long>(id), parent,
          static_cast<unsigned long long>(s.job),
          static_cast<unsigned long long>(s.cycles),
          static_cast<unsigned long long>(s.retired),
          static_cast<unsigned long long>(s.rounds));
      out << buf;
      first = false;
    }
  }
  out << "\n]}\n";
  return out.good();
}

}  // namespace steerbench
