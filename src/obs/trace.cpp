#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "common/contracts.hpp"
#include "common/strings.hpp"

namespace steersim {
namespace {

using namespace std::string_view_literals;

// Unchecked cursor writes: the caller guarantees buffer capacity, so
// each literal inlines to a fixed-size memcpy and each number is one
// to_chars call.
inline char* put(char* p, std::string_view text) {
  std::memcpy(p, text.data(), text.size());
  return p + text.size();
}

inline char* put_u64(char* p, std::uint64_t value) {
  return std::to_chars(p, p + 20, value).ptr;
}

// TraceArgs and the kSteer renderer share this, so both render a double
// to the same bytes. to_chars with an explicit precision is specified to
// match printf "%.6g" (at most 13 characters). JSON has no Inf/NaN
// literals; render those as strings.
char* put_trace_double(char* p, double value) {
  if (std::isfinite(value)) {
    return std::to_chars(p, p + 32, value, std::chars_format::general, 6)
        .ptr;
  }
  *p++ = '"';
  p = put(p, std::isnan(value) ? "nan"sv : (value > 0 ? "inf"sv : "-inf"sv));
  *p++ = '"';
  return p;
}

// Event names almost never need escaping: copy the clean prefix in one
// piece and hand only the rest to append_json_escaped, whose output is at
// most six bytes per input byte.
char* put_escaped(char* p, std::string_view text) {
  const auto dirty = std::find_if(text.begin(), text.end(), [](char ch) {
    const unsigned char c = static_cast<unsigned char>(ch);
    return c == '"' || c == '\\' || c < 0x20;
  });
  const auto clean = static_cast<std::size_t>(dirty - text.begin());
  p = put(p, text.substr(0, clean));
  if (clean == text.size()) {
    return p;
  }
  std::string rest;
  append_json_escaped(rest, text.substr(clean));
  return put(p, rest);
}

// The document envelope. Tracer writes it around its events and
// merge_trace_parts strips it from each part; the suffix leaves out the
// document's final newline, which both writers append.
constexpr std::string_view kDocPrefix = "{\"traceEvents\":[\n";
constexpr std::string_view kDocSuffix = "\n]}";

using Shape = TraceRecord::Shape;

}  // namespace

std::string_view trace_cat::name(std::uint32_t category) {
  // Indexed by category bit: kFetch is bit 0, kSkip bit 9.
  static constexpr std::string_view kNames[] = {
      "fetch",  "dispatch", "execute",  "commit",  "steer",
      "loader", "fault",    "recovery", "counter", "skip"};
  const auto bit = static_cast<std::size_t>(std::countr_zero(category));
  return std::has_single_bit(category) && bit < std::size(kNames)
             ? kNames[bit]
             : "misc";
}

void TraceArgs::key(std::string_view k) {
  if (!json_.empty()) {
    json_ += ',';
  }
  json_ += '"';
  json_ += k;
  json_ += "\":";
}

TraceArgs& TraceArgs::num(std::string_view k, std::uint64_t value) {
  key(k);
  json_ += std::to_string(value);
  return *this;
}

TraceArgs& TraceArgs::num(std::string_view k, std::int64_t value) {
  key(k);
  json_ += std::to_string(value);
  return *this;
}

TraceArgs& TraceArgs::num(std::string_view k, double value) {
  key(k);
  char buf[32];
  json_.append(buf, put_trace_double(buf, value));
  return *this;
}

TraceArgs& TraceArgs::str(std::string_view k, std::string_view value) {
  key(k);
  json_ += '"';
  append_json_escaped(json_, value);
  json_ += '"';
  return *this;
}

Tracer::Tracer(const TraceConfig& config)
    : config_(config),
      pid_frag_(",\"pid\":" + std::to_string(config.pid)) {
  STEERSIM_EXPECTS(!config.path.empty());
  STEERSIM_EXPECTS(config.start_cycle <= config.end_cycle);
  out_.open(config_.path);
  sink_ok_ = out_.good();
  if (!sink_ok_) {
    // Warn once per process: a long sweep with a bad trace directory
    // should not print thousands of identical lines, and parallel sweeps
    // build tracers on several threads at once. The tracer keeps
    // accepting (and counting) events so sim behaviour is unchanged.
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true)) {
      std::fprintf(stderr,
                   "steersim: warning: cannot open trace output '%s'; "
                   "tracing degrades to a null sink\n",
                   config_.path.c_str());
    }
  }
  open_ = true;
  ring_.resize(kRingCapacity);
  if (sink_ok_) {
    // Pay the I/O buffer's allocation and page faults here, outside the
    // simulation loop: rendering then appends into warm, resident memory
    // for the whole run. Slack past the write threshold absorbs the last
    // ring batch so flush() never grows the buffer mid-run.
    render_cap_ = kIoBufferBytes + kRingCapacity * 192;
    render_buf_ = std::make_unique<char[]>(render_cap_);  // zeroing prefaults
    emit_prefix();
  }
}

Tracer::~Tracer() { close(); }

void Tracer::emit_prefix() { out_ << kDocPrefix; }

void Tracer::emit_suffix() { out_ << kDocSuffix << '\n'; }

void Tracer::close() {
  if (!open_) {
    return;
  }
  flush();
  if (sink_ok_) {
    if (render_len_ > 0) {
      out_.write(render_buf_.get(),
                 static_cast<std::streamsize>(render_len_));
      render_len_ = 0;
    }
    emit_suffix();
    out_.flush();
    STEERSIM_ENSURES(out_.good());
    out_.close();
  }
  open_ = false;
}

TraceRecord* Tracer::accept(bool wanted, Shape shape,
                            std::uint32_t category, unsigned lane,
                            std::uint64_t ts) {
  if (!open_ || !wanted) {
    return nullptr;
  }
  if (ring_len_ == kRingCapacity) {
    flush();
  }
  TraceRecord& rec = ring_[ring_len_++];
  rec.shape = shape;
  rec.category = category;
  rec.lane = lane;
  rec.ts = ts;
  if (shape != Shape::kLaneMeta) {
    ++events_emitted_;
  }
  return &rec;
}

std::uint32_t Tracer::intern(std::string_view text) {
  pool_.emplace_back(text);
  return static_cast<std::uint32_t>(pool_.size() - 1);
}

void Tracer::ensure_lane(unsigned lane, std::string_view name) {
  if (TraceRecord* const rec = accept(!lane_named(lane), Shape::kLaneMeta,
                                      0, lane, 0)) {
    if (lane >= named_lanes_.size()) {
      named_lanes_.resize(lane + 1, false);
    }
    named_lanes_[lane] = true;
    rec->name_index = intern(name);
  }
}

void Tracer::instant(std::string_view name, std::uint32_t category,
                     unsigned lane, std::uint64_t cycle,
                     const TraceArgs& args) {
  if (TraceRecord* const rec = accept(wants(category, cycle),
                                      Shape::kInstantBody, category, lane,
                                      cycle)) {
    rec->name_index = intern(name);
    rec->body_index =
        args.empty() ? TraceRecord::kNoString : intern(args.body());
  }
}

void Tracer::complete(std::string_view name, std::uint32_t category,
                      unsigned lane, std::uint64_t start,
                      std::uint64_t duration, const TraceArgs& args) {
  if (TraceRecord* const rec = accept(wants_span(category, start, duration),
                                      Shape::kCompleteBody, category, lane,
                                      start)) {
    rec->dur = duration;
    rec->name_index = intern(name);
    rec->body_index =
        args.empty() ? TraceRecord::kNoString : intern(args.body());
  }
}

void Tracer::counter(std::string_view name, std::uint64_t cycle,
                     double value) {
  if (TraceRecord* const rec = accept(wants(trace_cat::kCounter, cycle),
                                      Shape::kCounter, trace_cat::kCounter,
                                      0, cycle)) {
    rec->a = std::bit_cast<std::uint64_t>(value);
    rec->name_index = intern(name);
  }
}

void Tracer::instant_pc_id(std::string_view name, std::uint32_t category,
                           unsigned lane, std::uint64_t cycle,
                           std::uint64_t pc, std::uint64_t id) {
  if (TraceRecord* const rec = accept(wants(category, cycle),
                                      Shape::kInstantPcId, category, lane,
                                      cycle)) {
    rec->a = pc;
    rec->b = id;
    rec->name = name;
  }
}

void Tracer::complete_pc_id(std::string_view name, unsigned lane,
                            std::uint64_t start, std::uint64_t duration,
                            std::uint64_t pc, std::uint64_t id) {
  if (TraceRecord* const rec =
          accept(wants_span(trace_cat::kExecute, start, duration),
                 Shape::kCompletePcId, trace_cat::kExecute, lane, start)) {
    rec->dur = duration;
    rec->a = pc;
    rec->b = id;
    rec->name = name;
  }
}

void Tracer::instant_fetch(std::uint64_t cycle, std::uint64_t pc,
                           std::uint64_t count, bool from_trace) {
  if (TraceRecord* const rec =
          accept(wants(trace_cat::kFetch, cycle), Shape::kFetch,
                 trace_cat::kFetch, trace_lane::kFetch, cycle)) {
    rec->a = pc;
    rec->b = count;
    rec->c = from_trace ? 1 : 0;
  }
}

void Tracer::instant_steer(std::uint64_t cycle, std::uint64_t selection,
                           double error, std::uint64_t cost,
                           std::uint64_t streak, std::string_view intent) {
  if (!wants(trace_cat::kSteer, cycle)) {
    return;
  }
  ensure_lane(trace_lane::kSteer, "steer");
  if (TraceRecord* const rec = accept(true, Shape::kSteer, trace_cat::kSteer,
                                      trace_lane::kSteer, cycle)) {
    rec->dur = streak;
    rec->a = selection;
    rec->b = std::bit_cast<std::uint64_t>(error);
    rec->c = cost;
    rec->name = intent;
  }
}

void Tracer::skip_span(std::uint64_t start, std::uint64_t cycles) {
  if (!wants_span(trace_cat::kSkip, start, cycles)) {
    return;
  }
  ensure_lane(trace_lane::kSkip, "skip");
  if (TraceRecord* const rec = accept(true, Shape::kSkip, trace_cat::kSkip,
                                      trace_lane::kSkip, start)) {
    rec->dur = cycles;
  }
}

void Tracer::ensure_render(std::size_t need) {
  if (render_cap_ - render_len_ < need) {
    grow_render(need);
  }
}

void Tracer::grow_render(std::size_t need) {
  std::size_t cap = render_cap_ == 0 ? (std::size_t{1} << 20) : render_cap_;
  while (cap - render_len_ < need) {
    cap *= 2;
  }
  std::unique_ptr<char[]> grown(new char[cap]);
  if (render_len_ != 0) {
    std::memcpy(grown.get(), render_buf_.get(), render_len_);
  }
  render_buf_ = std::move(grown);
  render_cap_ = cap;
}

/// Worst case for one record apart from its name and args body: every
/// literal, six 20-digit numbers, a 24-char double, two pid fragments and
/// the memo copies' slack past their digits stay under this.
constexpr std::size_t kRecordBound = 320;

char* Tracer::put_ts(char* p, std::uint64_t ts) {
  if (memo_ts_len_ != 0 && ts == memo_ts_) {
    // Fixed-size copy; the record bound leaves slack past the digits.
    std::memcpy(p, memo_ts_buf_, sizeof(memo_ts_buf_));
    return p + memo_ts_len_;
  }
  char* const end = std::to_chars(p, p + 20, ts).ptr;
  memo_ts_ = ts;
  memo_ts_len_ = static_cast<unsigned>(end - p);
  std::memcpy(memo_ts_buf_, p, memo_ts_len_);
  return end;
}

void Tracer::render(const TraceRecord& rec) {
  const std::string_view cat = trace_cat::name(rec.category);
  // The shape decides where the name lives: ring slots are reused, so the
  // intern indices are stale on typed records. Fetch, steer and skip
  // events are named after their category.
  std::string_view name = cat;
  std::string_view body;
  std::string_view intent;
  switch (rec.shape) {
    case Shape::kInstantBody:
    case Shape::kCompleteBody:
      if (rec.body_index != TraceRecord::kNoString) {
        body = pool_[rec.body_index];
      }
      [[fallthrough]];
    case Shape::kLaneMeta:
    case Shape::kCounter:
      name = pool_[rec.name_index];
      break;
    case Shape::kInstantPcId:
    case Shape::kCompletePcId:
      name = rec.name;
      break;
    case Shape::kSteer:
      intent = rec.name;
      break;
    case Shape::kFetch:
    case Shape::kSkip:
      break;
  }
  // One bounds check per record, then unchecked cursor writes straight
  // into the flush buffer.
  ensure_render(kRecordBound + 6 * (name.size() + intent.size()) +
                body.size());
  char* const buf = render_buf_.get() + render_len_;
  char* p = buf;
  if (!first_event_) {
    p = put(p, ",\n"sv);
  }
  first_event_ = false;
  if (rec.shape == Shape::kLaneMeta) {
    p = put(p, R"({"name":"thread_name","ph":"M")"sv);
    p = put(p, pid_frag_);
    p = put(p, R"(,"tid":)"sv);
    p = put_u64(p, rec.lane);
    p = put(p, R"(,"args":{"name":")"sv);
    p = put_escaped(p, name);
    p = put(p, "\"}},\n"sv);
    // Sort-index metadata keeps lanes in our numeric order in the viewer.
    p = put(p, R"({"name":"thread_sort_index","ph":"M")"sv);
    p = put(p, pid_frag_);
    p = put(p, R"(,"tid":)"sv);
    p = put_u64(p, rec.lane);
    p = put(p, R"(,"args":{"sort_index":)"sv);
    p = put_u64(p, rec.lane);
    p = put(p, "}}"sv);
    render_len_ += static_cast<std::size_t>(p - buf);
    return;
  }
  p = put(p, R"({"name":")"sv);
  p = put_escaped(p, name);
  p = put(p, R"(","cat":")"sv);
  p = put(p, cat);
  const bool span = rec.shape == Shape::kCompleteBody ||
                    rec.shape == Shape::kCompletePcId ||
                    rec.shape == Shape::kSkip;
  if (rec.shape == Shape::kCounter) {
    p = put(p, R"(","ph":"C","ts":)"sv);
  } else if (span) {
    p = put(p, R"(","ph":"X","ts":)"sv);
  } else {
    p = put(p, R"(","ph":"i","s":"t","ts":)"sv);
  }
  p = put_ts(p, rec.ts);
  if (span) {
    p = put(p, R"(,"dur":)"sv);
    p = put_u64(p, rec.dur);
  }
  p = put(p, pid_frag_);
  if (rec.shape != Shape::kCounter) {
    p = put(p, R"(,"tid":)"sv);
    p = put_u64(p, rec.lane);
  }
  switch (rec.shape) {
    case Shape::kCounter:
      p = put(p, R"(,"args":{"value":)"sv);
      p = put(p, json_number(std::bit_cast<double>(rec.a)));
      *p++ = '}';
      break;
    case Shape::kInstantPcId:
    case Shape::kCompletePcId:
      p = put(p, R"(,"args":{"pc":)"sv);
      p = put_u64(p, rec.a);
      p = put(p, R"(,"id":)"sv);
      p = put_u64(p, rec.b);
      *p++ = '}';
      break;
    case Shape::kFetch:
      p = put(p, R"(,"args":{"pc":)"sv);
      p = put_u64(p, rec.a);
      p = put(p, R"(,"count":)"sv);
      p = put_u64(p, rec.b);
      p = put(p, R"(,"from_trace":)"sv);
      p = put_u64(p, rec.c);
      *p++ = '}';
      break;
    case Shape::kSteer:
      p = put(p, R"(,"args":{"selection":)"sv);
      p = put_u64(p, rec.a);
      p = put(p, R"(,"error":)"sv);
      if (memo_len_ != 0 && rec.b == memo_bits_) {
        std::memcpy(p, memo_buf_, sizeof(memo_buf_));
        p += memo_len_;
      } else {
        char* const digits = p;
        p = put_trace_double(p, std::bit_cast<double>(rec.b));
        memo_bits_ = rec.b;
        memo_len_ = static_cast<unsigned>(p - digits);
        std::memcpy(memo_buf_, digits, memo_len_);
      }
      p = put(p, R"(,"cost":)"sv);
      p = put_u64(p, rec.c);
      p = put(p, R"(,"streak":)"sv);
      p = put_u64(p, rec.dur);
      p = put(p, R"(,"intent":")"sv);
      p = put_escaped(p, intent);
      p = put(p, "\"}"sv);
      break;
    case Shape::kSkip:
      p = put(p, R"(,"args":{"cycles":)"sv);
      p = put_u64(p, rec.dur);
      *p++ = '}';
      break;
    default:
      if (!body.empty()) {
        p = put(p, R"(,"args":{)"sv);
        p = put(p, body);
        *p++ = '}';
      }
      break;
  }
  *p++ = '}';
  render_len_ += static_cast<std::size_t>(p - buf);
}

void Tracer::flush() {
  if (ring_len_ == 0) {
    return;
  }
  if (sink_ok_) {
    // Size hint only — the typical record renders to ~120 bytes; the
    // per-record ensure_render still guards the worst case.
    ensure_render(ring_len_ * 160);
    for (std::size_t i = 0; i < ring_len_; ++i) {
      render(ring_[i]);
    }
    // Rendered bytes accumulate across flushes and hit the file only when
    // the I/O buffer overflows (and at close()): dirtying megabytes of
    // page cache mid-run stalls the simulation loop on writeback, so the
    // drain does the formatting work at window boundaries but defers the
    // write itself out of the hot loop whenever the document fits.
    if (render_len_ >= kIoBufferBytes) {
      out_.write(render_buf_.get(),
                 static_cast<std::streamsize>(render_len_));
      render_len_ = 0;
    }
  }
  ring_len_ = 0;
  pool_.clear();
}

void merge_trace_parts(const std::string& path,
                       const std::vector<std::string>& parts) {
  std::ofstream out(path);
  if (!out.good()) {
    return;  // same degrade-to-null contract as the Tracer itself
  }
  out << kDocPrefix;
  bool first = true;
  for (const std::string& part : parts) {
    std::ifstream in(part);
    if (!in.good()) {
      continue;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = std::move(buf).str();
    const std::size_t start = text.find(kDocPrefix);
    const std::size_t end = text.rfind(kDocSuffix);
    if (start == std::string::npos || end == std::string::npos ||
        start + kDocPrefix.size() > end) {
      continue;
    }
    const std::string_view events =
        std::string_view(text).substr(start + kDocPrefix.size(),
                                      end - start - kDocPrefix.size());
    if (!events.empty()) {
      if (!first) {
        out << ",\n";
      }
      out << events;
      first = false;
    }
    in.close();
    std::remove(part.c_str());
  }
  out << kDocSuffix << '\n';
}

}  // namespace steersim
