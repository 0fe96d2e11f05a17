// The benchmark's own arithmetic: order statistics, the open-loop send
// schedule, and the span tracer with self-time accounting.  Header-only and
// free of any library dependency, so tests/selftest.cpp checks exactly the
// code the workload runner uses.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Quantile q in [0, 1] of `v` by linear interpolation between closest
/// ranks (the "type 7" rule numpy and statistics.quantiles(method=
/// 'inclusive') use).  Empty input yields 0.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Samples strictly above the q-quantile position of an n-sample set: how
/// many observations a reported percentile rests on.
inline std::uint64_t samples_beyond(std::uint64_t n, double q) {
  const double beyond = std::floor(static_cast<double>(n) * (1.0 - q));
  return beyond < 0.0 ? 0 : static_cast<std::uint64_t>(beyond);
}

/// True when an n-sample percentile q has at least ten samples beyond it
/// (below that a tail percentile is one or two outliers, not a tail).
inline bool percentile_supported(std::uint64_t n, double q) {
  return samples_beyond(n, q) >= 10;
}

/// Open-loop sender: batch i of `batch` events is due `i * batch / rate`
/// seconds after the start, whatever happened to earlier batches.
/// Lateness is how far behind that schedule the send actually began.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(double rate_eps, std::size_t batch)
      : period_s_(static_cast<double>(batch) / rate_eps) {}

  double due_s(std::uint64_t batch_index) const {
    return static_cast<double>(batch_index) * period_s_;
  }

  /// Lateness in seconds of a send that began at `sent_s` (seconds since
  /// the schedule's start); a send on or ahead of time is 0 late.
  double lateness_s(std::uint64_t batch_index, double sent_s) const {
    return std::max(0.0, sent_s - due_s(batch_index));
  }

 private:
  double period_s_;
};

/// One recorded span.  Times are ns since the tracer's epoch; `parent` is
/// the index of the enclosing span in the same tracer (-1 for a root).
struct Span {
  std::uint32_t name = 0;
  std::int32_t parent = -1;
  std::uint32_t trace = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Per-name totals a tracer accumulates for every span it closes, recorded
/// or not: count, total duration, and self time (duration minus the part
/// covered by direct child spans).
struct SpanTotals {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

/// Single-threaded span tracer.  Spans nest strictly (begin/end pairs on
/// one thread), so a span's children are disjoint sub-intervals and its
/// self time is its duration minus the sum of its children's durations.
/// Totals accumulate for every span; span records are kept in memory only
/// while recording is on (the replay samples its per-event spans) and are
/// written out once at the end.
class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Tracer(Clock::time_point epoch = Clock::now()) : epoch_(epoch) {}

  std::uint32_t intern(std::string_view name) {
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return static_cast<std::uint32_t>(i);
    }
    names_.emplace_back(name);
    totals_.emplace_back();
    return static_cast<std::uint32_t>(names_.size() - 1);
  }

  void set_trace(std::uint32_t trace) { trace_ = trace; }
  void set_recording(bool on) { recording_ = on; }

  void begin(std::uint32_t name) { begin_at(name, now_ns()); }
  void end() { end_at(now_ns()); }

  /// Explicit-time variants (the clock-driven ones above forward here);
  /// tests use them to build exact span trees.
  void begin_at(std::uint32_t name, std::uint64_t t_ns) {
    Open o;
    o.name = name;
    o.start_ns = t_ns;
    o.record = -1;
    if (recording_) {
      Span s;
      s.name = name;
      s.trace = trace_;
      s.start_ns = t_ns;
      s.parent = stack_.empty() ? -1 : stack_.back().record;
      o.record = static_cast<std::int32_t>(spans_.size());
      spans_.push_back(s);
    }
    stack_.push_back(o);
  }

  void end_at(std::uint64_t t_ns) {
    const Open o = stack_.back();
    stack_.pop_back();
    const std::uint64_t dur = t_ns - o.start_ns;
    SpanTotals& tot = totals_[o.name];
    ++tot.count;
    tot.total_ns += dur;
    tot.self_ns += dur - std::min(dur, o.children_ns);
    if (o.record >= 0) spans_[static_cast<std::size_t>(o.record)].end_ns = t_ns;
    if (!stack_.empty()) stack_.back().children_ns += dur;
  }

  std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             epoch_)
            .count());
  }

  const SpanTotals& totals(std::string_view name) const {
    static const SpanTotals kNone;
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return totals_[i];
    }
    return kNone;
  }
  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& names() const { return names_; }
  bool idle() const { return stack_.empty(); }

 private:
  struct Open {
    std::uint32_t name = 0;
    std::uint64_t start_ns = 0;
    std::uint64_t children_ns = 0;
    std::int32_t record = -1;
  };

  Clock::time_point epoch_;
  std::vector<std::string> names_;
  std::vector<SpanTotals> totals_;
  std::vector<Open> stack_;
  std::vector<Span> spans_;
  std::uint32_t trace_ = 0;
  bool recording_ = true;
};

/// The tracer's own cost per span, measured on an idle tracer: `inside_ns`
/// falls within the span's interval (it inflates the span's duration),
/// `outside_ns` falls outside it (it inflates the parent's self time).
/// Per-layer numbers built from short spans subtract both.
struct SpanCost {
  double inside_ns = 0.0;
  double outside_ns = 0.0;
};

inline SpanCost measure_span_cost(bool recording, int n = 20000) {
  Tracer t;
  t.set_recording(recording);
  const std::uint32_t parent = t.intern("parent");
  const std::uint32_t child = t.intern("child");
  t.begin(parent);
  const auto t0 = Tracer::Clock::now();
  for (int i = 0; i < n; ++i) {
    t.begin(child);
    t.end();
  }
  const double pair_ns =
      std::chrono::duration<double, std::nano>(Tracer::Clock::now() - t0)
          .count() /
      n;
  t.end();
  SpanCost c;
  c.inside_ns = static_cast<double>(t.totals("child").total_ns) / n;
  c.outside_ns = std::max(0.0, pair_ns - c.inside_ns);
  return c;
}

/// Writes spans as JSON lines: {"name","trace","span","parent","start_ns",
/// "end_ns","thread"}.  `span_base` offsets span and parent ids so several
/// tracers (one per thread) share one file without id clashes.
inline void write_spans(std::FILE* f, const Tracer& t, std::uint32_t thread,
                        std::uint64_t span_base) {
  const auto& spans = t.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const long long parent =
        s.parent < 0 ? -1
                     : static_cast<long long>(span_base) + s.parent;
    std::fprintf(f,
                 "{\"name\":\"%s\",\"trace\":%u,\"span\":%llu,\"parent\":%lld,"
                 "\"start_ns\":%llu,\"end_ns\":%llu,\"thread\":%u}\n",
                 t.names()[s.name].c_str(), s.trace,
                 static_cast<unsigned long long>(span_base + i), parent,
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns), thread);
  }
}

/// Ordered name -> (value, unit) set of reported metrics.
class MetricSet {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    values_[name] = {value, unit};
  }
  /// {"name": {"value": v, "unit": "u"}, ...} with every digit of v kept.
  std::string to_json() const {
    std::string out = "{";
    bool first = true;
    char buf[64];
    for (const auto& [name, vu] : values_) {
      std::snprintf(buf, sizeof buf, "%.17g",
                    std::isfinite(vu.first) ? vu.first : 0.0);
      out += first ? "" : ", ";
      out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
             vu.second + "\"}";
      first = false;
    }
    return out + "}";
  }

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

}  // namespace perfbench
