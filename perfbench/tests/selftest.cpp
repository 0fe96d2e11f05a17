// Self-test of the benchmark's own arithmetic (src/measure.hpp):
// percentiles and their sample counts, the open-loop schedule's lateness,
// and span self time as duration minus covered children.  Exits nonzero on
// the first failed check.
//
//   perfbench_selftest        (built by perfbench/CMakeLists.txt;
//                              python3 perfbench/run.py --selftest runs it)
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "measure.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::printf("FAIL line %d: %s\n", line, what);
    ++g_failures;
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

/// Reference for the tracer's online self-time accounting, computed from
/// span records alone: duration minus the union of the direct children's
/// intervals clipped to the span.
std::vector<std::uint64_t> self_times(const std::vector<perfbench::Span>& spans) {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
      spans.size());
  for (const perfbench::Span& s : spans) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].push_back({s.start_ns, s.end_ns});
    }
  }
  std::vector<std::uint64_t> out(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const perfbench::Span& p = spans[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0;
    std::uint64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [lo, hi] : iv) {
      lo = std::clamp(lo, p.start_ns, p.end_ns);
      hi = std::clamp(hi, p.start_ns, p.end_ns);
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    out[i] = (p.end_ns - p.start_ns) - covered;
  }
  return out;
}

void test_quantiles() {
  using perfbench::quantile;
  CHECK(near(quantile({}, 0.5), 0.0));
  CHECK(near(quantile({7.0}, 0.99), 7.0));
  // Linear interpolation between closest ranks: positions q*(n-1).
  const std::vector<double> v = {5, 1, 4, 2, 3};  // sorted 1..5
  CHECK(near(quantile(v, 0.0), 1.0));
  CHECK(near(quantile(v, 0.5), 3.0));
  CHECK(near(quantile(v, 1.0), 5.0));
  CHECK(near(quantile(v, 0.25), 2.0));
  CHECK(near(quantile(v, 0.9), 4.6));
  CHECK(near(perfbench::median({4, 1, 3, 2}), 2.5));
  // Agrees with Python's statistics.quantiles(method='inclusive') on ten
  // values: quartiles of 1..10 are 3.25 and 7.75.
  std::vector<double> ten;
  for (int i = 1; i <= 10; ++i) ten.push_back(i);
  CHECK(near(quantile(ten, 0.25), 3.25));
  CHECK(near(quantile(ten, 0.75), 7.75));
}

void test_sample_counts() {
  using perfbench::percentile_supported;
  using perfbench::samples_beyond;
  CHECK(samples_beyond(1000, 0.99) == 10);
  CHECK(samples_beyond(999, 0.99) == 9);
  CHECK(samples_beyond(100, 0.5) == 50);
  CHECK(samples_beyond(0, 0.5) == 0);
  CHECK(percentile_supported(1000, 0.99));
  CHECK(!percentile_supported(999, 0.99));
  CHECK(percentile_supported(20, 0.5));
  CHECK(!percentile_supported(19, 0.5));
}

void test_open_loop_lateness() {
  // 1000 events/s in batches of 100: batch i is due at i * 0.1 s.
  const perfbench::OpenLoopSchedule s(1000.0, 100);
  CHECK(near(s.due_s(0), 0.0));
  CHECK(near(s.due_s(3), 0.3));
  CHECK(near(s.lateness_s(3, 0.3), 0.0));    // on time
  CHECK(near(s.lateness_s(3, 0.25), 0.0));   // early is not late
  CHECK(near(s.lateness_s(3, 0.35), 0.05));  // 50 ms behind
  // A stall does not move later due times: batch 4 is still due at 0.4 s,
  // so a send at 0.9 s is 0.5 s late.
  CHECK(near(s.lateness_s(4, 0.9), 0.5));
}

void test_self_time() {
  perfbench::Tracer t;
  const auto a = t.intern("a");
  const auto b = t.intern("b");
  const auto c = t.intern("c");
  // a [0,100) with children b [10,30) and b [40,70); b [40,70) has child
  // c [50,60).  Self: a = 100-20-30 = 50, b = 20 + (30-10) = 40, c = 10.
  t.begin_at(a, 0);
  t.begin_at(b, 10);
  t.end_at(30);
  t.begin_at(b, 40);
  t.begin_at(c, 50);
  t.end_at(60);
  t.end_at(70);
  t.end_at(100);
  CHECK(t.idle());
  CHECK(t.totals("a").self_ns == 50);
  CHECK(t.totals("a").total_ns == 100);
  CHECK(t.totals("b").self_ns == 40);
  CHECK(t.totals("b").count == 2);
  CHECK(t.totals("c").self_ns == 10);
  CHECK(t.totals("missing").count == 0);

  // The offline computation from the records agrees.
  const auto& spans = t.spans();
  CHECK(spans.size() == 4);
  const auto self = self_times(spans);
  CHECK(self[0] == 50);  // a
  CHECK(self[1] == 20);  // first b
  CHECK(self[2] == 20);  // second b
  CHECK(self[3] == 10);  // c
  CHECK(spans[1].parent == 0 && spans[3].parent == 2 && spans[0].parent == -1);

  // Overlapping or out-of-parent child intervals count once and only
  // inside the parent.
  std::vector<perfbench::Span> odd(3);
  odd[0].start_ns = 0;
  odd[0].end_ns = 100;
  odd[1].parent = 0;
  odd[1].start_ns = 20;
  odd[1].end_ns = 60;
  odd[2].parent = 0;
  odd[2].start_ns = 50;
  odd[2].end_ns = 130;
  CHECK(self_times(odd)[0] == 20);

  // Totals accumulate while recording is off; no records are kept.
  perfbench::Tracer quiet;
  quiet.set_recording(false);
  const auto q = quiet.intern("q");
  quiet.begin_at(q, 5);
  quiet.end_at(25);
  CHECK(quiet.spans().empty());
  CHECK(quiet.totals("q").self_ns == 20);
}

void test_metric_json() {
  perfbench::MetricSet m;
  m.set("b", 0.1, "s");
  m.set("a", 1234567.890123456, "events/s");
  CHECK(m.to_json() ==
        "{\"a\": {\"value\": 1234567.890123456, \"unit\": \"events/s\"}, "
        "\"b\": {\"value\": 0.10000000000000001, \"unit\": \"s\"}}");
}

}  // namespace

int main() {
  test_quantiles();
  test_sample_counts();
  test_open_loop_lateness();
  test_self_time();
  test_metric_json();
  if (g_failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
