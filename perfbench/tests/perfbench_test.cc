// Tests of the benchmark's own arithmetic and generators. Build with the
// perfbench project and run `perfbench_test` (or `python3 perfbench/run.py
// --selftest`); exits non-zero on the first failing group.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "perfbench/src/gen.h"
#include "perfbench/src/spans.h"
#include "perfbench/src/stats.h"
#include "perfbench/src/workloads.h"

namespace perfbench {
namespace {

int failures = 0;

#define EXPECT(cond)                                                    \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__,       \
                   __LINE__, #cond);                                    \
      ++failures;                                                       \
    }                                                                   \
  } while (0)

void TestPercentileSelection() {
  // Nearest rank: p50 of 1..100 is 50, p99 is 99.
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) {
    v.push_back(i);
  }
  EXPECT(Percentile(v, 0.5) == 50);
  EXPECT(Percentile(v, 0.99) == 99);
  EXPECT(Percentile(v, 1.0) == 100);
  EXPECT(Percentile({}, 0.5) == 0.0);

  // A percentile is supported when at least 10 samples lie beyond it.
  EXPECT(Supports(1000, 0.99));    // rank 990, 10 beyond
  EXPECT(!Supports(999, 0.99));    // rank 990, 9 beyond
  EXPECT(Supports(20, 0.5));
  EXPECT(!Supports(19, 0.5));
  EXPECT(HighestSupportedQuantile(19) == 0.0);
  EXPECT(HighestSupportedQuantile(100) == 0.9);
  EXPECT(HighestSupportedQuantile(1000) == 0.99);
  EXPECT(HighestSupportedQuantile(10000) == 0.999);
  EXPECT(HighestSupportedQuantile(1000000) == 0.99999);

  // Too few samples for p99: the summary falls back to the highest
  // supported quantile and says so.
  std::vector<double> small = v;
  const LatencySummary s = Summarize(&small);
  EXPECT(s.samples == 100);
  EXPECT(s.p50 == 50);
  EXPECT(s.p99_q == 0.9);
  EXPECT(s.p99 == 90);
  EXPECT(s.tail_q == 0.9);

  std::vector<double> big;
  for (int i = 5000; i >= 1; --i) {
    big.push_back(i);  // unsorted on purpose
  }
  const LatencySummary b = Summarize(&big);
  EXPECT(b.p99_q == 0.99);
  EXPECT(b.p99 == 4950);
  EXPECT(b.tail_q == 0.99);  // p99.9 of 5000 leaves only 5 beyond
  EXPECT(std::fabs(b.mean - 2500.5) < 1e-9);

  EXPECT(Median({3, 1, 2}) == 2);
  EXPECT(Median({4, 1, 2, 3}) == 2.5);
  EXPECT((Ratio{3, 4}.value() == 0.75));
  EXPECT((Ratio{3, 0}.value() == 0.0));
}

Span MakeSpan(uint64_t start, uint64_t end, int32_t parent, SpanKind kind) {
  Span s;
  s.start = start;
  s.end = end;
  s.parent = parent;
  s.kind = kind;
  return s;
}

void TestSpanSelfTime() {
  // op [0,100) > execute [10,90) > attempts [10,40) and [50,80) > apps
  // [15,35) inside the first; commit [80,90).
  std::vector<Span> spans = {
      MakeSpan(0, 100, -1, SpanKind::kOp),      MakeSpan(10, 90, 0, SpanKind::kExecute),
      MakeSpan(10, 40, 1, SpanKind::kAttempt),  MakeSpan(15, 35, 2, SpanKind::kApps),
      MakeSpan(50, 80, 1, SpanKind::kAttempt),  MakeSpan(80, 90, 1, SpanKind::kCommit),
  };
  spans[4].detail = 1;
  const std::vector<uint64_t> self = SelfTimes(spans);
  EXPECT(self[0] == 20);  // 100 - 80
  EXPECT(self[1] == 10);  // 80 - (30 + 30 + 10)
  EXPECT(self[2] == 10);  // 30 - 20
  EXPECT(self[3] == 20);
  EXPECT(self[4] == 30);
  EXPECT(self[5] == 10);
  uint64_t sum = 0;
  for (const uint64_t s : self) {
    sum += s;
  }
  EXPECT(sum == 100);  // self times sum to the root's duration

  // Overlapping children count once; a child sticking out of its parent is
  // clipped to it.
  std::vector<Span> odd = {
      MakeSpan(0, 100, -1, SpanKind::kOp),
      MakeSpan(10, 50, 0, SpanKind::kExecute),
      MakeSpan(30, 70, 0, SpanKind::kExecute),
      MakeSpan(90, 120, 0, SpanKind::kExecute),
  };
  EXPECT(SelfTimes(odd)[0] == 30);  // covered: [10,70) + [90,100)

  LayerTotals totals;
  totals.Add(spans);
  EXPECT(totals.ops == 1);
  EXPECT(totals.root_ps == 100);
  EXPECT(totals.self_ps == 100);
  EXPECT(totals.attempts_committed == 1);
  EXPECT(totals.attempts_aborted == 1);
  EXPECT(totals.wasted_ps == 80 - 30 - 10);  // execute minus final attempt and commit
  EXPECT(totals.apps_us[0].size() == 1);

  OpTrace t;
  const int32_t root = t.Begin(SpanKind::kOp, -1, 5);
  const int32_t child = t.Begin(SpanKind::kExecute, root, 6);
  t.End(child, 8);
  t.End(root, 9);
  SpanStore store;
  store.Append(t);
  store.Append(t);
  EXPECT(store.ops() == 2);
  EXPECT(store.Op(1).size() == 2);
  EXPECT(store.Op(1)[1].end == 8);
  std::string chrome;
  store.ExportChrome(0, 0, 1, &chrome);
  EXPECT(chrome.find("\"name\":\"tm.execute\"") != std::string::npos);
}

void TestGeneratorDeterminism() {
  const Zipfian zipf(16384, 0.99);
  Mix kv;
  kv.kind = Mix::Kind::kKv;
  kv.keys = 16384;
  kv.zipf = &zipf;
  Mix oltp;
  oltp.kind = Mix::Kind::kOltp;
  oltp.warehouses = 4;
  oltp.max_lines = 4;
  oltp.status_back = 32;
  Mix bank;
  bank.kind = Mix::Kind::kBank;
  bank.accounts = 1024;
  for (const Mix* mix : {&kv, &oltp, &bank}) {
    OpStream a(*mix, StreamSeed(7, 0, 1));
    OpStream b(*mix, StreamSeed(7, 0, 1));
    OpStream c(*mix, StreamSeed(8, 0, 1));
    bool same = true, differs = false;
    for (int i = 0; i < 10000; ++i) {
      const Op x = a.Next();
      const Op y = b.Next();
      const Op z = c.Next();
      same = same && x == y;
      differs = differs || !(x == z);
    }
    EXPECT(same);
    EXPECT(differs);
  }
  EXPECT(StreamSeed(7, 0, 0) != StreamSeed(7, 0, 1));
  EXPECT(StreamSeed(7, 0, 0) != StreamSeed(7, 1, 0));

  // The mix shares come out as specified.
  OpStream s(kv, 1);
  int gets = 0;
  std::vector<int> hits(16385);
  for (int i = 0; i < 100000; ++i) {
    const Op op = s.Next();
    gets += op.kind == OpKind::kGet ? 1 : 0;
    EXPECT(op.a >= 1 && op.a <= 16384);
    ++hits[op.a % hits.size()];
  }
  EXPECT(gets > 49000 && gets < 51000);
  // theta = 0.99 over 16384 keys: the hottest key draws several percent.
  int hottest = 0;
  for (const int h : hits) {
    hottest = std::max(hottest, h);
  }
  EXPECT(hottest > 5000);
  OpStream t(bank, 1);
  for (int i = 0; i < 10000; ++i) {
    const Op op = t.Next();
    if (op.kind == OpKind::kTransfer) {
      EXPECT(op.a != op.b && op.a < 1024 && op.b < 1024);
    }
  }
  EXPECT(StampWord(5, 1) == StampWord(5, 1));
  EXPECT(StampWord(5, 1) != StampWord(6, 1));
}

// Parses "num=A / den=B" out of a ratio's base.
bool ParseRatioBase(const std::string& base, double* num, double* den) {
  const size_t eq1 = base.find('=');
  const size_t slash = base.find(" / ");
  if (eq1 == std::string::npos || slash == std::string::npos) {
    return false;
  }
  const size_t eq2 = base.find('=', slash);
  if (eq2 == std::string::npos) {
    return false;
  }
  *num = std::strtod(base.c_str() + eq1 + 1, nullptr);
  *den = std::strtod(base.c_str() + eq2 + 1, nullptr);
  return true;
}

void CheckResult(const Result& r) {
  EXPECT(r.attempted > 0);
  EXPECT(r.failed == 0);
  for (const std::vector<Metric>* list : {&r.end_to_end, &r.per_layer}) {
    for (const Metric& m : *list) {
      EXPECT(!m.base.empty());
      EXPECT(m.tag == "measured" || m.tag == "modelled" || m.tag == "count");
      if (m.unit == "ratio") {
        // Every ratio carries its base, and the value is that base's ratio.
        double num = 0, den = 0;
        const bool parsed = ParseRatioBase(m.base, &num, &den);
        EXPECT(parsed || m.name == "trace.overhead_share");
        if (parsed && den > 0 && num > 0) {
          EXPECT(std::fabs(m.value - num / den) <= 1e-6 * std::max(1.0, m.value) + 1.0 / den);
        }
      }
    }
  }
}

const Metric* Find(const std::vector<Metric>& list, const std::string& name) {
  for (const Metric& m : list) {
    if (m.name == name) {
      return &m;
    }
  }
  return nullptr;
}

void TestShortRuns() {
  RunOptions opt;
  opt.workload = "kv-zipf-threads";
  opt.seed = 3;
  opt.seconds = 0.5;
  opt.trace = true;
  const Result kv = RunWorkload(opt);
  CheckResult(kv);
  const Metric* err = Find(kv.per_layer, "trace.self_sum_error");
  EXPECT(err != nullptr && err->value < 1e-9);

  // The simulated bank repeats exactly for one seed.
  opt.workload = "bank-sim48";
  opt.seconds = 1;
  opt.trace = false;
  const Result a = RunWorkload(opt);
  const Result b = RunWorkload(opt);
  CheckResult(a);
  for (const char* name : {"modelled_tput_ops_ms", "op_p50_us", "op_p99_us"}) {
    const Metric* x = Find(a.end_to_end, name);
    const Metric* y = Find(b.end_to_end, name);
    EXPECT(x != nullptr && y != nullptr && x->value == y->value);
  }
  const Metric* ex = Find(a.per_layer, "sim.events_per_commit");
  const Metric* ey = Find(b.per_layer, "sim.events_per_commit");
  EXPECT(ex != nullptr && ey != nullptr && ex->value == ey->value && ex->value > 0);
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPercentileSelection();
  perfbench::TestSpanSelfTime();
  perfbench::TestGeneratorDeterminism();
  perfbench::TestShortRuns();
  if (perfbench::failures != 0) {
    std::fprintf(stderr, "%d expectation(s) failed\n", perfbench::failures);
    return 1;
  }
  std::printf("perfbench_test: all passed\n");
  return 0;
}
