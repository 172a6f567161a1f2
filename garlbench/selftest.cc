// Self-test of the benchmark's own measurement logic (load.h): exact
// percentiles, the max-rate-under-SLO ladder search and the seeded arrival
// schedule. Exits 1 on the first failed check; run.py runs it after every
// build, before any run.

#include <cmath>
#include <cstdio>
#include <vector>

#include "load.h"

namespace {

int g_failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "garlbench_selftest: FAILED: %s\n", what);
    ++g_failures;
  }
}

void TestPercentiles() {
  using garlbench::Percentile;
  std::vector<double> one_to_hundred;
  for (int i = 100; i >= 1; --i) one_to_hundred.push_back(i);
  Check(Percentile(one_to_hundred, 0.99) == 99.0, "p99 of 1..100 is 99");
  Check(Percentile(one_to_hundred, 0.50) == 50.0, "p50 of 1..100 is 50");
  Check(Percentile(one_to_hundred, 1.00) == 100.0, "p100 is the max");
  Check(Percentile(one_to_hundred, 0.0) == 1.0, "p0 is the min");
  Check(Percentile({}, 0.5) == 0.0, "empty percentile is 0");
  // A p99 is always one of the samples, never above the max: the defect of
  // reading it off a histogram bucket bound.
  std::vector<double> skewed(1000, 1.0);
  skewed.back() = 86.258;
  Check(Percentile(skewed, 0.99) == 1.0, "p99 ignores a single outlier");
  Check(Percentile(skewed, 0.999) <= 86.258, "p99.9 within max");
  Check(garlbench::Median({3, 1, 2}) == 2.0, "odd median");
  Check(garlbench::Median({4, 1, 2, 3}) == 2.5, "even median");
}

garlbench::LadderStep Step(double rate, double latency_ms, int64_t n,
                           int64_t misses) {
  garlbench::LadderStep step;
  step.rate_per_s = rate;
  step.latencies_ms.assign(static_cast<size_t>(n), latency_ms);
  step.misses = misses;
  return step;
}

void TestLadderSearch() {
  using garlbench::MaxRateMeetingSlo;
  const double slo = 50.0;
  Check(MaxRateMeetingSlo({Step(100, 5, 1000, 0), Step(200, 10, 1000, 0),
                           Step(300, 80, 1000, 0)},
                          slo) == 200.0,
        "highest passing rate");
  // Order of steps does not matter.
  Check(MaxRateMeetingSlo({Step(300, 80, 1000, 0), Step(100, 5, 1000, 0),
                           Step(200, 10, 1000, 0)},
                          slo) == 200.0,
        "unordered ladder");
  // A pass above a failing rate does not count (monotone prefix).
  Check(MaxRateMeetingSlo({Step(100, 5, 1000, 0), Step(200, 80, 1000, 0),
                           Step(300, 10, 1000, 0)},
                          slo) == 100.0,
        "no pass above a failure");
  Check(MaxRateMeetingSlo({Step(100, 80, 1000, 0)}, slo) == 0.0,
        "all fail gives 0");
  // Misses are infinitely late: 1% is tolerated by a p99, 2% is not.
  Check(MaxRateMeetingSlo({Step(100, 5, 990, 10)}, slo) == 100.0,
        "1% misses meet p99");
  Check(MaxRateMeetingSlo({Step(100, 5, 980, 20)}, slo) == 0.0,
        "2% misses fail p99");
  Check(std::isinf(garlbench::StepP99Ms(Step(100, 5, 980, 20))),
        "p99 with 2% misses is infinite");
  // Growing backlog: the last tenth is slow, yet only its final 1% is past
  // the SLO, so the p99 alone would pass.
  garlbench::LadderStep growing = Step(100, 5, 1000, 0);
  for (size_t i = 900; i < 990; ++i) growing.latencies_ms[i] = 45;
  for (size_t i = 990; i < 1000; ++i) growing.latencies_ms[i] = 500;
  Check(garlbench::StepP99Ms(growing) <= slo, "growing step p99 is in SLO");
  Check(!garlbench::TailWithinSlo(growing.latencies_ms, slo),
        "late tail is a backlog");
  Check(!garlbench::StepMeetsSlo(growing, slo), "a backlog fails the SLO");
  Check(garlbench::MaxRateMeetingSlo({Step(50, 5, 1000, 0), growing}, slo) ==
            50.0,
        "a backlog caps the max rate");
  for (size_t i = 990; i < 1000; ++i) growing.latencies_ms[i] = 60;
  Check(garlbench::TailWithinSlo(growing.latencies_ms, slo),
        "mild tail meets");
  // A rate with several steps (one per round) meets the SLO when more
  // than half of them do.
  Check(MaxRateMeetingSlo({Step(100, 5, 300, 0), Step(100, 80, 300, 0),
                           Step(100, 5, 300, 0), Step(100, 80, 300, 0),
                           Step(100, 5, 300, 0), Step(200, 80, 300, 0)},
                          slo) == 100.0,
        "3 of 5 rounds meet");
  Check(MaxRateMeetingSlo({Step(100, 80, 300, 0), Step(100, 80, 300, 0),
                           Step(100, 5, 300, 0), Step(100, 80, 300, 0),
                           Step(100, 5, 300, 0)},
                          slo) == 0.0,
        "2 of 5 rounds fail the rate");
  Check(MaxRateMeetingSlo({Step(100, 5, 300, 0), Step(100, 80, 300, 0)},
                          slo) == 0.0,
        "half the rounds is not a majority");
}

void TestSchedule() {
  const std::vector<int64_t> a = garlbench::PoissonSchedule(42, 200.0, 4000);
  const std::vector<int64_t> b = garlbench::PoissonSchedule(42, 200.0, 4000);
  const std::vector<int64_t> c = garlbench::PoissonSchedule(43, 200.0, 4000);
  Check(a == b, "same seed reproduces the schedule");
  Check(a != c, "another seed changes the schedule");
  Check(a.size() == 4000, "schedule length");
  bool increasing = true;
  for (size_t i = 1; i < a.size(); ++i) increasing = increasing && a[i] > a[i - 1];
  Check(increasing, "send times strictly increase");
  // Mean rate within 5% of the request (4000 gaps: sd of the mean ~1.6%).
  const double seconds = static_cast<double>(a.back()) / 1e9;
  const double rate = static_cast<double>(a.size()) / seconds;
  Check(std::fabs(rate - 200.0) / 200.0 < 0.05, "mean rate matches");
  // Pinned values: the schedule is part of the workload definition, so a
  // change to it is a benchmark change and must show here.
  Check(garlbench::PoissonSchedule(7, 100.0, 3) ==
            std::vector<int64_t>({9420452, 50291186, 51336342}),
        "schedule(7, 100/s) is pinned");
}

}  // namespace

int main() {
  TestPercentiles();
  TestLadderSearch();
  TestSchedule();
  if (g_failures > 0) return 1;
  std::printf("garlbench_selftest: all checks passed\n");
  return 0;
}
