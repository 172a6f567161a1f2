#ifndef GARLBENCH_LOAD_H_
#define GARLBENCH_LOAD_H_

#include <cstdint>
#include <vector>

// Pure measurement logic of the garl benchmark, kept free of the garl
// libraries so garlbench_selftest can check it in isolation: exact
// percentiles over raw samples, the seeded open-loop arrival schedule, and
// the max-rate-under-SLO search over the serving ladder.

namespace garlbench {

// Exact nearest-rank percentile of raw samples: the smallest sample with at
// least q * n samples at or below it. The result is always one of the
// samples, so a p99 can never exceed the maximum (unlike a histogram bucket
// bound). q in [0, 1]; returns 0 for no samples.
double Percentile(std::vector<double> samples, double q);

// Median (mean of the two middle samples for an even count); 0 when empty.
double Median(std::vector<double> samples);

// Open-loop Poisson arrival schedule: `count` send times in nanoseconds
// from the start of the phase, with exponential gaps of mean 1/rate. A pure
// function of (seed, rate, count) on every platform (SplitMix64 plus an
// explicit inverse-CDF, no <random> distributions).
std::vector<int64_t> PoissonSchedule(uint64_t seed, double rate_per_s,
                                     int64_t count);

// Outcome of one stretch of sending at one ladder rate. Latencies are
// measured from each request's scheduled send; a request that failed, was
// refused, shed or expired is a miss and counts as an infinitely late
// sample.
struct LadderStep {
  double rate_per_s = 0.0;
  std::vector<double> latencies_ms;  // completed requests, in send order
  int64_t misses = 0;
};

// No growing backlog over one stretch of sending: the last tenth of its
// completed requests, in send order, still average within the SLO.
bool TailWithinSlo(const std::vector<double>& latencies_ms_in_send_order,
                   double slo_ms);

// p99 of a step with misses counted as infinitely late (so more than 1%
// misses gives +infinity).
double StepP99Ms(const LadderStep& step);

// A step meets the SLO when its p99 (misses included) is within `slo_ms`
// and its backlog did not grow (TailWithinSlo).
bool StepMeetsSlo(const LadderStep& step, double slo_ms);

// A rate meets the SLO when more than half of its steps do (one step per
// round of the run), so a host stall that spoils one round does not decide
// the rate. Returns the highest ladder rate r such that every rate <= r
// meets the SLO; 0 when the lowest rate already fails. Steps may come in
// any order.
double MaxRateMeetingSlo(const std::vector<LadderStep>& steps, double slo_ms);

}  // namespace garlbench

#endif  // GARLBENCH_LOAD_H_
