#include "load.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

namespace garlbench {

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  // Nearest rank: ceil(q * n), 1-based, clamped to [1, n].
  int64_t rank = static_cast<int64_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<int64_t>(rank, 1, static_cast<int64_t>(samples.size()));
  return samples[static_cast<size_t>(rank - 1)];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  if (n % 2 == 1) return samples[n / 2];
  return 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::vector<int64_t> PoissonSchedule(uint64_t seed, double rate_per_s,
                                     int64_t count) {
  std::vector<int64_t> times;
  if (count <= 0 || rate_per_s <= 0.0) return times;
  times.reserve(static_cast<size_t>(count));
  uint64_t state = seed;
  double t_s = 0.0;
  for (int64_t i = 0; i < count; ++i) {
    // SplitMix64 step.
    state += 0x9E3779B97F4A7C15ULL;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
    // Uniform in (0, 1]: 53 high bits, shifted off zero.
    const double u =
        (static_cast<double>(z >> 11) + 1.0) * (1.0 / 9007199254740992.0);
    t_s += -std::log(u) / rate_per_s;
    times.push_back(static_cast<int64_t>(std::llround(t_s * 1e9)));
  }
  return times;
}

double StepP99Ms(const LadderStep& step) {
  std::vector<double> all = step.latencies_ms;
  all.insert(all.end(), static_cast<size_t>(step.misses),
             std::numeric_limits<double>::infinity());
  return Percentile(std::move(all), 0.99);
}

bool TailWithinSlo(const std::vector<double>& latencies_ms_in_send_order,
                   double slo_ms) {
  const std::vector<double>& l = latencies_ms_in_send_order;
  if (l.empty()) return false;
  const size_t tail = std::max<size_t>(1, l.size() / 10);
  double sum = 0.0;
  for (size_t i = l.size() - tail; i < l.size(); ++i) sum += l[i];
  return sum / static_cast<double>(tail) <= slo_ms;
}

bool StepMeetsSlo(const LadderStep& step, double slo_ms) {
  return TailWithinSlo(step.latencies_ms, slo_ms) &&
         StepP99Ms(step) <= slo_ms;
}

double MaxRateMeetingSlo(const std::vector<LadderStep>& steps,
                         double slo_ms) {
  std::map<double, std::pair<int64_t, int64_t>> tally;  // met, steps
  for (const LadderStep& step : steps) {
    auto& [met, total] = tally[step.rate_per_s];  // ascending rate
    if (StepMeetsSlo(step, slo_ms)) ++met;
    ++total;
  }
  double best = 0.0;
  for (const auto& [rate, count] : tally) {
    if (2 * count.first <= count.second) break;
    best = rate;
  }
  return best;
}

}  // namespace garlbench
