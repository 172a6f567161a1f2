#ifndef GARLBENCH_WORKLOADS_H_
#define GARLBENCH_WORKLOADS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

// The three garl benchmark workloads (see README.md in this directory for
// why each exists and which layer metric should move which end-to-end one).

namespace garlbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  int64_t samples = 0;  // what the value summarises (operations, episodes)
};

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// What a run reports. `attempted` / `failed` count the workload's timed
// operations (training iterations, evaluation calls, served requests that
// are expected to succeed); `correct` is false when any output check fails.
struct RunResult {
  bool correct = true;
  std::atomic<int64_t> attempted{0};
  std::atomic<int64_t> failed{0};
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  void Fail(const std::string& why);
};

// Runs one workload. Every timed operation runs under an OpBound (below),
// so a wedged call is recorded as a failed operation and ends the run with
// a result instead of hanging it.
void RunWorkload(const RunOptions& options, RunResult* result);

// Renders metrics as a JSON object {"name": {"value": v, "unit": u}, ...}.
std::string MetricsJson(const std::vector<Metric>& metrics);

// Prints the end-to-end metrics on a "garlbench: end-to-end" line, then the
// result line (the last line of stdout).
void PrintResult(const RunResult& result, bool trace);

// Arms the process watchdog for one operation: if the operation is still
// running `bound_s` seconds later, the watchdog counts it as failed, prints
// the result as it stands and exits the process (code 0, the run itself
// completed; the failure is in `failed`). Nesting is not supported.
class OpBound {
 public:
  OpBound(const char* what, double bound_s);
  ~OpBound();
  OpBound(const OpBound&) = delete;
  OpBound& operator=(const OpBound&) = delete;
};

// Starts the watchdog thread that enforces OpBound for `result`.
void StartWatchdog(RunResult* result);
void StopWatchdog();

}  // namespace garlbench

#endif  // GARLBENCH_WORKLOADS_H_
