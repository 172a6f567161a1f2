// garlbench: one run of one garl benchmark workload.
//
//   garlbench --workload <train-kaist|rollout-ucla|serve-kaist> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Prints an environment fingerprint line, progress on stderr, and as the
// last stdout line one JSON object {"correct", "attempted", "failed",
// "metrics"}: end-to-end metrics with --trace 0, per-layer metrics with
// --trace 1. GARL_NUM_THREADS is part of the workload definition; run.py
// sets it. See README.md in this directory.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "common/thread_pool.h"
#include "workloads.h"

namespace {

const char* EnvOr(const char* name, const char* fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? value : fallback;
}

int Usage() {
  std::fprintf(stderr,
               "usage: garlbench --workload <train-kaist|rollout-ucla|"
               "serve-kaist> --seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  garlbench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !have_workload || options.seconds <= 0.0) {
    return Usage();
  }

  std::printf(
      "garlbench: fingerprint {\"commit\": \"%s\", \"nproc\": %u, "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", \"simd_compiled\": %d, "
      "\"GARL_SIMD\": \"%s\", \"GARL_NUM_THREADS\": \"%s\", "
      "\"pool_threads\": %lld, \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d}\n",
      EnvOr("GARLBENCH_COMMIT", "unknown"),
      std::thread::hardware_concurrency(), GARLBENCH_COMPILER,
      GARLBENCH_BUILD_TYPE, GARL_SIMD_COMPILED, EnvOr("GARL_SIMD", "(unset)"),
      EnvOr("GARL_NUM_THREADS", "(unset)"),
      static_cast<long long>(garl::ThreadPool::Global().num_threads()),
      options.workload.c_str(),
      static_cast<unsigned long long>(options.seed), options.seconds,
      options.trace ? 1 : 0);
  std::fflush(stdout);

  garlbench::RunResult result;
  garlbench::StartWatchdog(&result);
  int code = 0;
  try {
    garlbench::RunWorkload(options, &result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "garlbench: %s\n", e.what());
    code = 1;
  }
  garlbench::StopWatchdog();
  if (code != 0) return code;
  garlbench::PrintResult(result, options.trace);
  return 0;
}
