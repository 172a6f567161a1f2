// garl_fleet: self-healing multi-process experiment supervisor (see
// fleet.h for the supervision model).
//
//   garl_fleet --root <dir> [--seeds N] [--iterations N] [--episodes N]
//              [--segment-bytes B] [--max-restarts R]
//              [--heartbeat-deadline-ms MS]
//       Supervise N runs (seeds 1..N) of the builtin benchmark scenario;
//       merge results into <dir>/RESULTS.md.
//
//   garl_fleet --child --run-dir <dir> --seed S --iterations N
//              --episodes E --segment-bytes B [--fail-with C]
//       Internal: one supervised trainer process (spawned by the
//       supervisor; runnable by hand for debugging).
//
// Exit codes: 0 = OK, 1 = failure, 2 = usage error; child processes
// additionally use 3 = graceful-shutdown checkpoint (see fleet.h).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "common/proc.h"
#include "common/status.h"
#include "common/string_util.h"
#include "tools/garl_fleet/child.h"
#include "tools/garl_fleet/fleet.h"

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: garl_fleet --root <dir> [--seeds N] [--iterations N]\n"
      "                  [--episodes N] [--segment-bytes B]\n"
      "                  [--max-restarts R] [--heartbeat-deadline-ms MS]\n"
      "       garl_fleet --child --run-dir <dir> --seed S --iterations N\n"
      "                  --episodes E --segment-bytes B [--fail-with C]\n");
  return 2;
}

bool ParseInt64(const char* text, int64_t* out) {
  char* end = nullptr;
  long long value = std::strtoll(text, &end, 10);
  if (end == nullptr || *end != '\0') return false;
  *out = static_cast<int64_t>(value);
  return true;
}

// The supervisor respawns itself as `--child`; /proc/self/exe is the only
// reliable path to the running binary (argv[0] may be relative to a
// directory we have since left).
std::string SelfBinaryPath(const char* argv0) {
  std::error_code ec;
  std::filesystem::path self =
      std::filesystem::read_symlink("/proc/self/exe", ec);
  if (!ec) return self.string();
  return argv0;
}

int RunChild(int argc, char** argv) {
  garl::fleet::ChildOptions options;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    auto next_int = [&](int64_t* out) {
      return i + 1 < argc && ParseInt64(argv[++i], out);
    };
    int64_t value = 0;
    if (arg == "--run-dir" && i + 1 < argc) {
      options.run_dir = argv[++i];
    } else if (arg == "--seed" && next_int(&value)) {
      options.seed = static_cast<uint64_t>(value);
    } else if (arg == "--iterations" && next_int(&value)) {
      options.iterations = value;
    } else if (arg == "--episodes" && next_int(&value)) {
      options.episodes_per_iteration = value;
    } else if (arg == "--segment-bytes" && next_int(&value)) {
      options.run_log_max_segment_bytes = value;
    } else if (arg == "--fail-with" && next_int(&value)) {
      options.fail_with = static_cast<int>(value);
    } else {
      return Usage();
    }
  }
  return garl::fleet::RunChildTrainer(options);
}

int RunSupervisor(int argc, char** argv) {
  garl::fleet::SupervisorConfig config;
  config.child_binary = SelfBinaryPath(argv[0]);
  int64_t seeds = 2;
  int64_t iterations = 10;
  int64_t episodes = 1;
  int64_t segment_bytes = 0;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next_int = [&](int64_t* out) {
      return i + 1 < argc && ParseInt64(argv[++i], out);
    };
    if (arg == "--root" && i + 1 < argc) {
      config.root_dir = argv[++i];
    } else if (arg == "--seeds" && next_int(&seeds)) {
    } else if (arg == "--iterations" && next_int(&iterations)) {
    } else if (arg == "--episodes" && next_int(&episodes)) {
    } else if (arg == "--segment-bytes" && next_int(&segment_bytes)) {
    } else if (arg == "--max-restarts" && next_int(&config.max_restarts)) {
    } else if (arg == "--heartbeat-deadline-ms" &&
               next_int(&config.heartbeat_deadline_ms)) {
    } else {
      return Usage();
    }
  }
  if (config.root_dir.empty() || seeds <= 0) return Usage();

  // The supervisor itself shuts down gracefully: SIGTERM/SIGINT forwards
  // SIGTERM to every child, which checkpoints and exits.
  garl::Status signals = garl::proc::InstallShutdownSignalHandlers();
  if (!signals.ok()) {
    std::fprintf(stderr, "garl_fleet: %s\n", signals.ToString().c_str());
    return 1;
  }

  std::vector<garl::fleet::RunSpec> specs;
  for (int64_t s = 1; s <= seeds; ++s) {
    garl::fleet::RunSpec spec;
    spec.name = garl::StrPrintf("seed_%03lld", static_cast<long long>(s));
    spec.seed = static_cast<uint64_t>(s);
    spec.iterations = iterations;
    spec.episodes_per_iteration = episodes;
    spec.run_log_max_segment_bytes = segment_bytes;
    specs.push_back(std::move(spec));
  }

  garl::StatusOr<std::vector<garl::fleet::RunResult>> results =
      garl::fleet::SuperviseFleet(config, specs);
  if (!results.ok()) {
    std::fprintf(stderr, "garl_fleet: %s\n",
                 results.status().ToString().c_str());
    return 1;
  }
  garl::WarnIfError(garl::fleet::WriteResultsTable(config, results.value()),
                    "writing RESULTS.md");
  for (const garl::fleet::RunResult& result : results.value()) {
    std::printf("%s: %s (restarts=%lld, hang_kills=%lld)\n",
                result.name.c_str(), result.status.ToString().c_str(),
                static_cast<long long>(result.restarts),
                static_cast<long long>(result.hang_kills));
  }
  garl::Status aggregate = garl::fleet::AggregateStatus(results.value());
  if (!aggregate.ok()) {
    std::fprintf(stderr, "garl_fleet: %s\n", aggregate.ToString().c_str());
    return 1;
  }
  std::printf("fleet complete: %zu run(s), results in %s/RESULTS.md\n",
              results.value().size(), config.root_dir.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--child") == 0) {
    return RunChild(argc, argv);
  }
  return RunSupervisor(argc, argv);
}
