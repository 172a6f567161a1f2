#include "workloads.h"

#include <dirent.h>
#include <pthread.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "baselines/registry.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/e_comm.h"
#include "core/garl_extractor.h"
#include "core/mc_gcn.h"
#include "core/serving_plan.h"
#include "env/campus_factory.h"
#include "env/world.h"
#include "load.h"
#include "nn/arena.h"
#include "nn/ops.h"
#include "nn/optimizer.h"
#include "obs/trace.h"
#include "rl/evaluator.h"
#include "rl/feature_policy.h"
#include "rl/ippo_trainer.h"
#include "rl/rollout.h"
#include "rl/uav_controller.h"
#include "serve/policy_server.h"

namespace garlbench {

using garl::Rng;
namespace env = garl::env;
namespace nn = garl::nn;
namespace rl = garl::rl;
namespace core = garl::core;
namespace serve = garl::serve;

namespace {

// ---------------------------------------------------------------------------
// Workload constants. They define the workloads: changing one is a
// benchmark change (re-measure the baseline), never part of a gain claim.

constexpr int kSetups = 101;  // set-ups per run; setup_s is their median
constexpr int64_t kUgvs = 4;          // U
constexpr int64_t kUavsPerUgv = 2;    // V'
constexpr int64_t kHorizon = 100;     // T
constexpr uint64_t kModelSeed = 1;    // initial policy weights
// train-kaist's rl.lambda averages the first kLambdaIters timed iterations,
// so at least that many run whatever --seconds says.
constexpr int64_t kLambdaIters = 10;
constexpr int64_t kMinTrainIters = kLambdaIters;
// Iterations a fresh trainer replays: the warm-up and the first timed one.
constexpr size_t kReplayIters = 2;
constexpr int64_t kEvalEpisodes = 4;  // episodes per EvaluatePolicy call
constexpr size_t kEvalSeeds = 16;     // evaluation seeds the calls cycle over
constexpr int64_t kMinEvalCalls = 2 * kEvalSeeds;
constexpr double kSloMs = 50.0;       // serving SLO on p99, from scheduled send
constexpr double kLightRate = 100.0;  // req/s, light load
constexpr double kMidRate = 200.0;    // req/s, mid load
// Open-loop ladder (absolute rates, req/s), starting with light and mid,
// then 4x mid and an overload rung. A change of about 2x in serving
// capacity moves serve.max_rate_slo (per-layer) by one rung. There is no
// 400 rung: at 45-77% of sync capacity it sits on the knee, and whether it
// met the SLO followed the shared machine's load rather than the code.
const std::vector<double> kLadder = {kLightRate, kMidRate, 800.0, 1200.0};
constexpr double kSyncShare = 0.3;    // of --seconds, for the sync phase
constexpr int64_t kServeRounds = 5;   // interleaved sync + ladder rounds
constexpr int64_t kMinStepRequests = 1000;  // per ladder rate, over the run
constexpr int64_t kRequestEpisodes = 6;  // seeded KAIST episodes -> requests
// Server-side deadline on open-loop requests: an overloaded step sheds work
// instead of queueing it without limit. Ten times the SLO, so no request
// that could still meet the SLO ever expires.
constexpr int64_t kDeadlineUs = 500000;
// Operation bounds (seconds): generous multiples of the measured times, so
// only a wedged call reaches them.
constexpr double kIterBound = 60.0;
constexpr double kEvalBound = 30.0;
constexpr double kBatchBound = 30.0;
constexpr double kRequestBoundMs = 5000.0;
// Layer probe of the workloads other than serve-kaist: requests per rate in
// its short open-loop run at the light and mid rates.
constexpr int64_t kProbeStepRequests = 200;

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Process facts.

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

std::string ReadComm(const std::string& path) {
  std::ifstream in(path);
  std::string comm;
  std::getline(in, comm);
  return comm;
}

// The main thread's name, read before any thread of ours is renamed.
// Pool workers and the serving dispatcher inherit it; the watchdog is
// renamed, so counting threads with this name counts the pool.
const std::string& ProcessComm() {
  static const std::string comm = ReadComm("/proc/self/comm");
  return comm;
}

int64_t ThreadsNamedLikeMain() {
  int64_t count = 0;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return 0;
  while (dirent* entry = readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    std::string comm =
        ReadComm(std::string("/proc/self/task/") + entry->d_name + "/comm");
    if (comm == ProcessComm()) ++count;
  }
  closedir(dir);
  return count;
}

// ---------------------------------------------------------------------------
// Watchdog.

struct Watchdog {
  std::mutex mutex;
  std::condition_variable cv;
  const char* op = nullptr;  // guarded by mutex
  Clock::time_point deadline;
  bool stop = false;
  RunResult* result = nullptr;
  std::thread thread;
};

Watchdog& TheWatchdog() {
  static Watchdog* watchdog = new Watchdog();  // never destroyed
  return *watchdog;
}

void WatchdogLoop() {
  pthread_setname_np(pthread_self(), "garlbench-wd");
  Watchdog& wd = TheWatchdog();
  std::unique_lock<std::mutex> lock(wd.mutex);
  while (!wd.stop) {
    if (wd.op == nullptr) {
      wd.cv.wait(lock);
      continue;
    }
    wd.cv.wait_until(lock, wd.deadline);
    if (wd.op != nullptr && !wd.stop && Clock::now() >= wd.deadline) {
      std::fprintf(stderr,
                   "garlbench: %s exceeded its bound; counted as a failed "
                   "operation (pool live threads: %lld)\n",
                   wd.op, static_cast<long long>(ThreadsNamedLikeMain()));
      wd.result->failed.fetch_add(1);
      // The wedged thread may still hold the metric vectors; report the
      // counts only.
      std::printf("{\"correct\": false, \"attempted\": %lld, \"failed\": "
                  "%lld, \"metrics\": {}}\n",
                  static_cast<long long>(wd.result->attempted.load()),
                  static_cast<long long>(wd.result->failed.load()));
      std::fflush(stdout);
      std::fflush(stderr);
      _exit(0);
    }
  }
}

// ---------------------------------------------------------------------------
// The system under test, built the way garl_fleet and the paper benches
// build it. Heap-allocated and pinned: the policy keeps a pointer to
// `context`. The model's initial weights are part of the system, not of the
// inputs: they come from a fixed seed, and --seed varies the data (episode
// resets, action sampling, evaluation seeds, requests, arrival schedules).
// Seeded initial weights would spread lambda and the per-iteration work
// across runs by model quality alone.

struct Stack {
  std::unique_ptr<env::World> world;
  rl::EnvContext context;
  std::unique_ptr<rl::UgvPolicyNetwork> policy;
  rl::FeatureUgvPolicy* feature_policy = nullptr;  // == policy, GARL only
};

std::unique_ptr<Stack> BuildStack(const std::string& campus) {
  auto stack = std::make_unique<Stack>();
  env::WorldParams params;
  params.num_ugvs = kUgvs;
  params.uavs_per_ugv = kUavsPerUgv;
  params.horizon = kHorizon;
  stack->world = std::make_unique<env::World>(
      campus == "UCLA" ? env::MakeUclaCampus() : env::MakeKaistCampus(),
      params);
  stack->context = rl::MakeEnvContext(*stack->world);
  Rng rng(kModelSeed);
  auto policy = garl::baselines::MakeUgvPolicy(
      "GARL", stack->context, garl::baselines::MethodOptions(), rng);
  if (!policy.ok()) {
    throw std::runtime_error("MakeUgvPolicy: " + policy.status().ToString());
  }
  stack->policy = std::move(policy).value();
  stack->feature_policy =
      dynamic_cast<rl::FeatureUgvPolicy*>(stack->policy.get());
  if (stack->feature_policy == nullptr) {
    throw std::runtime_error("GARL policy is not a FeatureUgvPolicy");
  }
  return stack;
}

// ---------------------------------------------------------------------------
// Counters the program exports, captured around a phase.

struct Counters {
  garl::ThreadPool::Stats pool;
  nn::arena::ArenaStats arena;
  std::map<std::string, garl::obs::SpanStats> spans;
};

Counters Capture() {
  Counters c;
  c.pool = garl::ThreadPool::Global().stats();
  c.arena = nn::arena::GlobalStats();
  for (const garl::obs::SpanStats& s :
       garl::obs::TraceCollector::Global().Snapshot()) {
    c.spans[s.name] = s;
  }
  return c;
}

garl::obs::SpanStats SpanDelta(const Counters& before, const Counters& after,
                               const std::string& name) {
  garl::obs::SpanStats d;
  d.name = name;
  auto a = after.spans.find(name);
  if (a == after.spans.end()) return d;
  d.count = a->second.count;
  d.total_ns = a->second.total_ns;
  auto b = before.spans.find(name);
  if (b != before.spans.end()) {
    d.count -= b->second.count;
    d.total_ns -= b->second.total_ns;
  }
  return d;
}

// Per-layer metrics every workload reports. Filled in by the workload where
// its timed phase exercises the layer, by the layer probe otherwise.
struct Layers {
  double rl_update_ugv_s = 0, rl_collect_s = 0, rl_eval_episode_s = 0;
  double rl_lambda = 0;
  double core_forward_grad_ms = 0, core_forward_nograd_ms = 0;
  double core_mc_gcn_ms = 0, core_e_comm_ms = 0, core_plan_execute_ms = 0;
  double nn_backward_ms = 0, nn_clip_ms = 0, nn_adam_step_ms = 0;
  double nn_arena_heap_allocs_per_iter = 0, nn_node_heap_allocs_per_iter = 0;
  double env_step_us = 0, env_observe_us = 0, env_uav_act_us = 0;
  double env_route_cache_hit_share = 0;
  double serve_p50_ms_light = 0, serve_p50_ms_mid = 0;
  double serve_p99_ms_light = 0, serve_p99_ms_mid = 0;
  double serve_max_rate_slo = 0;
  double serve_queue_depth_max = 0, serve_gen_late_ms_max = 0;
  double serve_rejected = 0, serve_shed = 0, serve_deadline_misses = 0;
  double pool_parallel_fors = 0, pool_inline_share = 0;
  double pool_tasks_submitted = 0, pool_live_threads_end = 0;

  // Pool and arena traffic of the workload's timed phase, per operation.
  void SetPhase(const Counters& before, const Counters& after, int64_t ops,
                int64_t live_threads) {
    const double n = static_cast<double>(std::max<int64_t>(ops, 1));
    const double pfs = static_cast<double>(after.pool.parallel_fors -
                                           before.pool.parallel_fors);
    const double inl = static_cast<double>(after.pool.inline_parallel_fors -
                                           before.pool.inline_parallel_fors);
    pool_parallel_fors = pfs / n;
    pool_inline_share = pfs > 0 ? inl / pfs : 0.0;
    pool_tasks_submitted = static_cast<double>(after.pool.tasks_submitted -
                                               before.pool.tasks_submitted) /
                           n;
    pool_live_threads_end = static_cast<double>(live_threads);
    nn_arena_heap_allocs_per_iter =
        static_cast<double>(after.arena.heap_allocs -
                            before.arena.heap_allocs) / n;
    nn_node_heap_allocs_per_iter =
        static_cast<double>(after.arena.node_heap_allocs -
                            before.arena.node_heap_allocs) / n;
  }

  void Emit(std::vector<Metric>* out) const {
    auto add = [out](const char* name, double value, const char* unit) {
      out->push_back({name, value, unit});
    };
    add("rl.update_ugv_s", rl_update_ugv_s, "s");
    add("rl.collect_s", rl_collect_s, "s");
    add("rl.eval_episode_s", rl_eval_episode_s, "s");
    add("rl.lambda", rl_lambda, "ratio");
    add("core.forward_grad_ms", core_forward_grad_ms, "ms");
    add("core.forward_nograd_ms", core_forward_nograd_ms, "ms");
    add("core.mc_gcn_ms", core_mc_gcn_ms, "ms");
    add("core.e_comm_ms", core_e_comm_ms, "ms");
    add("core.plan_execute_ms", core_plan_execute_ms, "ms");
    add("nn.backward_ms", nn_backward_ms, "ms");
    add("nn.clip_ms", nn_clip_ms, "ms");
    add("nn.adam_step_ms", nn_adam_step_ms, "ms");
    add("nn.arena_heap_allocs_per_iter", nn_arena_heap_allocs_per_iter,
        "count");
    add("nn.node_heap_allocs_per_iter", nn_node_heap_allocs_per_iter,
        "count");
    add("env.step_us", env_step_us, "us");
    add("env.observe_us", env_observe_us, "us");
    add("env.uav_act_us", env_uav_act_us, "us");
    add("env.route_cache_hit_share", env_route_cache_hit_share, "share");
    add("serve.p50_ms.light", serve_p50_ms_light, "ms");
    add("serve.p50_ms.mid", serve_p50_ms_mid, "ms");
    add("serve.p99_ms.light", serve_p99_ms_light, "ms");
    add("serve.p99_ms.mid", serve_p99_ms_mid, "ms");
    add("serve.max_rate_slo", serve_max_rate_slo, "req/s");
    add("serve.queue_depth_max", serve_queue_depth_max, "count");
    add("serve.gen_late_ms_max", serve_gen_late_ms_max, "ms");
    add("serve.rejected", serve_rejected, "count");
    add("serve.shed", serve_shed, "count");
    add("serve.deadline_misses", serve_deadline_misses, "count");
    add("pool.parallel_fors", pool_parallel_fors, "count");
    add("pool.inline_share", pool_inline_share, "share");
    add("pool.tasks_submitted", pool_tasks_submitted, "count");
    add("pool.live_threads_end", pool_live_threads_end, "count");
  }
};

// ---------------------------------------------------------------------------
// Serving requests and the open-loop generator (serve-kaist and the layer
// probe).

using Request = std::vector<env::UgvObservation>;

// Joint observations of seeded KAIST episodes driven by seeded random UGV
// targets and the scripted UAV controller.
std::vector<Request> MakeRequests(const Stack& stack, uint64_t seed) {
  std::vector<Request> requests;
  env::World world = *stack.world;
  rl::GreedyUavController uav_controller;
  Rng rng(Rng::StreamSeed(seed, 4242));
  for (int64_t e = 0; e < kRequestEpisodes; ++e) {
    world.Reset(Rng::StreamSeed(seed, static_cast<uint64_t>(e)));
    while (!world.Done()) {
      Request request;
      for (int64_t u = 0; u < world.num_ugvs(); ++u) {
        request.push_back(world.ObserveUgv(u));
      }
      requests.push_back(std::move(request));
      std::vector<env::UgvAction> ugv_actions(
          static_cast<size_t>(world.num_ugvs()));
      for (int64_t u = 0; u < world.num_ugvs(); ++u) {
        ugv_actions[static_cast<size_t>(u)].release = rng.UniformF(0, 1) < 0.3f;
        ugv_actions[static_cast<size_t>(u)].target_stop = static_cast<int64_t>(
            rng.UniformF(0, 1) * static_cast<float>(stack.context.num_stops)) %
            stack.context.num_stops;
      }
      std::vector<env::UavAction> uav_actions(
          static_cast<size_t>(world.num_uavs()));
      for (int64_t v = 0; v < world.num_uavs(); ++v) {
        if (world.UavAirborne(v)) {
          uav_actions[static_cast<size_t>(v)] =
              uav_controller.Act(world, v, rng);
        }
      }
      world.Step(ugv_actions, uav_actions);
    }
  }
  return requests;
}

bool SameActions(const std::vector<env::UgvAction>& a,
                 const std::vector<env::UgvAction>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].release != b[i].release || a[i].target_stop != b[i].target_stop) {
      return false;
    }
  }
  return true;
}

// A served result is right when it is OK, came from plan version 1 and
// matches a direct Execute of the same request.
bool ServedCorrectly(const serve::ServeResult& served,
                     const std::vector<env::UgvAction>& expected) {
  return served.status.ok() && served.plan_version == 1 &&
         SameActions(served.actions, expected);
}

struct OpenLoopStats {
  LadderStep step;
  double gen_late_ms_max = 0.0;
  int64_t queue_depth_max = 0;
  int64_t wrong = 0;  // OK results whose actions differ from the reference
};

// One ladder segment, open loop: this thread sends on the seeded Poisson
// schedule into Submit and collects completions between sends. Latency is
// taken from each request's scheduled send, so a late generator or a
// stalled server counts against the system, not for it.
OpenLoopStats RunOpenLoopStep(serve::PolicyServer& server,
                              const std::vector<Request>& requests,
                              const std::vector<std::vector<env::UgvAction>>&
                                  expected,
                              double rate, int64_t count, uint64_t seed) {
  OpenLoopStats out;
  out.step.rate_per_s = rate;
  const std::vector<int64_t> schedule = PoissonSchedule(seed, rate, count);
  const size_t offset = static_cast<size_t>(seed % requests.size());
  std::vector<std::future<serve::ServeResult>> futures(
      static_cast<size_t>(count));
  std::vector<double> latency_ms(static_cast<size_t>(count), -1.0);
  std::vector<int64_t> outstanding;
  int64_t next = 0;
  int64_t misses = 0;
  const auto origin = Clock::now() + std::chrono::milliseconds(5);
  auto due = [&](int64_t i) {
    return origin + std::chrono::nanoseconds(schedule[static_cast<size_t>(i)]);
  };
  auto last_health = Clock::now();
  while (next < count || !outstanding.empty()) {
    auto now = Clock::now();
    if (next < count && now >= due(next)) {
      out.gen_late_ms_max = std::max(
          out.gen_late_ms_max,
          std::chrono::duration<double, std::milli>(now - due(next)).count());
      futures[static_cast<size_t>(next)] = server.Submit(
          requests[(offset + static_cast<size_t>(next)) % requests.size()],
          kDeadlineUs);
      outstanding.push_back(next);
      ++next;
      continue;
    }
    for (size_t k = 0; k < outstanding.size();) {
      const int64_t i = outstanding[k];
      auto& future = futures[static_cast<size_t>(i)];
      const double age_ms =
          std::chrono::duration<double, std::milli>(now - due(i)).count();
      if (future.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        serve::ServeResult served = future.get();
        const auto& want =
            expected[(offset + static_cast<size_t>(i)) % requests.size()];
        if (served.status.ok()) {
          latency_ms[static_cast<size_t>(i)] = age_ms;
          if (!ServedCorrectly(served, want)) ++out.wrong;
        } else {
          ++misses;  // refused, shed or expired
        }
      } else if (age_ms > kRequestBoundMs) {
        ++misses;  // wedged: abandoned, resolved by Shutdown later
      } else {
        ++k;
        continue;
      }
      outstanding[k] = outstanding.back();
      outstanding.pop_back();
    }
    if (now - last_health >= std::chrono::milliseconds(5)) {
      last_health = now;
      out.queue_depth_max =
          std::max(out.queue_depth_max, server.Health().queue_depth);
    }
    // Poll again in 50 us. Blocking on a future instead was measured to
    // double the light-load p99 on a VM (every completion and send then
    // waits for an idle vCPU to wake).
    if (next < count || !outstanding.empty()) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  for (double ms : latency_ms) {
    if (ms >= 0.0) out.step.latencies_ms.push_back(ms);
  }
  out.step.misses = misses;
  return out;
}

// ---------------------------------------------------------------------------
// Layer probe (traced runs only): times calls into each module's public
// functions on the workload's own world and policy, after its timed phase.
// Runs on the calling thread, except the serving part's server.

double MsSince(Clock::time_point start) { return SecondsSince(start) * 1e3; }

// Layers a workload's timed phase leaves out, which the probe then runs
// itself, so that every workload reports every per-layer metric.
struct ProbeParts {
  bool eval = false;   // one evaluation episode: rl.eval_episode_s, rl.lambda
  bool serve = false;  // open loop at the light and mid rates: serve.*
  bool train = false;  // one training iteration: rl.collect_s, update_ugv_s
};

void ProbeLayers(Stack& stack, const core::ServingPlan& plan,
                 const ProbeParts& parts, uint64_t seed, Layers* layers,
                 RunResult* result) {
  env::World& world = *stack.world;
  rl::GreedyUavController uav_controller;
  Rng rng(Rng::StreamSeed(seed, 99));

  // env + no-grad forward: one sampled episode, every call timed.
  std::vector<double> step_us, observe_us, uav_us, nograd_ms, execute_ms;
  std::vector<std::vector<env::UgvObservation>> joint_observations;
  std::vector<std::vector<env::UgvAction>> plan_answers;
  world.Reset(seed + 17);
  core::ServingWorkspace workspace = plan.MakeWorkspace();
  std::vector<env::UgvAction> plan_actions;
  while (!world.Done()) {
    auto t = Clock::now();
    std::vector<env::UgvObservation> observations;
    for (int64_t u = 0; u < world.num_ugvs(); ++u) {
      observations.push_back(world.ObserveUgv(u));
    }
    observe_us.push_back(MsSince(t) * 1e3);

    std::vector<rl::UgvPolicyOutput> outputs;
    t = Clock::now();
    {
      nn::NoGradGuard no_grad;
      outputs = stack.policy->Forward(observations);
    }
    nograd_ms.push_back(MsSince(t));

    t = Clock::now();
    const garl::Status executed =
        plan.Execute(observations, &workspace, &plan_actions);
    execute_ms.push_back(MsSince(t));
    if (!executed.ok()) {
      throw std::runtime_error("plan probe: " + executed.ToString());
    }

    plan_answers.push_back(plan_actions);

    std::vector<env::UgvAction> ugv_actions(
        static_cast<size_t>(world.num_ugvs()));
    for (int64_t u = 0; u < world.num_ugvs(); ++u) {
      if (!world.UgvNeedsAction(u)) continue;
      ugv_actions[static_cast<size_t>(u)] =
          rl::SampleUgvAction(outputs[static_cast<size_t>(u)], rng, false)
              .action;
    }
    t = Clock::now();
    std::vector<env::UavAction> uav_actions(
        static_cast<size_t>(world.num_uavs()));
    for (int64_t v = 0; v < world.num_uavs(); ++v) {
      if (world.UavAirborne(v)) {
        uav_actions[static_cast<size_t>(v)] =
            uav_controller.Act(world, v, rng);
      }
    }
    uav_us.push_back(MsSince(t) * 1e3);

    t = Clock::now();
    world.Step(ugv_actions, uav_actions);
    step_us.push_back(MsSince(t) * 1e3);
    joint_observations.push_back(std::move(observations));
  }
  // Route-cache lookups over the world's lifetime: construction, the
  // workload's episodes on it, and the probe episode.
  const double hits = static_cast<double>(world.stops().route_cache_hits());
  const double misses =
      static_cast<double>(world.stops().route_cache_misses());
  layers->env_step_us = Median(step_us);
  layers->env_observe_us = Median(observe_us);
  layers->env_uav_act_us = Median(uav_us);
  layers->env_route_cache_hit_share =
      hits + misses > 0 ? hits / (hits + misses) : 0.0;
  layers->core_forward_nograd_ms = Median(nograd_ms);
  layers->core_plan_execute_ms = Median(execute_ms);

  // MC-GCN and E-Comm through the extractor's public modules, no grad.
  const auto* garl_extractor = dynamic_cast<const core::GarlExtractor*>(
      &stack.feature_policy->extractor());
  const size_t probe_obs = std::min<size_t>(joint_observations.size(), 40);
  if (garl_extractor != nullptr && garl_extractor->mc_gcn() != nullptr &&
      garl_extractor->e_comm() != nullptr) {
    std::vector<double> mc_ms, comm_ms;
    nn::NoGradGuard no_grad;
    for (size_t i = 0; i < probe_obs; ++i) {
      const auto& observations = joint_observations[i];
      auto t = Clock::now();
      std::vector<nn::Tensor> features;
      for (const env::UgvObservation& obs : observations) {
        features.push_back(garl_extractor->mc_gcn()
                               ->Forward(obs.stop_features, obs.ugv_stops,
                                         obs.self)
                               .feature);
      }
      mc_ms.push_back(MsSince(t));
      t = Clock::now();
      std::vector<nn::Tensor> g0;
      for (const env::UgvObservation& obs : observations) {
        g0.push_back(
            nn::Reshape(nn::Rows(obs.ugv_positions, obs.self, 1), {2}));
      }
      auto neighbors = core::EComm::BuildNeighborhoods(
          g0, stack.context.neighbor_radius_norm);
      garl_extractor->e_comm()->Communicate(features, g0, neighbors);
      comm_ms.push_back(MsSince(t));
    }
    layers->core_mc_gcn_ms = Median(mc_ms);
    layers->core_e_comm_ms = Median(comm_ms);
  }

  // With-grad forward, then a PPO-minibatch-shaped loss (8 slots of joint
  // observations, log-prob and value terms per UGV) through backward, clip
  // and a private Adam. Runs last: Adam moves the policy's weights.
  std::vector<double> grad_ms, backward_ms, clip_ms, adam_ms;
  nn::Adam adam(stack.policy->Parameters(), 3e-4f);
  constexpr size_t kMinibatchSlots = 8;
  for (size_t begin = 0; begin + kMinibatchSlots <= probe_obs;
       begin += kMinibatchSlots) {
    std::vector<nn::Tensor> losses;
    for (size_t i = begin; i < begin + kMinibatchSlots; ++i) {
      auto t = Clock::now();
      std::vector<rl::UgvPolicyOutput> outputs =
          stack.policy->Forward(joint_observations[i]);
      grad_ms.push_back(MsSince(t));
      for (size_t u = 0; u < outputs.size(); ++u) {
        rl::UgvDecision decision;
        decision.ugv = static_cast<int64_t>(u);
        decision.release = 0;
        decision.target = static_cast<int64_t>((i + u) % static_cast<size_t>(
                                                   stack.context.num_stops));
        rl::UgvLogProbEntropy lp = rl::UgvActionLogProb(outputs[u], decision);
        losses.push_back(nn::Reshape(
            nn::Add(nn::Neg(lp.log_prob), nn::Square(outputs[u].value)),
            {1}));
      }
    }
    nn::Tensor loss = nn::MulScalar(nn::Sum(nn::Concat(losses, 0)),
                                    1.0f / static_cast<float>(losses.size()));
    adam.ZeroGrad();
    auto t = Clock::now();
    loss.Backward();
    backward_ms.push_back(MsSince(t));
    t = Clock::now();
    adam.ClipGradNorm(0.5f);
    clip_ms.push_back(MsSince(t));
    t = Clock::now();
    adam.Step();
    adam_ms.push_back(MsSince(t));
  }
  layers->core_forward_grad_ms = Median(grad_ms);
  layers->nn_backward_ms = Median(backward_ms);
  layers->nn_clip_ms = Median(clip_ms);
  layers->nn_adam_step_ms = Median(adam_ms);

  if (parts.eval) {
    // A single episode runs on the calling thread, not through Submit.
    rl::EvalOptions eval;
    eval.episodes = 1;
    eval.greedy = false;
    eval.seed = Rng::StreamSeed(seed, 98);
    const Counters before = Capture();
    {
      OpBound bound("layer probe EvaluatePolicy", kEvalBound);
      layers->rl_lambda =
          rl::EvaluatePolicy(world, *stack.policy, uav_controller, eval)
              .efficiency;
    }
    layers->rl_eval_episode_s =
        static_cast<double>(
            SpanDelta(before, Capture(), "eval/episode").total_ns) /
        1e9;
  }

  if (parts.serve) {
    // The probe episode's joint observations as requests, answered by the
    // plan compiled before the Adam steps above moved the weights.
    serve::PolicyServer server(&plan);
    std::vector<LadderStep> steps;
    for (double rate : {kLightRate, kMidRate}) {
      OpenLoopStats step = RunOpenLoopStep(
          server, joint_observations, plan_answers, rate, kProbeStepRequests,
          Rng::StreamSeed(seed, 97 + steps.size()));
      if (step.wrong > 0) result->Fail("probe request served wrongly");
      layers->serve_gen_late_ms_max =
          std::max(layers->serve_gen_late_ms_max, step.gen_late_ms_max);
      layers->serve_queue_depth_max =
          std::max(layers->serve_queue_depth_max,
                   static_cast<double>(step.queue_depth_max));
      steps.push_back(std::move(step.step));
    }
    const serve::HealthSnapshot health = server.Health();
    server.Shutdown();
    layers->serve_p50_ms_light = Percentile(steps[0].latencies_ms, 0.5);
    layers->serve_p50_ms_mid = Percentile(steps[1].latencies_ms, 0.5);
    layers->serve_p99_ms_light = StepP99Ms(steps[0]);
    layers->serve_p99_ms_mid = StepP99Ms(steps[1]);
    layers->serve_max_rate_slo = MaxRateMeetingSlo(steps, kSloMs);
    layers->serve_rejected = static_cast<double>(health.rejected);
    layers->serve_shed = static_cast<double>(health.shed);
    layers->serve_deadline_misses =
        static_cast<double>(health.deadline_misses);
  }

  if (parts.train) {
    // Last: a training iteration's ParallelFors may lose pool workers (the
    // ThreadPool::WorkerLoop race), after which Submit would block.
    rl::TrainConfig config;
    config.seed = Rng::StreamSeed(seed, 96);
    rl::IppoTrainer trainer(stack.world.get(), stack.policy.get(), nullptr,
                            config);
    const Counters before = Capture();
    {
      OpBound bound("layer probe training iteration", kIterBound);
      trainer.RunIteration();
    }
    const Counters after = Capture();
    layers->rl_collect_s =
        static_cast<double>(
            SpanDelta(before, after, "trainer/collect").total_ns) /
        1e9;
    layers->rl_update_ugv_s =
        static_cast<double>(
            SpanDelta(before, after, "trainer/update_ugv").total_ns) /
        1e9;
  }
}

core::ServingPlan CompilePlan(const Stack& stack) {
  garl::StatusOr<core::ServingPlan> plan =
      core::ServingPlan::Compile(*stack.feature_policy, stack.context);
  if (!plan.ok()) {
    throw std::runtime_error("ServingPlan::Compile: " +
                             plan.status().ToString());
  }
  return std::move(plan).value();
}

// Runs `set_up` kSetups times and returns its median seconds. `tear_down`
// releases the previous set-up's objects first, outside the timed region.
double MedianSetupSeconds(const std::function<void()>& tear_down,
                          const std::function<void()>& set_up) {
  std::vector<double> seconds;
  for (int k = 0; k < kSetups; ++k) {
    tear_down();
    const auto start = Clock::now();
    set_up();
    seconds.push_back(SecondsSince(start));
  }
  return Median(seconds);
}

bool Finite(double x) { return std::isfinite(x); }

std::vector<std::vector<float>> ParameterValues(
    const rl::UgvPolicyNetwork& policy) {
  std::vector<std::vector<float>> values;
  for (const nn::Tensor& p : policy.Parameters()) values.push_back(p.data());
  return values;
}

bool SameStats(const rl::IterationStats& a, const rl::IterationStats& b) {
  return a.policy_loss == b.policy_loss && a.value_loss == b.value_loss &&
         a.entropy == b.entropy && a.ugv_grad_norm == b.ugv_grad_norm &&
         a.ugv_episode_reward == b.ugv_episode_reward &&
         a.metrics.efficiency == b.metrics.efficiency;
}

// ---------------------------------------------------------------------------
// train-kaist

void RunTrain(const RunOptions& options, RunResult* result) {
  std::unique_ptr<Stack> stack;
  rl::TrainConfig config;  // defaults: 1 episode, 3 epochs, 8-slot batches
  config.seed = options.seed;
  std::unique_ptr<rl::IppoTrainer> trainer;
  const double setup_s = MedianSetupSeconds(
      [&] {
        trainer.reset();
        stack.reset();
      },
      [&] {
    stack = BuildStack("KAIST");
    trainer = std::make_unique<rl::IppoTrainer>(
        stack->world.get(), stack->policy.get(), nullptr, config);
      });

  auto run_iteration = [&](rl::IppoTrainer& t, const char* what) {
    OpBound bound(what, kIterBound);
    result->attempted.fetch_add(1);
    return t.RunIteration();
  };
  // Weights after the warm-up and after the first timed iteration: the
  // replay below must reach both.
  std::vector<std::vector<std::vector<float>>> weights;
  std::vector<rl::IterationStats> stats;
  stats.push_back(run_iteration(*trainer, "train-kaist warm-up iteration"));
  weights.push_back(ParameterValues(*stack->policy));

  Layers layers;
  std::vector<double> iter_s, collect_s, update_s;
  const Counters phase_before = Capture();
  const auto phase_start = Clock::now();
  while (static_cast<int64_t>(iter_s.size()) < kMinTrainIters ||
         SecondsSince(phase_start) < options.seconds) {
    Counters before;
    if (options.trace) before = Capture();
    const auto start = Clock::now();
    stats.push_back(run_iteration(*trainer, "train-kaist iteration"));
    iter_s.push_back(SecondsSince(start));
    if (weights.size() < kReplayIters) {
      weights.push_back(ParameterValues(*stack->policy));
    }
    if (options.trace) {
      const Counters after = Capture();
      collect_s.push_back(
          SpanDelta(before, after, "trainer/collect").total_ns / 1e9);
      update_s.push_back(
          SpanDelta(before, after, "trainer/update_ugv").total_ns / 1e9);
    }
    const rl::IterationStats& s = stats.back();
    if (!Finite(s.policy_loss) || !Finite(s.value_loss) ||
        !Finite(s.entropy) || !Finite(s.ugv_grad_norm) ||
        !Finite(s.metrics.efficiency)) {
      result->failed.fetch_add(1);
      result->Fail("non-finite loss, grad norm or lambda");
    }
  }
  const int64_t live_threads = ThreadsNamedLikeMain();
  layers.SetPhase(phase_before, Capture(),
                  static_cast<int64_t>(iter_s.size()), live_threads);
  layers.rl_collect_s = Median(collect_s);
  layers.rl_update_ugv_s = Median(update_s);

  // Determinism: a fresh trainer on the same seed repeats the warm-up and
  // the first timed iteration bit for bit, in their statistics (collect,
  // losses, backward) and in the weights Adam left behind. The second
  // iteration carries Adam's moments and the trainer's RNG streams over
  // from the first.
  {
    std::unique_ptr<Stack> replay_stack = BuildStack("KAIST");
    rl::IppoTrainer replay(replay_stack->world.get(),
                           replay_stack->policy.get(), nullptr, config);
    for (size_t i = 0; i < kReplayIters; ++i) {
      if (!SameStats(run_iteration(replay, "train-kaist replay iteration"),
                     stats[i]) ||
          ParameterValues(*replay_stack->policy) != weights[i]) {
        result->Fail("replayed iteration " + std::to_string(i) +
                     " differs from the run's");
        break;
      }
    }
  }

  double lambda = 0.0;
  for (int64_t i = 1; i <= kLambdaIters; ++i) {
    lambda += stats[static_cast<size_t>(i)].metrics.efficiency;
  }
  lambda /= static_cast<double>(kLambdaIters);
  std::string iterations;
  for (double t : iter_s) iterations += " " + std::to_string(t).substr(0, 5);
  std::fprintf(stderr,
               "garlbench: train-kaist %zu timed iterations, median %.4f s, "
               "lambda(first %lld) %.6f, pool live threads at end %lld; "
               "iteration seconds:%s\n",
               iter_s.size(), Median(iter_s),
               static_cast<long long>(kLambdaIters), lambda,
               static_cast<long long>(live_threads), iterations.c_str());

  // op_ms: one training iteration.
  result->end_to_end = {
      {"setup_s", setup_s, "s", kSetups},
      {"op_ms", Median(iter_s) * 1e3, "ms",
       static_cast<int64_t>(iter_s.size())},
  };
  if (options.trace) {
    layers.rl_lambda = lambda;
    ProbeParts parts;
    parts.eval = true;
    parts.serve = true;
    ProbeLayers(*stack, CompilePlan(*stack), parts, options.seed, &layers,
                result);
    layers.Emit(&result->per_layer);
  }
}

// ---------------------------------------------------------------------------
// rollout-ucla

void RunRollout(const RunOptions& options, RunResult* result) {
  std::unique_ptr<Stack> stack;
  const double setup_s =
      MedianSetupSeconds([&] { stack.reset(); },
                         [&] { stack = BuildStack("UCLA"); });
  rl::GreedyUavController uav_controller;
  // Calls cycle through a fixed list of evaluation seeds; the first pass
  // is the untimed warm-up and fixes each seed's lambda.
  auto evaluate = [&](size_t call, const char* what) {
    rl::EvalOptions eval;
    eval.episodes = kEvalEpisodes;
    eval.greedy = false;  // as baselines/runner.cc evaluates; argmax deadlocks
    eval.seed = Rng::StreamSeed(options.seed, 7777 + call % kEvalSeeds);
    OpBound bound(what, kEvalBound);
    result->attempted.fetch_add(1);
    return rl::EvaluatePolicy(*stack->world, *stack->policy, uav_controller,
                              eval)
        .efficiency;
  };
  std::vector<double> seed_lambda;
  for (size_t call = 0; call < kEvalSeeds; ++call) {
    seed_lambda.push_back(evaluate(call, "rollout-ucla warm-up call"));
    if (!(seed_lambda.back() > 0.0)) {
      result->Fail("rollout lambda is not > 0");
    }
  }
  double lambda = 0.0;
  for (double l : seed_lambda) lambda += l;
  lambda /= static_cast<double>(kEvalSeeds);

  Layers layers;
  std::vector<double> call_s;
  const Counters phase_before = Capture();
  const auto phase_start = Clock::now();
  while (static_cast<int64_t>(call_s.size()) < kMinEvalCalls ||
         SecondsSince(phase_start) < options.seconds) {
    const size_t call = call_s.size();
    const auto start = Clock::now();
    const double repeat = evaluate(call, "rollout-ucla EvaluatePolicy call");
    call_s.push_back(SecondsSince(start));
    if (repeat != seed_lambda[call % kEvalSeeds]) {
      result->failed.fetch_add(1);
      result->Fail("rollout lambda differs between repeats");
    }
  }
  const Counters phase_after = Capture();
  const int64_t live_threads = ThreadsNamedLikeMain();
  layers.SetPhase(phase_before, phase_after,
                  static_cast<int64_t>(call_s.size()), live_threads);
  const garl::obs::SpanStats episodes =
      SpanDelta(phase_before, phase_after, "eval/episode");
  layers.rl_eval_episode_s =
      episodes.count > 0
          ? static_cast<double>(episodes.total_ns) / 1e9 /
                static_cast<double>(episodes.count)
          : 0.0;
  std::fprintf(stderr,
               "garlbench: rollout-ucla %zu calls, median %.4f s, lambda "
               "%.6f, pool live threads at end %lld\n",
               call_s.size(), Median(call_s), lambda,
               static_cast<long long>(live_threads));

  // op_ms: one EvaluatePolicy call of kEvalEpisodes episodes.
  result->end_to_end = {
      {"setup_s", setup_s, "s", kSetups},
      {"op_ms", Median(call_s) * 1e3, "ms",
       static_cast<int64_t>(call_s.size())},
  };
  if (options.trace) {
    layers.rl_lambda = lambda;
    ProbeParts parts;
    parts.serve = true;
    parts.train = true;
    ProbeLayers(*stack, CompilePlan(*stack), parts, options.seed, &layers,
                result);
    layers.Emit(&result->per_layer);
  }
}

// ---------------------------------------------------------------------------
// serve-kaist

void RunServe(const RunOptions& options, RunResult* result) {
  std::unique_ptr<Stack> stack;
  std::unique_ptr<core::ServingPlan> plan;
  const double setup_s = MedianSetupSeconds(
      [&] {
        plan.reset();
        stack.reset();
      },
      [&] {
        stack = BuildStack("KAIST");
        plan = std::make_unique<core::ServingPlan>(CompilePlan(*stack));
      });

  // Inputs and their reference answers (untimed).
  const std::vector<Request> requests = MakeRequests(*stack, options.seed);
  std::vector<std::vector<env::UgvAction>> expected(requests.size());
  {
    core::ServingWorkspace workspace = plan->MakeWorkspace();
    for (size_t i = 0; i < requests.size(); ++i) {
      garl::Status status = plan->Execute(requests[i], &workspace,
                                          &expected[i]);
      if (!status.ok()) result->Fail("reference Execute: " + status.ToString());
    }
  }

  Layers layers;
  const Counters phase_before = Capture();
  serve::PolicyServer server(plan.get());

  // One untimed batch sizes every thread's workspace.
  std::vector<serve::ServeResult> served;
  {
    OpBound bound("serve-kaist warm-up ServeBatch", kBatchBound);
    server.ServeBatch(requests, &served);
  }

  // The two phases run interleaved in kServeRounds rounds (sync batches,
  // then one segment per ladder rate), so every metric samples the whole
  // run instead of one stretch of it: on a shared machine the speed drifts
  // over seconds. Each rate gets the same number of requests, at least
  // kMinStepRequests over the run, so its p99 has ten samples beyond it.
  const double sync_seconds = kSyncShare * options.seconds / kServeRounds;
  double inverse_rates = 0.0;
  for (double rate : kLadder) inverse_rates += 1.0 / rate;
  const int64_t per_segment = std::max<int64_t>(
      kMinStepRequests / kServeRounds,
      static_cast<int64_t>((1.0 - kSyncShare) * options.seconds /
                           inverse_rates / kServeRounds));
  std::vector<double> batch_s;
  std::vector<LadderStep> steps(kLadder.size());  // all rounds, per rate
  std::vector<LadderStep> segments;                // one per round and rate
  std::vector<int64_t> rounds_met(kLadder.size(), 0);
  double gen_late_ms_max = 0.0;
  int64_t queue_depth_max = 0;
  for (int64_t round = 0; round < kServeRounds; ++round) {
    const auto sync_start = Clock::now();
    do {
      OpBound bound("serve-kaist ServeBatch", kBatchBound);
      result->attempted.fetch_add(static_cast<int64_t>(requests.size()));
      const auto start = Clock::now();
      server.ServeBatch(requests, &served);
      batch_s.push_back(SecondsSince(start));
      for (size_t i = 0; i < requests.size(); ++i) {
        if (i >= served.size() || !ServedCorrectly(served[i], expected[i])) {
          result->failed.fetch_add(1);
          result->Fail("sync request served wrongly");
        }
      }
    } while (SecondsSince(sync_start) < sync_seconds);

    for (size_t s = 0; s < kLadder.size(); ++s) {
      const double rate = kLadder[s];
      OpenLoopStats segment = RunOpenLoopStep(
          server, requests, expected, rate, per_segment,
          Rng::StreamSeed(options.seed,
                          100 + static_cast<uint64_t>(round) * kLadder.size() +
                              s));
      if (rate <= kMidRate) {  // light and mid must serve every request
        result->attempted.fetch_add(per_segment);
        result->failed.fetch_add(segment.step.misses);
      }
      if (segment.wrong > 0) {
        result->failed.fetch_add(segment.wrong);
        result->Fail("open-loop request served wrongly");
      }
      gen_late_ms_max = std::max(gen_late_ms_max, segment.gen_late_ms_max);
      queue_depth_max = std::max(queue_depth_max, segment.queue_depth_max);
      LadderStep& step = steps[s];
      step.rate_per_s = rate;
      step.latencies_ms.insert(step.latencies_ms.end(),
                               segment.step.latencies_ms.begin(),
                               segment.step.latencies_ms.end());
      step.misses += segment.step.misses;
      if (StepMeetsSlo(segment.step, kSloMs)) ++rounds_met[s];
      segments.push_back(std::move(segment.step));
    }
  }
  std::fprintf(stderr,
               "garlbench: serve-kaist sync: %zu batches of %zu requests, "
               "batch seconds min %.4f median %.4f max %.4f\n",
               batch_s.size(), requests.size(),
               *std::min_element(batch_s.begin(), batch_s.end()),
               Median(batch_s),
               *std::max_element(batch_s.begin(), batch_s.end()));
  for (size_t s = 0; s < steps.size(); ++s) {
    const LadderStep& step = steps[s];
    std::fprintf(stderr,
                 "garlbench: serve-kaist %.0f req/s: %zu ok, %lld missed, "
                 "p50 %.3f ms, p99 %.3f ms, rounds meeting the SLO: %lld "
                 "of %lld\n",
                 step.rate_per_s, step.latencies_ms.size(),
                 static_cast<long long>(step.misses),
                 Percentile(step.latencies_ms, 0.5), StepP99Ms(step),
                 static_cast<long long>(rounds_met[s]),
                 static_cast<long long>(kServeRounds));
  }
  const serve::HealthSnapshot health = server.Health();
  // Pool threads: main is the generator here, the dispatcher is the pool's
  // caller.
  const int64_t live_threads = ThreadsNamedLikeMain() - 1;
  server.Shutdown();
  layers.SetPhase(phase_before, Capture(),
                  static_cast<int64_t>(health.served), live_threads);
  layers.serve_queue_depth_max = static_cast<double>(queue_depth_max);
  layers.serve_gen_late_ms_max = gen_late_ms_max;
  layers.serve_rejected = static_cast<double>(health.rejected);
  layers.serve_shed = static_cast<double>(health.shed);
  layers.serve_deadline_misses = static_cast<double>(health.deadline_misses);
  std::fprintf(stderr,
               "garlbench: serve-kaist %zu requests in the pool, %lld rounds "
               "of %lld requests per rate, generator late <= %.3f ms, pool "
               "live threads at end %lld\n",
               requests.size(), static_cast<long long>(kServeRounds),
               static_cast<long long>(per_segment), gen_late_ms_max,
               static_cast<long long>(live_threads));

  // op_ms: one request of a sync ServeBatch (1000 / its throughput).
  result->end_to_end = {
      {"setup_s", setup_s, "s", kSetups},
      {"op_ms", Median(batch_s) * 1e3 / static_cast<double>(requests.size()),
       "ms", static_cast<int64_t>(batch_s.size())},
  };
  if (options.trace) {
    // The open-loop figures vary between runs on a shared machine by more
    // than an end-to-end bound allows (host stalls and thread wake-ups
    // decide them), so they are per-layer numbers.
    const LadderStep& light = steps[0];  // kLadder starts with light, mid
    const LadderStep& mid = steps[1];
    layers.serve_p50_ms_light = Percentile(light.latencies_ms, 0.5);
    layers.serve_p50_ms_mid = Percentile(mid.latencies_ms, 0.5);
    layers.serve_p99_ms_light = StepP99Ms(light);
    layers.serve_p99_ms_mid = StepP99Ms(mid);
    layers.serve_max_rate_slo = MaxRateMeetingSlo(segments, kSloMs);
    ProbeParts parts;
    parts.eval = true;
    parts.train = true;
    ProbeLayers(*stack, *plan, parts, options.seed, &layers, result);
    layers.Emit(&result->per_layer);
  }
}

}  // namespace

void RunResult::Fail(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "garlbench: check failed: %s\n", why.c_str());
}

void RunWorkload(const RunOptions& options, RunResult* result) {
  ProcessComm();  // read before any thread is renamed
  if (options.workload == "train-kaist") {
    RunTrain(options, result);
  } else if (options.workload == "rollout-ucla") {
    RunRollout(options, result);
  } else if (options.workload == "serve-kaist") {
    RunServe(options, result);
  } else {
    throw std::invalid_argument("unknown workload " + options.workload);
  }
  result->end_to_end.push_back({"peak_rss_mb", PeakRssMb(), "MB", 1});
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out.precision(17);
  out << "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out << (i > 0 ? ", " : "") << "\"" << metrics[i].name
        << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
        << metrics[i].unit << "\"}";
  }
  out << "}";
  return out.str();
}

void PrintResult(const RunResult& result, bool trace) {
  // The end-to-end numbers of a traced run are printed too (not as its
  // result): run.py compares them with untraced runs to report the tracing
  // overhead.
  std::printf("garlbench: end-to-end %s\n",
              MetricsJson(result.end_to_end).c_str());
  std::string samples;
  for (const Metric& metric : result.end_to_end) {
    samples += (samples.empty() ? "" : ", ") + ("\"" + metric.name) +
               "\": " + std::to_string(metric.samples);
  }
  std::printf("garlbench: samples {%s}\n", samples.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              result.correct ? "true" : "false",
              static_cast<long long>(result.attempted.load()),
              static_cast<long long>(result.failed.load()),
              MetricsJson(trace ? result.per_layer : result.end_to_end)
                  .c_str());
  std::fflush(stdout);
}

OpBound::OpBound(const char* what, double bound_s) {
  Watchdog& wd = TheWatchdog();
  {
    std::lock_guard<std::mutex> lock(wd.mutex);
    wd.op = what;
    wd.deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(bound_s));
  }
  wd.cv.notify_all();
}

OpBound::~OpBound() {
  Watchdog& wd = TheWatchdog();
  {
    std::lock_guard<std::mutex> lock(wd.mutex);
    wd.op = nullptr;
  }
  wd.cv.notify_all();
}

void StartWatchdog(RunResult* result) {
  ProcessComm();
  Watchdog& wd = TheWatchdog();
  wd.result = result;
  wd.thread = std::thread(WatchdogLoop);
}

void StopWatchdog() {
  Watchdog& wd = TheWatchdog();
  {
    std::lock_guard<std::mutex> lock(wd.mutex);
    wd.stop = true;
  }
  wd.cv.notify_all();
  if (wd.thread.joinable()) wd.thread.join();
}

}  // namespace garlbench
