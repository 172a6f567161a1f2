// Reproduces Fig. 7: movement traces of the UGV-UAV coalitions over 100
// slots (U=4, V'=2) for GARL and the four strongest baselines (AE-Comm,
// DGN, GAM, GAT) on both campuses.
//
// Full traces are written as CSVs (one row per slot per vehicle) for
// plotting; the console and fig7_<campus>_summary.csv summarize the
// trajectory statistics behind the paper's qualitative reading: GARL
// partitions the workzone into per-coalition sub-workzones (low overlap
// between the stop sets visited by different UGVs) without wasteful
// wandering.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <set>

#include "baselines/registry.h"
#include "bench_common.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/table_writer.h"
#include "env/render.h"
#include "nn/ops.h"
#include "rl/evaluator.h"
#include "rl/ippo_trainer.h"
#include "rl/rollout.h"
#include "rl/uav_controller.h"

namespace garl::bench {
namespace {

struct TraceStats {
  double ugv_distance = 0.0;   // meters, summed over UGVs
  double stop_overlap = 0.0;   // mean pairwise Jaccard of visited stops
  int64_t stops_visited = 0;   // distinct stops visited by the fleet
  double efficiency = 0.0;
};

TraceStats RunTrace(const std::string& campus, const std::string& method,
                    const BenchOptions& options, const std::string& csv) {
  std::unique_ptr<env::World> world = MakeWorld(campus, 4, 2, 100);
  rl::EnvContext context = rl::MakeEnvContext(*world);
  Rng rng(11);
  auto policy = std::move(baselines::MakeUgvPolicy(
                              method, context, baselines::MethodOptions(),
                              rng))
                    .value();
  rl::TrainConfig train;
  train.iterations = options.train_iterations;
  train.seed = 5;
  rl::IppoTrainer trainer(world.get(), policy.get(), nullptr, train);
  auto train_result = trainer.Train();
  GARL_CHECK_MSG(train_result.ok(), train_result.status().ToString());

  // One recorded evaluation episode.
  world->Reset(99);
  Rng act_rng(17);
  rl::GreedyUavController uav_controller;
  std::vector<std::set<int64_t>> visited(4);
  while (!world->Done()) {
    std::vector<env::UgvObservation> observations;
    for (int64_t u = 0; u < 4; ++u) {
      observations.push_back(world->ObserveUgv(u));
    }
    std::vector<rl::UgvPolicyOutput> outputs;
    {
      nn::NoGradGuard no_grad;
      outputs = policy->Forward(observations);
    }
    std::vector<env::UgvAction> ugv_actions(4);
    for (int64_t u = 0; u < 4; ++u) {
      if (world->UgvNeedsAction(u)) {
        ugv_actions[static_cast<size_t>(u)] =
            rl::SampleUgvAction(outputs[static_cast<size_t>(u)], act_rng,
                                /*greedy=*/false)
                .action;
      }
      visited[static_cast<size_t>(u)].insert(
          world->ugvs()[static_cast<size_t>(u)].current_stop);
    }
    std::vector<env::UavAction> uav_actions(8);
    for (int64_t v = 0; v < 8; ++v) {
      if (world->UavAirborne(v)) {
        uav_actions[static_cast<size_t>(v)] =
            uav_controller.Act(*world, v, act_rng);
      }
    }
    world->Step(ugv_actions, uav_actions);
  }

  // Dump an SVG rendering of the traces next to the CSV.
  {
    std::string svg = env::RenderTracesSvg(world->campus(), &world->stops(),
                                           world->ugv_trace(),
                                           world->uav_trace());
    std::string svg_path = csv.substr(0, csv.size() - 4) + ".svg";
    WarnIfError(env::WriteSvg(svg, svg_path), "bench_fig7: write " + svg_path);
  }

  // Dump traces.
  TableWriter trace({"slot", "vehicle", "kind", "x", "y"});
  for (int64_t u = 0; u < 4; ++u) {
    const auto& points = world->ugv_trace()[static_cast<size_t>(u)];
    for (size_t t = 0; t < points.size(); ++t) {
      trace.AddRow({std::to_string(t), StrPrintf("ugv%lld",
                                                 static_cast<long long>(u)),
                    "UGV", StrPrintf("%.1f", points[t].x),
                    StrPrintf("%.1f", points[t].y)});
    }
  }
  for (int64_t v = 0; v < 8; ++v) {
    const auto& points = world->uav_trace()[static_cast<size_t>(v)];
    for (size_t t = 0; t < points.size(); ++t) {
      trace.AddRow({std::to_string(t), StrPrintf("uav%lld",
                                                 static_cast<long long>(v)),
                    "UAV", StrPrintf("%.1f", points[t].x),
                    StrPrintf("%.1f", points[t].y)});
    }
  }
  WarnIfError(trace.WriteCsv(csv), "bench_fig7: write " + csv);

  TraceStats stats;
  for (const env::UgvState& ugv : world->ugvs()) {
    stats.ugv_distance += ugv.distance_traveled;
  }
  std::set<int64_t> all;
  double overlap = 0.0;
  int pairs = 0;
  for (int64_t a = 0; a < 4; ++a) {
    all.insert(visited[static_cast<size_t>(a)].begin(),
               visited[static_cast<size_t>(a)].end());
    for (int64_t b = a + 1; b < 4; ++b) {
      std::set<int64_t> inter, uni;
      std::set_intersection(visited[a].begin(), visited[a].end(),
                            visited[b].begin(), visited[b].end(),
                            std::inserter(inter, inter.begin()));
      std::set_union(visited[a].begin(), visited[a].end(),
                     visited[b].begin(), visited[b].end(),
                     std::inserter(uni, uni.begin()));
      overlap += uni.empty() ? 0.0
                             : static_cast<double>(inter.size()) /
                                   static_cast<double>(uni.size());
      ++pairs;
    }
  }
  stats.stop_overlap = overlap / pairs;
  stats.stops_visited = static_cast<int64_t>(all.size());
  stats.efficiency = world->Metrics().efficiency;
  return stats;
}

void Run() {
  BenchOptions options = LoadBenchOptions();
  const std::vector<std::string> methods = {"GARL", "AE-Comm", "DGN", "GAM",
                                            "GAT"};
  for (const std::string& campus : {std::string("KAIST"),
                                    std::string("UCLA")}) {
    TableWriter table({"method", "UGV km", "stops visited",
                       "pairwise overlap", "lambda"});
    for (const std::string& method : methods) {
      std::string csv = options.out_dir + "/fig7_" + campus + "_" + method +
                        ".csv";
      TraceStats stats = RunTrace(campus, method, options, csv);
      table.AddRow({method, StrPrintf("%.2f", stats.ugv_distance / 1000.0),
                    std::to_string(stats.stops_visited),
                    StrPrintf("%.3f", stats.stop_overlap),
                    StrPrintf("%.3f", stats.efficiency)});
      std::printf(".");
      std::fflush(stdout);
    }
    std::printf(
        "\nFig. 7 (%s) — 100-slot traces (CSVs in %s/fig7_%s_*.csv)\n",
        campus.c_str(), options.out_dir.c_str(), campus.c_str());
    table.Print(std::cout);
    const std::string summary =
        options.out_dir + "/fig7_" + campus + "_summary.csv";
    WarnIfError(table.WriteCsv(summary), "bench_fig7: write " + summary);
    std::printf(
        "Paper shape: GARL visits many stops with the lowest pairwise "
        "overlap (clean sub-workzones).\n");
  }
}

}  // namespace
}  // namespace garl::bench

int main() {
  garl::bench::Run();
  return 0;
}
