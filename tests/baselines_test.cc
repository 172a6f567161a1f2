#include <gtest/gtest.h>

#include <memory>

#include "baselines/common.h"
#include "baselines/maddpg.h"
#include "baselines/random_policy.h"
#include "baselines/registry.h"
#include "baselines/runner.h"
#include "env/world.h"
#include "nn/ops.h"
#include "rl/ippo_trainer.h"

namespace garl::baselines {
namespace {

env::CampusSpec TinyCampus() {
  env::CampusSpec campus;
  campus.name = "tiny";
  campus.width = 400;
  campus.height = 400;
  campus.roads.push_back({{0, 200}, {400, 200}});
  campus.roads.push_back({{200, 0}, {200, 400}});
  campus.sensors.push_back({{150, 210}, 1000.0});
  campus.sensors.push_back({{260, 190}, 1200.0});
  campus.sensors.push_back({{200, 320}, 900.0});
  return campus;
}

env::WorldParams TinyParams() {
  env::WorldParams params;
  params.num_ugvs = 2;
  params.uavs_per_ugv = 1;
  params.horizon = 14;
  params.release_slots = 2;
  return params;
}

struct WorldFixture {
  WorldFixture() : world(TinyCampus(), TinyParams()) {
    context = rl::MakeEnvContext(world);
  }
  env::World world;
  rl::EnvContext context;
};

TEST(CommonTest, DataEstimateOptimismForUnseen) {
  WorldFixture f;
  env::UgvObservation obs = f.world.ObserveUgv(0);
  nn::Tensor est = DataEstimate(f.context, obs);
  bool any_optimistic = false;
  for (int64_t b = 0; b < f.context.num_stops; ++b) {
    float v = est.data()[static_cast<size_t>(b)];
    EXPECT_GE(v, 0.0f);
    if (obs.stop_features.at({b, 2}) < 0.0f) {
      EXPECT_FLOAT_EQ(v, 0.4f);
      any_optimistic = true;
    }
  }
  EXPECT_TRUE(any_optimistic);
}

TEST(CommonTest, SeparationDepressesPeerStops) {
  WorldFixture f;
  env::UgvObservation obs = f.world.ObserveUgv(0);
  nn::Tensor greedy = StructurePrior(f.context, obs, 8, 0.0f);
  nn::Tensor multi = StructurePrior(f.context, obs, 8, 1.0f);
  // At the peer's stop the separated prior must be lower.
  int64_t peer_stop = obs.ugv_stops[1];
  EXPECT_LE(multi.data()[static_cast<size_t>(peer_stop)],
            greedy.data()[static_cast<size_t>(peer_stop)] + 1e-6f);
}

TEST(CommonTest, EncodeObservationDimAndRange) {
  WorldFixture f;
  env::UgvObservation obs = f.world.ObserveUgv(1);
  std::vector<float> enc = EncodeObservation(f.context, obs);
  EXPECT_EQ(static_cast<int64_t>(enc.size()), EncodedObservationDim(2));
  for (float v : enc) EXPECT_TRUE(std::isfinite(v));
}

TEST(RegistryTest, UnknownMethodIsError) {
  WorldFixture f;
  Rng rng(1);
  auto result = MakeUgvPolicy("NoSuchMethod", f.context, MethodOptions{},
                              rng);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(RegistryTest, ListsContainPaperMethods) {
  EXPECT_EQ(AllMethods().size(), 9u);
  EXPECT_EQ(AllMethods().front(), "GARL");
  EXPECT_EQ(AblationMethods().size(), 4u);
}

// Every method must construct, produce well-formed outputs and finite
// features on a joint forward pass.
class MethodForwardTest : public ::testing::TestWithParam<std::string> {};

TEST_P(MethodForwardTest, ForwardProducesValidOutputs) {
  WorldFixture f;
  Rng rng(3);
  auto policy_or = MakeUgvPolicy(GetParam(), f.context, MethodOptions{},
                                 rng);
  ASSERT_TRUE(policy_or.ok());
  auto policy = std::move(policy_or).value();
  EXPECT_EQ(policy->name(), GetParam());
  std::vector<env::UgvObservation> obs = {f.world.ObserveUgv(0),
                                          f.world.ObserveUgv(1)};
  auto outputs = policy->Forward(obs);
  ASSERT_EQ(outputs.size(), 2u);
  for (const auto& out : outputs) {
    ASSERT_EQ(out.release_logits.shape(), (std::vector<int64_t>{2}));
    ASSERT_EQ(out.target_logits.shape(),
              (std::vector<int64_t>{f.context.num_stops}));
    ASSERT_EQ(out.value.numel(), 1);
    for (float v : out.release_logits.data()) EXPECT_TRUE(std::isfinite(v));
    for (float v : out.target_logits.data()) EXPECT_TRUE(std::isfinite(v));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, MethodForwardTest,
    ::testing::Values("GARL", "GARL w/o MC", "GARL w/o E", "GARL w/o MC, E",
                      "CubicMap", "GAM", "GAT", "AE-Comm", "DGN", "IC3Net",
                      "MADDPG", "Random"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// Trainable methods must survive one IPPO iteration.
class MethodTrainTest : public ::testing::TestWithParam<std::string> {};

TEST_P(MethodTrainTest, OneIppoIterationRuns) {
  WorldFixture f;
  Rng rng(5);
  auto policy = std::move(
      MakeUgvPolicy(GetParam(), f.context, MethodOptions{}, rng)).value();
  rl::TrainConfig config;
  config.iterations = 1;
  config.epochs = 1;
  config.seed = 11;
  rl::IppoTrainer trainer(&f.world, policy.get(), nullptr, config);
  rl::IterationStats stats = trainer.RunIteration();
  EXPECT_TRUE(std::isfinite(stats.policy_loss));
}

INSTANTIATE_TEST_SUITE_P(
    IppoMethods, MethodTrainTest,
    ::testing::Values("CubicMap", "GAM", "GAT", "AE-Comm", "DGN", "IC3Net"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(AeCommTest, AuxLossAvailableAfterForwardThenCleared) {
  WorldFixture f;
  Rng rng(7);
  auto policy = std::move(
      MakeUgvPolicy("AE-Comm", f.context, MethodOptions{}, rng)).value();
  std::vector<env::UgvObservation> obs = {f.world.ObserveUgv(0),
                                          f.world.ObserveUgv(1)};
  policy->Forward(obs);
  nn::Tensor aux = policy->ConsumeAuxLoss();
  ASSERT_TRUE(aux.defined());
  EXPECT_GE(aux.item(), 0.0f);
  EXPECT_FALSE(policy->ConsumeAuxLoss().defined());
}

TEST(RandomPolicyTest, UniformAndParameterless) {
  WorldFixture f;
  RandomUgvPolicy policy(f.context);
  EXPECT_TRUE(policy.Parameters().empty());
  auto outputs = policy.Forward({f.world.ObserveUgv(0)});
  for (float v : outputs[0].target_logits.data()) EXPECT_EQ(v, 0.0f);
}

TEST(MaddpgTest, TrainerRunsAndUpdatesActors) {
  WorldFixture f;
  Rng rng(9);
  MaddpgConfig config;
  config.updates_per_iteration = 3;
  config.batch = 4;
  auto policy = std::make_unique<MaddpgPolicy>(f.context, config, rng);
  std::vector<std::vector<float>> before;
  for (const auto& p : policy->Parameters()) before.push_back(p.data());
  MaddpgTrainer trainer(&f.world, policy.get(), config, 13);
  MaddpgTrainer::Stats stats = trainer.RunIteration();
  EXPECT_TRUE(std::isfinite(stats.critic_loss));
  bool changed = false;
  auto params = policy->Parameters();
  for (size_t i = 0; i < params.size(); ++i) {
    if (params[i].data() != before[i]) changed = true;
  }
  EXPECT_TRUE(changed);
}

TEST(RunnerTest, TrainAndEvaluateRandom) {
  WorldFixture f;
  RunOptions options;
  options.train_iterations = 0;
  RunResult result = TrainAndEvaluate(f.world, "Random", options);
  EXPECT_EQ(result.method, "Random");
  EXPECT_GE(result.metrics.data_collection_ratio, 0.0);
}

TEST(RunnerTest, TrainAndEvaluateGarlQuick) {
  WorldFixture f;
  RunOptions options;
  options.train_iterations = 1;
  RunResult result = TrainAndEvaluate(f.world, "GARL", options);
  EXPECT_GE(result.metrics.efficiency, 0.0);
  EXPECT_LE(result.metrics.data_collection_ratio, 1.0);
}

}  // namespace
}  // namespace garl::baselines
