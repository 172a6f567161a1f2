#include "baselines/registry.h"

#include "baselines/ae_comm.h"
#include "baselines/cubic_map.h"
#include "baselines/dgn.h"
#include "baselines/gam.h"
#include "baselines/gat.h"
#include "baselines/ic3net.h"
#include "baselines/maddpg.h"
#include "baselines/random_policy.h"
#include "core/garl_extractor.h"
#include "rl/feature_policy.h"

namespace garl::baselines {

const std::vector<std::string>& AllMethods() {
  static const std::vector<std::string>* methods =
      new std::vector<std::string>{  // garl-lint: allow(raw-new-delete) leaky static, destruction-order safe
          "GARL",   "CubicMap", "GAM",    "GAT",    "AE-Comm",
          "DGN",    "IC3Net",   "MADDPG", "Random",
      };
  return *methods;
}

const std::vector<std::string>& AblationMethods() {
  static const std::vector<std::string>* methods =
      new std::vector<std::string>{  // garl-lint: allow(raw-new-delete) leaky static, destruction-order safe
          "GARL",
          "GARL w/o MC",
          "GARL w/o E",
          "GARL w/o MC, E",
      };
  return *methods;
}

namespace {

std::unique_ptr<rl::UgvPolicyNetwork> MakeGarlVariant(
    const rl::EnvContext& context, const MethodOptions& options, bool use_mc,
    bool use_e, Rng& rng) {
  core::GarlConfig config;
  config.use_mc = use_mc;
  config.use_e = use_e;
  config.mc_gcn.layers = options.mc_layers;
  config.e_comm.layers = options.e_layers;
  return std::make_unique<rl::FeatureUgvPolicy>(
      std::make_unique<core::GarlExtractor>(context, config, rng), context,
      rl::FeaturePolicyOptions{}, rng);
}

template <typename Extractor, typename Config>
std::unique_ptr<rl::UgvPolicyNetwork> MakeFeatureMethod(
    const rl::EnvContext& context, Rng& rng) {
  return std::make_unique<rl::FeatureUgvPolicy>(
      std::make_unique<Extractor>(context, Config{}, rng), context,
      rl::FeaturePolicyOptions{}, rng);
}

}  // namespace

StatusOr<std::unique_ptr<rl::UgvPolicyNetwork>> MakeUgvPolicy(
    const std::string& method, const rl::EnvContext& context,
    const MethodOptions& options, Rng& rng) {
  if (method == "GARL") {
    return MakeGarlVariant(context, options, true, true, rng);
  }
  if (method == "GARL w/o MC") {
    return MakeGarlVariant(context, options, false, true, rng);
  }
  if (method == "GARL w/o E") {
    return MakeGarlVariant(context, options, true, false, rng);
  }
  if (method == "GARL w/o MC, E") {
    return MakeGarlVariant(context, options, false, false, rng);
  }
  if (method == "GAT") {
    return MakeFeatureMethod<GatExtractor, GatConfig>(context, rng);
  }
  if (method == "GAM") {
    return MakeFeatureMethod<GamExtractor, GamConfig>(context, rng);
  }
  if (method == "CubicMap") {
    return MakeFeatureMethod<CubicMapExtractor, CubicMapConfig>(context,
                                                                rng);
  }
  if (method == "DGN") {
    return MakeFeatureMethod<DgnExtractor, DgnConfig>(context, rng);
  }
  if (method == "IC3Net") {
    return MakeFeatureMethod<Ic3NetExtractor, Ic3NetConfig>(context, rng);
  }
  if (method == "AE-Comm") {
    return MakeFeatureMethod<AeCommExtractor, AeCommConfig>(context, rng);
  }
  if (method == "MADDPG") {
    return std::unique_ptr<rl::UgvPolicyNetwork>(
        std::make_unique<MaddpgPolicy>(context, MaddpgConfig{}, rng));
  }
  if (method == "Random") {
    return std::unique_ptr<rl::UgvPolicyNetwork>(
        std::make_unique<RandomUgvPolicy>(context));
  }
  return InvalidArgumentError("unknown method: " + method);
}

}  // namespace garl::baselines
