#include <gtest/gtest.h>

#include <cmath>

#include "core/e_comm.h"
#include "graph/laplacian.h"
#include "graph/shortest_path.h"
#include "nn/ops.h"

namespace garl::core {
namespace {

rl::EnvContext SimpleContext() {
  graph::Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  rl::EnvContext context;
  context.num_stops = 4;
  context.num_ugvs = 3;
  context.laplacian = graph::NormalizedLaplacian(g);
  for (int64_t b = 0; b < 4; ++b) context.hops.push_back(graph::BfsHops(g, b));
  context.stop_xy = nn::Tensor::FromVector(
      {4, 2}, {0.1f, 0.1f, 0.3f, 0.2f, 0.6f, 0.7f, 0.9f, 0.9f});
  return context;
}

std::vector<nn::Tensor> RandomH(int64_t n, int64_t dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<nn::Tensor> h;
  for (int64_t i = 0; i < n; ++i) {
    nn::Tensor t = nn::Tensor::Zeros({dim});
    for (float& v : t.mutable_data()) v = rng.UniformF(-1, 1);
    h.push_back(t);
  }
  return h;
}

std::vector<nn::Tensor> Positions(
    const std::vector<std::pair<float, float>>& xy) {
  std::vector<nn::Tensor> g;
  for (auto [x, y] : xy) g.push_back(nn::Tensor::FromVector({2}, {x, y}));
  return g;
}

std::vector<std::vector<int64_t>> AllNeighbors(int64_t n) {
  std::vector<std::vector<int64_t>> neighbors(static_cast<size_t>(n));
  for (int64_t u = 0; u < n; ++u) {
    for (int64_t o = 0; o < n; ++o) {
      if (o != u) neighbors[static_cast<size_t>(u)].push_back(o);
    }
  }
  return neighbors;
}

TEST(ECommTest, CommunicateShapes) {
  rl::EnvContext context = SimpleContext();
  Rng rng(1);
  ECommConfig config;
  config.hidden = 16;
  EComm comm(context, config, rng);
  auto h0 = RandomH(3, 16, 2);
  auto g0 = Positions({{0.1f, 0.1f}, {0.5f, 0.5f}, {0.9f, 0.2f}});
  EComm::State state = comm.Communicate(h0, g0, AllNeighbors(3));
  ASSERT_EQ(state.h.size(), 3u);
  EXPECT_EQ(state.h[0].shape(), (std::vector<int64_t>{16}));
  EXPECT_EQ(state.g[0].shape(), (std::vector<int64_t>{2}));
}

TEST(ECommTest, GeometryUpdateIsBounded) {
  rl::EnvContext context = SimpleContext();
  Rng rng(3);
  ECommConfig config;
  config.hidden = 16;
  config.layers = 3;
  EComm comm(context, config, rng);
  auto h0 = RandomH(3, 16, 4);
  auto g0 = Positions({{0.1f, 0.1f}, {0.5f, 0.5f}, {0.9f, 0.2f}});
  EComm::State state = comm.Communicate(h0, g0, AllNeighbors(3));
  for (size_t u = 0; u < 3; ++u) {
    for (int64_t d = 0; d < 2; ++d) {
      float drift = std::fabs(state.g[u].data()[d] - g0[u].data()[d]);
      EXPECT_LE(drift, config.layers * config.g_clip + 1e-5f);
    }
  }
}

// --- Equivariance properties (Section IV-C) -------------------------------

struct Transform {
  const char* name;
  float tx, ty;     // translation
  float angle_deg;  // rotation about the origin
};

// Keeps the ctest names stable: the default printer dumps the name pointer.
void PrintTo(const Transform& t, std::ostream* os) { *os << t.name; }

class ECommEquivarianceTest : public ::testing::TestWithParam<Transform> {};

TEST_P(ECommEquivarianceTest, HInvariantGEquivariant) {
  const Transform& t = GetParam();
  float c = std::cos(t.angle_deg * static_cast<float>(M_PI) / 180.0f);
  float s = std::sin(t.angle_deg * static_cast<float>(M_PI) / 180.0f);
  auto apply = [&](float x, float y) {
    // rotate then translate
    return std::pair<float, float>(c * x - s * y + t.tx,
                                   s * x + c * y + t.ty);
  };

  rl::EnvContext context = SimpleContext();
  Rng rng(11);
  ECommConfig config;
  config.hidden = 12;
  config.layers = 2;
  EComm comm(context, config, rng);
  auto h0 = RandomH(3, 12, 5);
  std::vector<std::pair<float, float>> base = {
      {0.2f, 0.3f}, {0.6f, 0.4f}, {0.5f, 0.8f}};
  auto g0 = Positions(base);
  std::vector<std::pair<float, float>> moved;
  for (auto [x, y] : base) moved.push_back(apply(x, y));
  auto g0_t = Positions(moved);

  EComm::State original = comm.Communicate(h0, g0, AllNeighbors(3));
  EComm::State transformed = comm.Communicate(h0, g0_t, AllNeighbors(3));

  // Non-geometric features are invariant.
  for (size_t u = 0; u < 3; ++u) {
    for (int64_t i = 0; i < 12; ++i) {
      EXPECT_NEAR(original.h[u].data()[i], transformed.h[u].data()[i],
                  1e-4f)
          << t.name;
    }
  }
  // Geometric features are equivariant: T(g_out) == g_out(T(inputs)).
  for (size_t u = 0; u < 3; ++u) {
    auto [ex, ey] =
        apply(original.g[u].data()[0], original.g[u].data()[1]);
    EXPECT_NEAR(transformed.g[u].data()[0], ex, 1e-4f) << t.name;
    EXPECT_NEAR(transformed.g[u].data()[1], ey, 1e-4f) << t.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Transforms, ECommEquivarianceTest,
    ::testing::Values(Transform{"translate", 0.4f, -0.2f, 0.0f},
                      Transform{"rotate90", 0.0f, 0.0f, 90.0f},
                      Transform{"rotate37", 0.0f, 0.0f, 37.0f},
                      Transform{"rotate_translate", 0.1f, 0.2f, 180.0f}),
    [](const ::testing::TestParamInfo<Transform>& info) {
      return info.param.name;
    });

TEST(ECommTest, CloserPeersGetHigherWeight) {
  // With two peers at different distances, the nearer peer must dominate
  // the aggregated message. Probe by zeroing one sender's feature.
  rl::EnvContext context = SimpleContext();
  Rng rng(13);
  ECommConfig config;
  config.hidden = 8;
  config.layers = 1;
  EComm comm(context, config, rng);
  auto g0 = Positions({{0.5f, 0.5f}, {0.52f, 0.5f}, {0.9f, 0.9f}});
  auto h_near = RandomH(3, 8, 6);
  auto h_far = RandomH(3, 8, 6);
  // Perturb the near peer (1) vs the far peer (2) and compare the effect
  // on UGV 0's output.
  for (float& v : h_near[1].mutable_data()) v += 0.5f;
  for (float& v : h_far[2].mutable_data()) v += 0.5f;
  auto base = comm.Communicate(RandomH(3, 8, 6), g0, AllNeighbors(3));
  auto near = comm.Communicate(h_near, g0, AllNeighbors(3));
  auto far = comm.Communicate(h_far, g0, AllNeighbors(3));
  auto delta = [&](const EComm::State& s) {
    float d = 0.0f;
    for (int64_t i = 0; i < 8; ++i) {
      d += std::fabs(s.h[0].data()[i] - base.h[0].data()[i]);
    }
    return d;
  };
  EXPECT_GT(delta(near), delta(far));
}

TEST(ECommTest, ReadOutShapes) {
  rl::EnvContext context = SimpleContext();
  Rng rng(15);
  ECommConfig config;
  config.hidden = 16;
  EComm comm(context, config, rng);
  nn::Tensor h = nn::Tensor::Zeros({16});
  nn::Tensor g = nn::Tensor::FromVector({2}, {0.4f, 0.6f});
  EComm::Readout readout = comm.ReadOut(h, g, context.stop_xy);
  EXPECT_EQ(readout.feature.shape(), (std::vector<int64_t>{16}));
  EXPECT_EQ(readout.stop_preference.shape(), (std::vector<int64_t>{4}));
}

TEST(ECommTest, BuildNeighborhoodsRadius) {
  auto g0 = Positions({{0.0f, 0.0f}, {0.1f, 0.0f}, {1.0f, 1.0f}});
  auto neighbors = EComm::BuildNeighborhoods(g0, 0.2);
  EXPECT_EQ(neighbors[0], (std::vector<int64_t>{1}));
  EXPECT_EQ(neighbors[1], (std::vector<int64_t>{0}));
  // Isolated UGV keeps its nearest peer.
  ASSERT_EQ(neighbors[2].size(), 1u);
}

TEST(ECommTest, MaskNeighborhoodsCutsLinksBothWays) {
  auto neighbors = AllNeighbors(3);
  // UGV 0 flags its link to 2; the cut must apply in both directions even
  // though only one row carries the flag.
  std::vector<std::vector<uint8_t>> blocked = {
      {0, 0, 1}, {0, 0, 0}, {0, 0, 0}};
  EComm::MaskNeighborhoods(blocked, &neighbors);
  EXPECT_EQ(neighbors[0], (std::vector<int64_t>{1}));
  EXPECT_EQ(neighbors[1], (std::vector<int64_t>{0, 2}));
  EXPECT_EQ(neighbors[2], (std::vector<int64_t>{1}));
}

TEST(ECommTest, MaskNeighborhoodsCanIsolateANode) {
  auto neighbors = AllNeighbors(3);
  std::vector<std::vector<uint8_t>> blocked = {
      {0, 1, 1}, {0, 0, 0}, {0, 0, 0}};
  EComm::MaskNeighborhoods(blocked, &neighbors);
  EXPECT_TRUE(neighbors[0].empty());
  EXPECT_EQ(neighbors[1], (std::vector<int64_t>{2}));
  EXPECT_EQ(neighbors[2], (std::vector<int64_t>{1}));
}

TEST(ECommTest, IsolatedNodeCommunicatesWithZeroMessageNotNaN) {
  rl::EnvContext context = SimpleContext();
  Rng rng(5);
  ECommConfig config;
  config.hidden = 8;
  config.layers = 2;
  EComm comm(context, config, rng);
  auto h0 = RandomH(3, 8, 11);
  auto g0 = Positions({{0.1f, 0.2f}, {0.5f, 0.5f}, {0.8f, 0.3f}});
  // A comm blackout severs every link of UGV 0 for the slot.
  auto neighbors = AllNeighbors(3);
  std::vector<std::vector<uint8_t>> blocked = {
      {0, 1, 1}, {0, 0, 0}, {0, 0, 0}};
  EComm::MaskNeighborhoods(blocked, &neighbors);
  EComm::State state = comm.Communicate(h0, g0, neighbors);
  ASSERT_EQ(state.h.size(), 3u);
  for (const nn::Tensor& h : state.h) {
    for (float v : h.data()) EXPECT_TRUE(std::isfinite(v));
  }
  for (const nn::Tensor& g : state.g) {
    for (float v : g.data()) EXPECT_TRUE(std::isfinite(v));
  }
  // The isolated node's geometric feature never moves: no peers, no update.
  for (int64_t d = 0; d < 2; ++d) {
    EXPECT_FLOAT_EQ(state.g[0].data()[d], g0[0].data()[d]);
  }
}

TEST(ECommTest, GradientsFlowToAllParameters) {
  rl::EnvContext context = SimpleContext();
  Rng rng(17);
  ECommConfig config;
  config.hidden = 8;
  config.layers = 2;
  EComm comm(context, config, rng);
  auto h0 = RandomH(3, 8, 9);
  for (auto& h : h0) {
    // make leaves so grads are retained through Communicate
    h = nn::Tensor::FromVector({8}, h.data(), /*requires_grad=*/true);
  }
  auto g0 = Positions({{0.1f, 0.2f}, {0.5f, 0.5f}, {0.8f, 0.3f}});
  EComm::State state = comm.Communicate(h0, g0, AllNeighbors(3));
  EComm::Readout readout =
      comm.ReadOut(state.h[0], state.g[0], context.stop_xy);
  nn::Sum(nn::Square(readout.feature)).Backward();
  int with_grad = 0;
  for (const nn::Tensor& p : comm.Parameters()) {
    float norm = 0.0f;
    for (float g : p.grad()) norm += g * g;
    if (norm > 0.0f) ++with_grad;
  }
  // phi_m/phi_h/phi_g of both layers + w3 + phi_u should mostly be live.
  EXPECT_GE(with_grad, static_cast<int>(comm.Parameters().size()) - 2);
}

}  // namespace
}  // namespace garl::core
