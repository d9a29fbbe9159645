// Landmark (stretch-3, §1.2 related-work baseline) scheme tests: delivery
// and the stretch-<3 guarantee on arbitrary connected graphs, vicinity
// semantics, and the size regimes against Theorem 1.
#include <gtest/gtest.h>

#include <cmath>

#include "core/experiment.hpp"
#include "graph/generators.hpp"
#include "model/verifier.hpp"
#include "schemes/compact_diam2.hpp"
#include "schemes/errors.hpp"
#include "schemes/landmark.hpp"

namespace optrt::schemes {
namespace {

using graph::Graph;
using graph::Rng;

class LandmarkFamilies : public ::testing::TestWithParam<int> {
 public:
  static Graph make(int which) {
    Rng rng(7);
    switch (which) {
      case 0:
        return graph::chain(40);
      case 1:
        return graph::ring(41);
      case 2:
        return graph::grid(6, 7);
      case 3:
        return graph::star(40);
      case 4:
        return graph::random_gnp(48, 0.15, rng);
      default:
        return core::certified_random_graph(64, rng);
    }
  }
};

TEST_P(LandmarkFamilies, DeliversWithStretchBelow3) {
  Graph g = make(GetParam());
  if (!graph::is_connected(g)) {
    // Sparse G(n,p) draws may disconnect; densify deterministically.
    Rng rng(8);
    g = graph::random_gnp(48, 0.3, rng);
  }
  const LandmarkScheme scheme(g);
  const auto result = model::verify_scheme(g, scheme);
  EXPECT_TRUE(result.ok());
  EXPECT_LE(result.max_stretch, 3.0);
}

INSTANTIATE_TEST_SUITE_P(Families, LandmarkFamilies,
                         ::testing::Values(0, 1, 2, 3, 4, 5));

TEST(Landmark, WorksWhereTheorem1DoesNot) {
  // The paper's constructions need diameter 2; landmark routing covers the
  // sparse regime.
  const Graph g = graph::chain(64);
  EXPECT_THROW(CompactDiam2Scheme(g, {}), SchemeInapplicable);
  const LandmarkScheme scheme(g);
  EXPECT_TRUE(model::verify_scheme(g, scheme).ok());
}

TEST(Landmark, NearestLandmarkIsNearest) {
  Rng rng(9);
  const Graph g = core::certified_random_graph(96, rng);
  const LandmarkScheme scheme(g);
  const graph::DistanceMatrix dist(g);
  for (graph::NodeId v = 0; v < 96; ++v) {
    const graph::NodeId l = scheme.landmark_of(v);
    for (graph::NodeId other : scheme.landmarks()) {
      EXPECT_LE(dist.at(v, l), dist.at(v, other));
    }
  }
}

TEST(Landmark, RebuiltSchemeKeepsTheLeastIdNearestLandmark) {
  // A grid ties many nodes between landmarks. The deserializing
  // constructor recomputes nearest landmarks from the graph; it must pick
  // the least-id one on ties, exactly as the build did.
  const Graph g = graph::grid(12, 12);
  const LandmarkScheme built(g);
  std::vector<bitio::BitVector> bits;
  for (graph::NodeId u = 0; u < g.node_count(); ++u) {
    bits.push_back(built.function_bits(u));
  }
  const LandmarkScheme rebuilt(g, built.landmarks(), std::move(bits));
  const graph::DistanceMatrix dist(g);
  std::size_t ties = 0;
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    graph::NodeId least = built.landmarks()[0];
    std::size_t nearest = 0;
    for (graph::NodeId l : built.landmarks()) {
      if (dist.at(v, l) < dist.at(v, least)) least = l;
    }
    for (graph::NodeId l : built.landmarks()) {
      nearest += dist.at(v, l) == dist.at(v, least);
    }
    ties += nearest > 1;
    EXPECT_EQ(built.landmark_of(v), least) << v;
    EXPECT_EQ(rebuilt.landmark_of(v), least) << v;
  }
  EXPECT_GT(ties, 0u);
}

TEST(Landmark, LandmarksAreInEveryVicinityOfTheirChildren) {
  // v's nearest landmark always has v in its vicinity (the handoff anchor).
  Rng rng(10);
  const Graph g = core::certified_random_graph(64, rng);
  const LandmarkScheme scheme(g);
  const graph::DistanceMatrix dist(g);
  for (graph::NodeId v = 0; v < 64; ++v) {
    const graph::NodeId l = scheme.landmark_of(v);
    if (l == v) continue;
    // d(l, v) ≤ d(v, l(v)) trivially, so v ∈ C(l).
    EXPECT_LE(dist.at(l, v), dist.at(v, scheme.landmark_of(v)));
  }
}

TEST(Landmark, CustomLandmarkCount) {
  Rng rng(11);
  const Graph g = core::certified_random_graph(64, rng);
  LandmarkScheme::Options opt;
  opt.landmark_count = 4;
  const LandmarkScheme scheme(g, opt);
  EXPECT_EQ(scheme.landmarks().size(), 4u);
  EXPECT_TRUE(model::verify_scheme(g, scheme).ok());
}

TEST(Landmark, LabelBitsChargedUnderGamma) {
  Rng rng(12);
  const Graph g = core::certified_random_graph(64, rng);
  const LandmarkScheme scheme(g);
  const auto space = scheme.space();
  EXPECT_EQ(space.label_bits, 64u * 2 * 6);  // (v, l(v)) at ⌈log n⌉ each
  EXPECT_GT(space.total_function_bits(), 0u);
}

TEST(Landmark, DenseGraphsFavorTheorem1SparseFavorLandmarks) {
  // The §1.2 crossover in miniature.
  Rng rng(13);
  const Graph dense = core::certified_random_graph(96, rng);
  const LandmarkScheme lm_dense(dense);
  const CompactDiam2Scheme compact(dense, {});
  EXPECT_GT(lm_dense.space().total_bits(), compact.space().total_bits());

  // Sparse: a grid. Theorem 1 cannot run; landmark tables stay near-linear.
  const Graph sparse = graph::grid(10, 10);
  const LandmarkScheme lm_sparse(sparse);
  const double n = 100;
  EXPECT_LT(static_cast<double>(lm_sparse.space().total_bits()),
            n * n * std::log2(n) / 2);  // well below full-table territory
}

TEST(Landmark, VicinityRuleMatchesDefinition) {
  Rng rng(14);
  const Graph g = graph::grid(5, 5);
  const LandmarkScheme scheme(g);
  const graph::DistanceMatrix dist(g);
  for (graph::NodeId w = 0; w < 25; ++w) {
    std::size_t expected = 0;
    for (graph::NodeId v = 0; v < 25; ++v) {
      if (v != w && dist.at(w, v) <= dist.at(v, scheme.landmark_of(v))) {
        ++expected;
      }
    }
    EXPECT_EQ(scheme.vicinity_size(w), expected);
  }
}

TEST(Landmark, ThrowsOnDisconnected) {
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_THROW(LandmarkScheme{g}, SchemeInapplicable);
}

}  // namespace
}  // namespace optrt::schemes
