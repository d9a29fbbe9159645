// Shortest-path machinery tests: BFS, distance matrices, successor sets.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"

namespace optrt::graph {
namespace {

TEST(Bfs, ChainDistancesAreLinear) {
  const Graph g = chain(6);
  const auto dist = bfs_distances(g, 0);
  for (NodeId v = 0; v < 6; ++v) EXPECT_EQ(dist[v], v);
}

TEST(Bfs, DisconnectedIsUnreachable) {
  Graph g(4);
  g.add_edge(0, 1);
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], kUnreachable);
  EXPECT_EQ(dist[3], kUnreachable);
}

TEST(Bfs, RingDistanceWrapsAround) {
  const Graph g = ring(8);
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[4], 4u);
  EXPECT_EQ(dist[7], 1u);
  EXPECT_EQ(dist[5], 3u);
}

TEST(DistanceMatrixTest, SymmetricAndZeroDiagonal) {
  Rng rng(9);
  const Graph g = random_gnp(40, 0.2, rng);
  const DistanceMatrix dist(g);
  for (NodeId u = 0; u < 40; ++u) {
    EXPECT_EQ(dist.at(u, u), 0u);
    for (NodeId v = 0; v < 40; ++v) EXPECT_EQ(dist.at(u, v), dist.at(v, u));
  }
}

TEST(DistanceMatrixTest, TriangleInequality) {
  Rng rng(10);
  const Graph g = random_gnp(30, 0.3, rng);
  const DistanceMatrix dist(g);
  for (NodeId u = 0; u < 30; ++u) {
    for (NodeId v = 0; v < 30; ++v) {
      for (NodeId w = 0; w < 30; ++w) {
        if (dist.at(u, w) == kUnreachable || dist.at(w, v) == kUnreachable ||
            dist.at(u, v) == kUnreachable) {
          continue;
        }
        EXPECT_LE(dist.at(u, v), dist.at(u, w) + dist.at(w, v));
      }
    }
  }
}

TEST(DistanceMatrixTest, DiameterOfKnownGraphs) {
  EXPECT_EQ(DistanceMatrix(chain(10)).diameter(), 9u);
  EXPECT_EQ(DistanceMatrix(complete(10)).diameter(), 1u);
  EXPECT_EQ(DistanceMatrix(star(10)).diameter(), 2u);
  EXPECT_EQ(DistanceMatrix(ring(10)).diameter(), 5u);
}

TEST(DistanceMatrixTest, DisconnectedDiameterIsUnreachable) {
  Graph g(3);
  g.add_edge(0, 1);
  const DistanceMatrix dist(g);
  EXPECT_EQ(dist.diameter(), kUnreachable);
  EXPECT_FALSE(dist.connected());
}

TEST(DistanceMatrixTest, RandomDiameterTwo) {
  Rng rng(12);
  const Graph g = random_uniform(128, rng);
  EXPECT_EQ(DistanceMatrix(g).diameter(), 2u);  // Lemma 2 behaviour
}

class SuccessorProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SuccessorProperty, SuccessorsDecreaseDistanceByExactlyOne) {
  Rng rng(GetParam());
  const Graph g = random_gnp(36, 0.15, rng);
  const DistanceMatrix dist(g);
  for (NodeId u = 0; u < 36; ++u) {
    for (NodeId v = 0; v < 36; ++v) {
      const auto succ = shortest_path_successors(g, dist, u, v);
      if (u == v || dist.at(u, v) == kUnreachable) {
        EXPECT_TRUE(succ.empty());
        continue;
      }
      EXPECT_FALSE(succ.empty());  // some neighbour always advances
      for (NodeId s : succ) {
        EXPECT_TRUE(g.has_edge(u, s));
        EXPECT_EQ(dist.at(s, v) + 1, dist.at(u, v));
      }
      // Completeness: every advancing neighbour is listed.
      for (NodeId s : g.neighbors(u)) {
        if (dist.at(s, v) + 1 == dist.at(u, v)) {
          EXPECT_TRUE(std::find(succ.begin(), succ.end(), s) != succ.end());
        }
      }
    }
  }
}

TEST_P(SuccessorProperty, FirstHopRanksPickTheLeastSuccessor) {
  // p = 0.06 leaves unreachable pairs and isolated nodes; 0.15 rarely
  // does. n = 37 is not a multiple of the kernel's 4-lane width, so the
  // scalar tail runs too.
  constexpr std::size_t kN = 37;
  for (const double p : {0.06, 0.15}) {
    Rng rng(GetParam());
    const Graph g = random_gnp(kN, p, rng);
    const DistanceMatrix dist(g);
    std::vector<std::uint32_t> ranks(kN);
    for (NodeId u = 0; u < kN; ++u) {
      first_hop_ranks(g, dist, u, ranks);
      for (NodeId v = 0; v < kN; ++v) {
        const auto succ = shortest_path_successors(g, dist, u, v);
        const std::uint32_t expect =
            succ.empty()
                ? kNoHop
                : static_cast<std::uint32_t>(
                      std::lower_bound(g.neighbors(u).begin(),
                                       g.neighbors(u).end(), succ.front()) -
                      g.neighbors(u).begin());
        EXPECT_EQ(ranks[v], expect) << u << "->" << v;
        EXPECT_EQ(first_hop_rank(g, dist, u, v), expect) << u << "->" << v;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SuccessorProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(Connectivity, DetectsComponents) {
  EXPECT_TRUE(is_connected(chain(5)));
  EXPECT_TRUE(is_connected(complete(5)));
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_FALSE(is_connected(g));
  EXPECT_TRUE(is_connected(Graph(0)));
  EXPECT_TRUE(is_connected(Graph(1)));
}

}  // namespace
}  // namespace optrt::graph
