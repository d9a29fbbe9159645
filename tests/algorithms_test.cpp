// Shortest-path machinery tests: BFS, distance matrices, successor sets.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "schemes/repair.hpp"

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

// ---- all_pairs_distances: the 64-source kernel behind DistanceMatrix ----

/// Element-by-element check of the kernel against per-source BFS.
void expect_matches_bfs(const Graph& g, const std::string& label) {
  const std::size_t n = g.node_count();
  const DistanceMatrix dist(g);
  ASSERT_EQ(dist.node_count(), n) << label;
  for (NodeId u = 0; u < n; ++u) {
    const auto expect = bfs_distances(g, u);
    const auto row = dist.row(u);
    ASSERT_TRUE(std::equal(row.begin(), row.end(), expect.begin()))
        << label << ": row " << u;
  }
}

/// The kernel's path counters, advanced by one DistanceMatrix(g).
struct ApspPath {
  std::uint64_t batches = 0;
  std::uint64_t scalar = 0;
};
ApspPath apsp_path(const Graph& g) {
  const auto& reg = obs::MetricsRegistry::global();
  const std::uint64_t batches0 =
      reg.counter_value("graph.apsp.bitparallel_batches");
  const std::uint64_t scalar0 = reg.counter_value("graph.apsp.scalar_sources");
  const DistanceMatrix dist(g);
  return {reg.counter_value("graph.apsp.bitparallel_batches") - batches0,
          reg.counter_value("graph.apsp.scalar_sources") - scalar0};
}

const char* const kFamilies[] = {"uniform", "gnp:0.05", "ba:1",
                                 "ba:2",    "ba:3",     "config:2.1,2",
                                 "grid",    "ring"};

TEST(AllPairsDistances, MatchesPerSourceBfsOnEveryFamily) {
  // 63/64/65 and 130 leave partial last batches; 1000 runs long enough on
  // grid and ring for the switch to per-source BFS.
  for (const char* spec : kFamilies) {
    const TopologyFamily family = TopologyFamily::parse(spec);
    for (const std::size_t n : {63, 64, 65, 130, 1000}) {
      expect_matches_bfs(family.make(n, 7),
                         std::string(spec) + " n=" + std::to_string(n));
    }
  }
}

TEST(AllPairsDistances, MatchesPerSourceBfsAtBatchBoundaries) {
  for (const std::size_t n : {0, 1, 2, 63, 64, 65, 130, 1000}) {
    Rng rng(n + 11);
    expect_matches_bfs(n < 3 ? chain(n) : barabasi_albert(n, 2, rng),
                       "ba:2 n=" + std::to_string(n));
    expect_matches_bfs(Graph(n), "edgeless n=" + std::to_string(n));
  }
}

TEST(AllPairsDistances, MatchesPerSourceBfsOnDisconnectedGraphs) {
  // Two components whose ids interleave, so every batch spans both, plus
  // trailing isolated nodes.
  Rng rng(5);
  const Graph a = barabasi_albert(90, 2, rng);
  const Graph b = grid(6, 10);
  const std::size_t n = a.node_count() + b.node_count() + 7;
  std::vector<NodeId> id(n - 7);
  std::iota(id.begin(), id.end(), 0);
  std::shuffle(id.begin(), id.end(), rng);
  Graph g(n);
  for (NodeId u = 0; u < a.node_count(); ++u) {
    for (NodeId v : a.neighbors(u)) {
      if (u < v) g.add_edge(id[u], id[v]);
    }
  }
  const auto off = static_cast<NodeId>(a.node_count());
  for (NodeId u = 0; u < b.node_count(); ++u) {
    for (NodeId v : b.neighbors(u)) {
      if (u < v) g.add_edge(id[off + u], id[off + v]);
    }
  }
  expect_matches_bfs(g, "two components + isolated");
  EXPECT_FALSE(DistanceMatrix(g).connected());

  Rng sparse(6);
  expect_matches_bfs(random_gnp(200, 0.004, sparse), "gnp(200, 0.004)");
}

TEST(AllPairsDistances, LowDiameterGraphsStayBitParallel) {
  Rng rng(21);
  const ApspPath ba = apsp_path(barabasi_albert(1000, 2, rng));
  EXPECT_EQ(ba.batches, 16u);  // ⌈1000 / 64⌉
  EXPECT_EQ(ba.scalar, 0u);
  const ApspPath gnp = apsp_path(random_uniform(512, rng));
  EXPECT_EQ(gnp.batches, 8u);
  EXPECT_EQ(gnp.scalar, 0u);
}

TEST(AllPairsDistances, LongDiameterGraphsSwitchToPerSourceBfs) {
  // The first batch gives up before it completes.
  const ApspPath g = apsp_path(TopologyFamily::grid().make(1024, 0));
  EXPECT_EQ(g.batches, 0u);
  EXPECT_EQ(g.scalar, 1024u);
  const ApspPath r = apsp_path(ring(1000));
  EXPECT_EQ(r.batches, 0u);
  EXPECT_EQ(r.scalar, 1000u);
}

TEST(AllPairsDistances, SwitchesToPerSourceBfsMidway) {
  // A lollipop: a 128-clique on ids 0..127 with a 1000-node path hanging
  // off node 127. The two clique batches stay cheap; the first batch of
  // path sources gives up after writing into the clique rows, which the
  // per-source phase must then repair.
  constexpr NodeId kClique = 128;
  constexpr NodeId kN = kClique + 1000;
  Graph g(kN);
  for (NodeId u = 0; u < kClique; ++u) {
    for (NodeId v = u + 1; v < kClique; ++v) g.add_edge(u, v);
  }
  for (NodeId u = kClique - 1; u + 1 < kN; ++u) g.add_edge(u, u + 1);
  const ApspPath path = apsp_path(g);
  EXPECT_EQ(path.batches, 2u);
  EXPECT_EQ(path.scalar, kN - 2 * 64u);
  expect_matches_bfs(g, "lollipop");
}

TEST(AllPairsDistances, RejectsAWrongOutputSize) {
  std::vector<std::uint32_t> out(15);
  EXPECT_THROW(all_pairs_distances(chain(4), out), std::invalid_argument);
}

/// The rows on which two n×n matrices differ, in increasing order.
std::vector<NodeId> differing_rows(const DistanceMatrix& a,
                                   const DistanceMatrix& b) {
  std::vector<NodeId> rows;
  for (NodeId u = 0; u < a.node_count(); ++u) {
    const auto ra = a.row(u);
    const auto rb = b.row(u);
    if (!std::equal(ra.begin(), ra.end(), rb.begin())) rows.push_back(u);
  }
  return rows;
}

/// Element-by-element equality of the maintained and a fresh matrix.
bool same_matrix(const schemes::DynamicDistances& dyn,
                 const DistanceMatrix& fresh) {
  return differing_rows(dyn.matrix(), fresh).empty();
}

TEST(AllPairsDistances, DynamicDistancesMatchesDistanceMatrix) {
  Rng rng(33);
  const Graph g = barabasi_albert(150, 2, rng);
  const schemes::DynamicDistances dyn(g);
  EXPECT_TRUE(same_matrix(dyn, DistanceMatrix(g)));
}

/// Every entry on which two n×n matrices differ, with its value in `a`,
/// sorted by (s, t): what DynamicDistances::Delta::entries must report.
std::vector<schemes::DynamicDistances::Entry> differing_entries(
    const DistanceMatrix& a, const DistanceMatrix& b) {
  std::vector<schemes::DynamicDistances::Entry> entries;
  for (NodeId s = 0; s < a.node_count(); ++s) {
    for (NodeId t = 0; t < a.node_count(); ++t) {
      if (a.at(s, t) != b.at(s, t)) entries.push_back({s, t, a.at(s, t)});
    }
  }
  return entries;
}

TEST(AllPairsDistances, DynamicDistancesAllRowsFallbackMatches) {
  // A deletion that changes every row: cutting one spoke of a star strands
  // its leaf, so column 7 of every row (and all of row 7) goes
  // unreachable. Each row's region repair must still give exactly the
  // fresh matrix and report exactly the changed entries.
  const std::size_t n = 40;
  Graph before(n);
  for (NodeId leaf = 1; leaf < n; ++leaf) before.add_edge(0, leaf);
  schemes::DynamicDistances dyn(before);
  Graph after = before;
  after.remove_edge(0, 7);
  const auto delta = dyn.apply(after, 0, 7, /*up=*/false);
  const DistanceMatrix old_matrix(before);
  const DistanceMatrix fresh(after);
  EXPECT_EQ(delta.rows_bfs, n);
  EXPECT_EQ(delta.changed_rows.size(), n);
  EXPECT_EQ(delta.changed_rows, differing_rows(old_matrix, fresh));
  EXPECT_EQ(delta.entries, differing_entries(old_matrix, fresh));
  EXPECT_EQ(delta.entries.size(), 2 * (n - 1));
  EXPECT_TRUE(same_matrix(dyn, fresh));
  EXPECT_FALSE(dyn.connected());
}

TEST(AllPairsDistances, DynamicDistancesMatchAFreshMatrixAfterEveryDelta) {
  // Seeded random deletions and insertions, disconnecting and reconnecting
  // the graph along the way. After every apply the matrix must equal a
  // fresh one element by element, changed_rows must be exactly the rows
  // that differ from the previous fresh matrix, and entries exactly the
  // differing entries with their previous values.
  for (const char* family : {"grid", "ring", "ba:1", "ba:2", "uniform"}) {
    for (const std::size_t n : {2u, 64u, 130u}) {
      SCOPED_TRACE(std::string(family) + " n=" + std::to_string(n));
      // ring needs n ≥ 3; on two nodes every family is the one edge.
      Graph g = n == 2 ? chain(2) : TopologyFamily::parse(family).make(n, 7);
      schemes::DynamicDistances dyn(g);
      DistanceMatrix before(g);
      Rng rng(n * 1000);
      std::uniform_int_distribution<NodeId> node(0,
                                                 static_cast<NodeId>(n - 1));
      std::size_t deletions = 0;
      std::size_t insertions = 0;
      for (int step = 0; step < 120; ++step) {
        NodeId u = 0;
        NodeId v = 0;
        if (rng() % 2 == 0 && g.edge_count() > 0) {
          do {
            u = node(rng);
          } while (g.degree(u) == 0);
          v = g.neighbors(u)[rng() % g.degree(u)];
        } else {
          do {
            u = node(rng);
            v = node(rng);
          } while (u == v);
        }
        const bool up = !g.has_edge(u, v);
        if (up) {
          g.add_edge(u, v);
          ++insertions;
        } else {
          g.remove_edge(u, v);
          ++deletions;
        }
        const auto delta = dyn.apply(g, u, v, up);
        DistanceMatrix after(g);
        ASSERT_TRUE(same_matrix(dyn, after)) << "step " << step;
        ASSERT_EQ(delta.changed_rows, differing_rows(before, after))
            << "step " << step << (up ? " insert " : " delete ") << u << "-"
            << v;
        ASSERT_EQ(delta.entries, differing_entries(before, after))
            << "step " << step << (up ? " insert " : " delete ") << u << "-"
            << v;
        before = std::move(after);
      }
      EXPECT_GT(deletions, 20u);
      EXPECT_GT(insertions, 20u);
    }
  }
}

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
