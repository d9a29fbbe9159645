// Behavioural tests for every routing scheme: all-pairs delivery, stretch
// bounds (Theorems 1–5), and label/space semantics — on certified random
// graphs and on the structured generators.
#include <gtest/gtest.h>

#include <cmath>

#include "core/experiment.hpp"
#include "graph/generators.hpp"
#include "model/verifier.hpp"
#include "schemes/compact_diam2.hpp"
#include "schemes/errors.hpp"
#include "schemes/full_information.hpp"
#include "schemes/full_table.hpp"
#include "schemes/hub.hpp"
#include "schemes/interval.hpp"
#include "schemes/neighbor_label.hpp"
#include "schemes/routing_center.hpp"
#include "schemes/sequential_search.hpp"

namespace optrt::schemes {
namespace {

using graph::Graph;
using graph::Rng;
using model::verify_scheme;

Graph certified(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  return core::certified_random_graph(n, rng);
}

struct Instance {
  std::size_t n;
  std::uint64_t seed;
};

class OnCertifiedGraphs : public ::testing::TestWithParam<Instance> {};

TEST_P(OnCertifiedGraphs, CompactDiam2IsShortestPath_ModelII) {
  const auto [n, seed] = GetParam();
  const Graph g = certified(n, seed);
  const CompactDiam2Scheme scheme(g, {});
  const auto result = verify_scheme(g, scheme);
  EXPECT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result.max_stretch, 1.0);  // Theorem 1: shortest path
}

TEST_P(OnCertifiedGraphs, CompactDiam2IsShortestPath_ModelIB) {
  const auto [n, seed] = GetParam();
  const Graph g = certified(n, seed);
  CompactDiam2Scheme::Options opt;
  opt.neighbors_known = false;
  const CompactDiam2Scheme scheme(g, opt);
  const auto result = verify_scheme(g, scheme);
  EXPECT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result.max_stretch, 1.0);
}

TEST_P(OnCertifiedGraphs, NeighborLabelIsShortestPath) {
  const auto [n, seed] = GetParam();
  const Graph g = certified(n, seed);
  const NeighborLabelScheme scheme(g);
  const auto result = verify_scheme(g, scheme);
  EXPECT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result.max_stretch, 1.0);  // Theorem 2
}

TEST_P(OnCertifiedGraphs, RoutingCenterStretchAtMost1_5) {
  const auto [n, seed] = GetParam();
  const Graph g = certified(n, seed);
  const RoutingCenterScheme scheme(g);
  const auto result = verify_scheme(g, scheme);
  EXPECT_TRUE(result.ok());
  EXPECT_LE(result.max_stretch, 1.5);  // Theorem 3
}

TEST_P(OnCertifiedGraphs, HubStretchAtMost2) {
  const auto [n, seed] = GetParam();
  const Graph g = certified(n, seed);
  const HubScheme scheme(g);
  const auto result = verify_scheme(g, scheme);
  EXPECT_TRUE(result.ok());
  EXPECT_LE(result.max_stretch, 2.0);  // Theorem 4
}

TEST_P(OnCertifiedGraphs, SequentialSearchStretchLogarithmic) {
  const auto [n, seed] = GetParam();
  const Graph g = certified(n, seed);
  const SequentialSearchScheme scheme(g);
  const auto result = verify_scheme(g, scheme);
  EXPECT_TRUE(result.ok());
  // Theorem 5: ≤ 2(c+3) log n edges for distance-2 targets ⇒ stretch
  // ≤ (c+3) log n with c = 3.
  EXPECT_LE(result.max_stretch, 6.0 * std::log2(static_cast<double>(n)));
}

TEST_P(OnCertifiedGraphs, FullTableIsShortestPath) {
  const auto [n, seed] = GetParam();
  const Graph g = certified(n, seed);
  const FullTableScheme scheme = FullTableScheme::standard(g);
  const auto result = verify_scheme(g, scheme);
  EXPECT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result.max_stretch, 1.0);
}

TEST_P(OnCertifiedGraphs, FullInformationMatchesTrueSuccessorSets) {
  const auto [n, seed] = GetParam();
  const Graph g = certified(n, seed);
  const FullInformationScheme scheme = FullInformationScheme::standard(g);
  EXPECT_TRUE(verify_scheme(g, scheme).ok());
  const auto check = model::verify_full_information(g, scheme);
  EXPECT_TRUE(check.exact) << check.mismatched_pairs << " mismatches";
}

TEST_P(OnCertifiedGraphs, IntervalTreeDeliversEverything) {
  const auto [n, seed] = GetParam();
  const Graph g = certified(n, seed);
  const IntervalRoutingScheme scheme(g);
  const auto result = verify_scheme(g, scheme);
  EXPECT_TRUE(result.ok());
  EXPECT_GE(result.max_stretch, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, OnCertifiedGraphs,
                         ::testing::Values(Instance{32, 1}, Instance{48, 2},
                                           Instance{64, 3}, Instance{96, 4},
                                           Instance{128, 5}),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param.n) + "_s" +
                                  std::to_string(info.param.seed);
                         });

// --- Structured graphs -------------------------------------------------------

TEST(FullTable, ShortestPathOnChainGridRing) {
  for (const Graph& g :
       {graph::chain(17), graph::grid(4, 5), graph::ring(12)}) {
    const FullTableScheme scheme = FullTableScheme::standard(g);
    const auto result = verify_scheme(g, scheme);
    EXPECT_TRUE(result.ok());
    EXPECT_DOUBLE_EQ(result.max_stretch, 1.0);
  }
}

TEST(FullTable, PatchRewritesTheGivenRowsAndRejectsBadOnes) {
  // Patching the rows that differ after a link deletion yields the fresh
  // build's tables; a row of the wrong length or with a port at or above
  // the degree is rejected and leaves the scheme as it was.
  const Graph g = graph::grid(4, 5);
  Graph h = g;
  h.remove_edge(6, 7);
  const std::vector<graph::NodeId> ends = {6, 7};
  FullTableScheme scheme = FullTableScheme::standard(g);
  const FullTableScheme fresh = FullTableScheme::standard(h);
  std::vector<graph::NodeId> rows;
  std::vector<bitio::BitVector> tables;
  for (graph::NodeId u = 0; u < 20; ++u) {
    if (!(scheme.function_bits(u) == fresh.function_bits(u))) {
      rows.push_back(u);
      tables.push_back(fresh.function_bits(u));
    }
  }
  ASSERT_FALSE(rows.empty());
  const graph::NodeId bad_node = rows.front();
  const bitio::BitVector before = scheme.function_bits(bad_node);
  const bitio::BitVector short_row(tables.front().size() - 1);
  EXPECT_THROW(scheme.patch(h, ends, std::vector<graph::NodeId>{bad_node},
                            {short_row}),
               std::invalid_argument);
  // Node 5 keeps degree 3 (2-bit entries): port 3 is out of range.
  bitio::BitVector port3 = fresh.function_bits(5);
  port3.set(0, true);
  port3.set(1, true);
  EXPECT_THROW(scheme.patch(h, ends, std::vector<graph::NodeId>{5}, {port3}),
               std::invalid_argument);
  EXPECT_TRUE(scheme.function_bits(bad_node) == before);
  EXPECT_FALSE(scheme.ports() == graph::PortAssignment::sorted(h));

  scheme.patch(h, ends, rows, std::move(tables));
  EXPECT_TRUE(scheme.ports() == graph::PortAssignment::sorted(h));
  for (graph::NodeId u = 0; u < 20; ++u) {
    EXPECT_TRUE(scheme.function_bits(u) == fresh.function_bits(u)) << u;
  }
  const auto result = verify_scheme(h, scheme);
  EXPECT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result.max_stretch, 1.0);
}

TEST(FullTable, WorksUnderAdversarialPortsAndPermutedLabels) {
  Rng rng(9);
  const Graph g = graph::random_gnp(40, 0.3, rng);
  Rng prng(10);
  auto ports = graph::PortAssignment::random(g, prng);
  std::vector<graph::NodeId> perm(40);
  for (graph::NodeId i = 0; i < 40; ++i) perm[i] = (i * 7 + 3) % 40;
  const FullTableScheme scheme(g, std::move(ports),
                               graph::Labeling::permutation(perm),
                               model::kIAbeta);
  const auto result = verify_scheme(g, scheme);
  EXPECT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result.max_stretch, 1.0);
}

TEST(FullInformation, ExactOnStructuredGraphs) {
  for (const Graph& g :
       {graph::star(9), graph::grid(3, 4), graph::ring(9)}) {
    const FullInformationScheme scheme = FullInformationScheme::standard(g);
    EXPECT_TRUE(model::verify_full_information(g, scheme).exact);
  }
}

TEST(IntervalTree, StretchOneOnTrees) {
  // On a tree the spanning tree is the graph: interval routing is optimal.
  const Graph g = graph::star(15);
  const IntervalRoutingScheme scheme(g);
  const auto result = verify_scheme(g, scheme);
  EXPECT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result.max_stretch, 1.0);

  const Graph c = graph::chain(15);
  const IntervalRoutingScheme chain_scheme(c);
  const auto chain_result = verify_scheme(c, chain_scheme);
  EXPECT_TRUE(chain_result.ok());
  EXPECT_DOUBLE_EQ(chain_result.max_stretch, 1.0);
}

TEST(IntervalTree, RelabelsByDfsPreorder) {
  const Graph g = graph::chain(5);
  const IntervalRoutingScheme scheme(g);
  // A chain rooted at 0 gets preorder labels equal to positions.
  for (graph::NodeId u = 0; u < 5; ++u) EXPECT_EQ(scheme.label_of(u), u);
}

TEST(IntervalTree, ThrowsOnDisconnected) {
  Graph g(4);
  g.add_edge(0, 1);
  EXPECT_THROW(IntervalRoutingScheme{g}, SchemeInapplicable);
}

TEST(CompactDiam2, ThrowsOnChain) {
  EXPECT_THROW(CompactDiam2Scheme(graph::chain(8), {}), SchemeInapplicable);
}

TEST(NeighborLabel, ThrowsOnRing) {
  EXPECT_THROW(NeighborLabelScheme{graph::ring(8)}, SchemeInapplicable);
}

TEST(Hub, WorksOnStar) {
  // Star has diameter 2; hub scheme with the centre as hub is exact.
  const Graph g = graph::star(12);
  const HubScheme scheme(g, /*hub=*/0);
  const auto result = verify_scheme(g, scheme);
  EXPECT_TRUE(result.ok());
  EXPECT_LE(result.max_stretch, 2.0);
}

TEST(RoutingCenter, CentersIncludeHubCover) {
  const Graph g = certified(64, 7);
  const RoutingCenterScheme scheme(g, 0);
  EXPECT_FALSE(scheme.centers().empty());
  // All centers must be node 0 or adjacent to node 0.
  for (graph::NodeId b : scheme.centers()) {
    EXPECT_TRUE(b == 0 || g.has_edge(0, b));
  }
}

TEST(SequentialSearch, RouteVisitsProbesInLeastOrder) {
  const Graph g = certified(48, 8);
  const SequentialSearchScheme scheme(g);
  // Pick a non-adjacent pair and walk manually, checking the probe pattern.
  graph::NodeId src = 0, dst = 0;
  for (graph::NodeId v = 1; v < 48; ++v) {
    if (!g.has_edge(0, v)) {
      dst = v;
      break;
    }
  }
  ASSERT_NE(dst, 0u);
  model::MessageHeader header;
  graph::NodeId at = src;
  std::size_t hops = 0;
  while (at != dst && hops < 200) {
    const graph::NodeId nxt = scheme.next_hop(at, dst, header);
    ASSERT_TRUE(g.has_edge(at, nxt));
    header.came_from = at;
    at = nxt;
    ++hops;
  }
  EXPECT_EQ(at, dst);
  // Each failed probe costs 2 edges; total edges is odd: 2·fails + 2 or 1.
  EXPECT_LE(hops, 2u * g.neighbors(src).size());
}

TEST(Schemes, NamesAndModelsAreStable) {
  const Graph g = certified(32, 11);
  EXPECT_EQ(CompactDiam2Scheme(g, {}).name(), "compact-diam2");
  EXPECT_EQ(NeighborLabelScheme(g).name(), "neighbor-label");
  EXPECT_EQ(NeighborLabelScheme(g).routing_model(), model::kIIgamma);
  EXPECT_EQ(RoutingCenterScheme(g).name(), "routing-center");
  EXPECT_EQ(HubScheme(g).name(), "hub");
  EXPECT_EQ(SequentialSearchScheme(g).name(), "sequential-search");
  EXPECT_EQ(FullTableScheme::standard(g).name(), "full-table");
  EXPECT_EQ(FullInformationScheme::standard(g).name(), "full-information");
}

}  // namespace
}  // namespace optrt::schemes
