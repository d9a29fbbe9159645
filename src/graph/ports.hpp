// Port assignments (§1): the edges incident to a node v of degree d(v) are
// connected to ports labelled 0..d(v)−1.
//
// Model IA fixes the assignment (possibly adversarially — Theorem 8's lower
// bound sets it to a random permutation of the neighbours); model IB lets
// the routing strategy re-assign ports locally, and the canonical free
// choice is "the i-th least neighbour sits on port i" (proof of Theorem 1).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/generators.hpp"
#include "graph/graph.hpp"

namespace optrt::graph {

using PortId = std::uint32_t;

/// A port assignment for every node of a graph.
class PortAssignment {
 public:
  /// The canonical (model IB) assignment: port i ↦ i-th least neighbour.
  [[nodiscard]] static PortAssignment sorted(const Graph& g);

  /// A uniformly random permutation per node — the generic model IA case
  /// and the Theorem 8 adversary.
  [[nodiscard]] static PortAssignment random(const Graph& g, Rng& rng);

  /// Gives node `u` the canonical order of its neighbours in `g` (port i ↦
  /// i-th least neighbour), leaving every other node as it is. After a
  /// link change, re-sorting its two endpoints turns sorted(old graph)
  /// into sorted(new graph) in O(deg) instead of a rebuild over all nodes.
  void resort(const Graph& g, NodeId u);

  /// Builds from explicit port → neighbour permutations (one vector per
  /// node, a permutation of its neighbour list). Throws if any vector is
  /// not a permutation of the node's neighbours.
  [[nodiscard]] static PortAssignment from_port_maps(
      const Graph& g, std::vector<std::vector<NodeId>> port_to_neighbor);

  /// Neighbour reached over port `p` of node `u`.
  [[nodiscard]] NodeId neighbor_at(NodeId u, PortId p) const noexcept {
    return port_to_neighbor_[u][p];
  }

  /// Port of node `u` leading to neighbour `v`.
  /// Throws std::invalid_argument if {u, v} is not an edge.
  [[nodiscard]] PortId port_of(NodeId u, NodeId v) const;

  [[nodiscard]] std::size_t degree(NodeId u) const noexcept {
    return port_to_neighbor_[u].size();
  }
  [[nodiscard]] std::size_t node_count() const noexcept {
    return port_to_neighbor_.size();
  }

  /// The full port → neighbour permutation at `u`.
  [[nodiscard]] std::span<const NodeId> ports(NodeId u) const noexcept {
    return port_to_neighbor_[u];
  }

  /// Port of the rank-th least neighbour of `u` (rank aligned with
  /// Graph::neighbors(u)).
  [[nodiscard]] PortId port_of_rank(NodeId u, std::size_t rank) const noexcept {
    return rank_to_port_[u][rank];
  }

  friend bool operator==(const PortAssignment&,
                         const PortAssignment&) = default;

 private:
  PortAssignment() = default;

  // port_to_neighbor_[u][p] = neighbour of u on port p.
  std::vector<std::vector<NodeId>> port_to_neighbor_;
  // rank_to_port_[u][i] = port of the i-th least neighbour of u.
  std::vector<std::vector<PortId>> rank_to_port_;
  // sorted_neighbors_[u] = neighbours of u in increasing order (for
  // port_of lookups without the Graph at hand).
  std::vector<std::vector<NodeId>> sorted_neighbors_;
};

}  // namespace optrt::graph
