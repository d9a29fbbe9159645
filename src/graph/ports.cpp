#include "graph/ports.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace optrt::graph {

PortAssignment PortAssignment::from_port_maps(
    const Graph& g, std::vector<std::vector<NodeId>> port_to_neighbor) {
  if (port_to_neighbor.size() != g.node_count()) {
    throw std::invalid_argument("from_port_maps: wrong node count");
  }
  PortAssignment pa;
  pa.port_to_neighbor_ = std::move(port_to_neighbor);
  pa.sorted_neighbors_.resize(g.node_count());
  pa.rank_to_port_.resize(g.node_count());
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const auto nbrs = g.neighbors(u);
    const auto& perm = pa.port_to_neighbor_[u];
    if (perm.size() != nbrs.size()) {
      throw std::invalid_argument("from_port_maps: wrong degree");
    }
    pa.sorted_neighbors_[u].assign(nbrs.begin(), nbrs.end());
    pa.rank_to_port_[u].assign(nbrs.size(), 0);
    // Invert the permutation: for each port p, find the rank of its
    // neighbour in the sorted list.
    std::vector<bool> seen(nbrs.size(), false);
    for (PortId p = 0; p < perm.size(); ++p) {
      const auto it =
          std::lower_bound(nbrs.begin(), nbrs.end(), perm[p]);
      if (it == nbrs.end() || *it != perm[p]) {
        throw std::invalid_argument("from_port_maps: not a neighbour");
      }
      const auto rank = static_cast<std::size_t>(it - nbrs.begin());
      if (seen[rank]) {
        throw std::invalid_argument("from_port_maps: duplicate neighbour");
      }
      seen[rank] = true;
      pa.rank_to_port_[u][rank] = p;
    }
  }
  return pa;
}

PortAssignment PortAssignment::sorted(const Graph& g) {
  std::vector<std::vector<NodeId>> ports(g.node_count());
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const auto nbrs = g.neighbors(u);
    ports[u].assign(nbrs.begin(), nbrs.end());
  }
  return from_port_maps(g, std::move(ports));
}

void PortAssignment::resort(const Graph& g, NodeId u) {
  const auto nbrs = g.neighbors(u);
  port_to_neighbor_[u].assign(nbrs.begin(), nbrs.end());
  sorted_neighbors_[u].assign(nbrs.begin(), nbrs.end());
  rank_to_port_[u].resize(nbrs.size());
  std::iota(rank_to_port_[u].begin(), rank_to_port_[u].end(), PortId{0});
}

PortAssignment PortAssignment::random(const Graph& g, Rng& rng) {
  std::vector<std::vector<NodeId>> ports(g.node_count());
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const auto nbrs = g.neighbors(u);
    ports[u].assign(nbrs.begin(), nbrs.end());
    std::shuffle(ports[u].begin(), ports[u].end(), rng);
  }
  return from_port_maps(g, std::move(ports));
}

PortId PortAssignment::port_of(NodeId u, NodeId v) const {
  const auto& nbrs = sorted_neighbors_[u];
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
  if (it == nbrs.end() || *it != v) {
    throw std::invalid_argument("PortAssignment::port_of: not a neighbour");
  }
  return rank_to_port_[u][static_cast<std::size_t>(it - nbrs.begin())];
}

}  // namespace optrt::graph
