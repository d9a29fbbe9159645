#include "schemes/compact_node.hpp"

#include <algorithm>
#include <cmath>

#include "bitio/bit_stream.hpp"
#include "bitio/codes.hpp"
#include "schemes/errors.hpp"
#include "schemes/succinct_node_table.hpp"

namespace optrt::schemes {

namespace {

using bitio::BitReader;
using bitio::BitWriter;
using bitio::ceil_log2;
using bitio::ceil_log2_plus1;

// The paper's cut point: remaining non-neighbours allowed in table 2.
std::size_t table2_threshold(std::size_t n, bool threshold_log) {
  const double dn = static_cast<double>(n);
  const double divisor =
      threshold_log ? std::max(1.0, std::log2(dn))
                    : std::max(1.0, std::log2(std::max(2.0, std::log2(dn))));
  return static_cast<std::size_t>(dn / divisor);
}

}  // namespace

CompactNodeBits build_compact_node(const graph::Graph& g, NodeId u,
                                   const CompactNodeOptions& opt) {
  const std::size_t n = g.node_count();
  const graph::NeighborCover cover = opt.greedy_cover
                                         ? graph::greedy_neighbor_cover(g, u)
                                         : graph::least_neighbor_cover(g, u);
  if (!cover.complete) {
    throw SchemeInapplicable(
        "compact node table: some node is farther than 2 hops from node " +
        std::to_string(u));
  }
  const std::size_t m = cover.centers.size();

  // Count per-center first-coverage to find the cut l.
  std::vector<std::size_t> covered_by(m, 0);
  std::size_t a0 = 0;
  for (NodeId w = 0; w < n; ++w) {
    if (cover.coverer[w] != graph::kNoCoverer) {
      ++covered_by[cover.coverer[w]];
      ++a0;
    }
  }
  const std::size_t threshold = table2_threshold(n, opt.threshold_log);
  std::size_t l = 0;
  std::size_t remaining = a0;
  while (l < m && remaining > threshold) {
    remaining -= covered_by[l];
    ++l;
  }

  BitWriter w;
  if (opt.include_adjacency) {
    // Interconnection vector: presence bit for every node != u in order.
    for (NodeId v = 0; v < n; ++v) {
      if (v != u) w.write_bit(g.has_edge(u, v));
    }
  }
  // Header: center count m.
  w.write_bits(m, ceil_log2_plus1(n));
  // Greedy covers must ship the center order (ranks in the sorted
  // neighbour list); least covers are the prefix of the list, free.
  if (opt.greedy_cover) {
    const auto nbrs = g.neighbors(u);
    const unsigned rank_width = ceil_log2(std::max<std::size_t>(nbrs.size(), 1));
    for (NodeId center : cover.centers) {
      const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), center);
      w.write_bits(static_cast<std::uint64_t>(it - nbrs.begin()), rank_width);
    }
  }

  CompactNodeBits out;
  const std::size_t before_t1 = w.bit_count();
  // Table 1: unary "first coverer + 1" for centers below the cut, else 0.
  for (NodeId v = 0; v < n; ++v) {
    const std::uint32_t c = cover.coverer[v];
    if (c == graph::kNoCoverer) continue;  // u itself or a neighbour
    bitio::write_unary(w, c < l ? c + 1 : 0);
  }
  out.table1_bits = w.bit_count() - before_t1;

  // Table 2: fixed-width coverer indices for the deferred nodes.
  const std::size_t before_t2 = w.bit_count();
  const unsigned index_width = ceil_log2(std::max<std::size_t>(m, 1));
  for (NodeId v = 0; v < n; ++v) {
    const std::uint32_t c = cover.coverer[v];
    if (c == graph::kNoCoverer || c < l) continue;
    w.write_bits(c, index_width);
  }
  out.table2_bits = w.bit_count() - before_t2;
  out.bits = w.take();
  return out;
}

namespace {

/// The Theorem 1 table reader shared by both decoded views: the node's
/// neighbours, the routed (non-neighbour, non-self) destinations as a
/// membership mask, and their coverers in increasing destination order.
struct RoutedDestinations {
  std::vector<NodeId> neighbors;
  bitio::BitVector routed;
  std::vector<std::uint32_t> hops;
};

RoutedDestinations read_compact_node(const bitio::BitVector& bits,
                                     std::size_t n, NodeId u,
                                     const CompactNodeOptions& opt,
                                     std::vector<NodeId> free_neighbors) {
  BitReader r(bits);
  RoutedDestinations out;

  if (opt.include_adjacency) {
    for (NodeId v = 0; v < n; ++v) {
      if (v == u) continue;
      if (r.read_bit()) out.neighbors.push_back(v);
    }
  } else {
    out.neighbors = std::move(free_neighbors);
  }

  const auto m = static_cast<std::size_t>(r.read_bits(ceil_log2_plus1(n)));
  if (m > out.neighbors.size()) {
    throw std::out_of_range("decode_compact_node: center count exceeds degree");
  }

  std::vector<NodeId> centers(m);
  if (opt.greedy_cover) {
    const unsigned rank_width =
        ceil_log2(std::max<std::size_t>(out.neighbors.size(), 1));
    for (std::size_t i = 0; i < m; ++i) {
      const auto rank = static_cast<std::size_t>(r.read_bits(rank_width));
      if (rank >= out.neighbors.size()) {
        throw std::out_of_range("decode_compact_node: bad center rank");
      }
      centers[i] = out.neighbors[rank];
    }
  } else {
    // Least-neighbour centers are the first m sorted neighbours.
    for (std::size_t i = 0; i < m; ++i) centers[i] = out.neighbors[i];
  }

  // Routed destinations: everything but u and its neighbours.
  out.routed = bitio::BitVector(n);
  for (NodeId v = 0; v < n; ++v) out.routed.set(v, v != u);
  for (NodeId v : out.neighbors) out.routed.set(v, false);

  // Table 1: non-neighbours in increasing order.
  std::vector<std::size_t> deferred;
  for (NodeId v = 0; v < n; ++v) {
    if (!out.routed.get(v)) continue;
    const std::uint64_t t = bitio::read_unary(r);
    if (t > 0) {
      if (t > m) throw std::out_of_range("decode_compact_node: bad unary index");
      out.hops.push_back(centers[t - 1]);
    } else {
      deferred.push_back(out.hops.size());
      out.hops.push_back(0);
    }
  }
  // Table 2.
  const unsigned index_width = ceil_log2(std::max<std::size_t>(m, 1));
  for (const std::size_t slot : deferred) {
    const auto index = static_cast<std::size_t>(r.read_bits(index_width));
    if (index >= m) throw std::out_of_range("decode_compact_node: bad index");
    out.hops[slot] = centers[index];
  }
  return out;
}

}  // namespace

DecodedCompactNode decode_compact_node(const bitio::BitVector& bits,
                                       std::size_t n, NodeId u,
                                       const CompactNodeOptions& opt,
                                       std::vector<NodeId> free_neighbors) {
  RoutedDestinations routes =
      read_compact_node(bits, n, u, opt, std::move(free_neighbors));
  DecodedCompactNode node;
  node.next_of.assign(n, DecodedCompactNode::kInvalid);
  for (NodeId v : routes.neighbors) node.next_of[v] = v;
  std::size_t i = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (routes.routed.get(v)) node.next_of[v] = routes.hops[i++];
  }
  node.neighbors = std::move(routes.neighbors);
  return node;
}

model::PackedSparseArray compile_compact_node(
    const bitio::BitVector& bits, std::size_t n, NodeId u,
    const CompactNodeOptions& opt, std::vector<NodeId> free_neighbors) {
  RoutedDestinations routes =
      read_compact_node(bits, n, u, opt, std::move(free_neighbors));
  return model::PackedSparseArray(std::move(routes.routed), routes.hops,
                                  ceil_log2(std::max<std::size_t>(n, 2)));
}

}  // namespace optrt::schemes
