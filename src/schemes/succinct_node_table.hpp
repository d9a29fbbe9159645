// Shared compiled form of a Theorem-1 style per-node table.
//
// A compact node knows, for every destination v, either "v is a
// neighbour — deliver directly" or "forward to this stored coverer". The
// query-optimized encoding is a membership bit-vector of the *routed*
// destinations with O(1) rank into a bit-packed array of their coverers
// (model::PackedSparseArray): contains(v) == false means v answers
// itself. compact-diam2 decodes one per node and routing-center one per
// center straight from the bits (compile_compact_node); the hub compiles
// its decoded table (compile_node_table).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bitio/bit_vector.hpp"
#include "bitio/codes.hpp"
#include "graph/graph.hpp"
#include "model/fastpath.hpp"
#include "schemes/compact_node.hpp"

namespace optrt::schemes {

/// Decodes a compact node table (same inputs, checks and exceptions as
/// decode_compact_node) straight into its compiled form.
[[nodiscard]] model::PackedSparseArray compile_compact_node(
    const bitio::BitVector& bits, std::size_t n, NodeId u,
    const CompactNodeOptions& opt, std::vector<NodeId> free_neighbors);

/// Compiles next_of (the decoded per-destination hops of node `u`, with
/// kInvalid at u itself) into a sparse rank-indexed table over the
/// destinations that do not answer themselves.
[[nodiscard]] inline model::PackedSparseArray compile_node_table(
    graph::NodeId u, std::span<const graph::NodeId> next_of) {
  const std::size_t n = next_of.size();
  const unsigned width = bitio::ceil_log2(std::max<std::size_t>(n, 2));
  bitio::BitVector mask(n);
  std::vector<std::uint32_t> hops;
  for (graph::NodeId v = 0; v < n; ++v) {
    if (v == u || next_of[v] == DecodedCompactNode::kInvalid) continue;
    if (next_of[v] == v) continue;  // direct destination
    mask.set(v, true);
    hops.push_back(next_of[v]);
  }
  return model::PackedSparseArray(std::move(mask), hops, width);
}

}  // namespace optrt::schemes
