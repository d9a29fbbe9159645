#include "schemes/routing_center.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "bitio/bit_stream.hpp"
#include "bitio/codes.hpp"
#include "graph/cover.hpp"
#include "model/fastpath.hpp"
#include "schemes/errors.hpp"
#include "schemes/succinct_node_table.hpp"

namespace optrt::schemes {

struct RoutingCenterScheme::Tables {
  model::AdjacencyBits adjacency;
  bitio::RankSelect in_b;
  std::vector<model::PackedSparseArray> center_tables;  ///< by rank in B
  std::vector<NodeId> my_center;                        ///< valid outside B

  [[nodiscard]] std::size_t node_count() const { return my_center.size(); }
  [[nodiscard]] NodeId next_hop(NodeId u, NodeId dest_label) const {
    if (dest_label == u) {
      throw std::invalid_argument("RoutingCenterScheme: routing to self");
    }
    // Model II: direct neighbours are routed without any table.
    if (adjacency.has_edge(u, dest_label)) return dest_label;
    if (in_b.get(u)) {
      const auto& table = center_tables[in_b.rank1(u)];
      if (table.contains(dest_label)) {
        return static_cast<NodeId>(table.value(dest_label));
      }
      return dest_label;
    }
    return my_center[u];
  }
};

RoutingCenterScheme::RoutingCenterScheme(const graph::Graph& g, NodeId hub)
    : n_(g.node_count()) {
  const graph::NeighborCover hub_cover = graph::least_neighbor_cover(g, hub);
  if (!hub_cover.complete) {
    throw SchemeInapplicable("routing-center: hub cover incomplete");
  }
  center_ids_ = hub_cover.centers;
  center_ids_.push_back(hub);
  std::sort(center_ids_.begin(), center_ids_.end());
  center_ids_.erase(std::unique(center_ids_.begin(), center_ids_.end()),
                    center_ids_.end());

  std::vector<bool> in_b(n_, false);
  for (NodeId b : center_ids_) in_b[b] = true;

  function_bits_.resize(n_);
  const unsigned id_width = bitio::ceil_log2(std::max<std::size_t>(n_, 2));
  const CompactNodeOptions node_opt;  // model II defaults

  for (NodeId v = 0; v < n_; ++v) {
    if (in_b[v]) {
      function_bits_[v] = build_compact_node(g, v, node_opt).bits;
    } else {
      // Store the label of the least adjacent center. Every node is
      // adjacent to one: the hub's cover dominates its non-neighbours and
      // the hub's neighbours are adjacent to the hub itself.
      NodeId chosen = static_cast<NodeId>(-1);
      for (NodeId z : g.neighbors(v)) {
        if (in_b[z]) {
          chosen = z;
          break;
        }
      }
      if (chosen == static_cast<NodeId>(-1)) {
        throw SchemeInapplicable("routing-center: node " + std::to_string(v) +
                                 " not adjacent to any center");
      }
      bitio::BitWriter w;
      w.write_bits(chosen, id_width);
      function_bits_[v] = w.take();
    }
  }
  decode(g);
}

RoutingCenterScheme::RoutingCenterScheme(const graph::Graph& g,
                                         std::vector<NodeId> center_ids,
                                         std::vector<bitio::BitVector> node_bits)
    : n_(g.node_count()), center_ids_(std::move(center_ids)) {
  if (node_bits.size() != n_) {
    throw std::invalid_argument("RoutingCenterScheme: node count mismatch");
  }
  function_bits_ = std::move(node_bits);
  decode(g);
}

void RoutingCenterScheme::decode(const graph::Graph& g) {
  bitio::BitVector in_b(n_);
  for (NodeId b : center_ids_) {
    if (b >= n_) {
      throw std::invalid_argument("RoutingCenterScheme: bad center id");
    }
    in_b.set(b, true);
  }
  auto tables = std::make_shared<Tables>();
  tables->adjacency = model::AdjacencyBits(g);
  tables->my_center.assign(n_, static_cast<NodeId>(-1));
  const unsigned id_width = bitio::ceil_log2(std::max<std::size_t>(n_, 2));
  const CompactNodeOptions node_opt;
  for (NodeId v = 0; v < n_; ++v) {
    if (in_b.get(v)) {
      const auto nbrs = g.neighbors(v);
      tables->center_tables.push_back(
          compile_compact_node(function_bits_[v], n_, v, node_opt,
                               std::vector<NodeId>(nbrs.begin(), nbrs.end())));
    } else {
      bitio::BitReader r(function_bits_[v]);
      const auto center = static_cast<NodeId>(r.read_bits(id_width));
      if (center >= n_ || !in_b.get(center)) {
        throw std::invalid_argument("RoutingCenterScheme: bad stored center");
      }
      tables->my_center[v] = center;
    }
  }
  tables->in_b = bitio::RankSelect(std::move(in_b));
  tables_ = std::move(tables);
}

NodeId RoutingCenterScheme::next_hop(NodeId u, NodeId dest_label,
                                     model::MessageHeader&) const {
  return tables_->next_hop(u, dest_label);
}

std::unique_ptr<model::FastPath> RoutingCenterScheme::compile_fast() const {
  model::note_fastpath_compiled("routing_center");
  return std::make_unique<model::SharedTablesFastPath<Tables>>(name(),
                                                               tables_);
}

model::SpaceReport RoutingCenterScheme::space() const {
  model::SpaceReport report;
  report.function_bits.reserve(n_);
  for (const auto& bits : function_bits_) {
    report.function_bits.push_back(bits.size());
  }
  return report;
}

}  // namespace optrt::schemes
