#include "schemes/compact_diam2.hpp"

#include <stdexcept>
#include <utility>

#include "model/fastpath.hpp"
#include "schemes/succinct_node_table.hpp"

namespace optrt::schemes {

CompactDiam2Scheme::Options CompactDiam2Scheme::Options::for_model(
    const model::Model& m) {
  Options opt;
  opt.neighbors_known = m.neighbors_known();
  opt.node.include_adjacency = !m.neighbors_known();
  return opt;
}

struct CompactDiam2Scheme::Tables {
  std::vector<model::PackedSparseArray> routed;

  [[nodiscard]] std::size_t node_count() const { return routed.size(); }
  [[nodiscard]] NodeId next_hop(NodeId u, NodeId dest_label) const {
    if (dest_label == u) {
      throw std::invalid_argument("CompactDiam2Scheme: routing to self");
    }
    const auto& table = routed[u];
    if (table.contains(dest_label)) {
      return static_cast<NodeId>(table.value(dest_label));
    }
    return dest_label;  // direct destination (a neighbour of u)
  }
};

CompactDiam2Scheme::CompactDiam2Scheme(const graph::Graph& g, Options options)
    : n_(g.node_count()), options_(options) {
  options_.node.include_adjacency = !options_.neighbors_known;
  bits_.reserve(n_);
  for (NodeId u = 0; u < n_; ++u) {
    bits_.push_back(build_compact_node(g, u, options_.node));
  }
  decode(g);
}

CompactDiam2Scheme::CompactDiam2Scheme(const graph::Graph& g, Options options,
                                       std::vector<bitio::BitVector> node_bits)
    : n_(g.node_count()), options_(options) {
  options_.node.include_adjacency = !options_.neighbors_known;
  if (node_bits.size() != n_) {
    throw std::invalid_argument("CompactDiam2Scheme: node count mismatch");
  }
  bits_.resize(n_);
  for (NodeId u = 0; u < n_; ++u) bits_[u].bits = std::move(node_bits[u]);
  decode(g);
}

void CompactDiam2Scheme::decode(const graph::Graph& g) {
  auto tables = std::make_shared<Tables>();
  tables->routed.reserve(n_);
  for (NodeId u = 0; u < n_; ++u) {
    std::vector<NodeId> free_neighbors;
    if (options_.neighbors_known) {
      const auto nbrs = g.neighbors(u);
      free_neighbors.assign(nbrs.begin(), nbrs.end());
    }
    tables->routed.push_back(compile_compact_node(
        bits_[u].bits, n_, u, options_.node, std::move(free_neighbors)));
  }
  tables_ = std::move(tables);
}

model::Model CompactDiam2Scheme::routing_model() const {
  return model::Model{options_.neighbors_known
                          ? model::Knowledge::kNeighborsKnown
                          : model::Knowledge::kFreePorts,
                      model::Relabeling::kNone};
}

NodeId CompactDiam2Scheme::next_hop(NodeId u, NodeId dest_label,
                                    model::MessageHeader&) const {
  return tables_->next_hop(u, dest_label);
}

std::unique_ptr<model::FastPath> CompactDiam2Scheme::compile_fast() const {
  model::note_fastpath_compiled("compact_diam2");
  return std::make_unique<model::SharedTablesFastPath<Tables>>(name(),
                                                               tables_);
}

model::SpaceReport CompactDiam2Scheme::space() const {
  model::SpaceReport report;
  report.function_bits.reserve(n_);
  for (const auto& nb : bits_) report.function_bits.push_back(nb.bits.size());
  return report;
}

}  // namespace optrt::schemes
