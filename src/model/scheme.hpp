// The routing-scheme abstraction of §1.
//
// A routing scheme comprises a local routing function for every node: given
// a destination (an external label), the function at node u names an edge
// incident to u on a path toward the destination. The space requirement of
// a scheme is the sum over nodes of the bits needed to encode the local
// routing functions, plus — under relabelling model γ — the bits of the
// node labels themselves.
//
// Honesty discipline: every concrete scheme in src/schemes serializes each
// local routing function into a BitVector at construction, and next_hop()
// answers only from what that bit string decodes to, plus the model's free
// knowledge (the port count, and under II the neighbour labels).
// SpaceReport therefore reports exactly the information the routing
// functions consult. Full-table seeks into the bits on every call; hub,
// hierarchical, interval and k-interval keep a per-node decoded view;
// compact-diam2, routing-center, landmark and TZ decode each node's bits
// once into immutable compiled tables (model/fastpath.hpp) that next_hop
// and compile_fast() share.
#pragma once

#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "model/models.hpp"

namespace optrt::model {

class FastPath;

using graph::NodeId;

/// Per-message scratch carried in the message header. Most schemes route
/// statelessly; Theorem 5's sequential search uses a probe phase and index.
/// `came_from` is maintained by the carrier (verifier / simulator): a node
/// always knows the link a message arrived over.
struct MessageHeader {
  std::uint32_t phase = 0;
  std::uint32_t probe_index = 0;
  NodeId came_from = static_cast<NodeId>(-1);

  /// Header bits a real implementation would carry (phase + index); used
  /// for reporting only.
  [[nodiscard]] unsigned bits_in_flight() const noexcept;
};

/// Space accounting for one scheme instance.
struct SpaceReport {
  /// Bits of the serialized local routing function, per node.
  std::vector<std::size_t> function_bits;
  /// Charged label bits (model γ only; zero otherwise).
  std::size_t label_bits = 0;

  [[nodiscard]] std::size_t total_function_bits() const {
    return std::accumulate(function_bits.begin(), function_bits.end(),
                           std::size_t{0});
  }
  /// The paper's space requirement: Σ function bits (+ label bits under γ).
  [[nodiscard]] std::size_t total_bits() const {
    return total_function_bits() + label_bits;
  }
  [[nodiscard]] std::size_t max_node_bits() const {
    std::size_t best = 0;
    for (std::size_t b : function_bits) best = std::max(best, b);
    return best;
  }
};

/// Abstract routing scheme over a fixed graph.
class RoutingScheme {
 public:
  virtual ~RoutingScheme() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual Model routing_model() const = 0;
  [[nodiscard]] virtual std::size_t node_count() const = 0;

  /// External label of an internal node (identity unless relabelled; γ
  /// schemes additionally expose bit labels via their own interface).
  [[nodiscard]] virtual NodeId label_of(NodeId node) const { return node; }
  [[nodiscard]] virtual NodeId node_of_label(NodeId label) const {
    return label;
  }

  /// Next hop (internal node id) from internal node `u` toward the
  /// destination with external label `dest_label`.
  /// Precondition: dest_label != label_of(u).
  [[nodiscard]] virtual NodeId next_hop(NodeId u, NodeId dest_label,
                                        MessageHeader& header) const = 0;

  /// Space used by this scheme under its model's accounting.
  [[nodiscard]] virtual SpaceReport space() const = 0;

  /// Compiles the query-optimized form of this scheme (model/fastpath.hpp):
  /// first hops identical to next_hop with a fresh MessageHeader. The
  /// serializable schemes return self-contained compiled tables; the base
  /// default returns a generic wrapper that borrows this scheme (the
  /// scheme must then outlive the fast path).
  [[nodiscard]] virtual std::unique_ptr<FastPath> compile_fast() const;

  /// The neighbours of `u` in the scheme's own port order — the
  /// enumeration a deflection policy consults when the primary hop is
  /// down. Schemes that do not expose a port assignment return empty, and
  /// the carrier falls back to its model-II sorted neighbour view.
  [[nodiscard]] virtual std::vector<NodeId> port_enumeration(NodeId u) const {
    (void)u;
    return {};
  }
};

/// Full-information shortest path routing (§1): the function at u returns
/// *all* edges incident to u on shortest paths to the destination, enabling
/// rerouting when links fail.
class FullInformationRouting : public RoutingScheme {
 public:
  /// All next hops of `u` on shortest paths toward `dest_label`, in
  /// increasing label order.
  [[nodiscard]] virtual std::vector<NodeId> all_next_hops(
      NodeId u, NodeId dest_label) const = 0;
};

}  // namespace optrt::model
