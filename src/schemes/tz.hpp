// Thorup-Zwick compact routing with stretch ≤ 3 (the k = 2 scheme of
// "Compact routing schemes", SPAA 2001, as evaluated on Internet-like
// topologies by Krioukov-Fall-Yang).
//
// Sample a landmark set A by including each node independently with
// probability √(ln n / n) (resampling, deterministically in the seed, while
// A is empty or some cluster exceeds the 4√(n ln n) cap). Let l(v) be v's
// nearest landmark and d(v, A) = d(v, l(v)). Node w stores
//   (a) a next-hop port toward every landmark, and
//   (b) a next-hop port for every v in its *cluster*
//       C(w) = { v : d(w, v) < d(v, A) }   (strict inequality).
// Destinations are addressed by the charged label (v, l(v), exit port at
// l(v) toward v) — model γ. Routing from u to v: deliver on a shortest
// path while v is in the current cluster; at l(v) itself take the label's
// exit port; otherwise head for l(v).
//
// The strict inequality is what separates this from LandmarkScheme's
// non-strict vicinities: clusters of landmarks are empty, membership is
// monotone along shortest paths (d(y, v) = d(x, v) − 1 < d(v, A)), and the
// handoff detour costs at most 2·d(v, l(v)) ≤ 2·d(u, v) when v ∉ C(u) —
// worst-case stretch exactly ≤ 3, with the sampled A keeping every cluster
// and bunch at O(√(n log n)) w.h.p. instead of the ⌈√n⌉-landmark heuristic.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "bitio/bit_vector.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/ports.hpp"  // PortId
#include "model/scheme.hpp"

namespace optrt::schemes {

using graph::NodeId;

struct TzOptions {
  /// Seed for the landmark Bernoulli sample.
  std::uint64_t seed = 1;
  /// Resample attempts before accepting the best nonempty sample seen.
  std::size_t max_resamples = 32;
};

/// d(v, A) for every v, from one multi-source BFS out of `landmarks`
/// (kUnreachable where disconnected): O(n + m), no distance matrix.
[[nodiscard]] std::vector<std::uint32_t> tz_landmark_distances(
    const graph::Graph& g, std::span<const NodeId> landmarks);

/// Lists strict clusters C(w) = {v ≠ w : d(w, v) < d(v, A)} by a BFS from w
/// that expands cluster members only. That is exact: every node y on a
/// shortest w–v path to a member v is a member (or w), since
///   d(w, y) = d(w, v) − d(y, v) < d(v, A) − d(y, v) ≤ d(y, A),
/// so by induction on d(w, v) each member is reached at its true level,
/// and a non-member reached at level ℓ ≥ d(w, y) ≥ d(y, A) fails the
/// test. Each member's least-rank first hop is the minimum over its BFS
/// parents (all members or w), the same tie rule as graph::first_hop_rank.
/// The cost is the arcs of w and its members, not n. Scratch is reused
/// across calls (epoch stamps, no per-call clearing).
class TzClusterSearch {
 public:
  explicit TzClusterSearch(std::size_t n);

  /// |C(w)|, where dva[v] = d(v, A).
  std::size_t count(const graph::Graph& g,
                    std::span<const std::uint32_t> dva, NodeId w);

  /// C(w) in increasing id order, with hop(v) set for each member: the
  /// rank in g.neighbors(w) of w's least first hop toward v.
  std::span<const NodeId> list(const graph::Graph& g,
                               std::span<const std::uint32_t> dva, NodeId w);
  [[nodiscard]] std::uint32_t hop(NodeId v) const { return hop_[v]; }

 private:
  void search(const graph::Graph& g, std::span<const std::uint32_t> dva,
              NodeId w, bool hops);

  std::vector<std::uint32_t> seen_;  // == stamp_ once reached from w
  std::vector<std::uint32_t> level_;
  std::vector<std::uint32_t> hop_;
  std::vector<NodeId> members_;
  std::uint32_t stamp_ = 0;
};

/// The landmark election, factored out of the constructor so incremental
/// repair (schemes/repair.hpp) can replay it after every event: a pure
/// function of (graph, options) with a draw sequence pinned by tz_test —
/// identical inputs yield the identical sorted landmark set the TzScheme
/// constructor would sample. Each attempt costs one multi-source BFS for
/// d(·, A) plus one TzClusterSearch::count per node; no distance matrix.
[[nodiscard]] std::vector<NodeId> tz_sample_landmarks(
    const graph::Graph& g, const TzOptions& options);

/// Serializes one node's TZ table (landmark ports, then the strict-cluster
/// id/port list) from explicit inputs — the byte layout the constructor
/// writes and next_hop decodes. Ports are the sorted assignment, so a
/// port is a neighbour rank. `dva[v]` must be d(v, A) for the given
/// landmark set; `dist` is read at w's closed neighbourhood and the
/// landmark columns only. Shared by the constructor and the churn repair
/// path, so a patched table is byte-identical to a fresh build by
/// construction.
[[nodiscard]] bitio::BitVector tz_build_node_bits(
    const graph::Graph& g, const graph::DistanceMatrix& dist,
    const std::vector<NodeId>& landmarks, std::span<const std::uint32_t> dva,
    NodeId w, TzClusterSearch& clusters);

class TzScheme final : public model::RoutingScheme {
 public:
  using Options = TzOptions;

  /// Throws SchemeInapplicable on disconnected graphs.
  explicit TzScheme(const graph::Graph& g, Options options = {});

  /// Reconstructs from serialized state (deserialization path; see
  /// schemes/serialization.hpp): the sorted landmark set plus per-node
  /// bits. Nearest landmarks and the per-destination exit ports are
  /// recomputed from the graph (deterministic: least id on ties).
  TzScheme(const graph::Graph& g, std::vector<NodeId> landmarks,
           std::vector<bitio::BitVector> node_bits);

  /// Same reconstruction, but against caller-supplied distances instead of
  /// DistanceCache::global() — the churn repair path maintains its own
  /// incrementally patched matrix and must not pay a full BFS per event.
  TzScheme(const graph::Graph& g, std::vector<NodeId> landmarks,
           std::vector<bitio::BitVector> node_bits,
           const graph::DistanceMatrix& dist);

  /// Churn repair in place, after the single link change that made `g`
  /// kept the landmark set: replaces the table of each nodes[i] by
  /// bits[i], re-validating and re-decoding those slices only (the same
  /// per-node decoder the constructors use), and moves bunch sizes by the
  /// old and new clusters of those nodes. The label parts (l(v) and the
  /// exit port) are recomputed for the destinations in `relabel` only:
  /// the caller lists every v whose distance column changed or whose l(v)
  /// changed its neighbour list. Compiled tables still shared with a
  /// FastPath are copied first, so a FastPath keeps the tables it was
  /// compiled from. Throws std::invalid_argument, leaving the scheme
  /// unchanged, on a bad table.
  void patch(const graph::Graph& g, const graph::DistanceMatrix& dist,
             std::span<const NodeId> nodes, std::vector<bitio::BitVector> bits,
             std::span<const NodeId> relabel);

  [[nodiscard]] std::string name() const override { return "tz"; }
  [[nodiscard]] model::Model routing_model() const override {
    return model::kIIgamma;
  }
  [[nodiscard]] std::size_t node_count() const override { return n_; }
  [[nodiscard]] NodeId next_hop(NodeId u, NodeId dest_label,
                                model::MessageHeader& header) const override;
  [[nodiscard]] model::SpaceReport space() const override;
  /// Compiled form: a FastPath over the tables next_hop routes from.
  [[nodiscard]] std::unique_ptr<model::FastPath> compile_fast() const override;
  [[nodiscard]] std::vector<NodeId> port_enumeration(NodeId u) const override;

  /// Cluster-size cap enforced by the resample loop: 4√(n ln n).
  [[nodiscard]] static std::size_t cluster_cap(std::size_t n);

  [[nodiscard]] const std::vector<NodeId>& landmarks() const {
    return landmarks_;
  }
  [[nodiscard]] NodeId landmark_of(NodeId v) const;
  /// The third label part: the port at l(v) toward v (0 when l(v) == v).
  [[nodiscard]] graph::PortId exit_port(NodeId v) const;
  [[nodiscard]] std::size_t cluster_size(NodeId w) const;
  /// |B(v)| = |{w : d(v, w) < d(v, A)}| + |A| (v's bunch: the nodes whose
  /// cluster contains v, plus every landmark).
  [[nodiscard]] std::size_t bunch_size(NodeId v) const {
    return bunch_size_[v];
  }
  [[nodiscard]] const bitio::BitVector& function_bits(NodeId u) const {
    return function_bits_[u];
  }

 private:
  struct Tables;

  /// The one table decoder, shared by every constructor: validates the
  /// landmark set and function_bits_ against the graph (port bounds,
  /// sorted clusters, no trailing bits), decodes them into tables_ with
  /// the label parts (l(v) and exit ports), and records bunch sizes.
  void decode(const graph::Graph& g, const graph::DistanceMatrix& dist);

  std::size_t n_;
  std::vector<NodeId> landmarks_;  // sorted
  std::vector<std::size_t> bunch_size_;
  std::vector<bitio::BitVector> function_bits_;
  // Per node, a rank-indexed cluster membership vector plus bit-packed
  // landmark ports, with the label exit ports, resolved through a
  // port-order CSR.
  std::shared_ptr<Tables> tables_;
};

}  // namespace optrt::schemes
