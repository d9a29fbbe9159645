#include "schemes/hierarchical.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <set>
#include <stdexcept>

#include "bitio/bit_stream.hpp"
#include "bitio/codes.hpp"
#include "graph/algorithms.hpp"
#include "graph/csr.hpp"
#include "model/fastpath.hpp"
#include "schemes/errors.hpp"

namespace optrt::schemes {

namespace {

// Header phases.
constexpr std::uint32_t kNoWaypoint = 0;
constexpr std::uint32_t kWaypointSet = 1;

}  // namespace

int HierarchicalScheme::DecodedNode::find(NodeId target) const {
  const auto it = std::lower_bound(targets.begin(), targets.end(), target);
  if (it == targets.end() || *it != target) return -1;
  return static_cast<int>(it - targets.begin());
}

HierarchicalScheme::HierarchicalScheme(const graph::Graph& g, Options options)
    : n_(g.node_count()),
      levels_(options.levels),
      ports_(graph::PortAssignment::sorted(g)) {
  if (levels_ < 2) {
    throw SchemeInapplicable("hierarchical: need levels >= 2");
  }
  if (!graph::is_connected(g)) {
    throw SchemeInapplicable("hierarchical: graph disconnected");
  }
  const auto dist_cached = graph::DistanceCache::global().get(g);
  const graph::DistanceMatrix& dist = *dist_cached;
  const double k = static_cast<double>(levels_);

  // Nested pivot sets: A_i = first ⌈n^{(k−i)/k}⌉ nodes of one shuffled
  // order, i = 1..k−1. pivot_sets_[0] stays empty (A₀ = V).
  std::vector<NodeId> order(n_);
  std::iota(order.begin(), order.end(), 0);
  graph::Rng rng(options.seed);
  std::shuffle(order.begin(), order.end(), rng);

  pivot_sets_.resize(levels_);
  pivot_of_.resize(levels_);
  pivot_of_[0].resize(n_);
  std::iota(pivot_of_[0].begin(), pivot_of_[0].end(), 0);
  for (std::size_t i = 1; i < levels_; ++i) {
    const auto size = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(
               std::pow(static_cast<double>(n_), (k - static_cast<double>(i)) / k))));
    pivot_sets_[i].assign(order.begin(),
                          order.begin() + static_cast<std::ptrdiff_t>(
                                              std::min(size, n_)));
    std::sort(pivot_sets_[i].begin(), pivot_sets_[i].end());
    // Nearest level-i pivot per node (least id on ties — pivots sorted).
    pivot_of_[i].assign(n_, pivot_sets_[i][0]);
    for (NodeId v = 0; v < n_; ++v) {
      std::uint32_t best = graph::kUnreachable;
      for (NodeId t : pivot_sets_[i]) {
        if (dist.at(v, t) < best) {
          best = dist.at(v, t);
          pivot_of_[i][v] = t;
        }
      }
    }
  }

  // Entry assembly: target → (port, installed?). Vicinity/top entries win
  // over installed duplicates.
  std::vector<std::map<NodeId, std::pair<graph::PortId, bool>>> entries(n_);
  // ports_ is the sorted assignment: a first hop's rank is its port.
  auto hop_port = [&](NodeId from, NodeId to) {
    return graph::first_hop_rank(g, dist, from, to);
  };
  auto add_direct = [&](NodeId at, NodeId target) {
    if (at == target) return;
    entries[at][target] = {hop_port(at, target), false};
  };
  auto add_installed = [&](NodeId at, NodeId target) {
    if (at == target) return;
    entries[at].emplace(target,
                        std::make_pair(hop_port(at, target), true));
  };

  // (T) every node resolves every top pivot.
  for (NodeId w = 0; w < n_; ++w) {
    for (NodeId t : pivot_sets_[levels_ - 1]) add_direct(w, t);
  }
  // (V) vicinity C(w) = {v : d(w, v) ≤ d(v, p₁(v))}.
  for (NodeId w = 0; w < n_; ++w) {
    for (NodeId v = 0; v < n_; ++v) {
      if (v != w && dist.at(w, v) <= dist.at(v, pivot_of_[1][v])) {
        add_direct(w, v);
      }
    }
  }
  // (H) installed handoff paths: for i ≥ 2, one shortest path from every
  // level-i pivot t to each child pivot x = p_{i−1}(v) of its members.
  std::set<std::pair<NodeId, NodeId>> installed_pairs;
  for (std::size_t i = 2; i < levels_; ++i) {
    for (NodeId v = 0; v < n_; ++v) {
      const NodeId t = pivot_of_[i][v];
      const NodeId x = pivot_of_[i - 1][v];
      if (t == x) continue;
      if (!installed_pairs.emplace(t, x).second) continue;
      // Walk the canonical (least-successor) shortest path t → x,
      // installing an entry for x at every interior node.
      NodeId at = t;
      while (at != x) {
        add_installed(at, x);
        at = g.neighbors(at)[graph::first_hop_rank(g, dist, at, x)];
      }
    }
  }
  // Also install the final handoff target for top-level pivots' children
  // when k == 2 there are no handoffs (vicinity + top suffice).

  // Serialize and decode back.
  const unsigned id_width = bitio::ceil_log2(std::max<std::size_t>(n_, 2));
  function_bits_.resize(n_);
  decoded_.resize(n_);
  for (NodeId w = 0; w < n_; ++w) {
    const unsigned port_width =
        bitio::ceil_log2(std::max<std::size_t>(g.degree(w), 1));
    bitio::BitWriter out;
    bitio::write_prime(out, entries[w].size());
    for (const auto& [target, entry] : entries[w]) {
      out.write_bits(target, id_width);
      out.write_bits(entry.first, port_width);
      out.write_bit(entry.second);
    }
    function_bits_[w] = out.take();

    bitio::BitReader r(function_bits_[w]);
    const auto count = static_cast<std::size_t>(bitio::read_prime(r));
    DecodedNode& node = decoded_[w];
    node.targets.resize(count);
    node.port_for.resize(count);
    for (std::size_t e = 0; e < count; ++e) {
      node.targets[e] = static_cast<NodeId>(r.read_bits(id_width));
      node.port_for[e] = static_cast<graph::PortId>(r.read_bits(port_width));
      (void)r.read_bit();  // installed flag: routing treats both alike
    }
  }
}

HierarchicalScheme::HierarchicalScheme(
    const graph::Graph& g, std::vector<std::vector<NodeId>> pivot_sets,
    std::vector<bitio::BitVector> node_bits)
    : n_(g.node_count()),
      levels_(pivot_sets.size()),
      ports_(graph::PortAssignment::sorted(g)),
      pivot_sets_(std::move(pivot_sets)) {
  if (levels_ < 2 || node_bits.size() != n_) {
    throw std::invalid_argument("HierarchicalScheme: bad serialized state");
  }
  const auto dist_cached = graph::DistanceCache::global().get(g);
  const graph::DistanceMatrix& dist = *dist_cached;
  pivot_of_.resize(levels_);
  pivot_of_[0].resize(n_);
  std::iota(pivot_of_[0].begin(), pivot_of_[0].end(), 0);
  for (std::size_t i = 1; i < levels_; ++i) {
    if (pivot_sets_[i].empty()) {
      throw std::invalid_argument("HierarchicalScheme: empty pivot set");
    }
    pivot_of_[i].assign(n_, pivot_sets_[i][0]);
    for (NodeId v = 0; v < n_; ++v) {
      std::uint32_t best = graph::kUnreachable;
      for (NodeId t : pivot_sets_[i]) {
        if (t >= n_) {
          throw std::invalid_argument("HierarchicalScheme: bad pivot id");
        }
        if (dist.at(v, t) < best) {
          best = dist.at(v, t);
          pivot_of_[i][v] = t;
        }
      }
    }
  }
  const unsigned id_width = bitio::ceil_log2(std::max<std::size_t>(n_, 2));
  function_bits_ = std::move(node_bits);
  decoded_.resize(n_);
  for (NodeId w = 0; w < n_; ++w) {
    const unsigned port_width =
        bitio::ceil_log2(std::max<std::size_t>(g.degree(w), 1));
    const std::size_t degree = std::max<std::size_t>(g.degree(w), 1);
    const std::size_t entry_bits = id_width + port_width + 1;
    bitio::BitReader r(function_bits_[w]);
    const auto count = static_cast<std::size_t>(bitio::read_prime(r));
    // The stored count must fit the node's actual bits before it sizes
    // any allocation; a corrupt count field is not a resize request.
    if (count > r.remaining() / entry_bits) {
      throw std::length_error(
          "HierarchicalScheme: entry count exceeds the stored bits");
    }
    DecodedNode& node = decoded_[w];
    node.targets.resize(count);
    node.port_for.resize(count);
    for (std::size_t e = 0; e < count; ++e) {
      node.targets[e] = static_cast<NodeId>(r.read_bits(id_width));
      node.port_for[e] = static_cast<graph::PortId>(r.read_bits(port_width));
      (void)r.read_bit();
      if (node.targets[e] >= n_ || node.port_for[e] >= degree ||
          (e > 0 && node.targets[e] <= node.targets[e - 1])) {
        throw std::invalid_argument("HierarchicalScheme: bad table entry");
      }
    }
    if (!r.exhausted()) {
      throw std::invalid_argument(
          "HierarchicalScheme: trailing bits in a node table");
    }
  }
}

int HierarchicalScheme::resolve(NodeId u, NodeId target) const {
  return decoded_[u].find(target);
}

NodeId HierarchicalScheme::next_hop(NodeId u, NodeId dest_label,
                                    model::MessageHeader& header) const {
  const NodeId v = dest_label;
  if (v == u) {
    throw std::invalid_argument("HierarchicalScheme: routing to self");
  }
  // Continue an active waypoint leg.
  if (header.phase == kWaypointSet) {
    const NodeId w = static_cast<NodeId>(header.probe_index);
    if (w != u) {
      const int e = resolve(u, w);
      if (e >= 0) {
        return ports_.neighbor_at(u, decoded_[u].port_for[static_cast<std::size_t>(e)]);
      }
    }
    header.phase = kNoWaypoint;  // arrived (or leg no longer resolvable)
  }
  // Fresh decision: destination directly, then its pivots bottom-up.
  auto follow = [&](NodeId target, int e) {
    header.phase = kWaypointSet;
    header.probe_index = target;
    return ports_.neighbor_at(u, decoded_[u].port_for[static_cast<std::size_t>(e)]);
  };
  if (const int e = resolve(u, v); e >= 0) return follow(v, e);
  for (std::size_t i = 1; i < levels_; ++i) {
    const NodeId t = pivot_of_[i][v];  // from the destination's label
    if (t == u) {
      // u is v's level-i pivot: hand off to the level-(i−1) pivot via the
      // installed path (it starts here).
      const NodeId x = pivot_of_[i - 1][v];
      const int e = resolve(u, x);
      if (e < 0) {
        throw std::logic_error("HierarchicalScheme: missing handoff entry");
      }
      return follow(x, e);
    }
    if (const int e = resolve(u, t); e >= 0) return follow(t, e);
  }
  throw std::logic_error("HierarchicalScheme: unresolvable destination");
}

namespace {

class HierarchicalFastPath final : public model::FastPath {
 public:
  HierarchicalFastPath(std::size_t n, std::size_t levels,
                       std::vector<model::PackedSparseArray> tables,
                       std::vector<std::vector<NodeId>> pivot_of,
                       graph::CsrGraph csr)
      : n_(n),
        levels_(levels),
        tables_(std::move(tables)),
        pivot_of_(std::move(pivot_of)),
        csr_(std::move(csr)) {}

  [[nodiscard]] std::string name() const override { return "hierarchical"; }
  [[nodiscard]] std::size_t node_count() const override { return n_; }

  // The fresh-header decision ladder of HierarchicalScheme::next_hop:
  // destination first, then its pivots bottom-up, with the handoff throw
  // when u is the pivot but the installed leg is missing.
  [[nodiscard]] NodeId next_hop(NodeId u, NodeId dest_label) const override {
    const NodeId v = dest_label;
    if (v == u) {
      throw std::invalid_argument("HierarchicalScheme: routing to self");
    }
    const auto& table = tables_[u];
    const auto follow = [&](NodeId target) {
      return csr_.neighbor_at(u,
                              static_cast<graph::PortId>(table.value(target)));
    };
    if (table.contains(v)) return follow(v);
    for (std::size_t i = 1; i < levels_; ++i) {
      const NodeId t = pivot_of_[i][v];
      if (t == u) {
        const NodeId x = pivot_of_[i - 1][v];
        if (x == u || !table.contains(x)) {
          throw std::logic_error("HierarchicalScheme: missing handoff entry");
        }
        return follow(x);
      }
      if (table.contains(t)) return follow(t);
    }
    throw std::logic_error("HierarchicalScheme: unresolvable destination");
  }

 private:
  std::size_t n_;
  std::size_t levels_;
  std::vector<model::PackedSparseArray> tables_;
  std::vector<std::vector<NodeId>> pivot_of_;
  graph::CsrGraph csr_;  // sorted = port order for this scheme
};

}  // namespace

std::unique_ptr<model::FastPath> HierarchicalScheme::compile_fast() const {
  std::vector<model::PackedSparseArray> tables;
  tables.reserve(n_);
  for (NodeId w = 0; w < n_; ++w) {
    const unsigned port_width =
        bitio::ceil_log2(std::max<std::size_t>(ports_.degree(w), 1));
    const DecodedNode& node = decoded_[w];
    bitio::BitVector mask(n_);
    for (NodeId t : node.targets) mask.set(t, true);
    tables.emplace_back(std::move(mask), node.port_for, port_width);
  }
  model::note_fastpath_compiled("hierarchical");
  return std::make_unique<HierarchicalFastPath>(
      n_, levels_, std::move(tables), pivot_of_,
      graph::CsrGraph::from_ports(ports_));
}

std::vector<NodeId> HierarchicalScheme::port_enumeration(NodeId u) const {
  const auto ports = ports_.ports(u);
  return {ports.begin(), ports.end()};
}

model::SpaceReport HierarchicalScheme::space() const {
  model::SpaceReport report;
  report.function_bits.reserve(n_);
  for (const auto& bits : function_bits_) {
    report.function_bits.push_back(bits.size());
  }
  // Charged labels: (v, p₁(v), …, p_{k−1}(v)) at ⌈log n⌉ bits each.
  report.label_bits =
      n_ * levels_ * bitio::ceil_log2(std::max<std::size_t>(n_, 2));
  return report;
}

}  // namespace optrt::schemes
