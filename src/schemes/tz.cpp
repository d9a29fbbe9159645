#include "schemes/tz.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "bitio/bit_stream.hpp"
#include "bitio/codes.hpp"
#include "graph/algorithms.hpp"
#include "graph/csr.hpp"
#include "model/fastpath.hpp"
#include "obs/metrics.hpp"
#include "schemes/errors.hpp"

namespace optrt::schemes {

namespace {

/// d(v, A) for every v, against a sorted landmark set.
std::vector<std::uint32_t> dist_to_set(const graph::DistanceMatrix& dist,
                                       std::size_t n,
                                       const std::vector<NodeId>& set) {
  std::vector<std::uint32_t> dva(n, graph::kUnreachable);
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId l : set) dva[v] = std::min(dva[v], dist.at(v, l));
  }
  return dva;
}

/// Port at u of its least shortest-path successor toward v; 0 when v == u
/// or v is unreachable.
graph::PortId first_hop_port(const graph::Graph& g,
                             const graph::DistanceMatrix& dist,
                             const graph::PortAssignment& ports, NodeId u,
                             NodeId v) {
  const std::uint32_t rank = graph::first_hop_rank(g, dist, u, v);
  return rank == graph::kNoHop ? 0 : ports.port_of_rank(u, rank);
}

}  // namespace

std::size_t TzScheme::cluster_cap(std::size_t n) {
  if (n < 2) return 1;
  const double nd = static_cast<double>(n);
  return static_cast<std::size_t>(std::ceil(4.0 * std::sqrt(nd * std::log(nd))));
}

std::vector<NodeId> tz_sample_landmarks(const graph::Graph& g,
                                        const graph::DistanceMatrix& dist,
                                        const TzOptions& options) {
  // Sample A with per-node probability √(ln n / n), tilted by normalized
  // degree (p_v ∝ deg(v), E|A| unchanged): the stretch-3 argument only
  // needs l(v) to be v's nearest landmark, so A is a free choice, and on
  // power-law graphs degree-biased landmarks sit on most shortest paths
  // (Krioukov et al.) — on regular graphs the tilt is a no-op. Resample
  // while A is empty or a cluster breaks the 4√(n ln n) cap, keeping the
  // best sample seen so the election is total and deterministic in the
  // seed.
  const std::size_t n = g.node_count();
  const double p =
      n >= 2 ? std::min(1.0, std::sqrt(std::log(static_cast<double>(n)) /
                                       static_cast<double>(n)))
             : 1.0;
  const double avg_degree =
      n > 0 ? 2.0 * static_cast<double>(g.edge_count()) /
                  static_cast<double>(n)
            : 0.0;
  std::vector<double> p_node(n, p);
  if (avg_degree > 0.0) {
    for (NodeId v = 0; v < n; ++v) {
      p_node[v] =
          std::min(1.0, p * static_cast<double>(g.degree(v)) / avg_degree);
    }
  }
  const std::size_t cap = TzScheme::cluster_cap(n);
  graph::Rng rng(options.seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<NodeId> best;
  std::size_t best_max = std::numeric_limits<std::size_t>::max();
  std::uint64_t resamples = 0;
  const std::size_t attempts = std::max<std::size_t>(options.max_resamples, 1);
  for (std::size_t attempt = 0; attempt < attempts; ++attempt) {
    std::vector<NodeId> sample;
    for (NodeId v = 0; v < n; ++v) {
      if (unit(rng) < p_node[v]) sample.push_back(v);
    }
    if (sample.empty()) {
      ++resamples;
      continue;
    }
    const auto dva = dist_to_set(dist, n, sample);
    std::size_t max_cluster = 0;
    for (NodeId w = 0; w < n; ++w) {
      std::size_t size = 0;
      for (NodeId v = 0; v < n; ++v) {
        if (v != w && dist.at(w, v) < dva[v]) ++size;
      }
      max_cluster = std::max(max_cluster, size);
    }
    if (max_cluster < best_max) {
      best = std::move(sample);
      best_max = max_cluster;
    }
    if (max_cluster <= cap) break;
    ++resamples;
  }
  if (best.empty()) best.push_back(0);  // degenerate fallback: node 0
  obs::counter("schemes.tz.resamples").inc(resamples);
  return best;  // ascending by construction
}

bitio::BitVector tz_build_node_bits(const graph::Graph& g,
                                    const graph::DistanceMatrix& dist,
                                    const graph::PortAssignment& ports,
                                    const std::vector<NodeId>& landmarks,
                                    const std::vector<std::uint32_t>& dva,
                                    NodeId w) {
  const std::size_t n = g.node_count();
  const unsigned id_width = bitio::ceil_log2(std::max<std::size_t>(n, 2));
  const unsigned port_width =
      bitio::ceil_log2(std::max<std::size_t>(g.degree(w), 1));
  bitio::BitWriter out;
  // (a) next hop toward every landmark (own entry unused at a landmark
  // itself; store 0).
  for (NodeId l : landmarks) {
    out.write_bits(first_hop_port(g, dist, ports, w, l), port_width);
  }
  // (b) cluster table: v with d(w, v) < d(v, A), strictly.
  std::vector<NodeId> cluster;
  for (NodeId v = 0; v < n; ++v) {
    if (v != w && dist.at(w, v) < dva[v]) cluster.push_back(v);
  }
  out.write_bits(cluster.size(), bitio::ceil_log2_plus1(n));
  for (NodeId v : cluster) {
    out.write_bits(v, id_width);
    out.write_bits(first_hop_port(g, dist, ports, w, v), port_width);
  }
  return out.take();
}

TzScheme::TzScheme(const graph::Graph& g, Options options)
    : n_(g.node_count()), ports_(graph::PortAssignment::sorted(g)) {
  if (!graph::is_connected(g)) {
    throw SchemeInapplicable("tz: graph disconnected");
  }
  const auto dist_cached = graph::DistanceCache::global().get(g);
  const graph::DistanceMatrix& dist = *dist_cached;

  landmarks_ = tz_sample_landmarks(g, dist, options);

  landmark_index_.assign(n_, 0);
  for (std::uint32_t i = 0; i < landmarks_.size(); ++i) {
    landmark_index_[landmarks_[i]] = i;
  }

  // Nearest landmark per node (least id on ties — landmarks_ is sorted).
  landmark_of_.assign(n_, landmarks_[0]);
  std::vector<std::uint32_t> dva(n_, graph::kUnreachable);
  for (NodeId v = 0; v < n_; ++v) {
    for (NodeId l : landmarks_) {
      if (dist.at(v, l) < dva[v]) {
        dva[v] = dist.at(v, l);
        landmark_of_[v] = l;
      }
    }
  }

  // Build and serialize per-node tables.
  const unsigned id_width = bitio::ceil_log2(std::max<std::size_t>(n_, 2));
  function_bits_.resize(n_);
  decoded_.resize(n_);
  for (NodeId w = 0; w < n_; ++w) {
    const unsigned port_width =
        bitio::ceil_log2(std::max<std::size_t>(g.degree(w), 1));
    function_bits_[w] = tz_build_node_bits(g, dist, ports_, landmarks_, dva, w);

    // Honest read-back.
    bitio::BitReader r(function_bits_[w]);
    DecodedNode& node = decoded_[w];
    node.landmark_port.resize(landmarks_.size());
    for (auto& pt : node.landmark_port) {
      pt = static_cast<graph::PortId>(r.read_bits(port_width));
    }
    const auto size =
        static_cast<std::size_t>(r.read_bits(bitio::ceil_log2_plus1(n_)));
    node.cluster_ids.resize(size);
    node.cluster_port.resize(size);
    for (std::size_t i = 0; i < size; ++i) {
      node.cluster_ids[i] = static_cast<NodeId>(r.read_bits(id_width));
      node.cluster_port[i] =
          static_cast<graph::PortId>(r.read_bits(port_width));
    }
  }
  finish_build(g, dist);
}

TzScheme::TzScheme(const graph::Graph& g, std::vector<NodeId> landmarks,
                   std::vector<bitio::BitVector> node_bits)
    : n_(g.node_count()),
      ports_(graph::PortAssignment::sorted(g)),
      landmarks_(std::move(landmarks)) {
  // Nearest landmarks are a deterministic function of the graph.
  const auto dist_cached = graph::DistanceCache::global().get(g);
  init_from_bits(g, std::move(node_bits), *dist_cached);
}

TzScheme::TzScheme(const graph::Graph& g, std::vector<NodeId> landmarks,
                   std::vector<bitio::BitVector> node_bits,
                   const graph::DistanceMatrix& dist)
    : n_(g.node_count()),
      ports_(graph::PortAssignment::sorted(g)),
      landmarks_(std::move(landmarks)) {
  init_from_bits(g, std::move(node_bits), dist);
}

void TzScheme::init_from_bits(const graph::Graph& g,
                              std::vector<bitio::BitVector> node_bits,
                              const graph::DistanceMatrix& dist) {
  if (node_bits.size() != n_ || landmarks_.empty()) {
    throw std::invalid_argument("TzScheme: bad serialized state");
  }
  landmark_index_.assign(n_, 0);
  for (std::uint32_t i = 0; i < landmarks_.size(); ++i) {
    if (landmarks_[i] >= n_ ||
        (i > 0 && landmarks_[i] <= landmarks_[i - 1])) {
      throw std::invalid_argument("TzScheme: bad landmark set");
    }
    landmark_index_[landmarks_[i]] = i;
  }
  landmark_of_.assign(n_, landmarks_[0]);
  for (NodeId v = 0; v < n_; ++v) {
    std::uint32_t bst = graph::kUnreachable;
    for (NodeId l : landmarks_) {
      if (dist.at(v, l) < bst) {
        bst = dist.at(v, l);
        landmark_of_[v] = l;
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
    bitio::BitReader r(function_bits_[w]);
    DecodedNode& node = decoded_[w];
    node.landmark_port.resize(landmarks_.size());
    for (auto& pt : node.landmark_port) {
      pt = static_cast<graph::PortId>(r.read_bits(port_width));
      if (pt >= degree) {
        throw std::invalid_argument(
            "TzScheme: stored port exceeds the node degree");
      }
    }
    const auto size =
        static_cast<std::size_t>(r.read_bits(bitio::ceil_log2_plus1(n_)));
    if (size > n_) {
      throw std::invalid_argument("TzScheme: cluster larger than n");
    }
    node.cluster_ids.resize(size);
    node.cluster_port.resize(size);
    for (std::size_t i = 0; i < size; ++i) {
      node.cluster_ids[i] = static_cast<NodeId>(r.read_bits(id_width));
      node.cluster_port[i] =
          static_cast<graph::PortId>(r.read_bits(port_width));
      // next_hop binary-searches the cluster and indexes ports unchecked;
      // both invariants must hold before the table is ever queried.
      if (node.cluster_ids[i] >= n_ ||
          (i > 0 && node.cluster_ids[i] <= node.cluster_ids[i - 1])) {
        throw std::invalid_argument("TzScheme: bad cluster table");
      }
      if (node.cluster_port[i] >= degree) {
        throw std::invalid_argument(
            "TzScheme: stored port exceeds the node degree");
      }
    }
    if (!r.exhausted()) {
      throw std::invalid_argument("TzScheme: trailing bits in a node table");
    }
  }
  finish_build(g, dist);
}

void TzScheme::finish_build(const graph::Graph& g,
                            const graph::DistanceMatrix& dist) {
  // Label exit ports: at l(v), the port toward v (least shortest-path
  // successor) — the third component of the charged (v, l(v), port) label.
  exit_port_.assign(n_, 0);
  for (NodeId v = 0; v < n_; ++v) {
    const NodeId l = landmark_of_[v];
    if (l == v) continue;
    exit_port_[v] = first_hop_port(g, dist, ports_, l, v);
  }
  // Bunch sizes: |B(v)| = |{w : v ∈ C(w)}| + |A|.
  bunch_size_.assign(n_, landmarks_.size());
  auto cluster_sizes = obs::histogram("schemes.tz.cluster_size",
                                      obs::hop_buckets());
  for (NodeId w = 0; w < n_; ++w) {
    for (NodeId v : decoded_[w].cluster_ids) ++bunch_size_[v];
    cluster_sizes.observe(decoded_[w].cluster_ids.size());
  }
  obs::counter("schemes.tz.built").inc();
}

NodeId TzScheme::next_hop(NodeId u, NodeId dest_label,
                          model::MessageHeader&) const {
  // The charged label is (v, l(v), exit port at l(v)); numerically we
  // receive v and look the rest up from the label table the scheme itself
  // published.
  const NodeId v = dest_label;
  if (v == u) throw std::invalid_argument("TzScheme: routing to self");
  const DecodedNode& node = decoded_[u];
  const auto it = std::lower_bound(node.cluster_ids.begin(),
                                   node.cluster_ids.end(), v);
  if (it != node.cluster_ids.end() && *it == v) {
    const auto i = static_cast<std::size_t>(it - node.cluster_ids.begin());
    return ports_.neighbor_at(u, node.cluster_port[i]);
  }
  const NodeId l = landmark_of_[v];  // from the destination's label
  if (u == l) return ports_.neighbor_at(u, exit_port_[v]);
  return ports_.neighbor_at(u, node.landmark_port[landmark_index_[l]]);
}

std::vector<NodeId> TzScheme::port_enumeration(NodeId u) const {
  const auto ports = ports_.ports(u);
  return {ports.begin(), ports.end()};
}

namespace {

class TzFastPath final : public model::FastPath {
 public:
  TzFastPath(std::size_t n, std::vector<model::PackedSparseArray> cluster,
             std::vector<model::PackedValueArray> landmark_ports,
             std::vector<NodeId> landmark_of,
             std::vector<std::uint32_t> landmark_index,
             std::vector<graph::PortId> exit_port, graph::CsrGraph csr)
      : n_(n),
        cluster_(std::move(cluster)),
        landmark_ports_(std::move(landmark_ports)),
        landmark_of_(std::move(landmark_of)),
        landmark_index_(std::move(landmark_index)),
        exit_port_(std::move(exit_port)),
        csr_(std::move(csr)) {}

  [[nodiscard]] std::string name() const override { return "tz"; }
  [[nodiscard]] std::size_t node_count() const override { return n_; }

  [[nodiscard]] NodeId next_hop(NodeId u, NodeId dest_label) const override {
    const NodeId v = dest_label;
    if (v == u) throw std::invalid_argument("TzScheme: routing to self");
    const auto& cluster = cluster_[u];
    if (cluster.contains(v)) {
      return csr_.neighbor_at(u, static_cast<graph::PortId>(cluster.value(v)));
    }
    const NodeId l = landmark_of_[v];
    if (u == l) return csr_.neighbor_at(u, exit_port_[v]);
    const auto port = static_cast<graph::PortId>(
        landmark_ports_[u].at(landmark_index_[l]));
    return csr_.neighbor_at(u, port);
  }

 private:
  std::size_t n_;
  std::vector<model::PackedSparseArray> cluster_;
  std::vector<model::PackedValueArray> landmark_ports_;
  std::vector<NodeId> landmark_of_;
  std::vector<std::uint32_t> landmark_index_;
  std::vector<graph::PortId> exit_port_;
  graph::CsrGraph csr_;  // sorted = port order for this scheme
};

}  // namespace

std::unique_ptr<model::FastPath> TzScheme::compile_fast() const {
  std::vector<model::PackedSparseArray> cluster;
  std::vector<model::PackedValueArray> landmark_ports;
  cluster.reserve(n_);
  landmark_ports.reserve(n_);
  for (NodeId w = 0; w < n_; ++w) {
    const unsigned port_width =
        bitio::ceil_log2(std::max<std::size_t>(ports_.degree(w), 1));
    const DecodedNode& node = decoded_[w];
    bitio::BitVector mask(n_);
    for (NodeId v : node.cluster_ids) mask.set(v, true);
    cluster.emplace_back(std::move(mask), node.cluster_port, port_width);
    landmark_ports.emplace_back(node.landmark_port, port_width);
  }
  model::note_fastpath_compiled("tz");
  return std::make_unique<TzFastPath>(
      n_, std::move(cluster), std::move(landmark_ports), landmark_of_,
      landmark_index_, exit_port_, graph::CsrGraph::from_ports(ports_));
}

model::SpaceReport TzScheme::space() const {
  model::SpaceReport report;
  report.function_bits.reserve(n_);
  for (const auto& bits : function_bits_) {
    report.function_bits.push_back(bits.size());
  }
  // Model γ: the (v, l(v), exit port) labels are charged — 2·⌈log n⌉ bits
  // plus the exit port at l(v)'s width, per node.
  const unsigned id_width = bitio::ceil_log2(std::max<std::size_t>(n_, 2));
  for (NodeId v = 0; v < n_; ++v) {
    report.label_bits +=
        2 * id_width +
        bitio::ceil_log2(std::max<std::size_t>(ports_.degree(landmark_of_[v]), 1));
  }
  return report;
}

}  // namespace optrt::schemes
