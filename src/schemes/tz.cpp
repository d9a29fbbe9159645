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

struct TzScheme::Tables {
  std::vector<model::PackedSparseArray> cluster;        // per node
  std::vector<model::PackedValueArray> landmark_ports;  // per node
  std::vector<NodeId> landmark_of;  // v → nearest landmark (least id tie)
  std::vector<std::uint32_t> landmark_index;  // landmark id → index in list
  std::vector<graph::PortId> exit_port;  // at l(v), toward v (label part)
  graph::CsrGraph csr;  // sorted = port order for this scheme

  [[nodiscard]] std::size_t node_count() const { return landmark_of.size(); }
  [[nodiscard]] NodeId next_hop(NodeId u, NodeId dest_label) const {
    // The charged label is (v, l(v), exit port at l(v)); numerically we
    // receive v and look the rest up from the label table the scheme
    // itself published.
    const NodeId v = dest_label;
    if (v == u) throw std::invalid_argument("TzScheme: routing to self");
    const auto& members = cluster[u];
    if (members.contains(v)) {
      return csr.neighbor_at(u, static_cast<graph::PortId>(members.value(v)));
    }
    const NodeId l = landmark_of[v];  // from the destination's label
    if (u == l) return csr.neighbor_at(u, exit_port[v]);
    const auto port = static_cast<graph::PortId>(
        landmark_ports[u].at(landmark_index[l]));
    return csr.neighbor_at(u, port);
  }
};

TzScheme::TzScheme(const graph::Graph& g, Options options)
    : n_(g.node_count()) {
  if (!graph::is_connected(g)) {
    throw SchemeInapplicable("tz: graph disconnected");
  }
  const auto dist_cached = graph::DistanceCache::global().get(g);
  const graph::DistanceMatrix& dist = *dist_cached;

  landmarks_ = tz_sample_landmarks(g, dist, options);
  const auto dva = dist_to_set(dist, n_, landmarks_);
  const auto ports = graph::PortAssignment::sorted(g);
  function_bits_.resize(n_);
  for (NodeId w = 0; w < n_; ++w) {
    function_bits_[w] = tz_build_node_bits(g, dist, ports, landmarks_, dva, w);
  }
  decode(g, dist);
}

TzScheme::TzScheme(const graph::Graph& g, std::vector<NodeId> landmarks,
                   std::vector<bitio::BitVector> node_bits)
    : n_(g.node_count()),
      landmarks_(std::move(landmarks)),
      function_bits_(std::move(node_bits)) {
  // Nearest landmarks are a deterministic function of the graph.
  decode(g, *graph::DistanceCache::global().get(g));
}

TzScheme::TzScheme(const graph::Graph& g, std::vector<NodeId> landmarks,
                   std::vector<bitio::BitVector> node_bits,
                   const graph::DistanceMatrix& dist)
    : n_(g.node_count()),
      landmarks_(std::move(landmarks)),
      function_bits_(std::move(node_bits)) {
  decode(g, dist);
}

void TzScheme::decode(const graph::Graph& g,
                      const graph::DistanceMatrix& dist) {
  if (function_bits_.size() != n_ || landmarks_.empty()) {
    throw std::invalid_argument("TzScheme: bad serialized state");
  }
  auto tables = std::make_shared<Tables>();
  tables->landmark_index.assign(n_, 0);
  for (std::uint32_t i = 0; i < landmarks_.size(); ++i) {
    if (landmarks_[i] >= n_ ||
        (i > 0 && landmarks_[i] <= landmarks_[i - 1])) {
      throw std::invalid_argument("TzScheme: bad landmark set");
    }
    tables->landmark_index[landmarks_[i]] = i;
  }
  tables->landmark_of.assign(n_, landmarks_[0]);
  for (NodeId v = 0; v < n_; ++v) {
    std::uint32_t best = graph::kUnreachable;
    for (NodeId l : landmarks_) {
      if (dist.at(v, l) < best) {
        best = dist.at(v, l);
        tables->landmark_of[v] = l;
      }
    }
  }
  tables->csr = graph::CsrGraph(g);
  tables->cluster.reserve(n_);
  tables->landmark_ports.reserve(n_);
  bunch_size_.assign(n_, landmarks_.size());
  auto cluster_sizes = obs::histogram("schemes.tz.cluster_size",
                                      obs::hop_buckets());
  const unsigned id_width = bitio::ceil_log2(std::max<std::size_t>(n_, 2));
  std::vector<std::uint32_t> landmark_port(landmarks_.size());
  std::vector<std::uint32_t> cluster_port;
  for (NodeId w = 0; w < n_; ++w) {
    const unsigned port_width =
        bitio::ceil_log2(std::max<std::size_t>(g.degree(w), 1));
    const std::size_t degree = std::max<std::size_t>(g.degree(w), 1);
    bitio::BitReader r(function_bits_[w]);
    for (auto& pt : landmark_port) {
      pt = static_cast<std::uint32_t>(r.read_bits(port_width));
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
    bitio::BitVector members(n_);
    cluster_port.resize(size);
    NodeId prev = 0;
    for (std::size_t i = 0; i < size; ++i) {
      const auto id = static_cast<NodeId>(r.read_bits(id_width));
      cluster_port[i] = static_cast<std::uint32_t>(r.read_bits(port_width));
      // The membership vector needs distinct in-range ids, and next_hop
      // indexes ports unchecked.
      if (id >= n_ || (i > 0 && id <= prev)) {
        throw std::invalid_argument("TzScheme: bad cluster table");
      }
      if (cluster_port[i] >= degree) {
        throw std::invalid_argument(
            "TzScheme: stored port exceeds the node degree");
      }
      members.set(id, true);
      ++bunch_size_[id];
      prev = id;
    }
    if (!r.exhausted()) {
      throw std::invalid_argument("TzScheme: trailing bits in a node table");
    }
    cluster_sizes.observe(size);
    tables->cluster.emplace_back(std::move(members), cluster_port, port_width);
    tables->landmark_ports.emplace_back(landmark_port, port_width);
  }
  // Label exit ports: at l(v), the port toward v (least shortest-path
  // successor) — the third component of the charged (v, l(v), port) label.
  // Ports are the sorted assignment, so a successor's port is its rank.
  tables->exit_port.assign(n_, 0);
  for (NodeId v = 0; v < n_; ++v) {
    const NodeId l = tables->landmark_of[v];
    if (l == v) continue;
    const std::uint32_t rank = graph::first_hop_rank(g, dist, l, v);
    if (rank != graph::kNoHop) tables->exit_port[v] = rank;
  }
  tables_ = std::move(tables);
  obs::counter("schemes.tz.built").inc();
}

NodeId TzScheme::next_hop(NodeId u, NodeId dest_label,
                          model::MessageHeader&) const {
  return tables_->next_hop(u, dest_label);
}

NodeId TzScheme::landmark_of(NodeId v) const {
  return tables_->landmark_of[v];
}

std::size_t TzScheme::cluster_size(NodeId w) const {
  return tables_->cluster[w].member_count();
}

std::vector<NodeId> TzScheme::port_enumeration(NodeId u) const {
  const auto ports = tables_->csr.neighbors(u);
  return {ports.begin(), ports.end()};
}

std::unique_ptr<model::FastPath> TzScheme::compile_fast() const {
  model::note_fastpath_compiled("tz");
  return std::make_unique<model::SharedTablesFastPath<Tables>>(name(),
                                                               tables_);
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
        bitio::ceil_log2(std::max<std::size_t>(
            tables_->csr.degree(tables_->landmark_of[v]), 1));
  }
  return report;
}

}  // namespace optrt::schemes
