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

std::size_t TzScheme::cluster_cap(std::size_t n) {
  if (n < 2) return 1;
  const double nd = static_cast<double>(n);
  return static_cast<std::size_t>(std::ceil(4.0 * std::sqrt(nd * std::log(nd))));
}

std::vector<std::uint32_t> tz_landmark_distances(
    const graph::Graph& g, std::span<const NodeId> landmarks) {
  std::vector<std::uint32_t> dva(g.node_count(), graph::kUnreachable);
  std::vector<NodeId> queue(landmarks.begin(), landmarks.end());
  for (NodeId l : landmarks) dva[l] = 0;
  for (std::size_t i = 0; i < queue.size(); ++i) {
    const NodeId x = queue[i];
    for (NodeId y : g.neighbors(x)) {
      if (dva[y] == graph::kUnreachable) {
        dva[y] = dva[x] + 1;
        queue.push_back(y);
      }
    }
  }
  return dva;
}

TzClusterSearch::TzClusterSearch(std::size_t n)
    : seen_(n, 0), level_(n, 0), hop_(n, graph::kNoHop) {}

void TzClusterSearch::search(const graph::Graph& g,
                             std::span<const std::uint32_t> dva, NodeId w,
                             bool hops) {
  if (++stamp_ == 0) {  // wrapped: no mark may survive from an old search
    std::fill(seen_.begin(), seen_.end(), 0);
    stamp_ = 1;
  }
  members_.clear();
  seen_[w] = stamp_;
  const auto nbrs = g.neighbors(w);
  for (std::uint32_t rank = 0; rank < nbrs.size(); ++rank) {
    const NodeId y = nbrs[rank];
    seen_[y] = stamp_;
    level_[y] = 1;
    hop_[y] = 1 < dva[y] ? rank : graph::kNoHop;
    if (hop_[y] != graph::kNoHop) members_.push_back(y);
  }
  // members_ doubles as the FIFO: members are the only nodes expanded.
  for (std::size_t i = 0; i < members_.size(); ++i) {
    const NodeId x = members_[i];
    const std::uint32_t next = level_[x] + 1;
    for (NodeId y : g.neighbors(x)) {
      if (seen_[y] != stamp_) {
        seen_[y] = stamp_;
        level_[y] = next;
        if (next < dva[y]) {
          hop_[y] = hop_[x];
          members_.push_back(y);
        } else {
          hop_[y] = graph::kNoHop;  // reached, not a member
        }
      } else if (hops && level_[y] == next && hop_[y] != graph::kNoHop) {
        hop_[y] = std::min(hop_[y], hop_[x]);  // another BFS parent
      }
    }
  }
}

std::size_t TzClusterSearch::count(const graph::Graph& g,
                                   std::span<const std::uint32_t> dva,
                                   NodeId w) {
  search(g, dva, w, false);
  return members_.size();
}

std::span<const NodeId> TzClusterSearch::list(
    const graph::Graph& g, std::span<const std::uint32_t> dva, NodeId w) {
  search(g, dva, w, true);
  std::sort(members_.begin(), members_.end());
  return members_;
}

std::vector<NodeId> tz_sample_landmarks(const graph::Graph& g,
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
  TzClusterSearch clusters(n);
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
    const auto dva = tz_landmark_distances(g, sample);
    std::size_t max_cluster = 0;
    for (NodeId w = 0; w < n; ++w) {
      max_cluster = std::max(max_cluster, clusters.count(g, dva, w));
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
                                    const std::vector<NodeId>& landmarks,
                                    std::span<const std::uint32_t> dva,
                                    NodeId w, TzClusterSearch& clusters) {
  const std::size_t n = g.node_count();
  const unsigned id_width = bitio::ceil_log2(std::max<std::size_t>(n, 2));
  const unsigned port_width =
      bitio::ceil_log2(std::max<std::size_t>(g.degree(w), 1));
  bitio::BitWriter out;
  // (a) next hop toward every landmark (own entry unused at a landmark
  // itself; store 0).
  for (NodeId l : landmarks) {
    const std::uint32_t rank = graph::first_hop_rank(g, dist, w, l);
    out.write_bits(rank == graph::kNoHop ? 0 : rank, port_width);
  }
  // (b) cluster table: v with d(w, v) < d(v, A), strictly.
  const auto cluster = clusters.list(g, dva, w);
  out.write_bits(cluster.size(), bitio::ceil_log2_plus1(n));
  for (NodeId v : cluster) {
    out.write_bits(v, id_width);
    out.write_bits(clusters.hop(v), port_width);
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

namespace {

/// v's nearest landmark, the least id on ties: the l(v) of v's label.
NodeId nearest_landmark(const graph::DistanceMatrix& dist,
                        const std::vector<NodeId>& landmarks, NodeId v) {
  NodeId nearest = landmarks[0];
  std::uint32_t best = graph::kUnreachable;
  for (NodeId l : landmarks) {
    if (dist.at(v, l) < best) {
      best = dist.at(v, l);
      nearest = l;
    }
  }
  return nearest;
}

/// The label exit port: at l, the port toward v (least shortest-path
/// successor) — the third component of the charged (v, l(v), port) label.
/// Ports are the sorted assignment, so a successor's port is its rank.
graph::PortId exit_port_at(const graph::Graph& g,
                           const graph::DistanceMatrix& dist, NodeId l,
                           NodeId v) {
  if (l == v) return 0;
  const std::uint32_t rank = graph::first_hop_rank(g, dist, l, v);
  return rank == graph::kNoHop ? 0 : rank;
}

/// One node's compiled slices, decoded from its table.
struct NodeSlices {
  model::PackedSparseArray cluster;
  model::PackedValueArray landmark_ports;
};

/// The per-node table decoder behind decode() and patch(): validates w's
/// table against g (port bounds, sorted in-range cluster ids, no trailing
/// bits) and decodes it. `landmark_port` (one entry per landmark) and
/// `cluster_port` are scratch.
NodeSlices decode_node(const graph::Graph& g, NodeId w,
                       const bitio::BitVector& bits,
                       std::vector<std::uint32_t>& landmark_port,
                       std::vector<std::uint32_t>& cluster_port) {
  const std::size_t n = g.node_count();
  const unsigned id_width = bitio::ceil_log2(std::max<std::size_t>(n, 2));
  const unsigned port_width =
      bitio::ceil_log2(std::max<std::size_t>(g.degree(w), 1));
  const std::size_t degree = std::max<std::size_t>(g.degree(w), 1);
  bitio::BitReader r(bits);
  for (auto& pt : landmark_port) {
    pt = static_cast<std::uint32_t>(r.read_bits(port_width));
    if (pt >= degree) {
      throw std::invalid_argument(
          "TzScheme: stored port exceeds the node degree");
    }
  }
  const auto size =
      static_cast<std::size_t>(r.read_bits(bitio::ceil_log2_plus1(n)));
  if (size > n) {
    throw std::invalid_argument("TzScheme: cluster larger than n");
  }
  bitio::BitVector members(n);
  cluster_port.resize(size);
  NodeId prev = 0;
  for (std::size_t i = 0; i < size; ++i) {
    const auto id = static_cast<NodeId>(r.read_bits(id_width));
    cluster_port[i] = static_cast<std::uint32_t>(r.read_bits(port_width));
    // The membership vector needs distinct in-range ids, and next_hop
    // indexes ports unchecked.
    if (id >= n || (i > 0 && id <= prev)) {
      throw std::invalid_argument("TzScheme: bad cluster table");
    }
    if (cluster_port[i] >= degree) {
      throw std::invalid_argument(
          "TzScheme: stored port exceeds the node degree");
    }
    members.set(id, true);
    prev = id;
  }
  if (!r.exhausted()) {
    throw std::invalid_argument("TzScheme: trailing bits in a node table");
  }
  return {model::PackedSparseArray(std::move(members), cluster_port,
                                   port_width),
          model::PackedValueArray(landmark_port, port_width)};
}

}  // namespace

TzScheme::TzScheme(const graph::Graph& g, Options options)
    : n_(g.node_count()) {
  if (!graph::is_connected(g)) {
    throw SchemeInapplicable("tz: graph disconnected");
  }
  const auto dist_cached = graph::DistanceCache::global().get(g);
  const graph::DistanceMatrix& dist = *dist_cached;

  landmarks_ = tz_sample_landmarks(g, options);
  const auto dva = tz_landmark_distances(g, landmarks_);
  TzClusterSearch clusters(n_);
  function_bits_.resize(n_);
  for (NodeId w = 0; w < n_; ++w) {
    function_bits_[w] =
        tz_build_node_bits(g, dist, landmarks_, dva, w, clusters);
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
  tables->csr = graph::CsrGraph(g);
  tables->cluster.reserve(n_);
  tables->landmark_ports.reserve(n_);
  bunch_size_.assign(n_, landmarks_.size());
  auto cluster_sizes = obs::histogram("schemes.tz.cluster_size",
                                      obs::hop_buckets());
  std::vector<std::uint32_t> landmark_port(landmarks_.size());
  std::vector<std::uint32_t> cluster_port;
  for (NodeId w = 0; w < n_; ++w) {
    NodeSlices slices = decode_node(g, w, function_bits_[w], landmark_port,
                                    cluster_port);
    const std::size_t size = slices.cluster.member_count();
    for (std::size_t k = 0; k < size; ++k) {
      ++bunch_size_[slices.cluster.member(k)];
    }
    cluster_sizes.observe(size);
    tables->cluster.push_back(std::move(slices.cluster));
    tables->landmark_ports.push_back(std::move(slices.landmark_ports));
  }
  tables->landmark_of.resize(n_);
  tables->exit_port.resize(n_);
  for (NodeId v = 0; v < n_; ++v) {
    tables->landmark_of[v] = nearest_landmark(dist, landmarks_, v);
    tables->exit_port[v] = exit_port_at(g, dist, tables->landmark_of[v], v);
  }
  tables_ = std::move(tables);
  obs::counter("schemes.tz.built").inc();
}

void TzScheme::patch(const graph::Graph& g, const graph::DistanceMatrix& dist,
                     std::span<const NodeId> nodes,
                     std::vector<bitio::BitVector> bits,
                     std::span<const NodeId> relabel) {
  if (g.node_count() != n_ || dist.node_count() != n_ ||
      bits.size() != nodes.size()) {
    throw std::invalid_argument("TzScheme::patch: size mismatch");
  }
  auto in_range = [&](NodeId v) { return v < n_; };
  if (!std::all_of(nodes.begin(), nodes.end(), in_range) ||
      !std::all_of(relabel.begin(), relabel.end(), in_range)) {
    throw std::invalid_argument("TzScheme::patch: node out of range");
  }
  std::vector<NodeSlices> slices;
  slices.reserve(nodes.size());
  std::vector<std::uint32_t> landmark_port(landmarks_.size());
  std::vector<std::uint32_t> cluster_port;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    slices.push_back(
        decode_node(g, nodes[i], bits[i], landmark_port, cluster_port));
  }
  // Copy-on-write: a FastPath compiled earlier keeps its own tables.
  if (tables_.use_count() > 1) tables_ = std::make_shared<Tables>(*tables_);
  Tables& tables = *tables_;
  tables.csr = graph::CsrGraph(g);  // the endpoints' slices moved
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const NodeId w = nodes[i];
    model::PackedSparseArray& cluster = tables.cluster[w];
    for (std::size_t k = 0; k < cluster.member_count(); ++k) {
      --bunch_size_[cluster.member(k)];
    }
    cluster = std::move(slices[i].cluster);
    for (std::size_t k = 0; k < cluster.member_count(); ++k) {
      ++bunch_size_[cluster.member(k)];
    }
    tables.landmark_ports[w] = std::move(slices[i].landmark_ports);
    function_bits_[w] = std::move(bits[i]);
  }
  for (NodeId v : relabel) {
    tables.landmark_of[v] = nearest_landmark(dist, landmarks_, v);
    tables.exit_port[v] = exit_port_at(g, dist, tables.landmark_of[v], v);
  }
}

NodeId TzScheme::next_hop(NodeId u, NodeId dest_label,
                          model::MessageHeader&) const {
  return tables_->next_hop(u, dest_label);
}

NodeId TzScheme::landmark_of(NodeId v) const {
  return tables_->landmark_of[v];
}

graph::PortId TzScheme::exit_port(NodeId v) const {
  return tables_->exit_port[v];
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
