#include "schemes/landmark.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "bitio/bit_stream.hpp"
#include "bitio/codes.hpp"
#include "graph/algorithms.hpp"
#include "graph/csr.hpp"
#include "graph/ports.hpp"
#include "model/fastpath.hpp"
#include "schemes/errors.hpp"

namespace optrt::schemes {

struct LandmarkScheme::Tables {
  std::vector<model::PackedSparseArray> vicinity;       // per node
  std::vector<model::PackedValueArray> landmark_ports;  // per node
  std::vector<NodeId> landmark_of;
  std::vector<std::uint32_t> landmark_index;  // landmark id → index in list
  graph::CsrGraph csr;  // sorted = port order for this scheme

  [[nodiscard]] std::size_t node_count() const { return landmark_of.size(); }
  [[nodiscard]] NodeId next_hop(NodeId u, NodeId dest_label) const {
    // The charged label is (v, l(v)); numerically we receive v and look up
    // l(v) from the label table the scheme itself published.
    const NodeId v = dest_label;
    if (v == u) throw std::invalid_argument("LandmarkScheme: routing to self");
    const auto& vic = vicinity[u];
    if (vic.contains(v)) {
      return csr.neighbor_at(u, static_cast<graph::PortId>(vic.value(v)));
    }
    const NodeId l = landmark_of[v];  // from the destination's label
    const auto port = static_cast<graph::PortId>(
        landmark_ports[u].at(landmark_index[l]));
    return csr.neighbor_at(u, port);
  }
};

LandmarkScheme::LandmarkScheme(const graph::Graph& g, Options options)
    : n_(g.node_count()) {
  if (!graph::is_connected(g)) {
    throw SchemeInapplicable("landmark: graph disconnected");
  }
  std::size_t count = options.landmark_count;
  if (count == 0) {
    count = static_cast<std::size_t>(
        std::ceil(std::sqrt(static_cast<double>(n_))));
  }
  count = std::min(count, n_);

  // Sample landmarks without replacement.
  {
    std::vector<NodeId> all(n_);
    std::iota(all.begin(), all.end(), 0);
    graph::Rng rng(options.seed);
    std::shuffle(all.begin(), all.end(), rng);
    landmarks_.assign(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(count));
    std::sort(landmarks_.begin(), landmarks_.end());
  }

  const auto dist_cached = graph::DistanceCache::global().get(g);
  const graph::DistanceMatrix& dist = *dist_cached;

  // Nearest landmark per node (least id on ties).
  std::vector<NodeId> landmark_of(n_, landmarks_[0]);
  for (NodeId v = 0; v < n_; ++v) {
    std::uint32_t best = graph::kUnreachable;
    for (NodeId l : landmarks_) {
      if (dist.at(v, l) < best) {
        best = dist.at(v, l);
        landmark_of[v] = l;
      }
    }
  }

  // Build and serialize per-node tables. Ports are the sorted assignment,
  // so a first hop's neighbour rank is its port.
  const unsigned id_width = bitio::ceil_log2(std::max<std::size_t>(n_, 2));
  function_bits_.resize(n_);
  for (NodeId w = 0; w < n_; ++w) {
    const unsigned port_width =
        bitio::ceil_log2(std::max<std::size_t>(g.degree(w), 1));
    bitio::BitWriter out;
    // (a) next hop toward every landmark (own landmark entry unused at a
    // landmark itself; store 0).
    for (NodeId l : landmarks_) {
      graph::PortId port = 0;
      if (l != w) port = graph::first_hop_rank(g, dist, w, l);
      out.write_bits(port, port_width);
    }
    // (b) vicinity table: v with d(w,v) ≤ d(v, l(v)).
    std::vector<NodeId> vicinity;
    for (NodeId v = 0; v < n_; ++v) {
      if (v != w && dist.at(w, v) <= dist.at(v, landmark_of[v])) {
        vicinity.push_back(v);
      }
    }
    out.write_bits(vicinity.size(), bitio::ceil_log2_plus1(n_));
    for (NodeId v : vicinity) {
      out.write_bits(v, id_width);
      out.write_bits(graph::first_hop_rank(g, dist, w, v), port_width);
    }
    function_bits_[w] = out.take();
  }
  decode(g, std::move(landmark_of));
}

LandmarkScheme::LandmarkScheme(const graph::Graph& g,
                               std::vector<NodeId> landmarks,
                               std::vector<bitio::BitVector> node_bits)
    : n_(g.node_count()), landmarks_(std::move(landmarks)) {
  if (node_bits.size() != n_ || landmarks_.empty()) {
    throw std::invalid_argument("LandmarkScheme: bad serialized state");
  }
  for (NodeId l : landmarks_) {
    if (l >= n_) throw std::invalid_argument("LandmarkScheme: bad landmark id");
  }
  // Nearest landmarks are a deterministic function of the graph: one BFS
  // per landmark, read as d(v, l) = d(l, v). Landmarks are scanned in list
  // order with a strict test, so ties keep the first (least, as built).
  std::vector<NodeId> landmark_of(n_, landmarks_[0]);
  std::vector<std::uint32_t> best(n_, graph::kUnreachable);
  for (NodeId l : landmarks_) {
    const auto dist = graph::bfs_distances(g, l);
    for (NodeId v = 0; v < n_; ++v) {
      if (dist[v] < best[v]) {
        best[v] = dist[v];
        landmark_of[v] = l;
      }
    }
  }
  function_bits_ = std::move(node_bits);
  decode(g, std::move(landmark_of));
}

void LandmarkScheme::decode(const graph::Graph& g,
                            std::vector<NodeId> landmark_of) {
  auto tables = std::make_shared<Tables>();
  tables->landmark_of = std::move(landmark_of);
  tables->landmark_index.assign(n_, 0);
  for (std::uint32_t i = 0; i < landmarks_.size(); ++i) {
    tables->landmark_index[landmarks_[i]] = i;
  }
  tables->csr = graph::CsrGraph(g);
  tables->vicinity.reserve(n_);
  tables->landmark_ports.reserve(n_);
  const unsigned id_width = bitio::ceil_log2(std::max<std::size_t>(n_, 2));
  std::vector<std::uint32_t> landmark_port(landmarks_.size());
  std::vector<std::uint32_t> vicinity_port;
  for (NodeId w = 0; w < n_; ++w) {
    const unsigned port_width =
        bitio::ceil_log2(std::max<std::size_t>(g.degree(w), 1));
    const std::size_t degree = std::max<std::size_t>(g.degree(w), 1);
    bitio::BitReader r(function_bits_[w]);
    for (auto& p : landmark_port) {
      p = static_cast<std::uint32_t>(r.read_bits(port_width));
      if (p >= degree) {
        throw std::invalid_argument(
            "LandmarkScheme: stored port exceeds the node degree");
      }
    }
    const auto vic =
        static_cast<std::size_t>(r.read_bits(bitio::ceil_log2_plus1(n_)));
    if (vic > n_) {
      throw std::invalid_argument("LandmarkScheme: vicinity larger than n");
    }
    bitio::BitVector members(n_);
    vicinity_port.resize(vic);
    NodeId prev = 0;
    for (std::size_t i = 0; i < vic; ++i) {
      const auto id = static_cast<NodeId>(r.read_bits(id_width));
      vicinity_port[i] = static_cast<std::uint32_t>(r.read_bits(port_width));
      // The membership vector needs distinct in-range ids, and next_hop
      // indexes ports unchecked.
      if (id >= n_ || (i > 0 && id <= prev)) {
        throw std::invalid_argument("LandmarkScheme: bad vicinity table");
      }
      if (vicinity_port[i] >= degree) {
        throw std::invalid_argument(
            "LandmarkScheme: stored port exceeds the node degree");
      }
      members.set(id, true);
      prev = id;
    }
    if (!r.exhausted()) {
      throw std::invalid_argument(
          "LandmarkScheme: trailing bits in a node table");
    }
    tables->vicinity.emplace_back(std::move(members), vicinity_port,
                                  port_width);
    tables->landmark_ports.emplace_back(landmark_port, port_width);
  }
  tables_ = std::move(tables);
}

NodeId LandmarkScheme::next_hop(NodeId u, NodeId dest_label,
                                model::MessageHeader&) const {
  return tables_->next_hop(u, dest_label);
}

NodeId LandmarkScheme::landmark_of(NodeId v) const {
  return tables_->landmark_of[v];
}

std::size_t LandmarkScheme::vicinity_size(NodeId w) const {
  return tables_->vicinity[w].member_count();
}

std::unique_ptr<model::FastPath> LandmarkScheme::compile_fast() const {
  model::note_fastpath_compiled("landmark");
  return std::make_unique<model::SharedTablesFastPath<Tables>>(name(),
                                                               tables_);
}

model::SpaceReport LandmarkScheme::space() const {
  model::SpaceReport report;
  report.function_bits.reserve(n_);
  for (const auto& bits : function_bits_) {
    report.function_bits.push_back(bits.size());
  }
  // Model γ: the (v, l(v)) labels are charged — 2·⌈log n⌉ bits per node.
  report.label_bits =
      n_ * 2 * bitio::ceil_log2(std::max<std::size_t>(n_, 2));
  return report;
}

}  // namespace optrt::schemes
