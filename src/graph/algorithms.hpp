// Shortest-path machinery: BFS, all-pairs distances, diameter, and the
// shortest-path successor sets that full-information routing (Theorem 10)
// and the scheme verifier need.
#pragma once

#include <cstdint>
#include <limits>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "graph/graph.hpp"

namespace optrt::graph {

/// Distance value for unreachable pairs.
inline constexpr std::uint32_t kUnreachable =
    std::numeric_limits<std::uint32_t>::max();

/// BFS distances from `source` (kUnreachable where disconnected).
[[nodiscard]] std::vector<std::uint32_t> bfs_distances(const Graph& g,
                                                       NodeId source);

/// BFS distances from `source` into `dist` (n entries, overwritten;
/// kUnreachable where disconnected), with `queue` (at least n entries) as
/// scratch: no allocation, so a caller re-running many rows reuses one
/// queue.
void bfs_distances_into(const Graph& g, NodeId source,
                        std::span<std::uint32_t> dist,
                        std::span<NodeId> queue);

/// All-pairs distances of `g` into `out` (row-major n×n, every entry
/// overwritten; kUnreachable where disconnected). The kernel behind
/// DistanceMatrix(const Graph&); see there for how it runs. Throws
/// std::invalid_argument if out.size() != n².
void all_pairs_distances(const Graph& g, std::span<std::uint32_t> out);

/// All-pairs shortest-path distances, as a flat n×n row-major matrix.
class DistanceMatrix {
 public:
  /// Computes every distance with all_pairs_distances(). Sources run 64 at
  /// a time as one bit-parallel BFS over a CSR copy of `g` (one word per
  /// node each for seen, frontier and next; a node reached at level ℓ
  /// writes ℓ into its own row's 64-entry slice, by symmetry). That pays
  /// only while few levels are live. k per-source BFS runs scan k·2m arcs,
  /// so a batch counts its own arc scans and gives up once they pass
  /// k·2m/8; from that batch on, every source runs one BFS straight into
  /// its row. The rule reads nothing but that count. Full first-batch
  /// ratios and times (each path forced; one run on one pinned CPU of a
  /// shared x86-64 VM, -O2):
  ///
  ///   graph           ratio   64-source  per-source
  ///   G(512,½)        0.033     3.8 ms     99 ms
  ///   config:2.1,2    0.035      94 ms    627 ms   n = 4096
  ///   ba:2            0.064     110 ms    433 ms   n = 4096
  ///   ba:1            0.128     155 ms    124 ms   n = 4096
  ///   grid            0.397     9.0 ms    5.4 ms   n = 1024
  ///   grid            0.756     442 ms    134 ms   n = 4096
  ///   ring            0.970      12 ms    4.6 ms   n = 1024
  ///
  /// so low-diameter graphs stay bit-parallel and grids, rings and trees
  /// (ba:1) switch within their first batch. Extra memory is O(n + m). The
  /// n² entries are allocated uninitialised, since the kernel writes each
  /// one.
  explicit DistanceMatrix(const Graph& g);

  [[nodiscard]] std::uint32_t at(NodeId u, NodeId v) const noexcept {
    return d_[static_cast<std::size_t>(u) * n_ + v];
  }
  /// Row u: d(u, v) for every v, contiguous.
  [[nodiscard]] std::span<const std::uint32_t> row(NodeId u) const noexcept {
    return {d_.get() + static_cast<std::size_t>(u) * n_, n_};
  }
  [[nodiscard]] std::size_t node_count() const noexcept { return n_; }

  /// Row u for in-place maintenance by an incremental updater
  /// (schemes::DynamicDistances), which keeps the matrix exact and
  /// symmetric itself.
  [[nodiscard]] std::span<std::uint32_t> mutable_row(NodeId u) noexcept {
    return {d_.get() + static_cast<std::size_t>(u) * n_, n_};
  }

  /// Max finite distance; kUnreachable if the graph is disconnected,
  /// 0 for graphs with < 2 nodes.
  [[nodiscard]] std::uint32_t diameter() const noexcept;

  /// True iff every pair is connected.
  [[nodiscard]] bool connected() const noexcept;

 private:
  [[nodiscard]] std::span<const std::uint32_t> entries() const noexcept {
    return {d_.get(), n_ * n_};
  }

  std::size_t n_;
  std::unique_ptr<std::uint32_t[]> d_;  // row-major n×n
};

/// All neighbours of `u` that lie on a shortest path from `u` to `v`
/// (the full-information answer set of §1): w adjacent to u with
/// d(w, v) = d(u, v) − 1. Empty when v == u or v unreachable.
[[nodiscard]] std::vector<NodeId> shortest_path_successors(
    const Graph& g, const DistanceMatrix& dist, NodeId u, NodeId v);

/// first_hop_rank / first_hop_ranks value for a destination with no first
/// hop: u itself, or a node unreachable from u.
inline constexpr std::uint32_t kNoHop = kUnreachable;

/// Rank (index into g.neighbors(u)) of the least neighbour of `u` on a
/// shortest path to `v` — the position of
/// shortest_path_successors(g, dist, u, v).front() — without allocating;
/// kNoHop when v == u or v is unreachable.
[[nodiscard]] std::uint32_t first_hop_rank(const Graph& g,
                                           const DistanceMatrix& dist,
                                           NodeId u, NodeId v);

/// first_hop_rank(g, dist, u, v) for every destination v at once, into
/// `out` (size n). Scans u's neighbours from the highest rank down over
/// their contiguous distance rows, so the least qualifying rank is written
/// last: O(deg(u)·n) sequential reads, no allocation.
void first_hop_ranks(const Graph& g, const DistanceMatrix& dist, NodeId u,
                     std::span<std::uint32_t> out);

/// True iff the graph is connected.
[[nodiscard]] bool is_connected(const Graph& g);

/// 128-bit structural fingerprint of a graph: node count plus two
/// independent hashes of the packed adjacency matrix. Equal graphs always
/// collide; distinct graphs collide with probability ~2⁻¹²⁸.
struct GraphFingerprint {
  std::uint64_t n = 0;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  friend bool operator==(const GraphFingerprint&,
                         const GraphFingerprint&) noexcept = default;
};
[[nodiscard]] GraphFingerprint fingerprint(const Graph& g);

/// Process-wide memo of all-pairs BFS keyed by graph fingerprint, so the
/// verifier, the scheme builders, and the benches compute each graph's
/// DistanceMatrix once instead of once per caller. Thread-safe: concurrent
/// get() calls for the same graph compute the matrix exactly once (others
/// block until it is ready); matrices for distinct graphs are computed
/// concurrently without serializing on the cache lock. Entries are evicted
/// LRU beyond `capacity`; returned shared_ptrs stay valid regardless.
class DistanceCache {
 public:
  explicit DistanceCache(std::size_t capacity = 16);

  /// The distance matrix of `g`, computed on first use.
  [[nodiscard]] std::shared_ptr<const DistanceMatrix> get(const Graph& g);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;
  void clear();

  /// The shared process-wide instance.
  static DistanceCache& global();

 private:
  struct Entry {
    std::once_flag once;
    std::shared_ptr<const DistanceMatrix> dist;
  };
  struct KeyHash {
    std::size_t operator()(const GraphFingerprint& f) const noexcept {
      return static_cast<std::size_t>(f.lo ^ (f.hi * 0x9e3779b97f4a7c15ULL));
    }
  };

  std::size_t capacity_;
  mutable std::mutex mu_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::list<GraphFingerprint> lru_;  // front = most recent
  std::unordered_map<GraphFingerprint,
                     std::pair<std::shared_ptr<Entry>,
                               std::list<GraphFingerprint>::iterator>,
                     KeyHash>
      entries_;
};

}  // namespace optrt::graph
