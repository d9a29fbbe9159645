#include "graph/algorithms.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <queue>
#include <stdexcept>

#include "graph/csr.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace optrt::graph {

namespace {

/// Breadth-first search from `source` into `dist` (n entries, overwritten;
/// kUnreachable where disconnected). `queue` is scratch of at least n
/// entries. Reads only neighbors(u), so it runs on Graph and CsrGraph alike.
template <class Adjacency>
void bfs_into(const Adjacency& g, NodeId source, std::uint32_t* dist,
              NodeId* queue) {
  std::fill(dist, dist + g.node_count(), kUnreachable);
  dist[source] = 0;
  std::size_t head = 0;
  std::size_t tail = 0;
  queue[tail++] = source;
  while (head < tail) {
    const NodeId u = queue[head++];
    const std::uint32_t next = dist[u] + 1;
    for (NodeId v : g.neighbors(u)) {
      if (dist[v] == kUnreachable) {
        dist[v] = next;
        queue[tail++] = v;
      }
    }
  }
}

/// Word-per-node state of one 64-source BFS batch, reused across batches.
/// A completed batch leaves frontier and next all zero; an abandoned one
/// is the last batch of its call.
struct BatchScratch {
  explicit BatchScratch(std::size_t n) : seen(n), frontier(n), next(n) {
    active.reserve(n);
    touched.reserve(n);
  }
  std::vector<std::uint64_t> seen;      // bit i: reached from source s0 + i
  std::vector<std::uint64_t> frontier;  // bit i: reached at this level
  std::vector<std::uint64_t> next;      // frontier words pushed this level
  std::vector<NodeId> active;           // nodes with a nonzero frontier
  std::vector<NodeId> touched;          // nodes with a nonzero next
};

/// BFS from the k ≤ 64 sources s0 … s0+k−1 at once: bit i of a node's word
/// stands for source s0 + i, and each level every frontier node ORs its
/// word into its neighbours'. By symmetry d(s0+i, w) = d(w, s0+i), so a
/// node w reached at level ℓ writes ℓ into its own row's contiguous slice
/// d[w][s0 … s0+k), and the batch ends by filling the slices' unreached
/// entries with kUnreachable.
///
/// k per-source BFS runs scan k·2m arcs; a batch pays off only while it
/// scans well under that. Once its arc scans pass k·2m/8 it gives up and
/// returns false, leaving the k columns partly written.
bool bfs_batch(const CsrGraph& g, NodeId s0, unsigned k, std::uint32_t* d,
               BatchScratch& s) {
  const std::size_t n = g.node_count();
  const std::uint64_t all = k == 64 ? ~std::uint64_t{0}
                                    : (std::uint64_t{1} << k) - 1;
  std::fill(s.seen.begin(), s.seen.end(), 0);
  s.active.clear();
  for (unsigned i = 0; i < k; ++i) {
    const NodeId src = s0 + i;
    s.seen[src] = s.frontier[src] = std::uint64_t{1} << i;
    d[static_cast<std::size_t>(src) * n + src] = 0;
    s.active.push_back(src);
  }
  const std::uint64_t scalar_arcs = k * g.arc_count();
  std::uint64_t arcs = 0;
  for (std::uint32_t level = 1; !s.active.empty(); ++level) {
    s.touched.clear();
    for (NodeId u : s.active) {
      const std::uint64_t word = s.frontier[u];
      s.frontier[u] = 0;
      const auto nbrs = g.neighbors(u);
      arcs += nbrs.size();
      for (NodeId w : nbrs) {
        if (s.next[w] == 0) s.touched.push_back(w);
        s.next[w] |= word;
      }
    }
    if (8 * arcs > scalar_arcs) return false;
    s.active.clear();
    for (NodeId w : s.touched) {
      std::uint64_t fresh = s.next[w] & ~s.seen[w];
      s.next[w] = 0;
      if (fresh == 0) continue;
      s.seen[w] |= fresh;
      s.frontier[w] = fresh;
      s.active.push_back(w);
      std::uint32_t* slice = d + static_cast<std::size_t>(w) * n + s0;
      for (; fresh != 0; fresh &= fresh - 1) {
        slice[std::countr_zero(fresh)] = level;
      }
    }
  }
  for (NodeId w = 0; w < n; ++w) {
    std::uint32_t* slice = d + static_cast<std::size_t>(w) * n + s0;
    for (std::uint64_t miss = all & ~s.seen[w]; miss != 0; miss &= miss - 1) {
      slice[std::countr_zero(miss)] = kUnreachable;
    }
  }
  return true;
}

}  // namespace

std::vector<std::uint32_t> bfs_distances(const Graph& g, NodeId source) {
  std::vector<std::uint32_t> dist(g.node_count());
  std::vector<NodeId> queue(g.node_count());
  bfs_into(g, source, dist.data(), queue.data());
  return dist;
}

void bfs_distances_into(const Graph& g, NodeId source,
                        std::span<std::uint32_t> dist,
                        std::span<NodeId> queue) {
  if (dist.size() != g.node_count() || queue.size() < g.node_count()) {
    throw std::invalid_argument("bfs_distances_into: buffer too small");
  }
  bfs_into(g, source, dist.data(), queue.data());
}

void all_pairs_distances(const Graph& g, std::span<std::uint32_t> out) {
  const std::size_t n = g.node_count();
  if (out.size() != n * n) {
    throw std::invalid_argument("all_pairs_distances: out.size() != n*n");
  }
  if (n == 0) return;
  const CsrGraph csr(g);
  std::uint64_t batches = 0;
  NodeId source = 0;
  {
    BatchScratch scratch(n);
    while (source < n) {
      const auto k =
          static_cast<unsigned>(std::min<std::size_t>(64, n - source));
      if (!bfs_batch(csr, source, k, out.data(), scratch)) break;
      ++batches;
      source += k;
    }
  }
  // From the first batch that gave up on, one BFS per source, straight
  // into its row. That rewrites every row from first_scalar on in full.
  const NodeId first_scalar = source;
  std::vector<NodeId> queue(n);
  for (; source < n; ++source) {
    bfs_into(csr, source, out.data() + static_cast<std::size_t>(source) * n,
             queue.data());
  }
  // The batch sources' rows still lack (or hold an abandoned batch's
  // partial) scalar columns; copy them from the scalar rows by symmetry.
  for (NodeId s = first_scalar; s < n; ++s) {
    const std::uint32_t* row = out.data() + static_cast<std::size_t>(s) * n;
    for (NodeId w = 0; w < first_scalar; ++w) {
      out[static_cast<std::size_t>(w) * n + s] = row[w];
    }
  }
  auto& reg = obs::MetricsRegistry::global();
  reg.counter("graph.apsp.bitparallel_batches").inc(batches);
  reg.counter("graph.apsp.scalar_sources").inc(n - first_scalar);
}

DistanceMatrix::DistanceMatrix(const Graph& g)
    : n_(g.node_count()),
      d_(std::make_unique_for_overwrite<std::uint32_t[]>(n_ * n_)) {
  all_pairs_distances(g, {d_.get(), n_ * n_});
}

std::uint32_t DistanceMatrix::diameter() const noexcept {
  std::uint32_t best = 0;
  for (std::uint32_t x : entries()) {
    if (x == kUnreachable) return kUnreachable;
    best = std::max(best, x);
  }
  return best;
}

bool DistanceMatrix::connected() const noexcept {
  const auto d = entries();
  return std::none_of(d.begin(), d.end(),
                      [](std::uint32_t x) { return x == kUnreachable; });
}

std::vector<NodeId> shortest_path_successors(const Graph& g,
                                             const DistanceMatrix& dist,
                                             NodeId u, NodeId v) {
  std::vector<NodeId> out;
  const std::uint32_t duv = dist.at(u, v);
  if (duv == 0 || duv == kUnreachable) return out;
  for (NodeId w : g.neighbors(u)) {
    if (dist.at(w, v) + 1 == duv) out.push_back(w);
  }
  return out;
}

std::uint32_t first_hop_rank(const Graph& g, const DistanceMatrix& dist,
                             NodeId u, NodeId v) {
  const std::uint32_t duv = dist.at(u, v);
  if (duv == 0 || duv == kUnreachable) return kNoHop;
  const auto nbrs = g.neighbors(u);
  for (std::uint32_t rank = 0; rank < nbrs.size(); ++rank) {
    if (dist.at(nbrs[rank], v) + 1 == duv) return rank;
  }
  return kNoHop;
}

void first_hop_ranks(const Graph& g, const DistanceMatrix& dist, NodeId u,
                     std::span<std::uint32_t> out) {
  const std::size_t n = dist.node_count();
  if (out.size() != n) {
    throw std::invalid_argument("first_hop_ranks: out.size() != n");
  }
  std::fill(out.begin(), out.end(), kNoHop);
  const std::uint32_t* du = dist.row(u).data();
  const auto nbrs = g.neighbors(u);
  for (auto rank = static_cast<std::uint32_t>(nbrs.size()); rank-- > 0;) {
    const std::uint32_t* dw = dist.row(nbrs[rank]).data();
    // out[v] = rank wherever d(w, v) + 1 == d(u, v). An unreachable v never
    // matches: finite distances are < n, and kUnreachable + 1 wraps to 0.
    std::size_t v = 0;
#if defined(__GNUC__)
    // Four lanes at a time with a compare mask: the default -O2 cost model
    // leaves the scalar select below unvectorized, at ~4x the time.
    using Lanes = std::uint32_t __attribute__((vector_size(16)));
    const Lanes r = {rank, rank, rank, rank};
    for (; v + 4 <= n; v += 4) {
      Lanes a, b, o;
      std::memcpy(&a, dw + v, sizeof a);
      std::memcpy(&b, du + v, sizeof b);
      std::memcpy(&o, out.data() + v, sizeof o);
      const auto hit = static_cast<Lanes>(a + 1 == b);
      o = (o & ~hit) | (r & hit);
      std::memcpy(out.data() + v, &o, sizeof o);
    }
#endif
    for (; v < n; ++v) {
      if (dw[v] + 1 == du[v]) out[v] = rank;
    }
  }
  out[u] = kNoHop;
}

bool is_connected(const Graph& g) {
  if (g.node_count() == 0) return true;
  const auto dist = bfs_distances(g, 0);
  return std::none_of(dist.begin(), dist.end(),
                      [](std::uint32_t x) { return x == kUnreachable; });
}

namespace {

// FNV-1a over the packed adjacency words, from two different offset bases
// so the pair behaves like one 128-bit hash.
std::uint64_t fnv1a_words(const Graph& g, std::uint64_t h) {
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    for (std::uint64_t word : g.row_words(u)) {
      for (int shift = 0; shift < 64; shift += 8) {
        h ^= (word >> shift) & 0xff;
        h *= kPrime;
      }
    }
  }
  return h;
}

}  // namespace

GraphFingerprint fingerprint(const Graph& g) {
  GraphFingerprint f;
  f.n = g.node_count();
  f.lo = fnv1a_words(g, 0xcbf29ce484222325ULL ^ f.n);
  f.hi = fnv1a_words(g, 0x6c62272e07bb0142ULL ^ (f.n * 0x9e3779b97f4a7c15ULL));
  return f;
}

DistanceCache::DistanceCache(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)) {}

std::shared_ptr<const DistanceMatrix> DistanceCache::get(const Graph& g) {
  const GraphFingerprint key = fingerprint(g);
  std::shared_ptr<Entry> entry;
  bool missed = false;
  bool evicted = false;
  std::size_t size_after = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      lru_.push_front(key);
      entry = std::make_shared<Entry>();
      entries_.emplace(key, std::make_pair(entry, lru_.begin()));
      ++misses_;
      missed = true;
      if (entries_.size() > capacity_) {
        // Evict the least-recently-used entry; in-flight holders keep the
        // matrix alive through their shared_ptr.
        entries_.erase(lru_.back());
        lru_.pop_back();
        evicted = true;
      }
    } else {
      entry = it->second.first;
      lru_.splice(lru_.begin(), lru_, it->second.second);
      ++hits_;
    }
    size_after = entries_.size();
  }
  // Registry updates happen outside the cache lock: obs takes its own
  // mutex and must never nest inside ours.
  auto& reg = obs::MetricsRegistry::global();
  reg.counter(missed ? "graph.distance_cache.misses"
                     : "graph.distance_cache.hits")
      .inc();
  if (evicted) reg.counter("graph.distance_cache.evictions").inc();
  reg.gauge("graph.distance_cache.size")
      .set(static_cast<std::int64_t>(size_after));
  // BFS runs outside the cache lock; call_once makes concurrent misses on
  // the same graph compute it exactly once.
  std::call_once(entry->once, [&] {
    obs::TraceSpan span("graph.distance_matrix.build");
    entry->dist = std::make_shared<DistanceMatrix>(g);
  });
  return entry->dist;
}

std::size_t DistanceCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::uint64_t DistanceCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::uint64_t DistanceCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

void DistanceCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  lru_.clear();
  hits_ = 0;
  misses_ = 0;
}

DistanceCache& DistanceCache::global() {
  static DistanceCache cache(16);
  return cache;
}

}  // namespace optrt::graph
