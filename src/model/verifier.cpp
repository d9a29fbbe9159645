#include "model/verifier.hpp"

#include <algorithm>
#include <limits>
#include <random>

#include "core/parallel.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace optrt::model {

namespace {

// verify_scheme_sampled's draw budget per requested pair (plus n): far
// above the ~n/(n-1) draws a pair takes on a connected graph.
constexpr std::size_t kSampledDrawsPerPair = 64;

// Walks one message from src to dst; returns edges traversed (0 = failed)
// and whether an invalid hop was produced.
struct WalkOutcome {
  std::size_t edges = 0;
  bool invalid_hop = false;
  bool delivered = false;
};

WalkOutcome walk(const graph::Graph& g, const RoutingScheme& scheme,
                 NodeId src, NodeId dst_internal, std::size_t hop_budget) {
  WalkOutcome out;
  const NodeId dest_label = scheme.label_of(dst_internal);
  MessageHeader header;
  NodeId current = src;
  while (current != dst_internal) {
    if (out.edges >= hop_budget) return out;
    const NodeId next = scheme.next_hop(current, dest_label, header);
    if (next >= g.node_count() || !g.has_edge(current, next)) {
      out.invalid_hop = true;
      return out;
    }
    header.came_from = current;
    current = next;
    ++out.edges;
  }
  out.delivered = true;
  return out;
}

// Partial verification result for one source node. Shards are merged in
// source order by finish() — the same association the serial reference
// uses — so sharded and serial runs agree bit for bit, including the
// floating-point stretch aggregates.
struct SourceAccum {
  std::size_t pairs_checked = 0;
  std::size_t pairs_failed = 0;
  std::size_t invalid_hops = 0;
  std::uint64_t total_route_edges = 0;
  std::size_t max_route_edges = 0;
  double max_stretch = 0.0;
  double stretch_sum = 0.0;
  std::size_t stretch_pairs = 0;
  std::size_t pairs_over = 0;  ///< delivered pairs beyond the stretch bound
};

SourceAccum verify_from_source(const graph::Graph& g,
                               const RoutingScheme& scheme,
                               const graph::DistanceMatrix& dist, NodeId u,
                               std::size_t hop_budget,
                               double stretch_bound) {
  SourceAccum acc;
  const std::size_t n = g.node_count();
  for (NodeId v = 0; v < n; ++v) {
    if (u == v) continue;
    ++acc.pairs_checked;
    if (dist.at(u, v) == graph::kUnreachable) {
      // Disconnected pair: schemes are only required to route within the
      // connected component; skip.
      continue;
    }
    const WalkOutcome out = walk(g, scheme, u, v, hop_budget);
    if (out.invalid_hop) {
      ++acc.invalid_hops;
      ++acc.pairs_failed;
      continue;
    }
    if (!out.delivered) {
      ++acc.pairs_failed;
      continue;
    }
    acc.total_route_edges += out.edges;
    acc.max_route_edges = std::max(acc.max_route_edges, out.edges);
    const double stretch =
        static_cast<double>(out.edges) / static_cast<double>(dist.at(u, v));
    acc.max_stretch = std::max(acc.max_stretch, stretch);
    acc.stretch_sum += stretch;
    ++acc.stretch_pairs;
    if (stretch > stretch_bound) ++acc.pairs_over;
  }
  return acc;
}

VerificationResult finish(const std::vector<SourceAccum>& accums) {
  VerificationResult result;
  double stretch_sum = 0.0;
  std::size_t stretch_pairs = 0;
  for (const SourceAccum& acc : accums) {
    result.pairs_checked += acc.pairs_checked;
    result.pairs_failed += acc.pairs_failed;
    result.invalid_hops += acc.invalid_hops;
    result.total_route_edges += acc.total_route_edges;
    result.max_route_edges = std::max(result.max_route_edges, acc.max_route_edges);
    result.max_stretch = std::max(result.max_stretch, acc.max_stretch);
    stretch_sum += acc.stretch_sum;
    stretch_pairs += acc.stretch_pairs;
  }
  result.all_delivered = result.pairs_failed == 0;
  result.mean_stretch =
      stretch_pairs == 0 ? 0.0 : stretch_sum / static_cast<double>(stretch_pairs);
  return result;
}

}  // namespace

std::size_t route_once(const graph::Graph& g, const RoutingScheme& scheme,
                       NodeId src, NodeId dst, std::size_t hop_budget) {
  if (hop_budget == 0) hop_budget = default_hop_budget(g.node_count());
  const WalkOutcome out = walk(g, scheme, src, dst, hop_budget);
  return out.delivered ? out.edges : 0;
}

namespace {

/// Shared sharded core of verify_scheme and verify_scheme_stretch.
std::vector<SourceAccum> verify_sharded(const graph::Graph& g,
                                        const RoutingScheme& scheme,
                                        std::size_t hop_budget,
                                        std::size_t threads,
                                        double stretch_bound) {
  auto& reg = obs::MetricsRegistry::global();
  const obs::Counter pairs = reg.counter("model.verifier.pairs_checked");
  const obs::Histogram route_edges =
      reg.histogram("model.verifier.source_route_edges", obs::hop_buckets());
  const auto dist = graph::DistanceCache::global().get(g);
  core::ThreadPool pool(threads);
  // The per-shard counter/histogram updates below run on pool workers; the
  // registry's shard merge keeps their totals bit-identical at any thread
  // count (tests/obs_test.cpp pins this at 1/2/8).
  const auto accums = core::parallel_map<SourceAccum>(
      pool, g.node_count(), [&](std::size_t u) {
        const SourceAccum acc =
            verify_from_source(g, scheme, *dist, static_cast<NodeId>(u),
                               hop_budget, stretch_bound);
        pairs.inc(acc.pairs_checked);
        route_edges.observe(acc.total_route_edges);
        return acc;
      });
  reg.counter("model.verifier.runs").inc();
  reg.counter("model.verifier.shards_merged").inc(accums.size());
  return accums;
}

}  // namespace

VerificationResult verify_scheme(const graph::Graph& g,
                                 const RoutingScheme& scheme,
                                 std::size_t hop_budget, std::size_t threads) {
  if (hop_budget == 0) hop_budget = default_hop_budget(g.node_count());
  obs::TraceSpan span("model.verify_scheme");
  return finish(verify_sharded(g, scheme, hop_budget, threads,
                               std::numeric_limits<double>::infinity()));
}

StretchVerificationResult verify_scheme_stretch(const graph::Graph& g,
                                                const RoutingScheme& scheme,
                                                double max_stretch,
                                                std::size_t hop_budget,
                                                std::size_t threads) {
  if (hop_budget == 0) hop_budget = default_hop_budget(g.node_count());
  obs::TraceSpan span("model.verify_scheme_stretch");
  const auto accums =
      verify_sharded(g, scheme, hop_budget, threads, max_stretch);
  StretchVerificationResult result;
  result.base = finish(accums);
  result.stretch_bound = max_stretch;
  for (const SourceAccum& acc : accums) {
    result.pairs_over_stretch += acc.pairs_over;
  }
  obs::counter("model.verifier.pairs_over_stretch")
      .inc(result.pairs_over_stretch);
  return result;
}

std::uint64_t route_fingerprint(const graph::Graph& g,
                                const RoutingScheme& scheme,
                                std::size_t hop_budget, std::size_t threads) {
  if (hop_budget == 0) hop_budget = default_hop_budget(g.node_count());
  constexpr std::uint64_t kOffset = 0xcbf29ce484222325ULL;  // FNV-1a
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  const auto fold = [](std::uint64_t h, std::uint64_t x) {
    return (h ^ x) * kPrime;
  };
  core::ThreadPool pool(threads);
  const auto shards = core::parallel_map<std::uint64_t>(
      pool, g.node_count(), [&](std::size_t src) {
        const auto u = static_cast<NodeId>(src);
        std::uint64_t h = kOffset;
        for (NodeId v = 0; v < g.node_count(); ++v) {
          if (u == v) continue;
          h = fold(h, (static_cast<std::uint64_t>(u) << 32) | v);
          const NodeId dest_label = scheme.label_of(v);
          MessageHeader header;
          NodeId current = u;
          std::size_t edges = 0;
          while (current != v && edges < hop_budget) {
            const NodeId next = scheme.next_hop(current, dest_label, header);
            if (next >= g.node_count() || !g.has_edge(current, next)) break;
            header.came_from = current;
            current = next;
            h = fold(h, current);
            ++edges;
          }
          // Sentinel separates "delivered in k hops" from any undelivered
          // walk sharing a prefix.
          h = fold(h, current == v ? 1u : 0u);
        }
        return h;
      });
  // In-order merge: the fingerprint is a pure function of the per-source
  // hashes in source order, independent of scheduling.
  std::uint64_t out = core::mix64(0x10f1u ^ g.node_count());
  for (std::uint64_t h : shards) out = core::mix64(out ^ h);
  return out;
}

VerificationResult verify_scheme_serial(const graph::Graph& g,
                                        const RoutingScheme& scheme,
                                        std::size_t hop_budget) {
  if (hop_budget == 0) hop_budget = default_hop_budget(g.node_count());
  const graph::DistanceMatrix dist(g);
  std::vector<SourceAccum> accums;
  accums.reserve(g.node_count());
  for (NodeId u = 0; u < g.node_count(); ++u) {
    accums.push_back(verify_from_source(
        g, scheme, dist, u, hop_budget,
        std::numeric_limits<double>::infinity()));
  }
  return finish(accums);
}

VerificationResult verify_scheme_sampled(const graph::Graph& g,
                                         const RoutingScheme& scheme,
                                         std::size_t samples,
                                         std::uint64_t seed,
                                         std::size_t hop_budget) {
  if (hop_budget == 0) hop_budget = default_hop_budget(g.node_count());
  VerificationResult result;
  const std::size_t n = g.node_count();
  if (n < 2) {
    result.all_delivered = true;
    return result;
  }
  graph::Rng rng(seed);
  std::uniform_int_distribution<NodeId> pick(0, static_cast<NodeId>(n - 1));
  double stretch_sum = 0.0;
  std::size_t stretch_pairs = 0;
  // Per-source BFS cache: sampled sources often repeat at small n.
  std::vector<std::vector<std::uint32_t>> dist_cache(n);
  // Rejected draws (u == v, or an unconnected pair) are bounded, so a graph
  // with few or no connected pairs ends with pairs_checked < samples
  // instead of drawing forever.
  const std::size_t max_draws = kSampledDrawsPerPair * samples + n;
  for (std::size_t draws = 0;
       result.pairs_checked < samples && draws < max_draws; ++draws) {
    const NodeId u = pick(rng);
    const NodeId v = pick(rng);
    if (u == v) continue;
    if (dist_cache[u].empty()) dist_cache[u] = graph::bfs_distances(g, u);
    const std::uint32_t d = dist_cache[u][v];
    if (d == graph::kUnreachable) continue;
    ++result.pairs_checked;
    const std::size_t edges = route_once(g, scheme, u, v, hop_budget);
    if (edges == 0) {
      ++result.pairs_failed;
      continue;
    }
    result.total_route_edges += edges;
    result.max_route_edges = std::max(result.max_route_edges, edges);
    const double stretch = static_cast<double>(edges) / d;
    result.max_stretch = std::max(result.max_stretch, stretch);
    stretch_sum += stretch;
    ++stretch_pairs;
  }
  result.all_delivered = result.pairs_failed == 0;
  result.mean_stretch =
      stretch_pairs == 0 ? 0.0 : stretch_sum / static_cast<double>(stretch_pairs);
  return result;
}

FullInformationCheck verify_full_information(
    const graph::Graph& g, const FullInformationRouting& scheme) {
  FullInformationCheck check;
  const auto dist_ptr = graph::DistanceCache::global().get(g);
  const graph::DistanceMatrix& dist = *dist_ptr;
  const std::size_t n = g.node_count();
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      if (u == v || dist.at(u, v) == graph::kUnreachable) continue;
      auto expected = graph::shortest_path_successors(g, dist, u, v);
      auto actual = scheme.all_next_hops(u, scheme.label_of(v));
      std::sort(actual.begin(), actual.end());
      if (expected != actual) ++check.mismatched_pairs;
    }
  }
  check.exact = check.mismatched_pairs == 0;
  return check;
}

}  // namespace optrt::model
