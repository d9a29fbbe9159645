// Differential oracle for the compiled fast paths: every scheme kind's
// FastPath must answer the full pair space bit-identically to the scheme's
// own next_hop with a fresh header, including which exceptions are thrown
// — on seeded G(n,1/2), ring, and grid topologies, at any shard/thread
// count. For the schemes whose next_hop shares the FastPath's tables,
// pinned fingerprints and the reference compact-node decoder stand in.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/parallel.hpp"
#include "graph/generators.hpp"
#include "model/fastpath.hpp"
#include "model/scheme.hpp"
#include "obs/metrics.hpp"
#include "schemes/compact_diam2.hpp"
#include "schemes/full_table.hpp"
#include "schemes/hierarchical.hpp"
#include "schemes/hub.hpp"
#include "schemes/landmark.hpp"
#include "schemes/routing_center.hpp"
#include "schemes/sequential_search.hpp"
#include "schemes/tz.hpp"

namespace optrt {
namespace {

using graph::Graph;
using graph::NodeId;
using graph::Rng;

Graph certified(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  return core::certified_random_graph(n, rng);
}

/// What one next-hop query did: returned a hop or threw which exception.
struct Outcome {
  enum Kind { kHop, kInvalidArgument, kLogicError, kOther } kind = kHop;
  NodeId hop = 0;
  std::string what;

  bool operator==(const Outcome&) const = default;
};

template <typename Fn>
Outcome capture(Fn&& fn) {
  Outcome out;
  try {
    out.hop = fn();
  } catch (const std::invalid_argument& e) {
    out.kind = Outcome::kInvalidArgument;
    out.what = e.what();
  } catch (const std::logic_error& e) {
    out.kind = Outcome::kLogicError;
    out.what = e.what();
  } catch (const std::exception& e) {
    out.kind = Outcome::kOther;
    out.what = e.what();
  }
  return out;
}

/// Every ordered query — including the routing-to-self ones — must have
/// the identical outcome on the decode path and the compiled path.
void expect_differentially_equal(const model::RoutingScheme& scheme) {
  const auto fast = scheme.compile_fast();
  ASSERT_NE(fast, nullptr);
  EXPECT_EQ(fast->name(), scheme.name());
  const auto n = static_cast<NodeId>(scheme.node_count());
  EXPECT_EQ(fast->node_count(), n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      const NodeId label = scheme.label_of(v);
      const Outcome slow = capture([&] {
        model::MessageHeader header;
        return scheme.next_hop(u, label, header);
      });
      const Outcome fast_out = capture([&] { return fast->next_hop(u, label); });
      ASSERT_EQ(slow, fast_out)
          << scheme.name() << ": u=" << u << " dest=" << v
          << " slow={" << slow.kind << "," << slow.hop << "," << slow.what
          << "} fast={" << fast_out.kind << "," << fast_out.hop << ","
          << fast_out.what << "}";
    }
  }
}

constexpr std::uint64_t kFnvBasis = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t value) {
  for (int b = 0; b < 8; ++b) {
    h ^= (value >> (8 * b)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

/// Fingerprint of the full non-self pair space routed through route_batch,
/// sharded by source via core::parallel_map and merged in source order —
/// so the value must not depend on the thread count.
std::uint64_t batch_fingerprint(const model::RoutingScheme& scheme,
                                const model::FastPath& fast,
                                std::size_t threads) {
  const auto n = static_cast<NodeId>(scheme.node_count());
  std::vector<NodeId> labels(n);
  for (NodeId v = 0; v < n; ++v) labels[v] = scheme.label_of(v);
  const auto shard_hashes = core::parallel_map<std::uint64_t>(
      threads, n, [&](std::size_t u_index) {
        const auto u = static_cast<NodeId>(u_index);
        std::vector<model::RoutePair> pairs;
        pairs.reserve(n - 1);
        for (NodeId v = 0; v < n; ++v) {
          if (v != u) pairs.push_back({u, labels[v]});
        }
        std::vector<NodeId> hops(pairs.size());
        fast.route_batch(pairs, hops);
        std::uint64_t h = kFnvBasis;
        for (const NodeId hop : hops) h = fnv1a(h, hop);
        return h;
      });
  std::uint64_t h = kFnvBasis;
  for (const std::uint64_t sh : shard_hashes) h = fnv1a(h, sh);
  return h;
}

std::uint64_t slow_fingerprint(const model::RoutingScheme& scheme) {
  const auto n = static_cast<NodeId>(scheme.node_count());
  std::uint64_t outer = kFnvBasis;
  for (NodeId u = 0; u < n; ++u) {
    std::uint64_t h = kFnvBasis;
    for (NodeId v = 0; v < n; ++v) {
      if (v == u) continue;
      model::MessageHeader header;
      h = fnv1a(h, scheme.next_hop(u, scheme.label_of(v), header));
    }
    outer = fnv1a(outer, h);
  }
  return outer;
}

void expect_fingerprints_stable(const model::RoutingScheme& scheme) {
  const auto fast = scheme.compile_fast();
  const std::uint64_t reference = slow_fingerprint(scheme);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    EXPECT_EQ(batch_fingerprint(scheme, *fast, threads), reference)
        << scheme.name() << " at " << threads << " threads";
  }
}

// --- All seven kinds on a certified G(n, 1/2) ------------------------------

TEST(FastPath, CompactDiam2OnRandomGraph) {
  const Graph g = certified(96, 1996);
  expect_differentially_equal(schemes::CompactDiam2Scheme(g, {}));
}

TEST(FastPath, FullTableOnRandomGraph) {
  const Graph g = certified(96, 1996);
  expect_differentially_equal(schemes::FullTableScheme::standard(g));
}

TEST(FastPath, HubOnRandomGraph) {
  const Graph g = certified(96, 1996);
  expect_differentially_equal(schemes::HubScheme(g));
}

TEST(FastPath, RoutingCenterOnRandomGraph) {
  const Graph g = certified(96, 1996);
  expect_differentially_equal(schemes::RoutingCenterScheme(g));
}

TEST(FastPath, LandmarkOnRandomGraph) {
  const Graph g = certified(96, 1996);
  expect_differentially_equal(schemes::LandmarkScheme(g));
}

TEST(FastPath, HierarchicalOnRandomGraph) {
  const Graph g = certified(96, 1996);
  expect_differentially_equal(schemes::HierarchicalScheme(g));
}

TEST(FastPath, SequentialSearchOnRandomGraph) {
  const Graph g = certified(96, 1996);
  expect_differentially_equal(schemes::SequentialSearchScheme(g));
}

TEST(FastPath, ThorupZwickOnRandomGraph) {
  const Graph g = certified(96, 1996);
  expect_differentially_equal(schemes::TzScheme(g));
}

// --- Structured topologies (the diameter-2 kinds do not apply) -------------

TEST(FastPath, GeneralSchemesOnRing) {
  const Graph g = graph::ring(64);
  expect_differentially_equal(schemes::FullTableScheme::standard(g));
  expect_differentially_equal(schemes::LandmarkScheme(g));
  expect_differentially_equal(schemes::HierarchicalScheme(g));
  expect_differentially_equal(schemes::SequentialSearchScheme(g));
  expect_differentially_equal(schemes::TzScheme(g));
}

TEST(FastPath, GeneralSchemesOnGrid) {
  const Graph g = graph::grid(8, 8);
  expect_differentially_equal(schemes::FullTableScheme::standard(g));
  expect_differentially_equal(schemes::LandmarkScheme(g));
  expect_differentially_equal(schemes::HierarchicalScheme(g));
  expect_differentially_equal(schemes::SequentialSearchScheme(g));
  expect_differentially_equal(schemes::TzScheme(g));
}

// --- Sharded batches: same fingerprint at 1, 2, and 8 threads --------------

TEST(FastPath, BatchFingerprintsIndependentOfThreadCount) {
  const Graph g = certified(96, 1996);
  expect_fingerprints_stable(schemes::CompactDiam2Scheme(g, {}));
  expect_fingerprints_stable(schemes::FullTableScheme::standard(g));
  expect_fingerprints_stable(schemes::HubScheme(g));
  expect_fingerprints_stable(schemes::RoutingCenterScheme(g));
  expect_fingerprints_stable(schemes::LandmarkScheme(g));
  expect_fingerprints_stable(schemes::HierarchicalScheme(g));
  expect_fingerprints_stable(schemes::SequentialSearchScheme(g));
  expect_fingerprints_stable(schemes::TzScheme(g));
}

// --- Pinned decode-path answers ---------------------------------------------
//
// compact-diam2, routing-center, landmark and TZ answer next_hop from the
// very tables their FastPath shares, so the differential above compares
// those tables with themselves. These full-pair fingerprints were recorded
// from the dense per-node decode caches the shared tables replaced.

schemes::CompactDiam2Scheme::Options greedy_ib_options() {
  auto opt = schemes::CompactDiam2Scheme::Options::for_model(model::kIBalpha);
  opt.node.greedy_cover = true;
  return opt;
}

TEST(FastPath, DecodePathFingerprintsArePinned) {
  const Graph g = certified(96, 1996);
  EXPECT_EQ(slow_fingerprint(schemes::CompactDiam2Scheme(g, {})), 0x4251a0605cc444a0ULL);
  EXPECT_EQ(slow_fingerprint(schemes::CompactDiam2Scheme(g, greedy_ib_options())),
            0x56b3dfc1bf40de97ULL);
  EXPECT_EQ(slow_fingerprint(schemes::RoutingCenterScheme(g)), 0x1a6588e9bdb0b80ULL);
  EXPECT_EQ(slow_fingerprint(schemes::LandmarkScheme(g)), 0xaea22e06937b23d1ULL);
  EXPECT_EQ(slow_fingerprint(schemes::TzScheme(g)), 0x4effdefd8dd7742aULL);
  const Graph ring = graph::ring(64);
  EXPECT_EQ(slow_fingerprint(schemes::LandmarkScheme(ring)), 0x2f4731b46d9d4ff2ULL);
  EXPECT_EQ(slow_fingerprint(schemes::TzScheme(ring)), 0x34d4ee303736f30eULL);
  const Graph grid = graph::grid(8, 8);
  EXPECT_EQ(slow_fingerprint(schemes::LandmarkScheme(grid)), 0x4f77579a6972a39eULL);
  EXPECT_EQ(slow_fingerprint(schemes::TzScheme(grid)), 0x97072fedd9bf923fULL);
}

/// compact-diam2's next_hop against decode_compact_node, the reference
/// decoder of one node's Theorem 1 table.
void expect_matches_reference_decoder(
    const Graph& g, const schemes::CompactDiam2Scheme::Options& opt) {
  const schemes::CompactDiam2Scheme scheme(g, opt);
  const auto n = static_cast<NodeId>(g.node_count());
  schemes::CompactNodeOptions node_opt = opt.node;
  node_opt.include_adjacency = !opt.neighbors_known;
  for (NodeId u = 0; u < n; ++u) {
    std::vector<NodeId> free_neighbors;
    if (opt.neighbors_known) {
      const auto nbrs = g.neighbors(u);
      free_neighbors.assign(nbrs.begin(), nbrs.end());
    }
    const schemes::DecodedCompactNode ref = schemes::decode_compact_node(
        scheme.function_bits(u), n, u, node_opt, std::move(free_neighbors));
    for (NodeId v = 0; v < n; ++v) {
      const Outcome got = capture([&] {
        model::MessageHeader header;
        return scheme.next_hop(u, v, header);
      });
      if (v == u) {
        ASSERT_EQ(got.kind, Outcome::kInvalidArgument) << "u=" << u;
      } else {
        ASSERT_EQ(got, (Outcome{.kind = Outcome::kHop, .hop = ref.next_of[v], .what = ""}))
            << "u=" << u << " dest=" << v;
      }
    }
  }
}

TEST(FastPath, CompactDiam2MatchesTheReferenceDecoder) {
  const Graph g = certified(96, 1996);
  expect_matches_reference_decoder(g, {});
  expect_matches_reference_decoder(g, greedy_ib_options());
}

// --- Fallback, batch contract, and lookup.* counters -----------------------

TEST(FastPath, FallbackMatchesCompiledForm) {
  const Graph g = certified(48, 77);
  const auto table = schemes::FullTableScheme::standard(g);
  const auto compiled = table.compile_fast();
  const auto fallback = model::make_fallback_fastpath(table);
  for (NodeId u = 0; u < 48; ++u) {
    for (NodeId v = 0; v < 48; ++v) {
      if (v == u) continue;
      const NodeId label = table.label_of(v);
      ASSERT_EQ(compiled->next_hop(u, label), fallback->next_hop(u, label));
    }
  }
}

TEST(FastPath, RouteBatchRejectsLengthMismatch) {
  const Graph g = certified(16, 5);
  const auto fast = schemes::FullTableScheme::standard(g).compile_fast();
  const std::vector<model::RoutePair> pairs(3, model::RoutePair{0, 1});
  std::vector<NodeId> hops(2);
  EXPECT_THROW(fast->route_batch(pairs, hops), std::invalid_argument);
}

TEST(FastPath, BatchWithSelfPairThrowsLikeTheDecoder) {
  const Graph g = certified(16, 5);
  const auto fast = schemes::FullTableScheme::standard(g).compile_fast();
  // Big enough to take the vectorized kernel where available; the self
  // pair hides in the middle.
  std::vector<model::RoutePair> pairs;
  for (NodeId u = 0; u < 16; ++u) pairs.push_back({u, NodeId{(u + 1u) % 16}});
  pairs[9] = {7, 7};
  std::vector<NodeId> hops(pairs.size());
  EXPECT_THROW(fast->route_batch(pairs, hops), std::invalid_argument);
}

TEST(FastPath, LookupCountersTrackCompilesAndBatches) {
  obs::ScopedRegistry scoped;
  auto& reg = scoped.registry();
  const Graph g = certified(24, 9);
  const auto table = schemes::FullTableScheme::standard(g);
  const auto fast = table.compile_fast();
  EXPECT_EQ(reg.counter_value("lookup.compiled"), 1u);
  EXPECT_EQ(reg.counter_value("lookup.compiled.full_table"), 1u);

  std::vector<model::RoutePair> pairs;
  for (NodeId v = 1; v < 24; ++v) pairs.push_back({0, v});
  std::vector<NodeId> hops(pairs.size());
  fast->route_batch(pairs, hops);
  fast->route_batch(pairs, hops);
  EXPECT_EQ(reg.counter_value("lookup.batches"), 2u);
  EXPECT_EQ(reg.counter_value("lookup.pairs"), 2 * pairs.size());

  const auto hub = schemes::HubScheme(g).compile_fast();
  (void)hub;
  EXPECT_EQ(reg.counter_value("lookup.compiled"), 2u);
  EXPECT_EQ(reg.counter_value("lookup.compiled.hub"), 1u);
}

}  // namespace
}  // namespace optrt
