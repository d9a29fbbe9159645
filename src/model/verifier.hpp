// Scheme verifier: drives every (source, destination) pair through a
// scheme's local routing functions hop by hop, checks delivery, and
// measures the achieved stretch against true shortest-path distances —
// the definitions of "route" and "stretch factor" from §1 made executable.
#pragma once

#include <cstdint>

#include "graph/algorithms.hpp"
#include "graph/graph.hpp"
#include "model/scheme.hpp"

namespace optrt::model {

/// Default hop budget for routing a message on an n-node graph: 4n + 16,
/// generous enough for Theorem 5's 2(c+3)·log n probe walks. The single
/// source of truth behind the `hop_budget = 0` / `max_hops = 0` sentinels
/// of the verifier and the simulator.
[[nodiscard]] constexpr std::size_t default_hop_budget(std::size_t n) noexcept {
  return 4 * n + 16;
}

struct VerificationResult {
  bool all_delivered = false;
  std::size_t pairs_checked = 0;
  std::size_t pairs_failed = 0;     ///< undeliverable or hop-budget exceeded
  std::size_t invalid_hops = 0;     ///< next_hop returned a non-neighbour
  double max_stretch = 0.0;         ///< max over pairs of |route| / d(u,v)
  double mean_stretch = 0.0;
  std::uint64_t total_route_edges = 0;  ///< Σ edges traversed (incl. probes)
  std::size_t max_route_edges = 0;

  [[nodiscard]] bool ok() const noexcept {
    return all_delivered && invalid_hops == 0;
  }
};

/// Routes every ordered pair (u, v), u != v, through `scheme` on `g`.
/// A route longer than `hop_budget` edges counts as failed
/// (0 = default_hop_budget(n)).
///
/// The pair space is sharded by source node across `threads` workers
/// (0 = core::default_threads()) and per-source partial results are merged
/// in source order, so every field of the result — including the
/// floating-point max/mean stretch — is bit-identical for any thread
/// count, and identical to verify_scheme_serial. Distances come from
/// graph::DistanceCache::global().
[[nodiscard]] VerificationResult verify_scheme(const graph::Graph& g,
                                               const RoutingScheme& scheme,
                                               std::size_t hop_budget = 0,
                                               std::size_t threads = 0);

/// verify_scheme plus a stretch bound: the base result, the bound it was
/// checked against, and how many pairs exceeded it.
struct StretchVerificationResult {
  VerificationResult base;
  double stretch_bound = 0.0;
  std::size_t pairs_over_stretch = 0;  ///< delivered pairs with stretch > bound

  [[nodiscard]] bool ok() const noexcept {
    return base.ok() && pairs_over_stretch == 0;
  }
};

/// Stretch-aware verification: routes every ordered pair exactly like
/// verify_scheme (same sharding, same bit-identical merge at any thread
/// count) and additionally counts pairs whose achieved stretch exceeds
/// `max_stretch`. ok() demands delivery, no invalid hops, *and* every pair
/// within the bound; worst-case and average stretch are in `base`.
[[nodiscard]] StretchVerificationResult verify_scheme_stretch(
    const graph::Graph& g, const RoutingScheme& scheme, double max_stretch,
    std::size_t hop_budget = 0, std::size_t threads = 0);

/// Single-threaded reference implementation of verify_scheme, kept as the
/// differential-testing baseline (tests/verifier_test.cpp compares the
/// sharded path against it field by field).
[[nodiscard]] VerificationResult verify_scheme_serial(
    const graph::Graph& g, const RoutingScheme& scheme,
    std::size_t hop_budget = 0);

/// Order-sensitive 64-bit hash of the full pair space's routes: for every
/// ordered pair (u, v), u != v, the exact hop sequence the scheme walks
/// (with a sentinel for undelivered pairs) folded FNV-style. Two schemes
/// with equal fingerprints route every pair through the identical node
/// sequence — the equivalence the churn differential oracle uses for TZ,
/// whose repaired tables are route-equal rather than byte-comparable in
/// general. Sharded by source with an in-order merge: bit-identical at
/// any `threads` (0 = core::default_threads()).
[[nodiscard]] std::uint64_t route_fingerprint(const graph::Graph& g,
                                              const RoutingScheme& scheme,
                                              std::size_t hop_budget = 0,
                                              std::size_t threads = 0);

/// Routes one pair; returns the number of edges traversed, or 0 on failure.
[[nodiscard]] std::size_t route_once(const graph::Graph& g,
                                     const RoutingScheme& scheme, NodeId src,
                                     NodeId dst, std::size_t hop_budget);

/// Sampled verification for large n: routes `samples` uniformly random
/// connected pairs instead of all n(n−1). Same semantics as verify_scheme
/// restricted to the sample. Draws at most 64·samples + n candidate
/// pairs, so on a graph with few or no connected pairs it returns with
/// pairs_checked < samples (0 on an edgeless graph).
[[nodiscard]] VerificationResult verify_scheme_sampled(
    const graph::Graph& g, const RoutingScheme& scheme, std::size_t samples,
    std::uint64_t seed, std::size_t hop_budget = 0);

/// Checks a full-information scheme: for every pair, the advertised hop set
/// must equal the true shortest-path successor set.
struct FullInformationCheck {
  bool exact = false;
  std::size_t mismatched_pairs = 0;
};
[[nodiscard]] FullInformationCheck verify_full_information(
    const graph::Graph& g, const FullInformationRouting& scheme);

}  // namespace optrt::model
