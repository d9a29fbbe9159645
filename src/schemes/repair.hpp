// model::RepairableScheme implementations for the three churn-capable
// schemes (ROADMAP item 5a): full-table, compact-diam2, and Thorup-Zwick.
//
// The shared substrate is DynamicDistances, an incrementally maintained
// all-pairs distance matrix for unit-weight undirected graphs:
//
//   insert {u, v} — exact one-step min-plus patch against the OLD matrix,
//       d'(s, t) = min(d(s,t), d(s,near)+1+d(far,t)),
//     sound because a new shortest path crosses the new edge at most once
//     (near is the endpoint closer to s). Rows with |d(s,u) − d(s,v)| ≤ 1
//     are skipped unread: there d(s,near)+1 ≥ d(s,far), so the triangle
//     inequality rules out any gain. Every other row improves at t = far.
//   delete {u, v} — row s can change only if the endpoints sit on
//     consecutive BFS levels of s; call far the deeper one. If far keeps
//     another live neighbour w with d(s,w) = d(s,far) − 1, every shortest
//     path through {u, v} reroutes through w and row s stays as it is;
//     otherwise d(s,far) grows. By symmetry the test reads the rows of
//     far's live neighbours. The candidates are then exactly the changed
//     rows: each is re-run by BFS straight into its matrix row with one
//     reused queue, or, when there are more than a threshold, every row is
//     recomputed at once. Either way Delta::changed_rows is exact, and the
//     set is symmetric (row s changes iff column s does), so the matrix
//     stays symmetric and exact.
//
// On top of the maintained matrix, each repairable derives the *dirty set*
// — the nodes whose serialized tables the event can change — and rebuilds
// only those tables through the same builders the fresh constructors use.
// Full-table patches the dirty rows into its live FullTableScheme, which
// re-checks only those rows; the others re-materialize their scheme through
// the validating deserialization constructors. That is why the
// differential oracle can demand bit-identity: patched tables are produced
// by the identical code path a fresh centralized build would take, just
// for fewer nodes.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/graph.hpp"
#include "graph/labeling.hpp"
#include "model/repairable.hpp"
#include "schemes/compact_diam2.hpp"
#include "schemes/full_table.hpp"
#include "schemes/tz.hpp"

namespace optrt::schemes {

/// Incrementally maintained all-pairs distances. apply() mutates the
/// matrix in place for one link delta and reports exactly which rows
/// changed plus the deterministic work spent (rows patched vs rows
/// re-BFS'd).
class DynamicDistances {
 public:
  /// `g` must be the topology the matrix describes *after* every apply()
  /// — callers update their live graph first, then call apply() with the
  /// new graph.
  explicit DynamicDistances(const graph::Graph& g);

  struct Delta {
    std::vector<graph::NodeId> changed_rows;  ///< sorted, rows with any change
    std::uint64_t rows_bfs = 0;
    std::uint64_t rows_patched = 0;
  };

  /// Folds one link delta in. `g_new` is the graph *including* the change.
  /// `bfs_fallback_fraction`: when a delete changes more than this
  /// fraction of the n rows, recompute every row at once instead of one
  /// BFS per changed row (changed_rows stays exact either way).
  Delta apply(const graph::Graph& g_new, graph::NodeId u, graph::NodeId v,
              bool up, double bfs_fallback_fraction = 1.0);

  [[nodiscard]] std::size_t node_count() const noexcept {
    return d_.node_count();
  }
  /// Reads row 0 only: the matrix is symmetric, so every node is connected
  /// to every other iff each is reachable from node 0.
  [[nodiscard]] bool connected() const noexcept;

  /// The maintained matrix, in the shape the scheme builders consume.
  [[nodiscard]] const graph::DistanceMatrix& matrix() const noexcept {
    return d_;
  }

 private:
  graph::DistanceMatrix d_;
  std::vector<graph::NodeId> queue_;  // BFS scratch, n entries
};

/// Common bookkeeping shared by the three repairables.
class RepairableBase : public model::RepairableScheme {
 public:
  explicit RepairableBase(const graph::Graph& base, model::RepairConfig config);

  [[nodiscard]] const graph::Graph& topology() const override {
    return live_;
  }
  [[nodiscard]] const model::RepairStats& stats() const override {
    return stats_;
  }
  [[nodiscard]] bool available() const override { return available_; }

 protected:
  /// Toggles {u, v} in live_ (precondition: the delta is real).
  void toggle_edge(const model::TopologyEvent& event);

  graph::Graph live_;
  model::RepairConfig config_;
  model::RepairStats stats_;
  bool available_ = true;
};

/// Full-table repair: entry (s, t) depends on N(s), d(s, ·) and d(w, ·)
/// for w ∈ N(s), so dirty = {u, v} ∪ changed rows ∪ their live
/// neighbourhoods. The dirty tables are patched into the one live
/// FullTableScheme, which holds the only copy of the tables. Works on
/// disconnected topologies (unreachable entries store port 0, like the
/// fresh builder).
class RepairableFullTable final : public RepairableBase {
 public:
  explicit RepairableFullTable(const graph::Graph& base,
                               model::RepairConfig config = {});

  [[nodiscard]] std::string kind_name() const override { return "full-table"; }
  [[nodiscard]] const model::RoutingScheme& scheme() const override {
    return *scheme_;
  }
  model::RepairOutcome apply_event(const model::TopologyEvent& event) override;

 private:
  /// Builds every table from dist_ through the validating constructor.
  void rebuild_all();

  DynamicDistances dist_;
  graph::Labeling identity_;  // churn never renames nodes
  std::unique_ptr<FullTableScheme> scheme_;
};

/// Compact-diam2 repair: node u's Theorem-1 table depends only on N(u)
/// and the adjacency between N(u) and u's non-neighbours, so toggling
/// {a, b} dirties exactly {a, b} ∪ N(a) ∪ N(b). No distance matrix is
/// needed at all. When a dirty node's neighbours stop dominating its
/// non-neighbours the scheme is inapplicable: tables go stale
/// (available() == false) until an event under which a full rebuild
/// succeeds again.
class RepairableCompactDiam2 final : public RepairableBase {
 public:
  explicit RepairableCompactDiam2(const graph::Graph& base,
                                  CompactDiam2Scheme::Options options = {},
                                  model::RepairConfig config = {});

  [[nodiscard]] std::string kind_name() const override {
    return "compact-diam2";
  }
  [[nodiscard]] const model::RoutingScheme& scheme() const override {
    return *scheme_;
  }
  model::RepairOutcome apply_event(const model::TopologyEvent& event) override;

 private:
  /// Rebuilds every table from live_; returns false on SchemeInapplicable.
  bool try_full_rebuild();
  void materialize();

  CompactDiam2Scheme::Options options_;
  std::vector<bitio::BitVector> tables_;
  std::unique_ptr<CompactDiam2Scheme> scheme_;
};

/// Thorup-Zwick repair: replays the seeded landmark election against the
/// patched distance matrix (zero BFS). If the elected set changed — or the
/// graph disconnected and reconnected — every table is rebuilt from the
/// maintained matrix; otherwise dirty = {u, v} ∪ changed rows ∪ their
/// live neighbourhoods ∪ every w whose strict-cluster membership of some
/// v with changed d(v, A) flips. Rebuilt tables reuse tz_build_node_bits,
/// so with equal landmarks and equal distances they are byte-identical to
/// a fresh build. On a disconnected live graph the scheme is inapplicable
/// (fresh TzScheme construction throws), and the last tables stay stale.
class RepairableTz final : public RepairableBase {
 public:
  explicit RepairableTz(const graph::Graph& base, TzOptions options = {},
                        model::RepairConfig config = {});

  [[nodiscard]] std::string kind_name() const override { return "tz"; }
  [[nodiscard]] const model::RoutingScheme& scheme() const override {
    return *scheme_;
  }
  model::RepairOutcome apply_event(const model::TopologyEvent& event) override;

  [[nodiscard]] const TzOptions& options() const noexcept { return options_; }

 private:
  void rebuild_all(const graph::DistanceMatrix& dist);
  void materialize(const graph::DistanceMatrix& dist);

  TzOptions options_;
  DynamicDistances dist_;
  std::vector<graph::NodeId> landmarks_;
  std::vector<std::uint32_t> dva_;  // d(v, A) under landmarks_
  std::vector<bitio::BitVector> tables_;
  std::unique_ptr<TzScheme> scheme_;
};

/// Factory keyed by kind_name; throws std::invalid_argument on an unknown
/// kind. `seed` feeds the TZ landmark election and is ignored elsewhere.
[[nodiscard]] std::unique_ptr<model::RepairableScheme> make_repairable(
    const std::string& kind, const graph::Graph& base, std::uint64_t seed,
    model::RepairConfig config = {});

/// The churn differential oracle: compares the incrementally repaired
/// scheme against a fresh centralized build on rs.topology().
/// Bit-identical function bits for full-table and compact-diam2 (plus
/// SchemeInapplicable parity for compact), identical full-pair-space
/// route fingerprints for TZ. `threads` feeds route_fingerprint; every
/// field of the outcome is thread-count independent.
struct RepairMatch {
  bool match = false;
  std::string detail;  ///< first divergence, empty when match
};
[[nodiscard]] RepairMatch repaired_matches_fresh(
    const model::RepairableScheme& rs, std::size_t threads = 0);

}  // namespace optrt::schemes
