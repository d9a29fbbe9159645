// model::RepairableScheme implementations for the three churn-capable
// schemes (ROADMAP item 5a): full-table, compact-diam2, and Thorup-Zwick.
//
// The shared substrate is DynamicDistances, an incrementally maintained
// all-pairs distance matrix for unit-weight undirected graphs:
//
//   insert {u, v} — exact one-step min-plus patch against the OLD matrix,
//       d'(s, t) = min(d(s,t), d(s,u)+1+d(v,t), d(s,v)+1+d(u,t)),
//     sound because a new shortest path crosses the new edge at most once;
//   delete {u, v} — only sources s with |d(s,u) − d(s,v)| == 1 can lose a
//     shortest path (the edge lies on s's shortest-path DAG iff its
//     endpoints sit on consecutive BFS levels); exactly those rows are
//     re-run through BFS on the new graph, with a full-rebuild fallback
//     when the candidate set exceeds a threshold. The candidate set is
//     closed under "my row changed", so the patched matrix stays symmetric
//     and exact.
//
// On top of the maintained matrix, each repairable derives the *dirty set*
// — the nodes whose serialized tables the event can change — rebuilds only
// those tables through the same builders the fresh constructors use, and
// re-materializes its scheme through the validating deserialization
// constructors. That is why the differential oracle can demand
// bit-identity: patched tables are produced by the identical code path a
// fresh centralized build would take, just for fewer nodes.
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
/// matrix for one link delta and reports which rows changed plus the
/// deterministic work spent (rows patched vs rows re-BFS'd).
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
  /// `bfs_fallback_fraction`: when a delete's candidate row count exceeds
  /// this fraction of n, recompute every row instead (still exact; the
  /// Delta then lists every row as changed conservatively).
  Delta apply(const graph::Graph& g_new, graph::NodeId u, graph::NodeId v,
              bool up, double bfs_fallback_fraction = 1.0);

  [[nodiscard]] std::uint32_t at(graph::NodeId u,
                                 graph::NodeId v) const noexcept {
    return d_[static_cast<std::size_t>(u) * n_ + v];
  }
  [[nodiscard]] std::size_t node_count() const noexcept { return n_; }
  [[nodiscard]] bool connected() const noexcept;

  /// Copies the current matrix into the shape the scheme builders consume.
  [[nodiscard]] graph::DistanceMatrix snapshot() const {
    return {n_, d_};
  }

 private:
  std::size_t n_;
  std::vector<std::uint32_t> d_;
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
/// neighbourhoods. Works on disconnected topologies (unreachable entries
/// store port 0, like the fresh builder).
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
  void rebuild_table(graph::NodeId u, const graph::DistanceMatrix& dist,
                     const graph::PortAssignment& ports);
  void materialize();

  DynamicDistances dist_;
  graph::Labeling identity_;  // churn never renames nodes
  std::vector<bitio::BitVector> tables_;
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
