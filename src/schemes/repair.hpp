// model::RepairableScheme implementations for the three churn-capable
// schemes (ROADMAP item 5a): full-table, compact-diam2, and Thorup-Zwick.
//
// The shared substrate is DynamicDistances, an incrementally maintained
// all-pairs distance matrix for unit-weight undirected graphs. Each apply()
// reports the exact changed entries (s, t) with their old values:
//
//   insert {u, v} — exact one-step min-plus patch against the OLD matrix,
//       d'(s, t) = min(d(s,t), d(s,near)+1+d(far,t)),
//     sound because a new shortest path crosses the new edge at most once
//     (near is the endpoint closer to s). Rows with |d(s,u) − d(s,v)| ≤ 1
//     are skipped unread: there d(s,near)+1 ≥ d(s,far), so the triangle
//     inequality rules out any gain. Every entry the patch lowers is
//     reported.
//   delete {u, v} — row s can change only if the endpoints sit on
//     consecutive BFS levels of s; call far the deeper one. If far keeps
//     another live neighbour w with d(s,w) = d(s,far) − 1, every shortest
//     path through {u, v} reroutes through w and row s stays as it is;
//     otherwise d(s,far) grows. By symmetry the test reads the rows of
//     far's live neighbours, so the candidates are exactly the changed
//     rows. Each is then repaired in its *affected region* (Ramalingam–
//     Reps for unit weights): the nodes whose every BFS parent from s is
//     affected, found level by level down from far. Exactly these nodes
//     recede, since an unaffected parent keeps a shortest path. Each is
//     re-seeded from its unaffected neighbours, whose distances stand, and
//     the keys are settled in increasing order inside the region. The
//     repair reads row s and the new graph only, and its cost is the
//     region's arcs, not n.
//
// On top of the maintained matrix, each repairable derives the *dirty set*
// — the nodes whose serialized tables the event can change — and rebuilds
// only those tables through the same builders the fresh constructors use,
// then patches them into its live scheme, which re-checks only those
// tables. That is why the differential oracle can demand bit-identity:
// patched tables are produced by the identical code path a fresh
// centralized build would take, just for fewer nodes.
//
// TZ dirty rule. Node w's table reads N(w) (its ports are ranks), d(w, t)
// and d(x, t) for x ∈ N(w) at every t ∈ A ∪ C(w), and membership
// t ∈ C(w) ⟺ d(w, t) < d(t, A). With the landmark set unchanged, a
// changed entry (a, t) marks
//   - a, if t ∈ A ∪ C_old(a) ∪ C_new(a): otherwise t is listed in a's
//     table neither before nor after, and d(a, t) is read nowhere else;
//   - each x ∈ N(a), if t ∈ A ∪ C_new(x): x's first hop toward t reads
//     d(a, t), and a t that left C(x) did so through a changed d(x, t) (its
//     own entry) or a moved d(t, A) (below);
// and further
//   - both endpoints, whose neighbour ranks move;
//   - for each t whose d(t, A) moved (such a t has a changed entry in a
//     landmark row, so none is found by scanning), every w with d(w, t)
//     between the old and new value: exactly the w whose membership test
//     for t flips while d(w, t) stands. They lie in the ball of that
//     radius around t, searched through its own nodes.
// The label parts l(v) and the exit port read column v and l(v)'s
// neighbour ranks, so they are recomputed for the changed columns and,
// when an endpoint is a landmark, for the destinations it serves.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
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
/// matrix in place for one link delta and reports exactly which entries
/// changed, with their old values, plus the deterministic work spent (rows
/// patched by min-plus vs rows repaired by search).
class DynamicDistances {
 public:
  /// `g` must be the topology the matrix describes *after* every apply()
  /// — callers update their live graph first, then call apply() with the
  /// new graph.
  explicit DynamicDistances(const graph::Graph& g);

  /// One matrix entry an apply() changed: d(s, t) was `old`.
  struct Entry {
    graph::NodeId s = 0;
    graph::NodeId t = 0;
    std::uint32_t old = 0;

    friend bool operator==(const Entry&, const Entry&) noexcept = default;
  };

  struct Delta {
    /// Every changed entry, sorted by (s, t). The matrix is symmetric, so
    /// (s, t) is listed iff (t, s) is.
    std::vector<Entry> entries;
    std::vector<graph::NodeId> changed_rows;  ///< sorted, rows with an entry
    std::uint64_t rows_bfs = 0;      ///< rows repaired by region search
    std::uint64_t rows_patched = 0;  ///< rows lowered by the min-plus patch
  };

  /// Folds one link delta in. `g_new` is the graph *including* the change.
  Delta apply(const graph::Graph& g_new, graph::NodeId u, graph::NodeId v,
              bool up);

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
  /// Re-derives row s after a deletion left `far` without a BFS parent
  /// from s, touching only the affected region; appends its entries.
  void repair_row(const graph::Graph& g_new, graph::NodeId s,
                  graph::NodeId far, Delta& delta);

  graph::DistanceMatrix d_;
  // Region-repair scratch, reused across rows: region_mark_[x] == stamp_
  // while x is an unsettled member of the current row's region.
  std::vector<std::uint32_t> region_mark_;
  std::uint32_t stamp_ = 0;
  std::vector<graph::NodeId> region_;
  std::vector<graph::NodeId> queue_;
  std::vector<std::pair<std::uint32_t, graph::NodeId>> seeds_;
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

/// Thorup-Zwick repair: replays the seeded landmark election on the live
/// graph (BFS-counted, no distance matrix). If the elected set changed —
/// or the graph disconnected and reconnected — every table is rebuilt
/// from the maintained matrix. Otherwise only the tables the changed
/// distance entries can reach are rebuilt (the rule is in the header
/// comment above) and patched into the live TzScheme in place. Rebuilt
/// tables reuse tz_build_node_bits, so with equal landmarks and equal
/// distances they are byte-identical to a fresh build. On a disconnected
/// live graph the scheme is inapplicable (fresh TzScheme construction
/// throws), and the last tables stay stale.
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
  /// Builds every table for landmarks_ and materializes a fresh scheme
  /// through the validating deserialization constructor.
  void rebuild_all();
  /// Folds the changed landmark-row entries into dva_ and returns the
  /// nodes whose tables the event can change, ascending.
  std::vector<graph::NodeId> dirty_nodes(const model::TopologyEvent& event,
                                         const DynamicDistances::Delta& delta);
  /// The destinations whose label parts (l(v), exit port) may move.
  std::vector<graph::NodeId> relabel_nodes(
      const model::TopologyEvent& event,
      const DynamicDistances::Delta& delta) const;

  TzOptions options_;
  DynamicDistances dist_;
  std::vector<graph::NodeId> landmarks_;
  std::vector<char> is_landmark_;
  std::vector<std::uint32_t> dva_;      // d(v, A) under landmarks_
  std::vector<std::uint32_t> dva_old_;  // d(v, A) before the current event
  TzClusterSearch clusters_;
  // Per-event scratch, n flags each, cleared through the lists they index.
  std::vector<char> flag_;
  std::vector<char> seen_;
  std::vector<graph::NodeId> queue_;
  std::unique_ptr<TzScheme> scheme_;
};

/// Factory keyed by kind_name; throws std::invalid_argument on an unknown
/// kind. `seed` feeds the TZ landmark election and is ignored elsewhere.
[[nodiscard]] std::unique_ptr<model::RepairableScheme> make_repairable(
    const std::string& kind, const graph::Graph& base, std::uint64_t seed,
    model::RepairConfig config = {});

/// The churn differential oracle: compares the incrementally repaired
/// scheme against a fresh centralized build on rs.topology().
/// Bit-identical function bits for all three kinds (plus
/// SchemeInapplicable parity for compact-diam2 and TZ); for TZ also the
/// same landmark set and then identical full-pair-space route
/// fingerprints, which cover the label parts the bits leave out.
/// `threads` feeds route_fingerprint; every field of the outcome is
/// thread-count independent.
struct RepairMatch {
  bool match = false;
  std::string detail;  ///< first divergence, empty when match
};
[[nodiscard]] RepairMatch repaired_matches_fresh(
    const model::RepairableScheme& rs, std::size_t threads = 0);

}  // namespace optrt::schemes
