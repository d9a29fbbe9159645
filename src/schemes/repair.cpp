#include "schemes/repair.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <utility>

#include "graph/ports.hpp"
#include "model/verifier.hpp"
#include "obs/metrics.hpp"
#include "schemes/errors.hpp"

namespace optrt::schemes {

using graph::NodeId;

// ---- DynamicDistances -----------------------------------------------------

DynamicDistances::DynamicDistances(const graph::Graph& g)
    : d_(g), queue_(g.node_count()) {}

bool DynamicDistances::connected() const noexcept {
  if (node_count() == 0) return true;
  const auto row = d_.row(0);
  return std::find(row.begin(), row.end(), graph::kUnreachable) == row.end();
}

DynamicDistances::Delta DynamicDistances::apply(const graph::Graph& g_new,
                                                NodeId u, NodeId v, bool up,
                                                double bfs_fallback_fraction) {
  const std::size_t n = node_count();
  Delta delta;
  std::vector<NodeId>& rows = delta.changed_rows;
  if (up) {
    // Exact single-edge insertion: a new shortest path crosses {u, v} at
    // most once, entering at the endpoint nearer to s, so the min-plus
    // patch d(s,near)+1+d(far,t) against the OLD matrix is exact. When
    // d(s,far) ≤ d(s,near)+1 that sum is at least d(s,far)+d(far,t) ≥
    // d(s,t), so the row is skipped unread; every other row improves at
    // t = far. Rows u and v are copied first — they may themselves improve.
    const auto du = d_.row(u);
    const auto dv = d_.row(v);
    const std::vector<std::uint32_t> old_du(du.begin(), du.end());
    const std::vector<std::uint32_t> old_dv(dv.begin(), dv.end());
    for (NodeId s = 0; s < n; ++s) {
      const std::uint32_t dsu = old_du[s];  // symmetry: d(s, u) = d(u, s)
      const std::uint32_t dsv = old_dv[s];
      const std::uint32_t d_near = std::min(dsu, dsv);
      const std::uint32_t d_far = std::max(dsu, dsv);
      if (d_near == graph::kUnreachable ||
          (d_far != graph::kUnreachable && d_far <= d_near + 1)) {
        continue;
      }
      const std::vector<std::uint32_t>& far_row = dsu < dsv ? old_dv : old_du;
      const auto row = d_.mutable_row(s);
      for (NodeId t = 0; t < n; ++t) {
        if (far_row[t] != graph::kUnreachable) {
          row[t] = std::min(row[t], d_near + 1 + far_row[t]);
        }
      }
      rows.push_back(s);
    }
    delta.rows_patched = rows.size();
    return delta;
  }

  // Deletion: row s changes iff the deeper endpoint `far` loses its only
  // BFS parent. Its other candidate parents are its live neighbours in
  // g_new, which no longer lists the deleted edge; d(s, w) = d(w, s) reads
  // row w of the OLD matrix, so every test runs before any row is
  // rewritten.
  const auto du = d_.row(u);
  const auto dv = d_.row(v);
  for (NodeId s = 0; s < n; ++s) {
    NodeId far;
    if (du[s] != graph::kUnreachable && du[s] + 1 == dv[s]) {
      far = v;
    } else if (dv[s] != graph::kUnreachable && dv[s] + 1 == du[s]) {
      far = u;
    } else {
      continue;
    }
    const std::uint32_t parent_level = std::min(du[s], dv[s]);
    const auto nbrs = g_new.neighbors(far);
    if (std::none_of(nbrs.begin(), nbrs.end(), [&](NodeId w) {
          return d_.at(w, s) == parent_level;
        })) {
      rows.push_back(s);
    }
  }
  if (static_cast<double>(rows.size()) >
      bfs_fallback_fraction * static_cast<double>(n)) {
    d_.recompute(g_new);
    delta.rows_bfs = n;
    return delta;
  }
  for (NodeId s : rows) {
    graph::bfs_distances_into(g_new, s, d_.mutable_row(s), queue_);
  }
  delta.rows_bfs = rows.size();
  return delta;
}

// ---- shared base ----------------------------------------------------------

RepairableBase::RepairableBase(const graph::Graph& base,
                               model::RepairConfig config)
    : live_(base), config_(config) {}

void RepairableBase::toggle_edge(const model::TopologyEvent& event) {
  if (event.up) {
    live_.add_edge(event.u, event.v);
  } else {
    live_.remove_edge(event.u, event.v);
  }
}

namespace {

/// dirty ∪= the live neighbourhoods of `rows`; returns the sorted
/// deduplicated dirty list.
std::vector<NodeId> close_over_neighbors(const graph::Graph& g,
                                         std::vector<NodeId> dirty,
                                         const std::vector<NodeId>& rows) {
  for (NodeId s : rows) {
    dirty.push_back(s);
    const auto nbrs = g.neighbors(s);
    dirty.insert(dirty.end(), nbrs.begin(), nbrs.end());
  }
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  return dirty;
}

}  // namespace

// ---- full-table -----------------------------------------------------------

RepairableFullTable::RepairableFullTable(const graph::Graph& base,
                                         model::RepairConfig config)
    : RepairableBase(base, config),
      dist_(base),
      identity_(graph::Labeling::identity(base.node_count())) {
  rebuild_all();
}

void RepairableFullTable::rebuild_all() {
  const std::size_t n = live_.node_count();
  auto ports = graph::PortAssignment::sorted(live_);
  std::vector<bitio::BitVector> tables(n);
  for (NodeId u = 0; u < n; ++u) {
    tables[u] =
        full_table_node_bits(live_, dist_.matrix(), ports, identity_, u);
  }
  scheme_ = std::make_unique<FullTableScheme>(
      live_, std::move(ports), identity_, model::kIAalpha, std::move(tables));
}

model::RepairOutcome RepairableFullTable::apply_event(
    const model::TopologyEvent& event) {
  ++stats_.events;
  toggle_edge(event);
  const std::size_t n = live_.node_count();
  if (config_.force_rebuild) {
    dist_ = DynamicDistances(live_);
    stats_.dist_rows_bfs += n;
    rebuild_all();
    stats_.tables_touched += n;
    ++stats_.rebuilt;
    return model::RepairOutcome::kRebuilt;
  }
  const DynamicDistances::Delta delta = dist_.apply(
      live_, event.u, event.v, event.up, config_.rebuild_fraction);
  stats_.dist_rows_bfs += delta.rows_bfs;
  stats_.dist_rows_patched += delta.rows_patched;
  // Entry (s, t) reads d(s, ·), d(w, ·) for w ∈ N(s), and s's port
  // numbering — dirty is the endpoints plus changed rows plus their live
  // neighbourhoods.
  const std::vector<NodeId> dirty = close_over_neighbors(
      live_, {event.u, event.v}, delta.changed_rows);
  if (static_cast<double>(dirty.size()) >
      config_.rebuild_fraction * static_cast<double>(n)) {
    rebuild_all();
    stats_.tables_touched += n;
    ++stats_.rebuilt;
    return model::RepairOutcome::kRebuilt;
  }
  auto ports = graph::PortAssignment::sorted(live_);
  std::vector<bitio::BitVector> tables(dirty.size());
  for (std::size_t i = 0; i < dirty.size(); ++i) {
    tables[i] =
        full_table_node_bits(live_, dist_.matrix(), ports, identity_, dirty[i]);
  }
  scheme_->patch(live_, std::move(ports), dirty, std::move(tables));
  stats_.tables_touched += dirty.size();
  ++stats_.patched;
  return model::RepairOutcome::kPatched;
}

// ---- compact-diam2 --------------------------------------------------------

RepairableCompactDiam2::RepairableCompactDiam2(
    const graph::Graph& base, CompactDiam2Scheme::Options options,
    model::RepairConfig config)
    : RepairableBase(base, config), options_(options) {
  options_.node.include_adjacency = !options_.neighbors_known;
  if (!try_full_rebuild()) {
    throw SchemeInapplicable(
        "RepairableCompactDiam2: base graph not diameter-2 dominated");
  }
  materialize();
}

bool RepairableCompactDiam2::try_full_rebuild() {
  const std::size_t n = live_.node_count();
  std::vector<bitio::BitVector> fresh(n);
  try {
    for (NodeId u = 0; u < n; ++u) {
      fresh[u] = build_compact_node(live_, u, options_.node).bits;
    }
  } catch (const SchemeInapplicable&) {
    return false;
  }
  tables_ = std::move(fresh);
  stats_.tables_touched += n;
  return true;
}

void RepairableCompactDiam2::materialize() {
  scheme_ = std::make_unique<CompactDiam2Scheme>(live_, options_, tables_);
}

model::RepairOutcome RepairableCompactDiam2::apply_event(
    const model::TopologyEvent& event) {
  ++stats_.events;
  toggle_edge(event);
  const std::size_t n = live_.node_count();
  if (!available_ || config_.force_rebuild) {
    // Stale (or baseline mode): only a full rebuild can recover.
    if (try_full_rebuild()) {
      materialize();
      available_ = true;
      ++stats_.rebuilt;
      return model::RepairOutcome::kRebuilt;
    }
    ++stats_.inapplicable;
    return model::RepairOutcome::kInapplicable;
  }
  // u's table reads N(u) and the adjacency between N(u) and u's
  // non-neighbours: toggling {a, b} can only change tables of a, b, and
  // their (old or new) neighbours. The endpoints' neighbourhoods differ
  // between the old and new graph only by each other, which the explicit
  // {a, b} seed already covers — live_ (post-toggle) closure is exact.
  const std::vector<NodeId> dirty = close_over_neighbors(
      live_, {event.u, event.v}, {event.u, event.v});
  const bool full = static_cast<double>(dirty.size()) >
                    config_.rebuild_fraction * static_cast<double>(n);
  if (full) {
    if (!try_full_rebuild()) {
      available_ = false;
      ++stats_.inapplicable;
      return model::RepairOutcome::kInapplicable;
    }
    materialize();
    ++stats_.rebuilt;
    return model::RepairOutcome::kRebuilt;
  }
  std::vector<bitio::BitVector> patched(dirty.size());
  try {
    for (std::size_t i = 0; i < dirty.size(); ++i) {
      patched[i] = build_compact_node(live_, dirty[i], options_.node).bits;
    }
  } catch (const SchemeInapplicable&) {
    // The new topology broke domination for a dirty node; tables go stale
    // until a later event makes the scheme buildable again.
    available_ = false;
    ++stats_.inapplicable;
    return model::RepairOutcome::kInapplicable;
  }
  for (std::size_t i = 0; i < dirty.size(); ++i) {
    tables_[dirty[i]] = std::move(patched[i]);
  }
  stats_.tables_touched += dirty.size();
  materialize();
  ++stats_.patched;
  return model::RepairOutcome::kPatched;
}

// ---- Thorup-Zwick ---------------------------------------------------------

RepairableTz::RepairableTz(const graph::Graph& base, TzOptions options,
                           model::RepairConfig config)
    : RepairableBase(base, config), options_(options), dist_(base) {
  if (!dist_.connected()) {
    throw SchemeInapplicable("RepairableTz: base graph disconnected");
  }
  const graph::DistanceMatrix& dist = dist_.matrix();
  landmarks_ = tz_sample_landmarks(live_, dist, options_);
  rebuild_all(dist);
  materialize(dist);
}

void RepairableTz::rebuild_all(const graph::DistanceMatrix& dist) {
  const std::size_t n = live_.node_count();
  dva_.assign(n, graph::kUnreachable);
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId l : landmarks_) dva_[v] = std::min(dva_[v], dist.at(v, l));
  }
  const auto ports = graph::PortAssignment::sorted(live_);
  tables_.resize(n);
  for (NodeId w = 0; w < n; ++w) {
    tables_[w] = tz_build_node_bits(live_, dist, ports, landmarks_, dva_, w);
  }
  stats_.tables_touched += n;
}

void RepairableTz::materialize(const graph::DistanceMatrix& dist) {
  scheme_ = std::make_unique<TzScheme>(live_, landmarks_, tables_, dist);
}

model::RepairOutcome RepairableTz::apply_event(
    const model::TopologyEvent& event) {
  ++stats_.events;
  toggle_edge(event);
  const std::size_t n = live_.node_count();
  if (config_.force_rebuild) {
    dist_ = DynamicDistances(live_);
    stats_.dist_rows_bfs += n;
    if (!dist_.connected()) {
      available_ = false;
      ++stats_.inapplicable;
      return model::RepairOutcome::kInapplicable;
    }
    const graph::DistanceMatrix& dist = dist_.matrix();
    landmarks_ = tz_sample_landmarks(live_, dist, options_);
    rebuild_all(dist);
    materialize(dist);
    available_ = true;
    ++stats_.rebuilt;
    return model::RepairOutcome::kRebuilt;
  }
  const DynamicDistances::Delta delta = dist_.apply(
      live_, event.u, event.v, event.up, config_.rebuild_fraction);
  stats_.dist_rows_bfs += delta.rows_bfs;
  stats_.dist_rows_patched += delta.rows_patched;
  if (!dist_.connected()) {
    // Fresh TZ construction throws on disconnected graphs; mirror it.
    available_ = false;
    ++stats_.inapplicable;
    return model::RepairOutcome::kInapplicable;
  }
  const graph::DistanceMatrix& dist = dist_.matrix();
  // Replay the seeded election against the patched matrix — the same
  // draws a fresh build on this topology would make. A changed electorate
  // (or recovery from a stale period) rebuilds every table, but still
  // without any BFS: the matrix is already exact.
  const std::vector<NodeId> elected =
      tz_sample_landmarks(live_, dist, options_);
  if (!available_ || elected != landmarks_) {
    landmarks_ = elected;
    rebuild_all(dist);
    materialize(dist);
    available_ = true;
    ++stats_.rebuilt;
    return model::RepairOutcome::kRebuilt;
  }
  // Same landmarks: diff d(·, A) and flip-test cluster membership. w's
  // table reads N(w), d(w, ·), d(x, ·) for x ∈ N(w) (successor steps),
  // and the strict test d(w, v) < d(v, A) per destination v.
  std::vector<NodeId> dva_changed;
  std::vector<std::uint32_t> dva_new(n, graph::kUnreachable);
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId l : landmarks_) {
      dva_new[v] = std::min(dva_new[v], dist.at(v, l));
    }
    if (dva_new[v] != dva_[v]) dva_changed.push_back(v);
  }
  std::vector<NodeId> dirty = close_over_neighbors(
      live_, {event.u, event.v}, delta.changed_rows);
  if (!dva_changed.empty()) {
    std::vector<bool> is_dirty(n, false);
    for (NodeId w : dirty) is_dirty[w] = true;
    for (NodeId v : dva_changed) {
      for (NodeId w = 0; w < n; ++w) {
        if (is_dirty[w] || w == v) continue;
        const bool was = dist.at(w, v) < dva_[v];
        const bool now = dist.at(w, v) < dva_new[v];
        if (was != now) is_dirty[w] = true;
      }
    }
    dirty.clear();
    for (NodeId w = 0; w < n; ++w) {
      if (is_dirty[w]) dirty.push_back(w);
    }
  }
  dva_ = std::move(dva_new);
  const bool full = static_cast<double>(dirty.size()) >
                    config_.rebuild_fraction * static_cast<double>(n);
  if (full) {
    rebuild_all(dist);
    materialize(dist);
    ++stats_.rebuilt;
    return model::RepairOutcome::kRebuilt;
  }
  const auto ports = graph::PortAssignment::sorted(live_);
  for (NodeId w : dirty) {
    tables_[w] = tz_build_node_bits(live_, dist, ports, landmarks_, dva_, w);
  }
  stats_.tables_touched += dirty.size();
  materialize(dist);
  ++stats_.patched;
  return model::RepairOutcome::kPatched;
}

// ---- factory + differential oracle ----------------------------------------

std::unique_ptr<model::RepairableScheme> make_repairable(
    const std::string& kind, const graph::Graph& base, std::uint64_t seed,
    model::RepairConfig config) {
  if (kind == "full-table") {
    return std::make_unique<RepairableFullTable>(base, config);
  }
  if (kind == "compact-diam2") {
    return std::make_unique<RepairableCompactDiam2>(
        base, CompactDiam2Scheme::Options{}, config);
  }
  if (kind == "tz") {
    TzOptions opt;
    opt.seed = seed;
    return std::make_unique<RepairableTz>(base, opt, config);
  }
  throw std::invalid_argument("make_repairable: unknown kind " + kind);
}

namespace {

RepairMatch compare_bits(const std::string& kind, std::size_t n,
                         const std::function<const bitio::BitVector&(NodeId)>&
                             repaired,
                         const std::function<const bitio::BitVector&(NodeId)>&
                             fresh) {
  for (NodeId u = 0; u < n; ++u) {
    if (!(repaired(u) == fresh(u))) {
      RepairMatch m;
      m.detail = kind + ": table of node " + std::to_string(u) +
                 " diverges from the fresh build";
      return m;
    }
  }
  return {true, ""};
}

}  // namespace

RepairMatch repaired_matches_fresh(const model::RepairableScheme& rs,
                                   std::size_t threads) {
  const graph::Graph& g = rs.topology();
  const std::string kind = rs.kind_name();
  obs::counter("churn.oracle_checks").inc();
  if (kind == "full-table") {
    const auto* repaired =
        dynamic_cast<const FullTableScheme*>(&rs.scheme());
    if (repaired == nullptr) return {false, "full-table: wrong scheme type"};
    const FullTableScheme fresh = FullTableScheme::standard(g);
    return compare_bits(
        kind, g.node_count(),
        [&](NodeId u) -> const bitio::BitVector& {
          return repaired->function_bits(u);
        },
        [&](NodeId u) -> const bitio::BitVector& {
          return fresh.function_bits(u);
        });
  }
  if (kind == "compact-diam2") {
    const auto* repaired =
        dynamic_cast<const CompactDiam2Scheme*>(&rs.scheme());
    if (repaired == nullptr) {
      return {false, "compact-diam2: wrong scheme type"};
    }
    std::optional<CompactDiam2Scheme> fresh;
    try {
      fresh.emplace(g, CompactDiam2Scheme::Options{});
    } catch (const SchemeInapplicable&) {
      // Parity: the fresh build is impossible iff the repairable says so.
      if (rs.available()) {
        return {false,
                "compact-diam2: fresh build inapplicable but repairable "
                "claims availability"};
      }
      return {true, ""};
    }
    if (!rs.available()) {
      return {false,
              "compact-diam2: fresh build succeeded but repairable is stale"};
    }
    return compare_bits(
        kind, g.node_count(),
        [&](NodeId u) -> const bitio::BitVector& {
          return repaired->function_bits(u);
        },
        [&](NodeId u) -> const bitio::BitVector& {
          return fresh->function_bits(u);
        });
  }
  if (kind == "tz") {
    const auto* tz = dynamic_cast<const RepairableTz*>(&rs);
    if (tz == nullptr) return {false, "tz: wrong repairable type"};
    std::optional<TzScheme> fresh;
    try {
      TzOptions opt = tz->options();
      fresh.emplace(g, opt);
    } catch (const SchemeInapplicable&) {
      if (rs.available()) {
        return {false,
                "tz: fresh build inapplicable but repairable claims "
                "availability"};
      }
      return {true, ""};
    }
    if (!rs.available()) {
      return {false, "tz: fresh build succeeded but repairable is stale"};
    }
    const std::uint64_t a =
        model::route_fingerprint(g, rs.scheme(), 0, threads);
    const std::uint64_t b = model::route_fingerprint(g, *fresh, 0, threads);
    if (a != b) {
      return {false, "tz: route fingerprints diverge from the fresh build"};
    }
    return {true, ""};
  }
  return {false, "unknown repairable kind: " + kind};
}

}  // namespace optrt::schemes
