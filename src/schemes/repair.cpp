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
    : d_(g), region_mark_(g.node_count(), 0), queue_(g.node_count()) {}

bool DynamicDistances::connected() const noexcept {
  if (node_count() == 0) return true;
  const auto row = d_.row(0);
  return std::find(row.begin(), row.end(), graph::kUnreachable) == row.end();
}

DynamicDistances::Delta DynamicDistances::apply(const graph::Graph& g_new,
                                                NodeId u, NodeId v, bool up) {
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
        if (far_row[t] == graph::kUnreachable) continue;
        const std::uint32_t via = d_near + 1 + far_row[t];
        if (via < row[t]) {
          delta.entries.push_back({s, t, row[t]});
          row[t] = via;
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
  // rewritten. Each repair then reads and writes its own row only.
  std::vector<NodeId> fars;
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
      fars.push_back(far);
    }
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    repair_row(g_new, rows[i], fars[i], delta);
  }
  delta.rows_bfs = rows.size();
  return delta;
}

void DynamicDistances::repair_row(const graph::Graph& g_new, NodeId s,
                                  NodeId far, Delta& delta) {
  const auto row = d_.mutable_row(s);
  if (++stamp_ == 0) {  // wrapped: no mark may survive from an old row
    std::fill(region_mark_.begin(), region_mark_.end(), 0);
    stamp_ = 1;
  }
  const std::uint32_t stamp = stamp_;
  auto in_region = [&](NodeId x) { return region_mark_[x] == stamp; };
  // 1. The affected region: the nodes whose every BFS parent from s is
  //    affected. `far` has none left; below it, level by level, a child y
  //    of an affected node joins iff no unaffected parent remains. The
  //    FIFO holds whole levels in order, so a level is complete before the
  //    next one is tested. Exactly these nodes get farther from s.
  region_.assign(1, far);
  region_mark_[far] = stamp;
  for (std::size_t i = 0; i < region_.size(); ++i) {
    const std::uint32_t child_level = row[region_[i]] + 1;
    for (NodeId y : g_new.neighbors(region_[i])) {
      if (row[y] != child_level || in_region(y)) continue;
      const auto parents = g_new.neighbors(y);
      // An unreachable w never matches: kUnreachable + 1 wraps to 0.
      if (std::all_of(parents.begin(), parents.end(), [&](NodeId w) {
            return row[w] + 1 != child_level || in_region(w);
          })) {
        region_mark_[y] = stamp;
        region_.push_back(y);
      }
    }
  }
  // 2. Re-seed each affected node from its unaffected neighbours, whose
  //    distances stand, recording the old value of every entry: each one
  //    changes, since an affected node strictly recedes.
  const std::size_t first_entry = delta.entries.size();
  seeds_.clear();
  for (NodeId x : region_) {
    delta.entries.push_back({s, x, row[x]});
    std::uint32_t key = graph::kUnreachable;
    for (NodeId w : g_new.neighbors(x)) {
      if (!in_region(w) && row[w] != graph::kUnreachable) {
        key = std::min(key, row[w] + 1);
      }
    }
    row[x] = key;
    if (key != graph::kUnreachable) seeds_.emplace_back(key, x);
  }
  // 3. Settle the keys inside the region in increasing order. With unit
  //    weights the queue is the sorted seeds merged with a FIFO, whose
  //    keys never decrease: a bucket queue with one live bucket at a time.
  //    A settled node leaves the region mark; nodes never reached stay
  //    unreachable (the deletion disconnected them from s).
  std::sort(seeds_.begin(), seeds_.end());
  std::size_t next_seed = 0;
  std::size_t head = 0;
  std::size_t tail = 0;
  while (next_seed < seeds_.size() || head < tail) {
    NodeId x;
    if (head < tail && (next_seed == seeds_.size() ||
                        row[queue_[head]] <= seeds_[next_seed].first)) {
      x = queue_[head++];
    } else {
      x = seeds_[next_seed++].second;
    }
    if (!in_region(x)) continue;  // already settled through a smaller key
    region_mark_[x] = stamp - 1;
    const std::uint32_t next = row[x] + 1;
    for (NodeId y : g_new.neighbors(x)) {
      if (in_region(y) && next < row[y]) {
        row[y] = next;
        queue_[tail++] = y;
      }
    }
  }
  std::sort(delta.entries.begin() + static_cast<std::ptrdiff_t>(first_entry),
            delta.entries.end(),
            [](const Entry& a, const Entry& b) { return a.t < b.t; });
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
  std::vector<bitio::BitVector> tables(n);
  for (NodeId u = 0; u < n; ++u) {
    tables[u] = full_table_node_bits(live_, dist_.matrix(), identity_, u);
  }
  scheme_ = std::make_unique<FullTableScheme>(
      live_, graph::PortAssignment::sorted(live_), identity_,
      model::kIAalpha, std::move(tables));
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
  const DynamicDistances::Delta delta =
      dist_.apply(live_, event.u, event.v, event.up);
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
  std::vector<bitio::BitVector> tables(dirty.size());
  for (std::size_t i = 0; i < dirty.size(); ++i) {
    tables[i] =
        full_table_node_bits(live_, dist_.matrix(), identity_, dirty[i]);
  }
  const NodeId ends[] = {event.u, event.v};
  scheme_->patch(live_, ends, dirty, std::move(tables));
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
    : RepairableBase(base, config),
      options_(options),
      dist_(base),
      clusters_(base.node_count()),
      flag_(base.node_count(), 0),
      seen_(base.node_count(), 0) {
  if (!dist_.connected()) {
    throw SchemeInapplicable("RepairableTz: base graph disconnected");
  }
  landmarks_ = tz_sample_landmarks(live_, options_);
  rebuild_all();
}

void RepairableTz::rebuild_all() {
  const std::size_t n = live_.node_count();
  const graph::DistanceMatrix& dist = dist_.matrix();
  is_landmark_.assign(n, 0);
  for (NodeId l : landmarks_) is_landmark_[l] = 1;
  dva_ = tz_landmark_distances(live_, landmarks_);
  dva_old_ = dva_;
  std::vector<bitio::BitVector> bits(n);
  for (NodeId w = 0; w < n; ++w) {
    bits[w] = tz_build_node_bits(live_, dist, landmarks_, dva_, w, clusters_);
  }
  scheme_ =
      std::make_unique<TzScheme>(live_, landmarks_, std::move(bits), dist);
  stats_.tables_touched += n;
}

std::vector<NodeId> RepairableTz::dirty_nodes(
    const model::TopologyEvent& event, const DynamicDistances::Delta& delta) {
  const graph::DistanceMatrix& dist = dist_.matrix();
  // d(t, A) = min over l ∈ A of d(l, t), so it can move only for a t with
  // a changed entry in some landmark row.
  std::vector<NodeId> dva_moved;
  std::vector<NodeId> tried;
  for (const DynamicDistances::Entry& e : delta.entries) {
    if (!is_landmark_[e.s] || seen_[e.t]) continue;
    seen_[e.t] = 1;
    tried.push_back(e.t);
    std::uint32_t d = graph::kUnreachable;
    for (NodeId l : landmarks_) d = std::min(d, dist.at(e.t, l));
    if (d != dva_[e.t]) {
      dva_[e.t] = d;
      dva_moved.push_back(e.t);
    }
  }
  for (NodeId t : tried) seen_[t] = 0;

  std::vector<NodeId> dirty;
  auto mark = [&](NodeId w) {
    if (!flag_[w]) {
      flag_[w] = 1;
      dirty.push_back(w);
    }
  };
  auto in_cluster = [&](NodeId w, NodeId t) {  // t ∈ C_new(w)
    return w != t && dist.at(w, t) < dva_[t];
  };
  // Both endpoints renumber their ports.
  mark(event.u);
  mark(event.v);
  // A changed entry (a, t) reaches a's table through its landmark port
  // (t ∈ A) or its cluster entry for t, before or after; and the table of
  // each neighbour x of a, whose first hop toward t reads d(a, t), where
  // x has a port toward t now (t ∈ A or t ∈ C_new(x)). A t that left
  // C(x) changed d(x, t) or d(t, A): its own entry or the flip test below
  // covers it.
  for (const DynamicDistances::Entry& e : delta.entries) {
    const bool landmark = is_landmark_[e.t] != 0;
    if (landmark || e.old < dva_old_[e.t] || in_cluster(e.s, e.t)) {
      mark(e.s);
    }
    for (NodeId x : live_.neighbors(e.s)) {
      if (landmark || in_cluster(x, e.t)) mark(x);
    }
  }
  // A moved d(t, A) flips t's membership in C(w) for every w with
  // d(w, t) between its old and new value: the ball of radius hi − 1
  // around t, searched through its own nodes only (a shortest path to a
  // ball node stays in the ball).
  for (NodeId t : dva_moved) {
    const std::uint32_t lo = std::min(dva_old_[t], dva_[t]);
    const std::uint32_t hi = std::max(dva_old_[t], dva_[t]);
    dva_old_[t] = dva_[t];
    const auto row = dist.row(t);
    queue_.assign(1, t);
    seen_[t] = 1;
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      const NodeId y = queue_[i];
      if (row[y] >= lo && y != t) mark(y);
      if (row[y] + 1 >= hi) continue;
      for (NodeId z : live_.neighbors(y)) {
        if (!seen_[z] && row[z] < hi) {
          seen_[z] = 1;
          queue_.push_back(z);
        }
      }
    }
    for (NodeId y : queue_) seen_[y] = 0;
  }
  for (NodeId w : dirty) flag_[w] = 0;
  std::sort(dirty.begin(), dirty.end());
  return dirty;
}

std::vector<NodeId> RepairableTz::relabel_nodes(
    const model::TopologyEvent& event,
    const DynamicDistances::Delta& delta) const {
  // l(v) and the exit port at l(v) read column v only, and the exit port
  // also l(v)'s neighbour ranks, which move only at a landmark endpoint.
  std::vector<NodeId> relabel = delta.changed_rows;
  if (is_landmark_[event.u] || is_landmark_[event.v]) {
    for (NodeId y = 0; y < live_.node_count(); ++y) {
      const NodeId l = scheme_->landmark_of(y);
      if (l == event.u || l == event.v) relabel.push_back(y);
    }
    std::sort(relabel.begin(), relabel.end());
    relabel.erase(std::unique(relabel.begin(), relabel.end()), relabel.end());
  }
  return relabel;
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
    landmarks_ = tz_sample_landmarks(live_, options_);
    rebuild_all();
    available_ = true;
    ++stats_.rebuilt;
    return model::RepairOutcome::kRebuilt;
  }
  const DynamicDistances::Delta delta =
      dist_.apply(live_, event.u, event.v, event.up);
  stats_.dist_rows_bfs += delta.rows_bfs;
  stats_.dist_rows_patched += delta.rows_patched;
  if (!dist_.connected()) {
    // Fresh TZ construction throws on disconnected graphs; mirror it.
    available_ = false;
    ++stats_.inapplicable;
    return model::RepairOutcome::kInapplicable;
  }
  // Replay the seeded election on the new topology — the same draws a
  // fresh build would make. A changed electorate (or recovery from a
  // stale period) rebuilds every table, still without any all-pairs BFS:
  // the matrix is already exact.
  std::vector<NodeId> elected = tz_sample_landmarks(live_, options_);
  if (!available_ || elected != landmarks_) {
    landmarks_ = std::move(elected);
    rebuild_all();
    available_ = true;
    ++stats_.rebuilt;
    return model::RepairOutcome::kRebuilt;
  }
  const std::vector<NodeId> dirty = dirty_nodes(event, delta);
  if (static_cast<double>(dirty.size()) >
      config_.rebuild_fraction * static_cast<double>(n)) {
    rebuild_all();
    ++stats_.rebuilt;
    return model::RepairOutcome::kRebuilt;
  }
  const graph::DistanceMatrix& dist = dist_.matrix();
  std::vector<bitio::BitVector> bits(dirty.size());
  for (std::size_t i = 0; i < dirty.size(); ++i) {
    bits[i] =
        tz_build_node_bits(live_, dist, landmarks_, dva_, dirty[i], clusters_);
  }
  scheme_->patch(live_, dist, dirty, std::move(bits),
                 relabel_nodes(event, delta));
  stats_.tables_touched += dirty.size();
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
    const auto* repaired = dynamic_cast<const TzScheme*>(&rs.scheme());
    if (repaired == nullptr) return {false, "tz: wrong scheme type"};
    if (repaired->landmarks() != fresh->landmarks()) {
      return {false, "tz: landmark set diverges from the fresh build"};
    }
    const RepairMatch bits = compare_bits(
        kind, g.node_count(),
        [&](NodeId u) -> const bitio::BitVector& {
          return repaired->function_bits(u);
        },
        [&](NodeId u) -> const bitio::BitVector& {
          return fresh->function_bits(u);
        });
    if (!bits.match) return bits;
    // The label parts (l(v), exit port) are not in the bits; the route
    // fingerprint covers them.
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
