// Live-churn robustness (ROADMAP item 5a): churn-plan determinism and
// grammar, connectivity preservation, the incremental-repair differential
// oracle — after every quiesce point of a seeded churn stream the
// repaired scheme must equal a fresh centralized build, bit-identical
// tables for full-table/compact-diam2 and route-fingerprint-identical for
// TZ, at 1, 2, and 8 threads — plus staleness-window pins and the
// incremental-vs-force-rebuild work accounting bench_churn relies on.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/optrt.hpp"
#include "net/churn.hpp"
#include "schemes/errors.hpp"
#include "schemes/repair.hpp"

namespace optrt {
namespace {

using graph::Graph;
using graph::NodeId;
using graph::TopologyFamily;

/// First seed ≥ base whose family member is connected (deterministic).
Graph connected_member(const TopologyFamily& family, std::size_t n,
                       std::uint64_t base) {
  for (std::uint64_t seed = base;; ++seed) {
    Graph g = family.make(n, seed);
    if (graph::is_connected(g)) return g;
  }
}

// --- Spec grammar ---------------------------------------------------------

TEST(ChurnOptions, ParsesTheSpecGrammar) {
  const net::ChurnOptions a = net::ChurnOptions::parse("uniform");
  EXPECT_EQ(a.model, net::FaultModel::kUniform);
  EXPECT_EQ(a.events, 32u);  // defaults untouched
  EXPECT_EQ(a.mean_gap, 4u);
  EXPECT_EQ(a.quiesce_every, 8u);

  const net::ChurnOptions b = net::ChurnOptions::parse("targeted:16");
  EXPECT_EQ(b.model, net::FaultModel::kTargeted);
  EXPECT_EQ(b.events, 16u);

  const net::ChurnOptions c = net::ChurnOptions::parse("partition:24,2,6");
  EXPECT_EQ(c.model, net::FaultModel::kPartition);
  EXPECT_EQ(c.events, 24u);
  EXPECT_EQ(c.mean_gap, 2u);
  EXPECT_EQ(c.quiesce_every, 6u);
  EXPECT_EQ(c.name(), "partition:24,2,6");

  const net::ChurnOptions d = net::ChurnOptions::parse("nodes:8,1");
  EXPECT_EQ(d.model, net::FaultModel::kNodes);
  EXPECT_EQ(d.mean_gap, 1u);

  // parse(name()) round-trips the spec-carried fields.
  const net::ChurnOptions e = net::ChurnOptions::parse(c.name());
  EXPECT_EQ(e.model, c.model);
  EXPECT_EQ(e.events, c.events);
  EXPECT_EQ(e.mean_gap, c.mean_gap);
  EXPECT_EQ(e.quiesce_every, c.quiesce_every);

  for (const char* bad :
       {"", "bogus", "uniform:", "uniform:0", "uniform:8,0", "uniform:8,2,0",
        "uniform:8,2,3,4", "uniform:x", "targeted:8,two"}) {
    EXPECT_THROW(net::ChurnOptions::parse(bad), std::invalid_argument)
        << "spec '" << bad << "' should not parse";
  }
}

// --- Plan generation ------------------------------------------------------

TEST(ChurnPlan, SameSeedSamePlanDifferentSeedDifferentPlan) {
  const Graph g = connected_member(TopologyFamily::uniform(), 24, 5);
  net::ChurnOptions opt;
  opt.seed = 7;
  opt.events = 32;
  const net::ChurnPlan a = net::make_churn_plan(g, opt);
  const net::ChurnPlan b = net::make_churn_plan(g, opt);
  EXPECT_EQ(a.plan, b.plan);
  EXPECT_EQ(a.quiesce_after, b.quiesce_after);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());

  opt.seed = 8;
  const net::ChurnPlan c = net::make_churn_plan(g, opt);
  EXPECT_NE(a.fingerprint(), c.fingerprint());
}

TEST(ChurnPlan, QuiesceIndicesEveryKthAndAlwaysTheLast) {
  const Graph g = connected_member(TopologyFamily::uniform(), 20, 3);
  net::ChurnOptions opt;
  opt.events = 10;
  opt.quiesce_every = 4;
  const net::ChurnPlan plan = net::make_churn_plan(g, opt);
  EXPECT_EQ(plan.plan.size(), 10u);
  EXPECT_EQ(plan.quiesce_after, (std::vector<std::size_t>{3, 7, 9}));
}

TEST(ChurnPlan, PreservesConnectivityUnderLinkChurn) {
  // Replay each model's plan through LiveTopology: with preservation on,
  // the live graph must stay connected after every single event.
  for (const net::FaultModel model :
       {net::FaultModel::kUniform, net::FaultModel::kTargeted,
        net::FaultModel::kPartition}) {
    const Graph g = connected_member(TopologyFamily::ring(), 16, 1);
    net::ChurnOptions opt;
    opt.model = model;
    opt.events = 24;
    opt.mean_gap = 1;
    const net::ChurnPlan plan = net::make_churn_plan(g, opt);
    net::LiveTopology live(g);
    std::size_t i = 0;
    for (const net::FaultEvent& e : plan.plan.events()) {
      live.apply(e);
      EXPECT_TRUE(graph::is_connected(live.live_graph()))
          << net::to_string(model) << " event " << i;
      ++i;
    }
  }
}

TEST(ChurnPlan, EventTimesAreStrictlyIncreasing) {
  const Graph g = connected_member(TopologyFamily::uniform(), 20, 2);
  net::ChurnOptions opt;
  opt.events = 40;
  opt.mean_gap = 3;
  const net::ChurnPlan plan = net::make_churn_plan(g, opt);
  std::uint64_t prev = 0;
  for (const net::FaultEvent& e : plan.plan.events()) {
    EXPECT_GT(e.time, prev);  // gaps are drawn from [1, 2·mean_gap]
    EXPECT_LE(e.time - prev, 2 * opt.mean_gap);
    prev = e.time;
  }
}

// --- The differential oracle (the tentpole's acceptance criterion) --------

struct OracleCase {
  const char* family;
  std::size_t n;
  const char* kind;
};

TEST(ChurnOracle, RepairedMatchesFreshAfterEveryQuiescePoint) {
  // Four topology families, all three repairable kinds where applicable,
  // at 1, 2, and 8 oracle threads: every quiesce point must certify and
  // the whole deterministic report must be thread-count invariant.
  const OracleCase cases[] = {
      {"uniform", 20, "full-table"},  {"uniform", 20, "compact-diam2"},
      {"uniform", 20, "tz"},          {"ba:2", 20, "full-table"},
      {"ba:2", 20, "tz"},             {"grid", 16, "full-table"},
      {"grid", 16, "tz"},             {"ring", 12, "full-table"},
      {"ring", 12, "tz"},
  };
  for (const OracleCase& c : cases) {
    SCOPED_TRACE(std::string(c.family) + "/" + c.kind);
    const Graph g =
        connected_member(TopologyFamily::parse(c.family), c.n, 11);
    net::ChurnOptions copt;
    copt.seed = 23;
    copt.events = 16;
    copt.mean_gap = 2;
    copt.quiesce_every = 4;
    const net::ChurnPlan plan = net::make_churn_plan(g, copt);

    std::vector<net::ChurnReport> reports;
    for (const std::size_t threads : {1u, 2u, 8u}) {
      auto rs = schemes::make_repairable(c.kind, g, 9);
      net::ChurnSessionConfig cfg;
      cfg.threads = threads;
      cfg.messages = 32;
      const net::ChurnReport r = net::run_churn_session(*rs, plan, cfg);
      EXPECT_EQ(r.quiesce_mismatches, 0u)
          << "threads=" << threads << ": " << r.first_mismatch;
      EXPECT_NE(r.status, net::ChurnStatus::kMismatch);
      EXPECT_GE(r.quiesce_points, 4u);
      reports.push_back(r);
    }
    // Thread-count invariance of every deterministic field.
    for (std::size_t i = 1; i < reports.size(); ++i) {
      EXPECT_EQ(reports[i].traffic.delivered, reports[0].traffic.delivered);
      EXPECT_EQ(reports[i].traffic.total_hops, reports[0].traffic.total_hops);
      EXPECT_EQ(reports[i].stale_sent, reports[0].stale_sent);
      EXPECT_EQ(reports[i].deltas_applied, reports[0].deltas_applied);
      EXPECT_EQ(reports[i].repair.work(), reports[0].repair.work());
      EXPECT_EQ(reports[i].status, reports[0].status);
    }
  }
}

TEST(ChurnOracle, SingleEventRepairsAreExact) {
  // One fail then one repair of the same link, oracle after each — the
  // smallest possible churn stream, per repairable kind.
  const Graph g = connected_member(TopologyFamily::uniform(), 16, 3);
  for (const char* kind : {"full-table", "compact-diam2", "tz"}) {
    SCOPED_TRACE(kind);
    auto rs = schemes::make_repairable(kind, g, 5);
    // Pick a non-bridge edge deterministically: first edge whose removal
    // keeps the graph connected.
    const auto edges = net::edge_list(g);
    model::TopologyEvent down;
    for (const auto& [u, v] : edges) {
      Graph h(g.node_count());
      for (const auto& [a, b] : edges) {
        if (std::pair(a, b) != std::pair(u, v)) h.add_edge(a, b);
      }
      if (graph::is_connected(h)) {
        down = {u, v, false};
        break;
      }
    }
    // The oracle covers every outcome: a patched/rebuilt scheme must be
    // bit-identical (fingerprint-identical for TZ) to a fresh build, and
    // an inapplicable one must have fresh-build parity.
    rs->apply_event(down);
    schemes::RepairMatch m = schemes::repaired_matches_fresh(*rs);
    EXPECT_TRUE(m.match) << m.detail;

    const model::TopologyEvent up{down.u, down.v, true};
    rs->apply_event(up);
    EXPECT_TRUE(rs->available());  // the original topology is back
    m = schemes::repaired_matches_fresh(*rs);
    EXPECT_TRUE(m.match) << m.detail;
  }
}

TEST(ChurnOracle, GridDeletionPatchesOnlyTheDirtyTables) {
  // On a bipartite grid every source sees the two endpoints of any link on
  // consecutive BFS levels, yet only the sources whose deeper endpoint had
  // the link as its one shortest-path parent change. A full-table repair
  // of one deletion must therefore patch, touching fewer than n tables
  // and re-running fewer than n distance rows, and still match a fresh
  // build.
  const Graph g = TopologyFamily::grid().make(256, 0);
  const std::size_t n = g.node_count();
  auto rs = schemes::make_repairable("full-table", g, 1);
  const NodeId a = 7 * 16 + 7;  // an interior link of the 16×16 grid
  ASSERT_TRUE(g.has_edge(a, a + 1));
  EXPECT_EQ(rs->apply_event({a, a + 1, false}),
            model::RepairOutcome::kPatched);
  EXPECT_LT(rs->stats().tables_touched, n);
  EXPECT_LT(rs->stats().dist_rows_bfs, n);
  EXPECT_EQ(rs->stats().rebuilt, 0u);
  const schemes::RepairMatch m = schemes::repaired_matches_fresh(*rs);
  EXPECT_TRUE(m.match) << m.detail;
}

/// Every part of a TzScheme a fresh build fixes — landmarks, table bits,
/// and per destination l(v), the exit port and the bunch size — must equal
/// the fresh build on the repairable's topology; where no fresh build
/// exists the repairable must be stale.
void expect_tz_equals_fresh(const model::RepairableScheme& rs,
                            std::uint64_t seed, const std::string& where) {
  const Graph& g = rs.topology();
  if (!graph::is_connected(g)) {
    EXPECT_FALSE(rs.available()) << where;
    return;
  }
  ASSERT_TRUE(rs.available()) << where;
  const auto& repaired = dynamic_cast<const schemes::TzScheme&>(rs.scheme());
  const schemes::TzScheme fresh(g, {.seed = seed});
  ASSERT_EQ(repaired.landmarks(), fresh.landmarks()) << where;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    ASSERT_TRUE(repaired.function_bits(v) == fresh.function_bits(v))
        << where << ": table of " << v;
    ASSERT_EQ(repaired.landmark_of(v), fresh.landmark_of(v))
        << where << ": l(" << v << ")";
    ASSERT_EQ(repaired.exit_port(v), fresh.exit_port(v))
        << where << ": exit port of " << v;
    ASSERT_EQ(repaired.bunch_size(v), fresh.bunch_size(v))
        << where << ": bunch of " << v;
  }
}

/// Every next hop a FastPath answers, over the full pair space.
std::vector<NodeId> all_hops(const model::FastPath& fast) {
  std::vector<NodeId> hops;
  for (NodeId u = 0; u < fast.node_count(); ++u) {
    for (NodeId v = 0; v < fast.node_count(); ++v) {
      if (u != v) hops.push_back(fast.next_hop(u, v));
    }
  }
  return hops;
}

TEST(ChurnOracle, TzPatchEqualsAFreshSchemeAfterEveryEvent) {
  // Seeded link deletions and insertions of arbitrary non-edges, checked
  // after every single event rather than at quiesce points. A deletion
  // that disconnects the graph is undone by the next event, so the
  // stale-and-recover path runs too. Every fourth event
  // also compiles a FastPath first: the patch must leave the tables that
  // FastPath shares as they were.
  // The small grids, under several elections, are where a member most
  // often leaves a cluster with no other changed entry touching the table.
  struct Case {
    const char* family;
    std::size_t n;
    std::uint64_t seed;
    std::size_t min_patched;
  };
  std::vector<Case> cases = {
      {"ba:2", 256, 5, 24}, {"grid", 256, 5, 24}, {"uniform", 96, 5, 24}};
  for (std::uint64_t seed = 11; seed <= 16; ++seed) {
    cases.push_back({"grid", 36, seed, 12});
  }
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.family) + " n=" + std::to_string(c.n) +
                 " seed=" + std::to_string(c.seed));
    const std::uint64_t seed = c.seed;
    Graph g = connected_member(TopologyFamily::parse(c.family), c.n, seed);
    auto rs = schemes::make_repairable("tz", g, seed);
    graph::Rng rng(c.n + seed);
    std::uniform_int_distribution<NodeId> node(
        0, static_cast<NodeId>(c.n - 1));
    std::size_t deletions = 0;
    std::size_t insertions = 0;
    std::size_t patched = 0;
    std::size_t disconnections = 0;
    std::optional<model::TopologyEvent> reconnect;
    for (int step = 0; step < 72; ++step) {
      model::TopologyEvent e;
      if (reconnect) {
        e = *reconnect;  // undo the one disconnecting deletion
        reconnect.reset();
      } else if (rng() % 2 == 0) {
        NodeId u;
        do {
          u = node(rng);
        } while (g.degree(u) == 0);
        e = {u, g.neighbors(u)[rng() % g.degree(u)], false};
      } else {
        do {
          e = {node(rng), node(rng), true};
        } while (e.u == e.v || g.has_edge(e.u, e.v));
      }
      if (e.up) {
        g.add_edge(e.u, e.v);
        ++insertions;
      } else {
        g.remove_edge(e.u, e.v);
        ++deletions;
        if (!graph::is_connected(g)) {
          ++disconnections;
          reconnect = model::TopologyEvent{e.u, e.v, true};
        }
      }
      std::unique_ptr<model::FastPath> fast;
      std::vector<NodeId> hops_before;
      if (step % 4 == 0 && rs->available()) {
        fast = rs->scheme().compile_fast();
        hops_before = all_hops(*fast);
      }
      const std::string where = "step " + std::to_string(step) +
                                (e.up ? " insert " : " delete ") +
                                std::to_string(e.u) + "-" +
                                std::to_string(e.v);
      if (rs->apply_event(e) == model::RepairOutcome::kPatched) ++patched;
      if (fast) EXPECT_EQ(all_hops(*fast), hops_before) << where;
      expect_tz_equals_fresh(*rs, seed, where);
      if (HasFatalFailure()) return;
    }
    EXPECT_GT(deletions, 24u);
    EXPECT_GT(insertions, 24u);
    EXPECT_GE(patched, c.min_patched) << "disconnections " << disconnections;
  }
}

// --- Staleness ------------------------------------------------------------

TEST(ChurnSession, RepairLagWidensTheStalenessWindow) {
  const Graph g = connected_member(TopologyFamily::uniform(), 20, 7);
  net::ChurnOptions copt;
  copt.events = 16;
  copt.mean_gap = 2;
  const net::ChurnPlan plan = net::make_churn_plan(g, copt);

  std::vector<std::size_t> stale;
  for (const std::uint64_t lag : {std::uint64_t{0}, std::uint64_t{8}}) {
    auto rs = schemes::make_repairable("full-table", g, 1);
    net::ChurnSessionConfig cfg;
    cfg.repair_lag = lag;
    cfg.messages = 200;
    cfg.verify_at_quiesce = false;
    const net::ChurnReport r = net::run_churn_session(*rs, plan, cfg);
    EXPECT_EQ(r.status, net::ChurnStatus::kUnverified);
    EXPECT_EQ(r.traffic.sent, 200u);  // every message resolves eventually
    stale.push_back(r.stale_sent);
  }
  EXPECT_GE(stale[1], stale[0]);
  EXPECT_GT(stale[1], 0u);  // a long lag must catch some traffic stale
}

TEST(ChurnSession, ReportIsDeterministicAcrossRuns) {
  const Graph g = connected_member(TopologyFamily::parse("ba:2"), 18, 2);
  net::ChurnOptions copt;
  copt.events = 12;
  const net::ChurnPlan plan = net::make_churn_plan(g, copt);
  net::ChurnSessionConfig cfg;
  cfg.messages = 64;
  auto run = [&] {
    auto rs = schemes::make_repairable("tz", g, 3);
    return net::run_churn_session(*rs, plan, cfg);
  };
  const net::ChurnReport a = run();
  const net::ChurnReport b = run();
  EXPECT_EQ(a.traffic.delivered, b.traffic.delivered);
  EXPECT_EQ(a.traffic.total_hops, b.traffic.total_hops);
  EXPECT_EQ(a.traffic.makespan, b.traffic.makespan);
  EXPECT_EQ(a.stale_sent, b.stale_sent);
  EXPECT_EQ(a.repair.work(), b.repair.work());
  EXPECT_EQ(a.quiesce_points, b.quiesce_points);
  EXPECT_EQ(a.status, b.status);
}

// --- Work accounting ------------------------------------------------------

TEST(ChurnWork, IncrementalBeatsForceRebuildOnSparseFamilies) {
  // The bench_churn acceptance claim, pinned as a test: on at least the
  // sparse families, the incremental repair stream does strictly less
  // total work (tables + distance rows) than rebuild-everything-always.
  for (const char* family : {"ba:2", "ring"}) {
    SCOPED_TRACE(family);
    const Graph g = connected_member(TopologyFamily::parse(family), 24, 4);
    net::ChurnOptions copt;
    copt.events = 24;
    copt.mean_gap = 2;
    const net::ChurnPlan plan = net::make_churn_plan(g, copt);

    std::vector<std::uint64_t> work;
    for (const bool force : {false, true}) {
      auto rs = schemes::make_repairable("full-table", g, 1,
                                         {.force_rebuild = force});
      net::ChurnSessionConfig cfg;
      cfg.messages = 16;
      const net::ChurnReport r = net::run_churn_session(*rs, plan, cfg);
      EXPECT_EQ(r.quiesce_mismatches, 0u) << r.first_mismatch;
      work.push_back(r.repair.work());
    }
    EXPECT_LT(work[0], work[1])
        << "incremental=" << work[0] << " force=" << work[1];
  }
}

TEST(ChurnWork, ForceRebuildCountsEveryEventAsRebuilt) {
  const Graph g = connected_member(TopologyFamily::uniform(), 16, 9);
  net::ChurnOptions copt;
  copt.events = 8;
  const net::ChurnPlan plan = net::make_churn_plan(g, copt);
  auto rs =
      schemes::make_repairable("full-table", g, 1, {.force_rebuild = true});
  const net::ChurnReport r = net::run_churn_session(*rs, plan, {});
  EXPECT_EQ(r.repair.rebuilt, r.repair.events);
  EXPECT_EQ(r.repair.patched, 0u);
  EXPECT_EQ(r.repair.noops, 0u);
}

// --- Repairable surface edge cases ----------------------------------------

TEST(Repairable, UnknownKindThrows) {
  const Graph g = connected_member(TopologyFamily::uniform(), 12, 1);
  EXPECT_THROW(schemes::make_repairable("interval", g, 1),
               std::invalid_argument);
}

TEST(Repairable, CompactGoesStaleAndRecovers) {
  // Drive compact-diam2 through node churn until it reports inapplicable
  // at least once, then repair everything: it must recover, and the
  // oracle must hold at the end.
  const Graph g = connected_member(TopologyFamily::uniform(), 14, 6);
  auto rs = schemes::make_repairable("compact-diam2", g, 1);
  net::LiveTopology live(g);
  // Fail node 0 — losing a whole star is the quickest way to break the
  // diam-2 neighbour-domination condition.
  std::vector<model::TopologyEvent> deltas =
      live.apply({1, net::FaultKind::kNodeFail, 0, 0});
  for (const auto& d : deltas) rs->apply_event(d);
  schemes::RepairMatch m = schemes::repaired_matches_fresh(*rs);
  EXPECT_TRUE(m.match) << m.detail;  // parity even when both inapplicable
  // Bring it back: available again and bit-identical to fresh.
  deltas = live.apply({2, net::FaultKind::kNodeRepair, 0, 0});
  for (const auto& d : deltas) rs->apply_event(d);
  EXPECT_TRUE(rs->available());
  m = schemes::repaired_matches_fresh(*rs);
  EXPECT_TRUE(m.match) << m.detail;
}

}  // namespace
}  // namespace optrt
