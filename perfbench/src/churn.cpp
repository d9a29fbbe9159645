// churn: the write path of the routing tables. Repairable full-table on a
// grid and tz on a ba:2 graph replay a seeded uniform link-churn plan
// through net::run_churn_session under background traffic. Timed sessions
// run with the differential oracle off; a forwarding wrapper times every
// apply_event — the time from a link delta to converged tables. A
// separate pass replays the first plan with the oracle on, where every
// quiesce point must match a fresh build.
#include <algorithm>

#include "graph/algorithms.hpp"
#include "net/churn.hpp"
#include "schemes/repair.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace optrt;

namespace {

constexpr std::uint64_t kStream = 3;

struct Cell {
  const char* family;
  const char* kind;
};
constexpr Cell kCells[] = {{"grid", "full-table"}, {"ba:2", "tz"}};

/// Forwards to a repairable scheme and times each apply_event.
class TimedRepairable final : public model::RepairableScheme {
 public:
  TimedRepairable(Context& ctx, std::unique_ptr<model::RepairableScheme> inner)
      : ctx_(ctx), inner_(std::move(inner)) {}

  [[nodiscard]] std::string kind_name() const override {
    return inner_->kind_name();
  }
  [[nodiscard]] const model::RoutingScheme& scheme() const override {
    return inner_->scheme();
  }
  [[nodiscard]] bool available() const override { return inner_->available(); }
  [[nodiscard]] const graph::Graph& topology() const override {
    return inner_->topology();
  }
  [[nodiscard]] const model::RepairStats& stats() const override {
    return inner_->stats();
  }
  model::RepairOutcome apply_event(const model::TopologyEvent& event) override {
    const auto span = ctx_.rec.span("schemes.repair." + inner_->kind_name());
    const auto start = Clock::now();
    const model::RepairOutcome outcome = inner_->apply_event(event);
    repair_ms.push_back(seconds_since(start) * 1e3);
    return outcome;
  }

  std::vector<double> repair_ms;

 private:
  Context& ctx_;
  std::unique_ptr<model::RepairableScheme> inner_;
};

/// One cell's inputs for one iteration.
struct Session {
  graph::Graph graph;
  net::ChurnPlan plan;
  std::uint64_t seed = 0;
};

struct Sizes {
  std::size_t n;
  std::size_t events;
  std::size_t messages;
};

Session make_session(Context& ctx, const Cell& cell, const Sizes& sizes,
                     std::uint64_t seed) {
  Session s{generate(ctx, cell.family, sizes.n, seed), {}, seed};
  net::ChurnOptions options;
  options.seed = seed;
  options.model = net::FaultModel::kUniform;
  options.events = sizes.events;
  options.mean_gap = 3;
  options.quiesce_every = 8;
  const auto span = ctx.rec.span("net.make_churn_plan");
  s.plan = net::make_churn_plan(s.graph, options);
  return s;
}

std::unique_ptr<TimedRepairable> make_timed(Context& ctx, const Cell& cell,
                                            const Session& s) {
  const auto span =
      ctx.rec.span(std::string("schemes.make_repairable.") + cell.kind, true);
  return std::make_unique<TimedRepairable>(
      ctx, schemes::make_repairable(cell.kind, s.graph, s.seed));
}

net::ChurnReport replay(Context& ctx, model::RepairableScheme& rs,
                        const Session& s, const Sizes& sizes, bool verify) {
  net::ChurnSessionConfig config;
  config.verify_at_quiesce = verify;
  config.messages = sizes.messages;
  config.traffic_seed = s.seed;
  const auto span = ctx.rec.span(verify ? "schemes.oracle_session"
                                        : "net.churn_session");
  return net::run_churn_session(rs, s.plan, config);
}

class ChurnPass final : public Pass {
 public:
  ChurnPass(Context& ctx, Size size)
      : ctx_(ctx),
        sizes_(size == Size::kFull ? Sizes{1024, 32, 4096}
                                   : Sizes{256, 16, 1024}),
        tag_(size == Size::kFull ? "churn" : "churn.small") {}

  /// One iteration: fresh graphs, plans and repairables (its set-up), then
  /// both sessions replayed with the oracle off.
  void step() override {
    const std::size_t it = iterations_++;
    const auto setup_start = Clock::now();
    std::vector<Session> sessions;
    std::vector<std::unique_ptr<TimedRepairable>> repairables;
    for (std::size_t c = 0; c < 2; ++c) {
      sessions.push_back(make_session(
          ctx_, kCells[c], sizes_, derive_seed(ctx_.seed, kStream, 2 * it + c)));
      repairables.push_back(make_timed(ctx_, kCells[c], sessions.back()));
    }
    setup_s_.push_back(seconds_since(setup_start));

    double total_s = 0.0;
    double total_other_s = 0.0;
    std::vector<double> step_repair_ms;
    for (std::size_t c = 0; c < 2; ++c) {
      TimedRepairable& rs = *repairables[c];
      const auto session_start = Clock::now();
      const net::ChurnReport report =
          replay(ctx_, rs, sessions[c], sizes_, false);
      const double wall = seconds_since(session_start);
      double repair_total_ms = 0.0;
      for (const double ms : rs.repair_ms) repair_total_ms += ms;
      total_s += wall;
      total_other_s += wall - repair_total_ms / 1e3;
      step_repair_ms.insert(step_repair_ms.end(), rs.repair_ms.begin(),
                            rs.repair_ms.end());
      kind_total_ms_[c].push_back(repair_total_ms);
      kind_repair_ms_[c].insert(kind_repair_ms_[c].end(), rs.repair_ms.begin(),
                                rs.repair_ms.end());
      ctx_.tally.check(report.status == net::ChurnStatus::kUnverified &&
                           report.deltas_applied == rs.repair_ms.size() &&
                           report.traffic.delivered > 0,
                       std::string(kCells[c].kind) + ": timed churn session");
      if (it == 0) {
        first_wall_s_[c] = wall;
        first_reports_.push_back(report);
      }
    }
    churn_s_.push_back(total_s);
    other_s_.push_back(total_other_s);
    for (const double ms : step_repair_ms) repair_total_ms_ += ms;
    repairs_ += step_repair_ms.size();
    repair_p95_ms_.push_back(quantile(step_repair_ms, 0.95));
    if (it == 0) first_ = std::move(sessions);
  }

  PassResult finish() override {
    // Repair times fall into clusters (patch or rebuild, full-table or
    // tz) whose shares vary with the plan, and a session pair's p50 lands
    // in whichever cluster holds its middle event: it jumps severalfold
    // between plans. So the typical repair is reported as the mean over
    // all events of the run, and the tail as the p95 of each session pair
    // (inside the rebuild cluster), averaged over pairs like churn_s.
    ctx_.e2e.set("churn_s", mean(churn_s_), "s");
    ctx_.e2e.set("repair_mean_ms",
                 repair_total_ms_ / static_cast<double>(repairs_), "ms");
    ctx_.e2e.set("repair_p95_ms", mean(repair_p95_ms_), "ms");
    ctx_.layer.set("net.churn.other_s", mean(other_s_), "s");
    double oracle_s = 0.0;
    for (std::size_t c = 0; c < 2; ++c) oracle_s += check_with_oracle(c);
    ctx_.layer.set("schemes.oracle_s", oracle_s, "s");
    // The oracle's fresh builds leave their distances in the global cache.
    graph::DistanceCache::global().clear();
    return {median(setup_s_), mean(churn_s_)};
  }

 private:
  /// Replays iteration 0's plan of cell `c` with every quiesce point
  /// checked against a fresh build; repair work must not depend on whether
  /// the oracle runs. Returns the oracle's own time.
  double check_with_oracle(std::size_t c) {
    const std::string kind = kCells[c].kind;
    const std::string key = tag_ + "." + kind;
    const Session& session = first_[c];
    // The oracle recognises the library's own repairable types, so this
    // pass replays the plan on an unwrapped one.
    std::unique_ptr<model::RepairableScheme> rs;
    {
      const auto span = ctx_.rec.span("schemes.make_repairable." + kind, true);
      rs = schemes::make_repairable(kind, session.graph, session.seed);
    }
    const auto start = Clock::now();
    const net::ChurnReport report = replay(ctx_, *rs, session, sizes_, true);
    // Same plan, same repairs as the timed iteration 0: the difference is
    // the oracle's own time.
    const double oracle_s =
        std::max(0.0, seconds_since(start) - first_wall_s_[c]);
    ctx_.tally.count(report.deltas_applied, report.quiesce_mismatches,
                     kind + ": quiesce check failed: " + report.first_mismatch);
    ctx_.tally.check(report.status == net::ChurnStatus::kCertified &&
                         report.quiesce_points > 0,
                     kind + ": oracle session not certified");
    const model::RepairStats& a = first_reports_[c].repair;
    const model::RepairStats& b = report.repair;
    ctx_.tally.check(a.patched == b.patched && a.rebuilt == b.rebuilt &&
                         a.noops == b.noops &&
                         a.tables_touched == b.tables_touched &&
                         a.dist_rows_bfs == b.dist_rows_bfs,
                     kind + ": repair work differs between timed and oracle runs");

    record_graph(ctx_, key, session.graph);
    ctx_.record.add(key + ".plan", session.plan.fingerprint());
    ctx_.record.add(key + ".deltas", report.deltas_applied);
    ctx_.record.add(key + ".quiesce_points", report.quiesce_points);
    ctx_.record.add(key + ".delivered", report.traffic.delivered);
    ctx_.record.add(key + ".total_hops", report.traffic.total_hops);
    const std::pair<const char*, std::uint64_t> counts[] = {
        {"patched", b.patched},
        {"rebuilt", b.rebuilt},
        {"tables_touched", b.tables_touched},
        {"dist_rows_bfs", b.dist_rows_bfs},
    };
    for (const auto& [name, value] : counts) {
      ctx_.record.add(key + "." + name, value);
      ctx_.layer.set(std::string("schemes.repair.") + name + "." + kind,
                     static_cast<double>(value), "count");
    }
    // Every link delta of these plans touches some table, so no-op
    // repairs are recorded but not reported: the count is always zero.
    ctx_.record.add(key + ".noops", b.noops);
    ctx_.layer.set("schemes.repair_ms." + kind, median(kind_total_ms_[c]),
                   "ms");
    ctx_.layer.set("schemes.repair_p50_ms." + kind,
                   median(kind_repair_ms_[c]), "ms");
    return oracle_s;
  }

  Context& ctx_;
  const Sizes sizes_;
  const std::string tag_;
  std::size_t iterations_ = 0;
  std::vector<double> setup_s_;
  std::vector<double> churn_s_;
  std::vector<double> other_s_;
  double repair_total_ms_ = 0.0;
  std::size_t repairs_ = 0;
  std::vector<double> repair_p95_ms_;
  std::vector<double> kind_total_ms_[2];
  std::vector<double> kind_repair_ms_[2];
  std::vector<Session> first_;  ///< iteration 0, for the oracle pass
  std::vector<net::ChurnReport> first_reports_;
  double first_wall_s_[2] = {0.0, 0.0};
};

}  // namespace

std::unique_ptr<Pass> make_churn(Context& ctx, Size size) {
  return std::make_unique<ChurnPass>(ctx, size);
}

}  // namespace perfbench
