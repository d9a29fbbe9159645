// simulate: the net event loop with per-hop next_hop decoding. tz on a
// ba:2 graph and compact-diam2 on a certified G(n,1/2) each carry rounds
// of seeded uniform messages through net::Simulator with the default
// SimulatorConfig (the CLI default). On a static topology every message
// must arrive.
#include <random>

#include "graph/algorithms.hpp"
#include "net/simulator.hpp"
#include "net/workload.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace optrt;

namespace {

constexpr std::uint64_t kStream = 4;

struct Cell {
  const char* family;
  const char* kind;
  std::size_t n_full;
  std::size_t n_small;
};
constexpr Cell kCells[] = {{"ba:2", "tz", 4096, 1024},
                           {"certified", "compact-diam2", 1024, 256}};

struct Network {
  std::unique_ptr<graph::Graph> graph;
  std::unique_ptr<model::RoutingScheme> scheme;
};

class SimulatePass final : public Pass {
 public:
  SimulatePass(Context& ctx, Size size)
      : ctx_(ctx),
        full_(size == Size::kFull),
        messages_(full_ ? 100000 : 25000),
        tag_(full_ ? "simulate" : "simulate.small") {}

  /// Repeated on fresh graphs. Every repetition's networks are kept and
  /// the rounds take turns among them, so one run's figure rests on
  /// several graphs drawn from its seed rather than on one.
  void set_up() override {
    const std::size_t reps = full_ ? 3 : 2;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      graph::DistanceCache::global().clear();
      const auto start = Clock::now();
      std::vector<Network> nets;
      for (std::size_t c = 0; c < 2; ++c) {
        const Cell& cell = kCells[c];
        Network net;
        net.graph = std::make_unique<graph::Graph>(
            generate(ctx_, cell.family, full_ ? cell.n_full : cell.n_small,
                     derive_seed(ctx_.seed, kStream, 2 * rep + c)));
        net.scheme = build_scheme(ctx_, cell.kind, *net.graph,
                                  derive_seed(ctx_.seed, kStream + 100, rep));
        nets.push_back(std::move(net));
      }
      setup_s_.push_back(seconds_since(start));
      sets_.push_back(std::move(nets));
    }
    hops_per_s_.resize(reps);
    graph::DistanceCache::global().clear();
  }

  /// One round: fresh uniform traffic through both networks of the set
  /// whose turn it is.
  void step() override {
    const std::size_t round = rounds_++;
    const std::size_t set = round % sets_.size();
    const std::vector<Network>& nets = sets_[set];
    std::uint64_t hops = 0;
    std::uint64_t delivered = 0;
    double round_send_s = 0.0;
    double round_run_s = 0.0;
    for (std::size_t c = 0; c < 2; ++c) {
      const Network& net = nets[c];
      const std::size_t n = net.graph->node_count();
      graph::Rng rng(derive_seed(ctx_.seed, kStream + 200, 2 * round + c));
      const auto traffic = net::uniform_random(n, messages_, rng);
      net::Simulator sim(*net.graph, *net.scheme);
      const auto send_start = Clock::now();
      {
        const auto span = ctx_.rec.span("net.simulator.send");
        for (const auto& [src, dst] : traffic) sim.send(src, dst);
      }
      round_send_s += seconds_since(send_start);
      const auto run_start = Clock::now();
      net::SimulationStats stats;
      {
        const auto span = ctx_.rec.span("net.simulator.run");
        stats = sim.run();
      }
      round_run_s += seconds_since(run_start);
      hops += stats.total_hops;
      delivered += stats.delivered;
      ctx_.tally.count(messages_, messages_ - stats.delivered,
                       std::string(kCells[c].kind) +
                           ": messages not delivered on a static topology");
      if (round == 0) {
        const std::string key = tag_ + "." + kCells[c].kind;
        ctx_.record.add(key + ".total_hops", stats.total_hops);
        ctx_.record.add(key + ".makespan", stats.makespan);
      }
    }
    if (round == 0) {
      ctx_.layer.set("net.simulator.hops", static_cast<double>(hops), "count");
      ctx_.layer.set("net.simulator.messages",
                     static_cast<double>(2 * messages_), "count");
      ctx_.layer.set("net.simulator.delivered", static_cast<double>(delivered),
                     "count");
    }
    hops_per_s_[set].push_back(static_cast<double>(hops) / round_run_s);
    send_s_.push_back(round_send_s);
    run_s_.push_back(round_run_s);
  }

  /// Median over each set's rounds, averaged over the sets: a median over
  /// all rounds would pick one set's rate, a different one in every run.
  PassResult finish() override {
    std::vector<double> per_set;
    for (const std::vector<double>& rates : hops_per_s_) {
      per_set.push_back(median(rates));
    }
    const double hops_per_s = mean(per_set);
    ctx_.e2e.set("sim_hops_per_s", hops_per_s, "1/s");
    ctx_.layer.set("net.simulator.send_s", median(send_s_), "s");
    ctx_.layer.set("net.simulator.run_s", median(run_s_), "s");
    for (std::size_t c = 0; c < 2; ++c) {
      const Network& net = sets_.front()[c];
      record_graph(ctx_, tag_ + "." + kCells[c].kind, *net.graph);
      measure_next_hop(ctx_, kCells[c].kind, *net.scheme, 20000,
                       derive_seed(ctx_.seed, kStream + 300, c));
    }
    sets_.clear();
    return {median(setup_s_), 1.0 / hops_per_s};
  }

 private:
  Context& ctx_;
  const bool full_;
  const std::size_t messages_;
  const std::string tag_;
  std::vector<std::vector<Network>> sets_;  ///< one per set-up repetition
  std::size_t rounds_ = 0;
  std::vector<double> setup_s_;
  std::vector<std::vector<double>> hops_per_s_;  ///< per set, per round
  std::vector<double> send_s_;
  std::vector<double> run_s_;
};

}  // namespace

std::unique_ptr<Pass> make_simulate(Context& ctx, Size size) {
  return std::make_unique<SimulatePass>(ctx, size);
}

}  // namespace perfbench
