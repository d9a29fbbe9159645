// Timing benchmarks (google-benchmark): scheme construction, per-hop
// routing-function evaluation, and simulator event throughput — the
// operational costs behind the space bounds.
#include <benchmark/benchmark.h>

#include <map>

#include "core/optrt.hpp"

namespace {

using namespace optrt;

const graph::Graph& shared_graph(std::size_t n) {
  static std::map<std::size_t, graph::Graph> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    graph::Rng rng(n + 1);
    it = cache.emplace(n, core::certified_random_graph(n, rng)).first;
  }
  return it->second;
}

void BM_BuildCompactScheme(benchmark::State& state) {
  const auto& g = shared_graph(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    schemes::CompactDiam2Scheme scheme(g, {});
    benchmark::DoNotOptimize(scheme.space().total_bits());
  }
}
BENCHMARK(BM_BuildCompactScheme)->Arg(64)->Arg(128)->Arg(256);

void BM_BuildFullTable(benchmark::State& state) {
  const auto& g = shared_graph(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto scheme = schemes::FullTableScheme::standard(g);
    benchmark::DoNotOptimize(scheme.space().total_bits());
  }
}
BENCHMARK(BM_BuildFullTable)->Arg(64)->Arg(128);

void BM_NextHopCompact(benchmark::State& state) {
  const auto& g = shared_graph(static_cast<std::size_t>(state.range(0)));
  const schemes::CompactDiam2Scheme scheme(g, {});
  model::MessageHeader h;
  graph::NodeId v = 1;
  for (auto _ : state) {
    v = v + 1 < g.node_count() ? v + 1 : 1;
    benchmark::DoNotOptimize(scheme.next_hop(0, v, h));
  }
}
BENCHMARK(BM_NextHopCompact)->Arg(128)->Arg(256);

void BM_NextHopFullTable(benchmark::State& state) {
  const auto& g = shared_graph(static_cast<std::size_t>(state.range(0)));
  const auto scheme = schemes::FullTableScheme::standard(g);
  model::MessageHeader h;
  graph::NodeId v = 1;
  for (auto _ : state) {
    v = v + 1 < g.node_count() ? v + 1 : 1;
    benchmark::DoNotOptimize(scheme.next_hop(0, v, h));
  }
}
BENCHMARK(BM_NextHopFullTable)->Arg(128)->Arg(256);

void BM_SimulatorAllPairs(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto& g = shared_graph(n);
  const schemes::CompactDiam2Scheme scheme(g, {});
  // Aggregate through the instrumentation the simulator already records
  // instead of a hand-rolled tally: the delta of the registry's counters
  // across the timed loop is exactly the benchmark's work.
  auto& reg = obs::MetricsRegistry::global();
  const std::uint64_t hops_before = reg.counter_value("sim.hops");
  const std::uint64_t delivered_before = reg.counter_value("sim.delivered");
  for (auto _ : state) {
    net::Simulator sim(g, scheme);
    for (const auto& [u, v] : net::all_pairs(n)) sim.send(u, v);
    const auto stats = sim.run();
    if (stats.dropped != 0) state.SkipWithError("dropped messages");
    benchmark::DoNotOptimize(stats.total_hops);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * (n - 1)));
  state.counters["hops"] = static_cast<double>(
      reg.counter_value("sim.hops") - hops_before);
  state.counters["delivered"] = static_cast<double>(
      reg.counter_value("sim.delivered") - delivered_before);
}
BENCHMARK(BM_SimulatorAllPairs)->Arg(64)->Arg(128);

void BM_VerifyScheme(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto& g = shared_graph(n);
  const schemes::CompactDiam2Scheme scheme(g, {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(model::verify_scheme(g, scheme).max_stretch);
  }
}
BENCHMARK(BM_VerifyScheme)->Arg(64)->Arg(128);

// All-pairs BFS on both sides of its path switch: `ba:2` runs 64 sources
// per word, `grid` gives up on that and runs one BFS per source. The
// counters report which path ran (per iteration).
void BM_DistanceMatrix(benchmark::State& state, const char* family) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const graph::Graph g = graph::TopologyFamily::parse(family).make(n, 1);
  auto& reg = obs::MetricsRegistry::global();
  const std::uint64_t batches_before =
      reg.counter_value("graph.apsp.bitparallel_batches");
  const std::uint64_t scalar_before =
      reg.counter_value("graph.apsp.scalar_sources");
  for (auto _ : state) {
    const graph::DistanceMatrix dist(g);
    benchmark::DoNotOptimize(dist.at(0, static_cast<graph::NodeId>(n - 1)));
  }
  const auto per_iteration = [&](const char* name, std::uint64_t before) {
    return benchmark::Counter(
        static_cast<double>(reg.counter_value(name) - before),
        benchmark::Counter::kAvgIterations);
  };
  state.counters["batches"] =
      per_iteration("graph.apsp.bitparallel_batches", batches_before);
  state.counters["scalar_sources"] =
      per_iteration("graph.apsp.scalar_sources", scalar_before);
}
BENCHMARK_CAPTURE(BM_DistanceMatrix, ba2, "ba:2")
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_DistanceMatrix, grid, "grid")
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
