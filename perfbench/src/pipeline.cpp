// Library calls shared by the workloads.
#include <random>
#include <stdexcept>

#include "core/experiment.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "schemes/serialization.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace optrt;

namespace {
/// Keeps timed lookup loops from being optimized away.
volatile std::uint64_t g_sink = 0;
}  // namespace

graph::Graph generate(Context& ctx, const std::string& family, std::size_t n,
                      std::uint64_t seed) {
  const auto span = ctx.rec.span("graph.generate");
  if (family == "certified") {
    graph::Rng rng(seed);
    return core::certified_random_graph(n, rng);
  }
  return graph::TopologyFamily::parse(family).make(n, seed);
}

std::unique_ptr<model::RoutingScheme> build_scheme(Context& ctx,
                                                   const std::string& kind,
                                                   const graph::Graph& g,
                                                   std::uint64_t seed) {
  const auto span = ctx.rec.span("schemes.build." + kind, true);
  if (kind == "full-table") {
    return std::make_unique<schemes::FullTableScheme>(
        schemes::FullTableScheme::standard(g));
  }
  if (kind == "tz") {
    return std::make_unique<schemes::TzScheme>(g,
                                               schemes::TzOptions{.seed = seed});
  }
  if (kind == "compact-diam2") {
    return std::make_unique<schemes::CompactDiam2Scheme>(
        g, schemes::CompactDiam2Scheme::Options{});
  }
  throw std::invalid_argument("unknown scheme kind " + kind);
}

bitio::BitVector serialize_any(const model::RoutingScheme& scheme) {
  if (const auto* s = dynamic_cast<const schemes::FullTableScheme*>(&scheme)) {
    return schemes::serialize(*s);
  }
  if (const auto* s = dynamic_cast<const schemes::TzScheme*>(&scheme)) {
    return schemes::serialize(*s);
  }
  if (const auto* s =
          dynamic_cast<const schemes::CompactDiam2Scheme*>(&scheme)) {
    return schemes::serialize(*s);
  }
  throw std::invalid_argument("no serializer for " + scheme.name());
}

bitio::BitVector serialize_scheme(Context& ctx, const std::string& kind,
                                  const model::RoutingScheme& scheme) {
  const auto span = ctx.rec.span("schemes.serialize." + kind);
  return serialize_any(scheme);
}

void record_graph(Context& ctx, const std::string& key, const graph::Graph& g) {
  const graph::GraphFingerprint f = graph::fingerprint(g);
  ctx.record.add(key + ".graph_lo", f.lo);
  ctx.record.add(key + ".graph_hi", f.hi);
}

void measure_next_hop(Context& ctx, const std::string& kind,
                      const model::RoutingScheme& scheme, std::size_t pairs,
                      std::uint64_t seed) {
  if (!ctx.rec.active()) return;
  const auto n = static_cast<graph::NodeId>(scheme.node_count());
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<graph::NodeId> pick(0, n - 1);
  std::vector<std::pair<graph::NodeId, graph::NodeId>> sample;
  while (sample.size() < pairs) {
    const graph::NodeId u = pick(rng);
    const graph::NodeId v = pick(rng);
    if (u != v) sample.emplace_back(u, scheme.label_of(v));
  }
  std::uint64_t sink = 0;
  const auto start = Clock::now();
  {
    const auto span = ctx.rec.span("schemes.next_hop." + kind);
    for (const auto& [u, label] : sample) {
      model::MessageHeader header;
      sink += scheme.next_hop(u, label, header);
    }
  }
  const double ns = seconds_since(start) * 1e9 / static_cast<double>(pairs);
  ctx.layer.set("schemes.next_hop_ns." + kind, ns, "ns");
  g_sink = sink;
}

}  // namespace perfbench
