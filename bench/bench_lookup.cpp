// Lookup-throughput benchmark: the compiled query-optimized path
// (RoutingScheme::compile_fast + route_batch) against the scheme's own
// next_hop with a fresh header (the "slow"/reference column), per scheme
// kind, on one certified G(n,1/2) graph.
//
// What the reference column measures differs by scheme: full-table's
// next_hop seeks a BitReader into the bits per lookup; hub and
// hierarchical route from their own decoded views and sequential search
// from the graph (it stores 0 bits); compact-diam2, routing-center, landmark and tz answer from the
// very tables their FastPath shares, so for those four the column is one
// virtual next_hop per pair against route_batch's monomorphic loop, not a
// decode path.
//
// Every timed fast-path answer is checked bit-identical to the reference
// answer before any number is reported — a mismatch fails the run. Emits
// BENCH_lookup.json (schema optrt.bench_lookup.v1):
//
//   {"schema":"optrt.bench_lookup.v1","n":…,"seed":…,"pairs":…,"reps":…,
//    "schemes":[{"scheme":…, "table_bits":…, "compile_ms":…,
//                "slow_ns_per_lookup":…, "fast_ns_per_lookup":…,
//                "slow_lookups_per_sec":…, "fast_lookups_per_sec":…,
//                "speedup":…, "identical":true}, …],
//    "speedup_vs_bitreader":…, "metrics":{…}}
//
// speedup_vs_bitreader is the full-table row's speedup: that scheme's
// reference path is the literal per-lookup BitReader seek/decode, so it is
// the honest "vs the BitReader path" headline. The other rows report the
// speedup over their own next_hop, as described above.
//
//   bench_lookup [--n 512] [--seed 1996] [--pairs 200000] [--reps 3]
//                [--smoke] [-o BENCH_lookup.json]
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/optrt.hpp"

namespace {

using namespace optrt;
using Clock = std::chrono::steady_clock;

struct Config {
  std::size_t n = 512;
  std::uint64_t seed = 1996;  // PODC'96
  std::size_t pairs = 200000;
  std::size_t reps = 3;
  std::string out_path = "BENCH_lookup.json";
};

struct SchemeRow {
  std::string name;
  std::size_t table_bits = 0;
  double compile_ms = 0.0;
  double slow_ns = 0.0;
  double fast_ns = 0.0;
  bool identical = true;
};

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

SchemeRow measure(const model::RoutingScheme& scheme,
                  const std::vector<model::RoutePair>& raw_pairs,
                  std::size_t reps) {
  SchemeRow row;
  row.name = scheme.name();
  row.table_bits = scheme.space().total_bits();

  // The shared workload carries destination *node ids*; each scheme routes
  // by destination label, so translate once, outside the timed loops.
  std::vector<model::RoutePair> pairs(raw_pairs.size());
  for (std::size_t i = 0; i < raw_pairs.size(); ++i) {
    pairs[i] = {raw_pairs[i].src, scheme.label_of(raw_pairs[i].dst_label)};
  }

  const auto compile_start = Clock::now();
  const auto fast = scheme.compile_fast();
  row.compile_ms = seconds_since(compile_start) * 1e3;

  // Reference: the shipped decode path, fresh header per pair (the
  // fast-path contract), answers captured for the differential check.
  std::vector<graph::NodeId> expected(pairs.size());
  double slow_best = 0.0;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      model::MessageHeader header;
      expected[i] = scheme.next_hop(pairs[i].src, pairs[i].dst_label, header);
    }
    const double elapsed = seconds_since(start);
    if (rep == 0 || elapsed < slow_best) slow_best = elapsed;
  }

  std::vector<graph::NodeId> got(pairs.size());
  double fast_best = 0.0;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const auto start = Clock::now();
    fast->route_batch(pairs, got);
    const double elapsed = seconds_since(start);
    if (rep == 0 || elapsed < fast_best) fast_best = elapsed;
  }

  row.identical = got == expected;
  const auto count = static_cast<double>(pairs.size());
  row.slow_ns = slow_best * 1e9 / count;
  row.fast_ns = fast_best * 1e9 / count;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (++i >= argc) {
        std::cerr << "missing value after " << a << "\n";
        std::exit(2);
      }
      return argv[i];
    };
    if (a == "--n") {
      cfg.n = std::strtoul(next(), nullptr, 10);
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(next(), nullptr, 10);
    } else if (a == "--pairs") {
      cfg.pairs = std::strtoul(next(), nullptr, 10);
    } else if (a == "--reps") {
      cfg.reps = std::strtoul(next(), nullptr, 10);
    } else if (a == "--smoke") {
      // CI mode: small graph, one rep — checks the differential contract
      // and the JSON schema, not the headline number.
      cfg.n = 48;
      cfg.pairs = 20000;
      cfg.reps = 1;
    } else if (a == "-o" || a == "--output") {
      cfg.out_path = next();
    } else {
      std::cerr << "unknown flag " << a << "\n";
      return 2;
    }
  }

  graph::Rng rng(cfg.seed);
  const graph::Graph g = core::certified_random_graph(cfg.n, rng);

  // Seeded uniform pair workload; dst_label temporarily holds the raw
  // destination node id (measure() maps it through each scheme's label_of).
  std::vector<model::RoutePair> pairs;
  pairs.reserve(cfg.pairs);
  graph::Rng pair_rng(core::point_seed(cfg.seed, cfg.n, /*pair axis=*/7));
  std::uniform_int_distribution<graph::NodeId> pick(
      0, static_cast<graph::NodeId>(cfg.n - 1));
  while (pairs.size() < cfg.pairs) {
    const graph::NodeId s = pick(pair_rng);
    const graph::NodeId d = pick(pair_rng);
    if (s != d) pairs.push_back({s, d});
  }

  const auto diam2_opt =
      schemes::CompactDiam2Scheme::Options::for_model(model::kIIalpha);
  std::vector<std::unique_ptr<model::RoutingScheme>> all;
  all.push_back(std::make_unique<schemes::CompactDiam2Scheme>(g, diam2_opt));
  all.push_back(std::make_unique<schemes::FullTableScheme>(
      schemes::FullTableScheme::standard(g)));
  all.push_back(std::make_unique<schemes::HubScheme>(g));
  all.push_back(std::make_unique<schemes::RoutingCenterScheme>(g));
  all.push_back(std::make_unique<schemes::LandmarkScheme>(g));
  all.push_back(std::make_unique<schemes::HierarchicalScheme>(g));
  all.push_back(std::make_unique<schemes::SequentialSearchScheme>(g));
  all.push_back(std::make_unique<schemes::TzScheme>(g));

  std::vector<SchemeRow> rows;
  rows.reserve(all.size());
  for (const auto& scheme : all) {
    rows.push_back(measure(*scheme, pairs, cfg.reps));
    const SchemeRow& row = rows.back();
    std::cerr << row.name << ": slow " << row.slow_ns << " ns/lookup, fast "
              << row.fast_ns << " ns/lookup, speedup "
              << (row.fast_ns > 0 ? row.slow_ns / row.fast_ns : 0.0)
              << (row.identical ? "" : "  [MISMATCH]") << "\n";
  }

  double speedup_vs_bitreader = 0.0;
  bool all_identical = true;
  obs::JsonWriter w;
  w.begin_object();
  w.key("schema").value("optrt.bench_lookup.v1");
  w.key("n").value(static_cast<std::uint64_t>(cfg.n));
  w.key("seed").value(cfg.seed);
  w.key("pairs").value(static_cast<std::uint64_t>(pairs.size()));
  w.key("reps").value(static_cast<std::uint64_t>(cfg.reps));
  w.key("schemes").begin_array();
  for (const SchemeRow& row : rows) {
    const double speedup = row.fast_ns > 0 ? row.slow_ns / row.fast_ns : 0.0;
    if (row.name == "full-table") speedup_vs_bitreader = speedup;
    all_identical = all_identical && row.identical;
    w.begin_object();
    w.key("scheme").value(row.name);
    w.key("table_bits").value(static_cast<std::uint64_t>(row.table_bits));
    w.key("compile_ms").value(row.compile_ms);
    w.key("slow_ns_per_lookup").value(row.slow_ns);
    w.key("fast_ns_per_lookup").value(row.fast_ns);
    w.key("slow_lookups_per_sec").value(
        row.slow_ns > 0 ? 1e9 / row.slow_ns : 0.0);
    w.key("fast_lookups_per_sec").value(
        row.fast_ns > 0 ? 1e9 / row.fast_ns : 0.0);
    w.key("speedup").value(speedup);
    w.key("identical").value(row.identical);
    w.end_object();
  }
  w.end_array();
  w.key("speedup_vs_bitreader").value(speedup_vs_bitreader);
  w.key("metrics").raw(obs::metrics_json(obs::MetricsRegistry::global()));
  w.end_object();

  std::ofstream out(cfg.out_path);
  if (!out) {
    std::cerr << "cannot write " << cfg.out_path << "\n";
    return 2;
  }
  out << w.str() << "\n";
  std::cerr << "bench_lookup: wrote " << cfg.out_path
            << " (speedup_vs_bitreader=" << speedup_vs_bitreader << ")\n";

  if (!all_identical) {
    std::cerr << "FAIL: fast path diverged from the reference decoder\n";
    return 1;
  }
  return 0;
}
