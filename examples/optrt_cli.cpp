// optrt_cli — the library as a command-line tool.
//
//   optrt_cli generate <family> <n> [--seed S] [--certified] -o G.eg
//   optrt_cli info     G.eg
//   optrt_cli compile  G.eg [--model M] [--objective O] -o S.ort
//   optrt_cli route    G.eg S.ort <src> <dst>
//   optrt_cli verify   G.eg S.ort
//   optrt_cli verify-artifact S.ort [G.eg]
//   optrt_cli sizes    G.eg
//   optrt_cli simulate G.eg S.ort [--messages M] [--traffic T]
//                      [--failures K | --fail-fraction F] [--fault-model M]
//                      [--fault-seed S] [--repair-after T] [--policy P]
//                      [--retries N] [--backoff B] [--serialize-links]
//                      [--churn SPEC [--repair-lag T]]
//   optrt_cli sweep    [--ns 16,24,32] [--seeds 3] [--model M]
//                      [--objective O] [--seed S]
//   optrt_cli serve    --dir DIR (--socket PATH | --port N)
//   optrt_cli query    (--socket PATH | --port N) [--op OP]
//                      [--artifact ID] [SRC DST | --batch PAIRS.txt]
//
// Families: uniform gnp:<p> chain ring complete star grid:<r>x<c>
//           hypercube:<d> gb:<k> ba:<m> power-law:<m> config:<exp>,<mindeg>
//           grid
// Models:   IA.alpha IA.beta IA.gamma IB.alpha ... II.gamma
// Objectives: shortest stretch1.5 stretch2 stretchlog fullinfo
// Traffic:  uniform allpairs hotspot permutation
// Faults:   uniform targeted partition nodes;  policies: none retry
//           deflect fallback
//
// Observability (any command): --metrics-json FILE writes the merged
// metrics registry (deterministic across --threads once wall_ns is
// stripped); --trace-json FILE writes Chrome trace_event JSON viewable in
// chrome://tracing or ui.perfetto.dev.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "core/graph_io.hpp"
#include "core/optrt.hpp"
#include "net/churn.hpp"
#include "schemes/repair.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"

namespace {

using namespace optrt;

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr <<
      "usage:\n"
      "  optrt_cli generate <family> <n> [--seed S] [--certified] -o G.eg\n"
      "  optrt_cli info G.eg\n"
      "  optrt_cli compile G.eg [--model II.alpha] [--objective shortest] -o S.ort\n"
      "  optrt_cli route G.eg S.ort <src> <dst>\n"
      "  optrt_cli route G.eg S.ort --batch PAIRS.txt [-o HOPS.txt]\n"
      "      (PAIRS.txt: one 'src dst' pair per line; prints 'src dst hop'\n"
      "       per line via the compiled fast path)\n"
      "  optrt_cli verify G.eg S.ort\n"
      "  optrt_cli verify-artifact S.ort [G.eg]\n"
      "  optrt_cli sizes G.eg\n"
      "  optrt_cli simulate G.eg S.ort [--messages M] [--traffic "
      "uniform|allpairs|hotspot|permutation]\n"
      "      [--failures K | --fail-fraction F] [--fault-model "
      "uniform|targeted|partition|nodes]\n"
      "      [--fault-seed S] [--repair-after T] [--policy "
      "none|retry|deflect|fallback]\n"
      "      [--retries N] [--backoff B] [--serialize-links]\n"
      "      [--churn MODEL[:EVENTS[,GAP[,QUIESCE]]] [--repair-lag T]]\n"
      "      (--churn replays a seeded fail/repair stream while the tables\n"
      "       are incrementally repaired; MODEL = uniform | targeted |\n"
      "       partition | nodes. Oracle-checked at every quiesce point.)\n"
      "  optrt_cli sweep [--ns 16,24,32] [--seeds 3] [--model II.alpha] "
      "[--objective shortest]\n"
      "  optrt_cli serve --dir DIR (--socket PATH | --port N) [--host H]\n"
      "      (serve every <name>.ort + <name>.eg pair in DIR over ORTP v1;\n"
      "       SIGHUP hot-reloads, SIGINT/SIGTERM stops)\n"
      "  optrt_cli query (--socket PATH | --port N) [--op "
      "ping|next-hop|route|list|reload]\n"
      "      [--artifact ID] [SRC DST | --batch PAIRS.txt]\n"
      "families: uniform gnp:<p> chain ring complete star grid:<r>x<c> "
      "hypercube:<d> gb:<k> ba:<m> power-law:<m> config:<exp>,<mindeg> grid\n"
      "global: --threads N (worker threads for verify/sizes/sweep; default "
      "$OPTRT_THREADS or hardware)\n"
      "        --metrics-json FILE   write merged metrics registry as JSON\n"
      "        --trace-json FILE     write Chrome trace_event JSON\n";
  std::exit(2);
}

struct Args {
  std::vector<std::string> positional;
  std::optional<std::string> output;
  std::uint64_t seed = 1;
  bool certified = false;
  std::string model = "II.alpha";
  std::string objective = "shortest";
  // simulate knobs.
  std::size_t messages = 1000;
  std::string traffic = "uniform";
  std::size_t failures = 0;
  std::optional<double> fail_fraction;
  std::string fault_model = "uniform";
  std::uint64_t fault_seed = 1;
  std::uint64_t repair_after = 0;
  std::optional<std::string> churn;
  std::uint64_t repair_lag = 0;
  std::string policy = "none";
  std::uint32_t retries = 4;
  std::uint64_t backoff = 2;
  bool serialize_links = false;
  // sweep knobs.
  std::string ns_list = "16,24,32";
  std::size_t sweep_seeds = 3;
  // route --batch input file (also query --batch).
  std::optional<std::string> batch;
  // serve / query knobs.
  std::optional<std::string> dir;
  std::optional<std::string> socket_path;
  int port = -1;
  std::string host = "127.0.0.1";
  std::string op = "next-hop";
  std::uint32_t artifact_id = 0;
  // observability outputs.
  std::optional<std::string> metrics_json;
  std::optional<std::string> trace_json;
};

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (++i >= argc) usage("missing value after " + a);
      return argv[i];
    };
    if (a == "-o" || a == "--output") {
      args.output = next();
    } else if (a == "--seed") {
      args.seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (a == "--certified") {
      args.certified = true;
    } else if (a == "--model") {
      args.model = next();
    } else if (a == "--objective") {
      args.objective = next();
    } else if (a == "--messages") {
      args.messages = std::strtoul(next().c_str(), nullptr, 10);
    } else if (a == "--traffic") {
      args.traffic = next();
    } else if (a == "--failures") {
      args.failures = std::strtoul(next().c_str(), nullptr, 10);
    } else if (a == "--fail-fraction") {
      args.fail_fraction = std::strtod(next().c_str(), nullptr);
    } else if (a == "--fault-model") {
      args.fault_model = next();
    } else if (a == "--fault-seed") {
      args.fault_seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (a == "--repair-after") {
      args.repair_after = std::strtoull(next().c_str(), nullptr, 10);
    } else if (a == "--churn") {
      args.churn = next();
    } else if (a == "--repair-lag") {
      args.repair_lag = std::strtoull(next().c_str(), nullptr, 10);
    } else if (a == "--policy") {
      args.policy = next();
    } else if (a == "--retries") {
      args.retries =
          static_cast<std::uint32_t>(std::strtoul(next().c_str(), nullptr, 10));
    } else if (a == "--backoff") {
      args.backoff = std::strtoull(next().c_str(), nullptr, 10);
    } else if (a == "--serialize-links") {
      args.serialize_links = true;
    } else if (a == "--dir") {
      args.dir = next();
    } else if (a == "--socket") {
      args.socket_path = next();
    } else if (a == "--port") {
      args.port = static_cast<int>(std::strtol(next().c_str(), nullptr, 10));
    } else if (a == "--host") {
      args.host = next();
    } else if (a == "--op") {
      args.op = next();
    } else if (a == "--artifact") {
      args.artifact_id =
          static_cast<std::uint32_t>(std::strtoul(next().c_str(), nullptr, 10));
    } else if (a == "--ns") {
      args.ns_list = next();
    } else if (a == "--seeds") {
      args.sweep_seeds = std::strtoul(next().c_str(), nullptr, 10);
    } else if (a == "--batch") {
      args.batch = next();
    } else if (a == "--metrics-json") {
      args.metrics_json = next();
    } else if (a == "--trace-json") {
      args.trace_json = next();
    } else if (!a.empty() && a[0] == '-') {
      usage("unknown flag " + a);
    } else {
      args.positional.push_back(a);
    }
  }
  return args;
}

graph::Graph make_graph(const std::string& family, std::size_t n,
                        std::uint64_t seed, bool certified) {
  graph::Rng rng(seed);
  if (family == "uniform") {
    return certified ? core::certified_random_graph(n, rng)
                     : graph::random_uniform(n, rng);
  }
  if (family.rfind("gnp:", 0) == 0) {
    return graph::random_gnp(n, std::strtod(family.c_str() + 4, nullptr), rng);
  }
  if (family == "chain") return graph::chain(n);
  if (family == "ring") return graph::ring(n);
  if (family == "complete") return graph::complete(n);
  if (family == "star") return graph::star(n);
  if (family.rfind("grid:", 0) == 0) {
    const char* spec = family.c_str() + 5;
    const char* x = std::strchr(spec, 'x');
    if (x == nullptr) usage("grid spec must be grid:<r>x<c>");
    return graph::grid(std::strtoul(spec, nullptr, 10),
                       std::strtoul(x + 1, nullptr, 10));
  }
  if (family.rfind("hypercube:", 0) == 0) {
    return graph::hypercube(std::strtoul(family.c_str() + 10, nullptr, 10));
  }
  if (family.rfind("gb:", 0) == 0) {
    return graph::lower_bound_gb(std::strtoul(family.c_str() + 3, nullptr, 10));
  }
  // Internet-like families share the bench's TopologyFamily grammar:
  // ba:<m> / power-law:<m>, config:<exponent>,<min-degree>, grid (near-
  // square auto-factorization, unlike the explicit grid:<r>x<c> above).
  try {
    return graph::TopologyFamily::parse(family).make(n, seed);
  } catch (const std::invalid_argument&) {
  }
  usage("unknown family " + family);
}

model::Model parse_model(const std::string& name) {
  for (const model::Model& m : model::Model::all()) {
    if (m.name() == name) return m;
  }
  usage("unknown model " + name);
}

schemes::Objective parse_objective(const std::string& name) {
  if (name == "shortest") return schemes::Objective::kShortestPath;
  if (name == "stretch1.5") return schemes::Objective::kStretchBelow2;
  if (name == "stretch2") return schemes::Objective::kStretch2;
  if (name == "stretchlog") return schemes::Objective::kStretchLog;
  if (name == "fullinfo") return schemes::Objective::kFullInformation;
  usage("unknown objective " + name);
}

/// Artifact/graph loads print one diagnostic line — the file plus the
/// DecodeError kind — and exit 2, so a corrupt input is a clean refusal,
/// never a stack trace or a partial run.
[[noreturn]] void reject_file(const std::string& path, const char* what) {
  std::cerr << "error: " << path << ": " << what << "\n";
  std::exit(2);
}

graph::Graph cli_load_graph(const std::string& path) {
  try {
    return core::load_graph(path);
  } catch (const std::exception& e) {
    reject_file(path, e.what());
  }
}

bitio::BitVector cli_load_artifact(const std::string& path) {
  try {
    return schemes::load_artifact(path);
  } catch (const std::exception& e) {
    reject_file(path, e.what());
  }
}

std::unique_ptr<model::RoutingScheme> load_scheme(
    const std::string& path, const graph::Graph& g) {
  const bitio::BitVector artifact = cli_load_artifact(path);
  try {
    return schemes::deserialize_any(artifact, g);
  } catch (const schemes::DecodeError& e) {
    reject_file(path, e.what());
  }
}

int cmd_generate(const Args& args) {
  if (args.positional.size() != 2 || !args.output) {
    usage("generate needs <family> <n> -o FILE");
  }
  const std::size_t n = std::strtoul(args.positional[1].c_str(), nullptr, 10);
  const graph::Graph g =
      make_graph(args.positional[0], n, args.seed, args.certified);
  core::save_graph(*args.output, g);
  std::cout << "wrote " << *args.output << ": n=" << g.node_count()
            << " |E|=" << g.edge_count() << "\n";
  return 0;
}

int cmd_info(const Args& args) {
  if (args.positional.size() != 1) usage("info needs a graph file");
  const graph::Graph g = cli_load_graph(args.positional[0]);
  const graph::DistanceMatrix dist(g);
  const auto cert = graph::certify(g);
  std::cout << "n = " << g.node_count() << "\n|E| = " << g.edge_count()
            << "\nmin/max degree = " << g.min_degree() << "/" << g.max_degree()
            << "\ndiameter = ";
  if (dist.diameter() == graph::kUnreachable) {
    std::cout << "inf (disconnected)";
  } else {
    std::cout << dist.diameter();
  }
  std::cout << "\ncertificate (Lemmas 1-3): " << (cert.ok() ? "PASS" : "fail")
            << "  [degrees " << (cert.degrees_concentrated ? "ok" : "FAIL")
            << ", diameter-2 " << (cert.diameter_two ? "ok" : "FAIL")
            << ", covers " << (cert.covers_small ? "ok" : "FAIL") << "]\n";
  return 0;
}

int cmd_compile(const Args& args) {
  if (args.positional.size() != 1 || !args.output) {
    usage("compile needs a graph file and -o FILE");
  }
  const graph::Graph g = cli_load_graph(args.positional[0]);
  schemes::CompileOptions opt;
  opt.objective = parse_objective(args.objective);
  opt.port_seed = args.seed;
  const auto scheme = schemes::compile(g, parse_model(args.model), opt);
  bitio::BitVector artifact;
  if (const auto* c =
          dynamic_cast<const schemes::CompactDiam2Scheme*>(scheme.get())) {
    artifact = schemes::serialize(*c);
  } else if (const auto* t =
                 dynamic_cast<const schemes::FullTableScheme*>(scheme.get())) {
    artifact = schemes::serialize(*t);
  } else if (const auto* hb =
                 dynamic_cast<const schemes::HubScheme*>(scheme.get())) {
    artifact = schemes::serialize(*hb);
  } else if (const auto* rc = dynamic_cast<const schemes::RoutingCenterScheme*>(
                 scheme.get())) {
    artifact = schemes::serialize(*rc);
  } else if (const auto* lm =
                 dynamic_cast<const schemes::LandmarkScheme*>(scheme.get())) {
    artifact = schemes::serialize(*lm);
  } else if (const auto* hi = dynamic_cast<const schemes::HierarchicalScheme*>(
                 scheme.get())) {
    artifact = schemes::serialize(*hi);
  } else if (const auto* ss = dynamic_cast<const schemes::SequentialSearchScheme*>(
                 scheme.get())) {
    artifact = schemes::serialize(*ss);
  } else if (const auto* tz =
                 dynamic_cast<const schemes::TzScheme*>(scheme.get())) {
    artifact = schemes::serialize(*tz);
  } else {
    std::cerr << "scheme '" << scheme->name()
              << "' has no stored tables to serialize; reporting only\n";
  }
  const auto space = scheme->space();
  std::cout << "compiled " << scheme->name() << " for model "
            << scheme->routing_model().name() << ": "
            << space.total_bits() << " bits total, max node "
            << space.max_node_bits() << "\n";
  if (!artifact.empty()) {
    schemes::save_artifact(*args.output, artifact);
    std::cout << "wrote " << *args.output << " (" << artifact.size()
              << " bits incl. environment)\n";
  }
  return 0;
}

/// route --batch: answer a whole pair file through the compiled fast path
/// (one compile, then route_batch) instead of per-pair decoding.
int cmd_route_batch(const Args& args) {
  const graph::Graph g = cli_load_graph(args.positional[0]);
  const auto scheme = load_scheme(args.positional[1], g);
  const auto fast = scheme->compile_fast();

  std::ifstream in(*args.batch);
  if (!in) reject_file(*args.batch, "cannot open pair file");
  std::vector<model::RoutePair> pairs;
  std::vector<std::pair<graph::NodeId, graph::NodeId>> endpoints;
  std::uint64_t src = 0;
  std::uint64_t dst = 0;
  std::size_t line = 0;
  while (in >> src >> dst) {
    ++line;
    if (src >= g.node_count() || dst >= g.node_count() || src == dst) {
      std::cerr << "error: " << *args.batch << ": pair " << line
                << " out of range or equal\n";
      return 2;
    }
    endpoints.emplace_back(static_cast<graph::NodeId>(src),
                           static_cast<graph::NodeId>(dst));
    pairs.push_back({static_cast<graph::NodeId>(src),
                     scheme->label_of(static_cast<graph::NodeId>(dst))});
  }
  std::vector<graph::NodeId> hops(pairs.size());
  fast->route_batch(pairs, hops);

  std::ofstream file_out;
  if (args.output) {
    file_out.open(*args.output);
    if (!file_out) reject_file(*args.output, "cannot open output file");
  }
  std::ostream& out = args.output ? file_out : std::cout;
  for (std::size_t i = 0; i < hops.size(); ++i) {
    out << endpoints[i].first << ' ' << endpoints[i].second << ' ' << hops[i]
        << '\n';
  }
  std::cerr << "routed " << hops.size() << " pairs with the " << fast->name()
            << " fast path\n";
  return 0;
}

int cmd_route(const Args& args) {
  if (args.batch) {
    if (args.positional.size() != 2) {
      usage("route --batch needs <graph> <scheme> --batch PAIRS.txt");
    }
    return cmd_route_batch(args);
  }
  if (args.positional.size() != 4) {
    usage("route needs <graph> <scheme> <src> <dst>");
  }
  const graph::Graph g = cli_load_graph(args.positional[0]);
  const auto scheme = load_scheme(args.positional[1], g);
  const auto src =
      static_cast<graph::NodeId>(std::strtoul(args.positional[2].c_str(), nullptr, 10));
  const auto dst =
      static_cast<graph::NodeId>(std::strtoul(args.positional[3].c_str(), nullptr, 10));
  if (src >= g.node_count() || dst >= g.node_count() || src == dst) {
    usage("route endpoints out of range or equal");
  }
  model::MessageHeader header;
  graph::NodeId at = src;
  std::size_t hops = 0;
  std::cout << at;
  while (at != dst) {
    if (hops > model::default_hop_budget(g.node_count())) {
      std::cout << " ... (no progress, giving up)\n";
      return 1;
    }
    const graph::NodeId next = scheme->next_hop(at, scheme->label_of(dst), header);
    header.came_from = at;
    at = next;
    ++hops;
    std::cout << " -> " << at;
  }
  std::cout << "   (" << hops << " hops)\n";
  return 0;
}

int cmd_verify(const Args& args) {
  if (args.positional.size() != 2) usage("verify needs <graph> <scheme>");
  const graph::Graph g = cli_load_graph(args.positional[0]);
  const auto scheme = load_scheme(args.positional[1], g);
  const auto result = model::verify_scheme(g, *scheme);
  std::cout << "pairs checked : " << result.pairs_checked
            << "\npairs failed  : " << result.pairs_failed
            << "\ninvalid hops  : " << result.invalid_hops
            << "\nmax stretch   : " << result.max_stretch
            << "\nmean stretch  : " << result.mean_stretch << "\n";
  return result.ok() ? 0 : 1;
}

int cmd_verify_artifact(const Args& args) {
  if (args.positional.empty() || args.positional.size() > 2) {
    usage("verify-artifact needs <scheme.ort> [graph.eg]");
  }
  const std::string& path = args.positional[0];
  const bitio::BitVector artifact = cli_load_artifact(path);
  schemes::ArtifactInfo info;
  try {
    info = schemes::inspect(artifact);
  } catch (const schemes::DecodeError& e) {
    reject_file(path, e.what());
  }
  std::cout << "format        : v" << static_cast<unsigned>(info.version)
            << (info.version == 0 ? " (legacy, no checksum)" : "")
            << "\nscheme kind   : " << schemes::to_string(info.kind)
            << "\nnode count    : " << info.node_count
            << "\npayload bits  : " << info.payload_bits << "\n";
  if (info.version >= 1) {
    char crc[16];
    std::snprintf(crc, sizeof crc, "%08x", info.crc_stored);
    std::cout << "payload crc32 : " << crc << " (verified)\nframe overhead: "
              << schemes::kFrameHeaderBits << " bits\n";
  }
  if (args.positional.size() == 2) {
    const graph::Graph g = cli_load_graph(args.positional[1]);
    try {
      const auto scheme = schemes::deserialize_any(artifact, g);
      std::cout << "decode        : ok (" << scheme->name() << ")\n";
    } catch (const schemes::DecodeError& e) {
      reject_file(path, e.what());
    }
  }
  return 0;
}

int cmd_sizes(const Args& args) {
  if (args.positional.size() != 1) usage("sizes needs a graph file");
  const graph::Graph g = cli_load_graph(args.positional[0]);
  core::TextTable table({"model", "scheme", "total bits", "max stretch"});
  for (const model::Model& m : model::Model::all()) {
    const auto scheme = schemes::compile(g, m);
    const auto result = model::verify_scheme(g, *scheme);
    table.add_row({m.name(), scheme->name(),
                   std::to_string(scheme->space().total_bits()),
                   core::TextTable::num(result.max_stretch, 2)});
  }
  table.print(std::cout);
  return 0;
}

int cmd_simulate(const Args& args) {
  if (args.positional.size() != 2) usage("simulate needs <graph> <scheme>");
  const graph::Graph g = cli_load_graph(args.positional[0]);
  const auto scheme = load_scheme(args.positional[1], g);
  const std::size_t n = g.node_count();

  const auto fault_model = net::parse_fault_model(args.fault_model);
  if (!fault_model) usage("unknown fault model " + args.fault_model);
  const auto policy = net::parse_resilience_policy(args.policy);
  if (!policy) usage("unknown resilience policy " + args.policy);

  if (args.churn) {
    // Churn mode: rebuild the scheme fresh as a repairable of the
    // artifact's kind, then replay a seeded fail/repair stream against it
    // under live traffic (the artifact validates the kind; the repairable
    // maintains its own tables event by event).
    net::ChurnOptions copt;
    try {
      copt = net::ChurnOptions::parse(*args.churn);
    } catch (const std::invalid_argument& e) {
      usage(e.what());
    }
    copt.seed = args.fault_seed;
    const schemes::SchemeKind kind =
        schemes::peek_kind(cli_load_artifact(args.positional[1]));
    std::string kind_name;
    switch (kind) {
      case schemes::SchemeKind::kFullTable:
        kind_name = "full-table";
        break;
      case schemes::SchemeKind::kCompactDiam2:
        kind_name = "compact-diam2";
        break;
      case schemes::SchemeKind::kThorupZwick:
        kind_name = "tz";
        break;
      default:
        usage(std::string("--churn supports full-table, compact-diam2, and "
                          "tz artifacts, not ") +
              schemes::to_string(kind));
    }
    const auto rs = schemes::make_repairable(kind_name, g, args.seed);
    const net::ChurnPlan cplan = net::make_churn_plan(g, copt);

    net::ChurnSessionConfig scfg;
    scfg.sim.serialize_links = args.serialize_links;
    scfg.sim.measure_stretch = true;
    scfg.sim.resilience = {.policy = *policy,
                           .max_retries = args.retries,
                           .backoff_base = args.backoff};
    scfg.repair_lag = args.repair_lag;
    scfg.messages = args.messages;
    scfg.traffic_seed = args.seed;
    const net::ChurnReport report = net::run_churn_session(*rs, cplan, scfg);

    obs::JsonWriter w;
    w.begin_object();
    w.key("scheme").value(scheme->name());
    w.key("churn").value(copt.name());
    w.key("churn_seed").value(copt.seed);
    w.key("plan_fingerprint").value(cplan.fingerprint());
    w.key("repair_lag").value(args.repair_lag);
    w.key("status").value(net::to_string(report.status));
    w.key("events").value(static_cast<std::uint64_t>(report.events_applied));
    w.key("deltas").value(static_cast<std::uint64_t>(report.deltas_applied));
    w.key("quiesce_points")
        .value(static_cast<std::uint64_t>(report.quiesce_points));
    w.key("quiesce_mismatches")
        .value(static_cast<std::uint64_t>(report.quiesce_mismatches));
    w.key("stale_sent").value(static_cast<std::uint64_t>(report.stale_sent));
    w.key("repair_work").value(report.repair.work());
    w.key("tables_touched").value(report.repair.tables_touched);
    w.key("dist_rows_bfs").value(report.repair.dist_rows_bfs);
    w.key("dist_rows_patched").value(report.repair.dist_rows_patched);
    w.key("patched").value(report.repair.patched);
    w.key("rebuilt").value(report.repair.rebuilt);
    net::write_stats_fields(w, report.traffic);
    w.end_object();
    std::cout << w.str() << "\n";
    return report.status == net::ChurnStatus::kMismatch ? 1 : 0;
  }

  std::size_t failures = args.failures;
  if (args.fail_fraction) {
    const double base = *fault_model == net::FaultModel::kNodes
                            ? static_cast<double>(n)
                            : static_cast<double>(g.edge_count());
    failures = static_cast<std::size_t>(*args.fail_fraction * base);
  }
  const net::FaultPlan plan = net::make_fault_plan(
      g, *fault_model, failures,
      {.seed = args.fault_seed, .repair_after = args.repair_after});

  graph::Rng traffic_rng(args.seed);
  std::vector<net::TrafficPair> traffic;
  if (args.traffic == "uniform") {
    traffic = net::uniform_random(n, args.messages, traffic_rng);
  } else if (args.traffic == "allpairs") {
    traffic = net::all_pairs(n);
  } else if (args.traffic == "hotspot") {
    traffic = net::hotspot(n, 0);
  } else if (args.traffic == "permutation") {
    traffic = net::permutation_traffic(n, traffic_rng);
  } else {
    usage("unknown traffic pattern " + args.traffic);
  }

  net::SimulatorConfig config;
  config.serialize_links = args.serialize_links;
  config.measure_stretch = true;
  config.resilience = {.policy = *policy,
                       .max_retries = args.retries,
                       .backoff_base = args.backoff};
  net::Simulator sim(g, *scheme, config);
  sim.schedule(plan);
  for (const auto& [u, v] : traffic) sim.send(u, v);
  const net::SimulationStats stats = sim.run();

  obs::JsonWriter w;
  w.begin_object();
  w.key("scheme").value(scheme->name());
  w.key("fault_model").value(net::to_string(*fault_model));
  w.key("fault_seed").value(args.fault_seed);
  w.key("failures").value(static_cast<std::uint64_t>(plan.fail_count()));
  w.key("plan_fingerprint").value(plan.fingerprint());
  w.key("repair_after").value(args.repair_after);
  w.key("policy").value(net::to_string(*policy));
  w.key("messages").value(static_cast<std::uint64_t>(traffic.size()));
  net::write_stats_fields(w, stats);
  w.end_object();
  std::cout << w.str() << "\n";
  return 0;
}

int cmd_sweep(const Args& args) {
  if (!args.positional.empty()) usage("sweep takes no positional arguments");
  std::vector<std::size_t> ns;
  for (std::size_t pos = 0; pos < args.ns_list.size();) {
    const std::size_t comma = args.ns_list.find(',', pos);
    const std::string tok = args.ns_list.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    if (!tok.empty()) ns.push_back(std::strtoul(tok.c_str(), nullptr, 10));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (ns.empty() || args.sweep_seeds == 0) {
    usage("sweep needs non-empty --ns and --seeds >= 1");
  }
  const model::Model m = parse_model(args.model);
  schemes::CompileOptions copt;
  copt.objective = parse_objective(args.objective);

  core::SweepOptions opt;
  opt.base_seed = args.seed;
  const auto points = core::sweep_certified(
      ns, args.sweep_seeds,
      [&](const graph::Graph& g) {
        const auto scheme = schemes::compile(g, m, copt);
        return static_cast<double>(scheme->space().total_bits());
      },
      opt);

  obs::JsonWriter w;
  w.begin_object();
  w.key("schema").value("optrt.sweep.v1");
  w.key("model").value(m.name());
  w.key("objective").value(args.objective);
  w.key("seeds").value(static_cast<std::uint64_t>(args.sweep_seeds));
  w.key("base_seed").value(args.seed);
  w.key("points").begin_array();
  for (const auto& p : points) {
    w.begin_object();
    w.key("n").value(static_cast<std::uint64_t>(p.n));
    w.key("seed").value(p.seed);
    w.key("total_bits").value(p.value);
    w.end_object();
  }
  w.end_array();
  w.key("mean_total_bits").begin_object();
  for (const std::size_t n : ns) {
    w.key(std::to_string(n)).value(core::mean_at(points, n));
  }
  w.end_object();
  w.end_object();
  std::cout << w.str() << "\n";
  return 0;
}

int cmd_serve(const Args& args) {
  if (!args.dir || (!args.socket_path && args.port < 0)) {
    usage("serve needs --dir DIR and --socket PATH or --port N");
  }
  serve::DaemonOptions options;
  options.artifact_dir = *args.dir;
  if (args.socket_path) options.server.unix_path = *args.socket_path;
  options.server.tcp_port = args.port;
  options.server.tcp_host = args.host;
  options.server.threads = core::default_threads();
  return serve::run_daemon(options);
}

/// Reads query pairs from positionals ("SRC DST") or a --batch file (one
/// "src dst" pair per line, the route --batch format).
std::vector<serve::QueryPair> gather_query_pairs(const Args& args) {
  std::vector<serve::QueryPair> pairs;
  if (args.batch) {
    std::ifstream in(*args.batch);
    if (!in) reject_file(*args.batch, "cannot open pair file");
    std::uint64_t src = 0;
    std::uint64_t dst = 0;
    while (in >> src >> dst) {
      pairs.push_back({static_cast<graph::NodeId>(src),
                       static_cast<graph::NodeId>(dst)});
    }
  } else if (args.positional.size() == 2) {
    pairs.push_back({static_cast<graph::NodeId>(
                         std::strtoul(args.positional[0].c_str(), nullptr, 10)),
                     static_cast<graph::NodeId>(std::strtoul(
                         args.positional[1].c_str(), nullptr, 10))});
  } else {
    usage("query --op " + args.op + " needs SRC DST or --batch PAIRS.txt");
  }
  return pairs;
}

int cmd_query(const Args& args) {
  if (!args.socket_path && args.port < 0) {
    usage("query needs --socket PATH or --port N");
  }
  try {
    serve::Client client = args.socket_path
                               ? serve::Client::connect_unix(*args.socket_path)
                               : serve::Client::connect_tcp(args.host, args.port);
    if (args.op == "ping") {
      client.ping();
      std::cout << "pong\n";
    } else if (args.op == "list") {
      for (const serve::ArtifactSummary& a : client.list()) {
        std::cout << a.id << ' ' << a.name << " n=" << a.node_count << " kind="
                  << schemes::to_string(
                         static_cast<schemes::SchemeKind>(a.kind))
                  << "\n";
      }
    } else if (args.op == "reload") {
      std::cout << "reloaded, serving " << client.reload() << " artifact(s)\n";
    } else if (args.op == "next-hop") {
      const auto pairs = gather_query_pairs(args);
      const auto hops = client.next_hops(args.artifact_id, pairs);
      for (std::size_t i = 0; i < hops.size(); ++i) {
        std::cout << pairs[i].src << ' ' << pairs[i].dst << ' ' << hops[i]
                  << '\n';
      }
    } else if (args.op == "route") {
      const auto pairs = gather_query_pairs(args);
      const auto paths = client.routes(args.artifact_id, pairs);
      for (std::size_t i = 0; i < paths.size(); ++i) {
        std::cout << pairs[i].src;
        for (const graph::NodeId hop : paths[i]) std::cout << " -> " << hop;
        std::cout << "   (" << paths[i].size() << " hops)\n";
      }
    } else {
      usage("unknown query op " + args.op);
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  return 0;
}

int dispatch(const std::string& command, const Args& args) {
  if (command == "generate") return cmd_generate(args);
  if (command == "info") return cmd_info(args);
  if (command == "compile") return cmd_compile(args);
  if (command == "route") return cmd_route(args);
  if (command == "verify") return cmd_verify(args);
  if (command == "verify-artifact") return cmd_verify_artifact(args);
  if (command == "sizes") return cmd_sizes(args);
  if (command == "simulate") return cmd_simulate(args);
  if (command == "sweep") return cmd_sweep(args);
  if (command == "serve") return cmd_serve(args);
  if (command == "query") return cmd_query(args);
  usage("unknown command " + command);
}

void write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path);
  out << text << "\n";
  if (!out) throw std::runtime_error("write failed: " + path);
}

}  // namespace

int main(int argc, char** argv) {
  core::apply_threads_flag(argc, argv);  // accepted anywhere on the line
  if (argc < 2) usage();
  const std::string command = argv[1];
  const Args args = parse(argc, argv);

  // The trace doubles as the run's wall clock for the metrics wall_ns
  // field; it only records spans while installed via TraceScope.
  obs::Trace trace;
  std::optional<obs::TraceScope> scope;
  if (args.trace_json) scope.emplace(trace);

  int rc = 0;
  try {
    rc = dispatch(command, args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  // Observability outputs are written even when the command reports
  // failure (e.g. a failed verify): that is when they matter most.
  try {
    if (args.metrics_json) {
      write_text_file(*args.metrics_json,
                      obs::metrics_json(obs::MetricsRegistry::global(),
                                        static_cast<std::int64_t>(trace.now_ns())));
    }
    if (args.trace_json) {
      scope.reset();
      write_text_file(*args.trace_json, trace.chrome_json());
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return rc;
}
