// serve: the data-plane read path. Set-up builds a catalog of full-table,
// compact-diam2 and tz artifacts for one certified G(n,1/2), loads it into
// a serve::ArtifactStore and starts an in-process serve::Server on a Unix
// socket. Then two client connections run closed-loop traffic — each
// caller blocks on its answer before sending the next request, like a
// forwarding agent — in cycles of one short round per request class,
// spread over the three artifacts. Every answer is checked against a local
// oracle compiled from the in-memory schemes, independent of the served
// artifacts.
#include <algorithm>
#include <filesystem>
#include <random>
#include <span>
#include <thread>

#include "core/graph_io.hpp"
#include "graph/algorithms.hpp"
#include "model/fastpath.hpp"
#include "model/verifier.hpp"
#include "obs/metrics.hpp"
#include "schemes/serialization.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/store.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace optrt;

namespace {

constexpr std::uint64_t kStream = 2;
constexpr std::size_t kConnections = 2;
/// Serving threads: the acceptor (idle in poll once both clients are
/// connected) plus one worker per connection.
constexpr std::size_t kServerThreads = 1 + kConnections;
/// Catalog order is the sorted artifact stem, which is the kind name.
const std::vector<std::string> kKinds = {"compact-diam2", "full-table", "tz"};

constexpr std::size_t kLargePairs = 256;

struct RequestClass {
  const char* name;
  serve::Opcode opcode;
  std::size_t pairs;
};
constexpr RequestClass kClasses[] = {
    {"small", serve::Opcode::kNextHop, 1},
    {"large", serve::Opcode::kNextHop, kLargePairs},
    {"route", serve::Opcode::kRoute, 16},
};

/// What a client checks answers against: the scheme as built in memory
/// and its compiled fast path.
struct Oracle {
  std::unique_ptr<model::RoutingScheme> scheme;
  std::unique_ptr<model::FastPath> fast;
};

/// A catalog being served: its directory, graph, oracles, store, server.
struct Served {
  std::string dir;
  std::string socket;
  std::unique_ptr<graph::Graph> graph;
  std::vector<Oracle> oracles;  ///< index == artifact id
  std::unique_ptr<serve::ArtifactStore> store;
  std::unique_ptr<serve::Server> server;
  std::thread server_thread;
  double catalog_resident_mb = 0.0;

  Served() = default;
  Served(const Served&) = delete;
  Served& operator=(const Served&) = delete;
  ~Served() {
    if (server) server->stop();
    if (server_thread.joinable()) server_thread.join();
    server.reset();
    store.reset();
    std::error_code ignored;
    std::filesystem::remove_all(dir, ignored);
  }
};

std::unique_ptr<Served> start_catalog(Context& ctx, std::size_t n,
                                      std::size_t rep) {
  auto s = std::make_unique<Served>();
  s->dir = ctx.workdir + "/serve" + std::to_string(rep);
  s->socket = s->dir + "/s";
  std::filesystem::create_directories(s->dir);
  s->graph = std::make_unique<graph::Graph>(
      generate(ctx, "certified", n, derive_seed(ctx.seed, kStream, rep)));
  for (const std::string& kind : kKinds) {
    Oracle o;
    o.scheme = build_scheme(ctx, kind, *s->graph,
                            derive_seed(ctx.seed, kStream + 100, rep));
    const bitio::BitVector bits = serialize_scheme(ctx, kind, *o.scheme);
    {
      const auto span = ctx.rec.span("schemes.save." + kind);
      schemes::save_artifact(s->dir + "/" + kind + ".ort", bits);
      core::save_graph(s->dir + "/" + kind + ".eg", *s->graph);
    }
    o.fast = o.scheme->compile_fast();
    s->oracles.push_back(std::move(o));
  }
  const double rss_before = settled_rss_mb();
  {
    const auto span = ctx.rec.span("serve.store_load", true);
    s->store = std::make_unique<serve::ArtifactStore>(s->dir);
    const serve::LoadReport report = s->store->load();
    if (!report.ok()) {
      throw std::runtime_error(serve::format_load_failure(report.failures[0]));
    }
  }
  s->catalog_resident_mb = rss_mb() - rss_before;
  {
    const auto span = ctx.rec.span("serve.server_start");
    serve::ServerConfig config;
    config.unix_path = s->socket;
    config.threads = kServerThreads;
    s->server = std::make_unique<serve::Server>(*s->store, config);
    s->server->bind();
    s->server_thread = std::thread([server = s->server.get()] { server->run(); });
  }
  return s;
}

/// One connection's share of a request class.
struct ClientResult {
  std::vector<double> latency_ns;
  std::uint64_t pairs = 0;
  std::uint64_t passed = 0;  ///< answers that matched the oracle
};

/// Checks one answer against the oracle; returns false on any mismatch.
bool answer_matches(Context& ctx, const RequestClass& rc, const Oracle& o,
                    const graph::Graph& g, std::span<const serve::QueryPair> q,
                    const serve::Frame& response) {
  if (response.is_error()) return false;
  if (rc.opcode == serve::Opcode::kNextHop) {
    const std::vector<graph::NodeId> hops = serve::decode_next_hops(response);
    std::vector<model::RoutePair> pairs(q.size());
    for (std::size_t i = 0; i < q.size(); ++i) {
      pairs[i] = {q[i].src, o.scheme->label_of(q[i].dst)};
    }
    std::vector<graph::NodeId> expect(q.size());
    if (q.size() == kLargePairs) {
      // The served batch replayed through the lookup layer alone.
      const auto span = ctx.rec.span("model.route_batch." + o.scheme->name());
      o.fast->route_batch(pairs, expect);
    } else {
      o.fast->route_batch(pairs, expect);
    }
    return hops == expect;
  }
  const auto routes = serve::decode_routes(response);
  if (routes.size() != q.size()) return false;
  for (std::size_t i = 0; i < q.size(); ++i) {
    const graph::NodeId label = o.scheme->label_of(q[i].dst);
    graph::NodeId at = q[i].src;
    for (const graph::NodeId hop : routes[i]) {
      if (hop != o.fast->next_hop(at, label)) return false;
      at = hop;
    }
    if (at != q[i].dst ||
        routes[i].size() !=
            model::route_once(g, *o.scheme, q[i].src, q[i].dst, 0)) {
      return false;
    }
  }
  return true;
}

ClientResult run_client(Context& ctx, const Served& s, const RequestClass& rc,
                        std::size_t conn, std::uint64_t seed, double seconds) {
  ClientResult r;
  serve::Client client = serve::Client::connect_unix(s.socket);
  client.ping();
  std::mt19937_64 rng(seed);
  const auto n = static_cast<graph::NodeId>(s.graph->node_count());
  std::uniform_int_distribution<graph::NodeId> pick(0, n - 1);
  std::vector<serve::QueryPair> pairs(rc.pairs);
  const auto start = Clock::now();
  for (std::size_t i = 0; seconds_since(start) < seconds; ++i) {
    const auto id = static_cast<std::uint32_t>((i + conn) % kKinds.size());
    for (auto& p : pairs) {
      p.src = pick(rng);
      do {
        p.dst = pick(rng);
      } while (p.dst == p.src);
    }
    const serve::Frame request =
        rc.opcode == serve::Opcode::kNextHop
            ? serve::make_next_hop_request(id, pairs)
            : serve::make_route_request(id, pairs);
    const auto sent = Clock::now();
    const serve::Frame response = client.call(request);
    r.latency_ns.push_back(
        std::chrono::duration<double, std::nano>(Clock::now() - sent).count());
    r.pairs += pairs.size();
    bool ok = false;
    try {
      ok = answer_matches(ctx, rc, s.oracles[id], *s.graph, pairs, response);
    } catch (const std::exception&) {
      ok = false;
    }
    if (ok) {
      ++r.passed;
    } else {
      ctx.tally.check(false, std::string(rc.name) + " request to " +
                                 kKinds[id] + " answered wrongly");
    }
    // Protocol codec cost on the very frames this request exchanged.
    if (ctx.rec.active() && rc.pairs == 1 && i % 8 == 0) {
      std::vector<std::uint8_t> bytes;
      {
        const auto span = ctx.rec.span("serve.protocol_encode");
        bytes = serve::encode_frame(request);
      }
      bytes = serve::encode_frame(response);
      const auto span = ctx.rec.span("serve.protocol_parse");
      (void)serve::parse_frame(bytes);
    }
  }
  return r;
}

/// Per-class latency and server-time accumulators over all rounds.
struct ClassStats {
  std::vector<double> p50_us;
  std::vector<double> p99_us;
  double client_ns = 0.0;
  double requests = 0.0;
  double server_ns = 0.0;
  double server_requests = 0.0;
};

class ServePass final : public Pass {
 public:
  ServePass(Context& ctx, Size size)
      : ctx_(ctx),
        full_(size == Size::kFull),
        n_(full_ ? 512 : 128),
        tag_(full_ ? "serve" : "serve.small"),
        round_s_(full_ ? 0.04 : 0.02) {}

  void set_up() override {
    // Repeated; the last catalog is the one served.
    for (std::size_t rep = 0; rep < (full_ ? 3 : 2); ++rep) {
      served_.reset();
      const auto start = Clock::now();
      served_ = start_catalog(ctx_, n_, rep);
      setup_s_.push_back(seconds_since(start));
    }
    record_graph(ctx_, tag_, *served_->graph);
    ctx_.layer.set("serve.catalog_resident_mb", served_->catalog_resident_mb,
                   "MB");
    bytes_before_ = wire_bytes();
  }

  /// One cycle: a short closed-loop round of every class in turn, so a
  /// slow spell hits every class alike. Two closed-loop callers sharing a
  /// CPU with the server settle, for a whole round, into one of two
  /// interleavings whose median latencies differ by up to half, and the
  /// share of rounds in the slow one varies from run to run with the load
  /// on the host, as do slow spells of the host. So a run holds many short
  /// rounds, and each p50 is the p50 of the fastest round — the fast
  /// interleaving on a quiet host, best of many like timeit's repeats —
  /// which any change to the serving path moves too. A median over rounds
  /// would jump between the two. Each p99 is the median over rounds of
  /// that round's p99, the throughput the median over cycles.
  void step() override {
    auto& registry = obs::MetricsRegistry::global();
    const std::size_t cycle = cycles_++;
    std::uint64_t cycle_pairs = 0;
    double cycle_s = 0.0;
    for (std::size_t c = 0; c < std::size(kClasses); ++c) {
      const RequestClass& rc = kClasses[c];
      const obs::HistogramSnapshot server_before =
          registry.histogram_value("serve.request_ns");
      std::vector<ClientResult> results(kConnections);
      const auto start = Clock::now();
      {
        const auto span = ctx_.rec.span("serve.traffic");
        std::vector<std::jthread> clients;
        for (std::size_t conn = 0; conn < kConnections; ++conn) {
          clients.emplace_back([&, conn] {
            try {
              results[conn] = run_client(
                  ctx_, *served_, rc, conn,
                  derive_seed(ctx_.seed, kStream + 200,
                              (cycle * std::size(kClasses) + c) * 2 + conn),
                  round_s_);
            } catch (const std::exception& e) {
              ctx_.tally.check(false, std::string("client: ") + e.what());
            }
          });
        }
      }
      cycle_s += seconds_since(start);
      const obs::HistogramSnapshot server_after =
          registry.histogram_value("serve.request_ns");

      std::vector<double> latency;
      for (const ClientResult& r : results) {
        latency.insert(latency.end(), r.latency_ns.begin(), r.latency_ns.end());
        cycle_pairs += r.pairs;
        ctx_.tally.count(r.passed, 0, "");
      }
      ClassStats& st = stats_[c];
      st.p50_us.push_back(quantile(latency, 0.5) / 1000.0);
      st.p99_us.push_back(quantile(latency, 0.99) / 1000.0);
      for (const double ns : latency) st.client_ns += ns;
      st.requests += static_cast<double>(latency.size());
      st.server_ns += static_cast<double>(server_after.sum - server_before.sum);
      st.server_requests +=
          static_cast<double>(server_after.count() - server_before.count());
    }
    pairs_ += cycle_pairs;
    traffic_s_ += cycle_s;
    pairs_per_s_.push_back(static_cast<double>(cycle_pairs) / cycle_s);
  }

  PassResult finish() override {
    for (std::size_t c = 0; c < std::size(kClasses); ++c) {
      const std::string name = kClasses[c].name;
      const ClassStats& st = stats_[c];
      const double client_mean_us =
          st.client_ns / std::max(1.0, st.requests) / 1e3;
      const double server_mean_us =
          st.server_ns / std::max(1.0, st.server_requests) / 1e3;
      ctx_.layer.set("serve.server_request_us." + name, server_mean_us, "us");
      ctx_.layer.set("serve.transport_us." + name,
                     client_mean_us - server_mean_us, "us");
      ctx_.e2e.set("serve_" + name + "_p50_us", quantile(st.p50_us, 0.0),
                   "us");
      if (name != "route") {
        ctx_.e2e.set("serve_" + name + "_p99_us", median(st.p99_us), "us");
      }
    }
    ctx_.e2e.set("serve_pairs_per_s", median(pairs_per_s_), "1/s");
    // The distances cached while building the catalog are the bench's, not
    // the server's.
    graph::DistanceCache::global().clear();
    ctx_.e2e.set("serve_rss_mb", settled_rss_mb(), "MB");
    ctx_.layer.set("serve.bytes_per_pair",
                   static_cast<double>(wire_bytes() - bytes_before_) /
                       static_cast<double>(std::max<std::uint64_t>(1, pairs_)),
                   "count");
    for (const char* what : {"serve.protocol_encode", "serve.protocol_parse"}) {
      ctx_.layer.set(std::string(what) + "_ns",
                     median(ctx_.rec.samples_ns(what)), "ns");
    }
    for (const std::string& kind : kKinds) {
      const std::vector<double> batch =
          ctx_.rec.samples_ns("model.route_batch." + kind);
      if (!batch.empty()) {
        ctx_.layer.set("model.route_batch_ns_per_pair." + kind,
                       median(batch) / static_cast<double>(kLargePairs), "ns");
      }
    }
    check_artifacts();
    served_.reset();
    return {median(setup_s_), traffic_s_ / static_cast<double>(pairs_)};
  }

 private:
  static std::uint64_t wire_bytes() {
    const auto& registry = obs::MetricsRegistry::global();
    return registry.counter_value("serve.bytes_in") +
           registry.counter_value("serve.bytes_out");
  }

  /// Untimed: the served artifacts decode and compile back to the oracle,
  /// and each scheme meets its stretch bound on sampled pairs.
  void check_artifacts() {
    const graph::Graph& g = *served_->graph;
    for (std::size_t id = 0; id < kKinds.size(); ++id) {
      const std::string& kind = kKinds[id];
      const Oracle& o = served_->oracles[id];
      const std::string path = served_->dir + "/" + kind + ".ort";
      const double rss_before = settled_rss_mb();
      bitio::BitVector mapped;
      {
        const auto span = ctx_.rec.span("serve.load_mmap." + kind);
        mapped = serve::load_artifact_mmap(path);
      }
      std::unique_ptr<model::RoutingScheme> decoded;
      {
        const auto span = ctx_.rec.span("schemes.deserialize." + kind, true);
        decoded = schemes::deserialize_any(mapped, g);
      }
      std::unique_ptr<model::FastPath> fast;
      {
        const auto span = ctx_.rec.span("model.compile_fast." + kind);
        fast = decoded->compile_fast();
      }
      ctx_.layer.set("model.resident_mb." + kind, rss_mb() - rss_before, "MB");
      ctx_.layer.set("model.artifact_bits." + kind,
                     static_cast<double>(mapped.size()), "bits");
      ctx_.layer.set("model.accounted_bits." + kind,
                     static_cast<double>(o.scheme->space().total_bits()),
                     "bits");
      ctx_.tally.check(serialize_any(*decoded) == serialize_any(*o.scheme),
                       kind + ": served artifact does not round-trip");
      {
        const auto span = ctx_.rec.span("model.verify." + kind);
        const model::VerificationResult v = model::verify_scheme_sampled(
            g, *o.scheme, full_ ? 2000 : 500,
            derive_seed(ctx_.seed, kStream + 300));
        const double bound = kind == "tz" ? 3.0 : 1.0;
        ctx_.tally.check(v.ok() && v.max_stretch <= bound,
                         kind + ": sampled stretch verify failed");
      }
      measure_next_hop(ctx_, kind, *o.scheme, 20000,
                       derive_seed(ctx_.seed, kStream + 400, id));
    }
  }

  Context& ctx_;
  const bool full_;
  const std::size_t n_;
  const std::string tag_;
  const double round_s_;
  std::unique_ptr<Served> served_;
  std::vector<double> setup_s_;
  std::uint64_t bytes_before_ = 0;
  std::size_t cycles_ = 0;
  ClassStats stats_[std::size(kClasses)];
  std::vector<double> pairs_per_s_;
  double traffic_s_ = 0.0;
  std::uint64_t pairs_ = 0;
};

}  // namespace

std::unique_ptr<Pass> make_serve(Context& ctx, Size size) {
  return std::make_unique<ServePass>(ctx, size);
}

}  // namespace perfbench
