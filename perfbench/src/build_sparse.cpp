// build-sparse: the control-plane path on power-law graphs. For each of
// full-table and tz: scheme build → serialize → save_artifact →
// load_artifact_mmap → deserialize_any → compile_fast, on a freshly
// generated ba:2 graph per build so graph::DistanceCache can never serve a
// timed build from memory. A round-trip and sampled-stretch check follows
// each artifact, outside the timed path.
#include <algorithm>
#include <random>

#include "graph/algorithms.hpp"
#include "model/fastpath.hpp"
#include "model/verifier.hpp"
#include "obs/metrics.hpp"
#include "schemes/serialization.hpp"
#include "serve/store.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace optrt;

namespace {

constexpr std::uint64_t kStream = 1;
constexpr const char* kKinds[] = {"full-table", "tz"};
/// Timed repetitions of the set-up.
constexpr std::size_t kSetUpRepeats = 15;

struct Built {
  double seconds = 0.0;
  double resident_mb = 0.0;  ///< RSS growth from mmap load to compiled form
  std::size_t artifact_bits = 0;
  std::size_t accounted_bits = 0;
};

/// The timed artifact pipeline plus its untimed correctness checks.
Built build_artifact(Context& ctx, const std::string& kind,
                     const graph::Graph& g, std::uint64_t seed,
                     std::size_t verify_samples) {
  Built out;
  const std::string path = ctx.workdir + "/" + kind + ".ort";
  const auto start = Clock::now();
  const auto built = build_scheme(ctx, kind, g, seed);
  const bitio::BitVector bits = serialize_scheme(ctx, kind, *built);
  {
    const auto span = ctx.rec.span("schemes.save." + kind);
    schemes::save_artifact(path, bits);
  }
  const double rss_before = rss_mb();
  bitio::BitVector mapped;
  {
    const auto span = ctx.rec.span("serve.load_mmap." + kind);
    mapped = serve::load_artifact_mmap(path);
  }
  std::unique_ptr<model::RoutingScheme> decoded;
  {
    const auto span = ctx.rec.span("schemes.deserialize." + kind, true);
    decoded = schemes::deserialize_any(mapped, g);
  }
  std::unique_ptr<model::FastPath> fast;
  {
    const auto span = ctx.rec.span("model.compile_fast." + kind);
    fast = decoded->compile_fast();
  }
  out.seconds = seconds_since(start);
  out.resident_mb = rss_mb() - rss_before;
  out.artifact_bits = bits.size();
  out.accounted_bits = built->space().total_bits();

  ctx.tally.check(mapped == bits, kind + ": mmap load differs from save");
  ctx.tally.check(serialize_any(*decoded) == bits,
                  kind + ": deserialize → serialize is not bit-identical");
  {
    const auto span = ctx.rec.span("model.verify." + kind);
    const model::VerificationResult v =
        model::verify_scheme_sampled(g, *decoded, verify_samples, seed);
    const double bound = kind == "tz" ? 3.0 : 1.0;
    ctx.tally.check(v.ok() && v.max_stretch <= bound,
                    kind + ": sampled stretch verify failed (max stretch " +
                        std::to_string(v.max_stretch) + ")");
    // The compiled fast path must answer exactly like the decode path.
    std::mt19937_64 rng(seed);
    const auto n = static_cast<graph::NodeId>(g.node_count());
    std::uniform_int_distribution<graph::NodeId> pick(0, n - 1);
    std::vector<model::RoutePair> pairs;
    std::vector<graph::NodeId> expect;
    while (pairs.size() < verify_samples) {
      const graph::NodeId u = pick(rng);
      const graph::NodeId w = pick(rng);
      if (u == w) continue;
      model::MessageHeader header;
      pairs.push_back({u, decoded->label_of(w)});
      expect.push_back(decoded->next_hop(u, decoded->label_of(w), header));
    }
    std::vector<graph::NodeId> hops(pairs.size());
    fast->route_batch(pairs, hops);
    ctx.tally.check(hops == expect,
                    kind + ": compiled fast path disagrees with decode path");
  }
  return out;
}

class BuildSparse final : public Pass {
 public:
  BuildSparse(Context& ctx, Size size)
      : ctx_(ctx),
        n_(size == Size::kFull ? 4096 : 1024),
        verify_samples_(size == Size::kFull ? 2000 : 500),
        tag_(size == Size::kFull ? "build-sparse" : "build-sparse.small") {}

  /// Set-up is graph generation: the time to generate one iteration's
  /// graph pair, repeated kSetUpRepeats times on the pairs of the first
  /// iterations. Steps generate their own pairs again, untimed. Each
  /// repetition starts from fresh pages, as the first one in a new process
  /// does; otherwise whether the allocator hands back warm pages varies
  /// from run to run and doubles the time.
  void set_up() override {
    for (std::size_t it = 0; it < kSetUpRepeats; ++it) {
      release_free_heap();
      const auto start = Clock::now();
      (void)generate_pair(it);
      setup_s_.push_back(seconds_since(start));
    }
  }

  void step() override {
    const std::size_t it = iterations_++;
    const std::vector<graph::Graph> graphs = generate_pair(it);

    auto& registry = obs::MetricsRegistry::global();
    double total_s = 0.0;
    double peak = 0.0;
    artifact_bytes_ = 0.0;
    for (std::size_t k = 0; k < 2; ++k) {
      const std::string kind = kKinds[k];
      const std::uint64_t misses =
          registry.counter_value("graph.distance_cache.misses");
      const double baseline = reset_peak_rss();
      const Built b = build_artifact(ctx_, kind, graphs[k],
                                     derive_seed(ctx_.seed, kStream + 100, it),
                                     verify_samples_);
      peak = std::max(peak, peak_rss_mb() - baseline);
      total_s += b.seconds;
      artifact_bytes_ += static_cast<double>(b.artifact_bits) / 8.0;
      // A cold build computes its distances exactly once; a hit would
      // mean the timed build was served from memory.
      ctx_.tally.check(
          registry.counter_value("graph.distance_cache.misses") == misses + 1,
          kind + ": build was not cold (distance cache misses != 1)");
      if (it == 0) {
        record_graph(ctx_, tag_ + "." + kind, graphs[k]);
        ctx_.record.add(tag_ + "." + kind + ".artifact_bits", b.artifact_bits);
        ctx_.layer.set("model.artifact_bits." + kind,
                       static_cast<double>(b.artifact_bits), "bits");
        ctx_.layer.set("model.accounted_bits." + kind,
                       static_cast<double>(b.accounted_bits), "bits");
        ctx_.layer.set("model.resident_mb." + kind, b.resident_mb, "MB");
      }
      graph::DistanceCache::global().clear();
    }
    build_s_.push_back(total_s);
    peak_mb_.push_back(peak);
  }

  PassResult finish() override {
    ctx_.e2e.set("build_s", median(build_s_), "s");
    ctx_.e2e.set("build_peak_rss_mb", median(peak_mb_), "MB");
    ctx_.layer.set("rss_per_artifact_byte",
                   median(peak_mb_) * 1048576.0 / artifact_bytes_, "ratio");
    return {median(setup_s_), median(build_s_)};
  }

 private:
  /// Iteration `it`'s two graphs, one per artifact.
  std::vector<graph::Graph> generate_pair(std::size_t it) {
    std::vector<graph::Graph> graphs;
    for (std::size_t k = 0; k < 2; ++k) {
      graphs.push_back(generate(ctx_, "ba:2", n_,
                                derive_seed(ctx_.seed, kStream, 2 * it + k)));
    }
    return graphs;
  }

  Context& ctx_;
  const std::size_t n_;
  const std::size_t verify_samples_;
  const std::string tag_;
  std::size_t iterations_ = 0;
  std::vector<double> setup_s_;
  std::vector<double> build_s_;
  std::vector<double> peak_mb_;
  double artifact_bytes_ = 0.0;
};

}  // namespace

std::unique_ptr<Pass> make_build_sparse(Context& ctx, Size size) {
  return std::make_unique<BuildSparse>(ctx, size);
}

}  // namespace perfbench
