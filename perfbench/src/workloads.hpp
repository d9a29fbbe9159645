// The four workloads and the library calls they share. Every call into a
// library module goes through a recorder span named after that module, so
// a traced run can attribute the workload's time layer by layer.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "bitio/bit_vector.hpp"
#include "graph/graph.hpp"
#include "harness.hpp"
#include "model/scheme.hpp"

namespace perfbench {

/// Input scale of one pass. kFull is a workload's own main phase; kSmall
/// is the cross-check pass the other workloads run of it, and every pass
/// under --smoke.
enum class Size : std::uint8_t { kFull, kSmall };

struct Context {
  std::uint64_t seed = 0;
  std::string workdir;  ///< scratch directory inside the checkout
  Recorder& rec;
  Metrics& e2e;    ///< end-to-end metrics (first writer wins)
  Metrics& layer;  ///< per-layer metrics (first writer wins)
  Tally& tally;
  Record& record;
};

/// What a pass hands back besides the metrics it wrote.
struct PassResult {
  double setup_s = 0.0;  ///< median set-up time of the pass
  double unit_s = 0.0;   ///< time of one unit of measured work, for the
                         ///< traced-over-untraced overhead ratio
};

/// One workload's path, driven step by step, so a run can interleave its
/// own path with the cross-check passes of the others and a slow spell of
/// a shared machine lands on a few steps of each rather than on all of
/// one.
class Pass {
 public:
  Pass() = default;
  Pass(const Pass&) = delete;
  Pass& operator=(const Pass&) = delete;
  virtual ~Pass() = default;
  /// Everything before the measured phase.
  virtual void set_up() {}
  /// One timed iteration: an artifact pair, a traffic cycle, a churn
  /// session pair, a simulation round.
  virtual void step() = 0;
  /// Untimed checks, then the pass's metrics.
  virtual PassResult finish() = 0;
};

[[nodiscard]] std::unique_ptr<Pass> make_build_sparse(Context& ctx, Size size);
[[nodiscard]] std::unique_ptr<Pass> make_serve(Context& ctx, Size size);
[[nodiscard]] std::unique_ptr<Pass> make_churn(Context& ctx, Size size);
[[nodiscard]] std::unique_ptr<Pass> make_simulate(Context& ctx, Size size);

// --- Calls shared by the workloads -------------------------------------------

/// A member of a graph::TopologyFamily spec ("ba:2", "grid"), or a
/// certified G(n,1/2) for "certified"; span graph.generate.
[[nodiscard]] optrt::graph::Graph generate(Context& ctx,
                                           const std::string& family,
                                           std::size_t n, std::uint64_t seed);

/// Builds a "full-table", "tz" or "compact-diam2" scheme over `g`; span
/// schemes.build.<kind>.
[[nodiscard]] std::unique_ptr<optrt::model::RoutingScheme> build_scheme(
    Context& ctx, const std::string& kind, const optrt::graph::Graph& g,
    std::uint64_t seed);

/// ORT2 artifact of a scheme built by build_scheme (or decoded from one).
[[nodiscard]] optrt::bitio::BitVector serialize_any(
    const optrt::model::RoutingScheme& scheme);

/// serialize_any under span schemes.serialize.<kind>.
[[nodiscard]] optrt::bitio::BitVector serialize_scheme(
    Context& ctx, const std::string& kind,
    const optrt::model::RoutingScheme& scheme);

/// Records graph fingerprint words under `key` in the determinism record.
void record_graph(Context& ctx, const std::string& key,
                  const optrt::graph::Graph& g);

/// Times `pairs` calls of the scheme's decode path (RoutingScheme::next_hop
/// with a fresh header) and books the mean as schemes.next_hop_ns.<kind>.
void measure_next_hop(Context& ctx, const std::string& kind,
                      const optrt::model::RoutingScheme& scheme,
                      std::size_t pairs, std::uint64_t seed);

}  // namespace perfbench
