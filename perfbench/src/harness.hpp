// Shared scaffolding of the perfbench program: clocks and order statistics,
// phase-scoped memory probes, seed derivation, the metric/outcome sinks,
// and the bench-side span recorder that attributes time to the library's
// modules (graph, schemes, model, serve, net) from outside — every span
// wraps a call the benchmark itself makes into a module's public API.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace optrt::obs {
class Trace;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point start);

/// Order statistics over a copy of `v`; 0 for an empty sample.
[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank quantile, q in [0, 1].
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] double mean(const std::vector<double>& v);

/// Resident and peak-resident memory of this process, from
/// /proc/self/status (VmRSS / VmHWM), in MB (2^20 bytes).
[[nodiscard]] double rss_mb();
[[nodiscard]] double peak_rss_mb();
/// Hands freed heap (of every malloc arena) back to the kernel, so the
/// next allocations start from fresh pages, as in a new process.
void release_free_heap();
/// RSS after release_free_heap(): live data, not allocator leftovers.
[[nodiscard]] double settled_rss_mb();
/// Settles the heap and restarts the VmHWM high-water mark at the current
/// RSS (/proc/self/clear_refs), so the next peak_rss_mb() covers only what
/// runs after this call — never an earlier phase's peak. Returns that
/// starting RSS.
double reset_peak_rss();

/// SplitMix64 over (seed, stream, index): the one way every input of a
/// run is drawn from --seed.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t stream,
                                        std::uint64_t index = 0);

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Named metrics. The first writer of a name wins, so a workload's main
/// phase (which runs first) is never overwritten by a cross-check pass.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] const std::map<std::string, Metric>& all() const noexcept {
    return values_;
  }

 private:
  std::map<std::string, Metric> values_;
};

/// Operations attempted and failed; every failed check is reported on
/// stderr with its reason. Thread-safe (serve checks from client threads).
class Tally {
 public:
  void check(bool ok, const std::string& what);
  /// Books `attempted` operations of which `failed` failed for `what`.
  void count(std::uint64_t attempted, std::uint64_t failed,
             const std::string& what);
  [[nodiscard]] std::uint64_t attempted() const;
  [[nodiscard]] std::uint64_t failed() const;

 private:
  mutable std::mutex mu_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Deterministic facts of a run (graph and churn-plan fingerprints, work
/// counts of the first iteration): the same seed must reproduce every
/// entry exactly. Printed as one "record {...}" line.
class Record {
 public:
  void add(const std::string& key, std::uint64_t value);
  [[nodiscard]] std::string json() const;

 private:
  std::vector<std::pair<std::string, std::uint64_t>> entries_;
};

/// Bench-side spans. A span's name is "<module>.<call>[.<kind>]"; its
/// module is the text before the first dot. On the thread that created
/// the recorder, spans nest and each closed span adds its self time
/// (duration minus its children) to its module, so the module self times
/// plus the unattributed remainder add up to the traced wall time. Spans
/// on other threads (serve clients) contribute per-call samples only.
///
/// A recorder built without a trace records nothing: its spans are inert
/// and read no clock.
class Recorder {
 public:
  /// Which part of a run samples come from: the workload's main phase or
  /// the cross-check pass over the other paths. Per-call statistics
  /// prefer main-phase samples.
  enum class Phase : std::uint8_t { kMain, kCrossCheck };

  class Span {
   public:
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span();

   private:
    friend class Recorder;
    Span(Recorder* rec, std::string name, bool capture_program);

    Recorder* rec_ = nullptr;
    std::string name_;
    bool capture_program_ = false;
    bool on_main_ = false;
    Span* parent_ = nullptr;
    Clock::time_point start_{};
    std::uint64_t child_ns_ = 0;
    std::uint64_t program_ns_at_open_ = 0;
  };

  /// Records from construction until stop() when `program_trace` (the
  /// trace the library's own spans go to) is non-null.
  explicit Recorder(optrt::obs::Trace* program_trace);

  [[nodiscard]] bool active() const noexcept { return active_; }

  /// Ends the recording window; wall_seconds() is its length.
  void stop();
  void set_phase(Phase phase) noexcept { phase_ = phase; }

  /// Opens a span. With capture_program, time the library spent in its
  /// own "graph.distance_matrix.build" trace span during this call is
  /// booked as a child span "graph.distance_matrix" (module graph).
  [[nodiscard]] Span span(std::string name, bool capture_program = false);

  /// Per-call durations in ns for `name`: main-phase samples when there
  /// are any, else cross-check samples.
  [[nodiscard]] std::vector<double> samples_ns(const std::string& name) const;

  /// Self seconds per module, and the traced wall time they account for.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;
  [[nodiscard]] double wall_seconds() const;

 private:
  void close(Span& span);
  void add_sample(const std::string& name, std::uint64_t ns);
  [[nodiscard]] std::uint64_t program_span_ns() const;

  optrt::obs::Trace* program_trace_;
  bool active_;
  Phase phase_ = Phase::kMain;
  const std::thread::id main_thread_;
  const Clock::time_point start_;
  double wall_s_ = 0.0;

  mutable std::mutex mu_;
  std::map<std::string, std::vector<double>> samples_[2];
  std::map<std::string, std::uint64_t> self_ns_;
};

}  // namespace perfbench
