// perfbench: the repository's end-to-end benchmark program.
//
//   perfbench --workload build-sparse|serve|churn|simulate --seed N
//             --seconds S --trace 0|1 [--smoke] [--workdir DIR]
//
// A run sets up and measures for about S seconds: its workload's own path
// for kMainShare of that time, interleaved with a cross-check pass over
// each of the other three paths at small size for kCrossCheckShare each,
// so every end-to-end metric is measured on every workload. Every
// answer is checked; the last stdout line is the result object
// {"correct","attempted","failed","metrics"} with the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1). Earlier lines list the
// metrics by name and unit, and a "record" line holds the run's
// deterministic facts (graph and churn-plan fingerprints, work counts).
// --smoke shrinks every pass to the small size.
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "core/parallel.hpp"
#include "obs/trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Workload {
  const char* name;
  std::unique_ptr<Pass> (*make)(Context&, Size);
};
constexpr Workload kWorkloads[] = {
    {"build-sparse", make_build_sparse},
    {"serve", make_serve},
    {"churn", make_churn},
    {"simulate", make_simulate},
};

/// The whole run is confined to one CPU, the last one it may use: on a
/// shared virtual machine the low-numbered CPUs take the interrupts and
/// other tenants' work, and closed-loop serving that spreads its peer
/// wake-ups over several (often idle, virtual) CPUs has a latency tail
/// that varies several-fold between runs. The library's own thread pool
/// gets that one CPU too.
constexpr std::size_t kLibraryThreads = 1;
/// Shares of --seconds measured on the workload's own path and on each of
/// the three cross-check passes. On a shared host the speed of a CPU
/// wanders by ±15% from one half second to the next, so each path needs
/// seconds of measured time for its medians to settle.
constexpr double kMainShare = 0.4;
constexpr double kCrossCheckShare = 0.2;
/// Fewest timed steps of any pass, whatever its time budget.
constexpr std::size_t kMinSteps = 3;

struct MetricSpec {
  std::string name;
  std::string unit;
};

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"build_s", "s"},
      {"build_peak_rss_mb", "MB"},
      {"serve_pairs_per_s", "1/s"},
      {"serve_small_p50_us", "us"},
      {"serve_small_p99_us", "us"},
      {"serve_large_p50_us", "us"},
      {"serve_large_p99_us", "us"},
      {"serve_route_p50_us", "us"},
      {"serve_rss_mb", "MB"},
      {"churn_s", "s"},
      {"repair_mean_ms", "ms"},
      {"repair_p95_ms", "ms"},
      {"sim_hops_per_s", "1/s"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = [] {
    const char* kinds[] = {"full-table", "tz", "compact-diam2"};
    const char* repairable[] = {"full-table", "tz"};
    const char* classes[] = {"small", "large", "route"};
    std::vector<MetricSpec> s = {{"graph.generate_s", "s"},
                                 {"graph.distance_matrix_s", "s"}};
    for (const char* k : kinds) {
      for (const char* m :
           {"schemes.build_s.", "schemes.serialize_s.", "schemes.save_s.",
            "schemes.deserialize_s.", "serve.load_mmap_s.",
            "model.compile_fast_s.", "model.verify_s."}) {
        s.push_back({std::string(m) + k, "s"});
      }
      s.push_back({std::string("model.artifact_bits.") + k, "bits"});
      s.push_back({std::string("model.accounted_bits.") + k, "bits"});
      s.push_back({std::string("model.resident_mb.") + k, "MB"});
      s.push_back({std::string("model.route_batch_ns_per_pair.") + k, "ns"});
      s.push_back({std::string("schemes.next_hop_ns.") + k, "ns"});
    }
    s.push_back({"rss_per_artifact_byte", "ratio"});
    s.push_back({"serve.catalog_resident_mb", "MB"});
    for (const char* c : classes) {
      s.push_back({std::string("serve.server_request_us.") + c, "us"});
      s.push_back({std::string("serve.transport_us.") + c, "us"});
    }
    s.push_back({"serve.protocol_encode_ns", "ns"});
    s.push_back({"serve.protocol_parse_ns", "ns"});
    s.push_back({"serve.bytes_per_pair", "count"});
    for (const char* m : {"net.simulator.send_s", "net.simulator.run_s"}) {
      s.push_back({m, "s"});
    }
    for (const char* m : {"net.simulator.hops", "net.simulator.messages",
                          "net.simulator.delivered"}) {
      s.push_back({m, "count"});
    }
    for (const char* k : repairable) {
      s.push_back({std::string("schemes.repair_ms.") + k, "ms"});
      s.push_back({std::string("schemes.repair_p50_ms.") + k, "ms"});
      for (const char* c :
           {"patched", "rebuilt", "tables_touched", "dist_rows_bfs"}) {
        s.push_back({std::string("schemes.repair.") + c + "." + k, "count"});
      }
    }
    s.push_back({"net.churn.other_s", "s"});
    s.push_back({"schemes.oracle_s", "s"});
    s.push_back({"obs.trace_overhead", "ratio"});
    for (const char* m : {"graph", "schemes", "model", "serve", "net"}) {
      s.push_back({std::string("self_s.") + m, "s"});
    }
    s.push_back({"unattributed_s", "s"});
    s.push_back({"traced_wall_s", "s"});
    return s;
  }();
  return specs;
}

/// Per-call medians of the recorder's spans, booked under the metric
/// names of per_layer_metrics().
void add_span_metrics(const Recorder& rec, Metrics& layer) {
  const std::pair<const char*, const char*> spans[] = {
      {"graph.generate", "graph.generate_s"},
      {"graph.distance_matrix", "graph.distance_matrix_s"},
  };
  for (const auto& [span, metric] : spans) {
    layer.set(metric, median(rec.samples_ns(span)) * 1e-9, "s");
  }
  for (const char* k : {"full-table", "tz", "compact-diam2"}) {
    const std::pair<const char*, const char*> per_kind[] = {
        {"schemes.build.", "schemes.build_s."},
        {"schemes.serialize.", "schemes.serialize_s."},
        {"schemes.save.", "schemes.save_s."},
        {"schemes.deserialize.", "schemes.deserialize_s."},
        {"serve.load_mmap.", "serve.load_mmap_s."},
        {"model.compile_fast.", "model.compile_fast_s."},
        {"model.verify.", "model.verify_s."},
    };
    for (const auto& [span, metric] : per_kind) {
      layer.set(std::string(metric) + k,
                median(rec.samples_ns(std::string(span) + k)) * 1e-9, "s");
    }
  }
  double attributed = 0.0;
  for (const auto& [module, seconds] : rec.self_seconds()) {
    layer.set("self_s." + module, seconds, "s");
    attributed += seconds;
  }
  layer.set("unattributed_s", rec.wall_seconds() - attributed, "s");
  layer.set("traced_wall_s", rec.wall_seconds(), "s");
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Prints the named metrics, then the result object as the last line. An
/// end-to-end metric that was not measured fails the run; a per-layer
/// metric whose layer did no work reads 0.
void print_result(const std::vector<MetricSpec>& specs, const Metrics& values,
                  bool require_all, Tally& tally, const Record& record) {
  std::vector<std::pair<MetricSpec, double>> rows;
  for (const MetricSpec& spec : specs) {
    const auto it = values.all().find(spec.name);
    const bool present = it != values.all().end();
    const double v = present ? it->second.value : 0.0;
    if (!std::isfinite(v) || (require_all && !present)) {
      tally.check(false, "metric " + spec.name + " missing or not finite");
    }
    rows.push_back({spec, std::isfinite(v) ? v : 0.0});
  }
  const std::uint64_t attempted = tally.attempted();
  const std::uint64_t failed = tally.failed();
  for (const auto& [spec, v] : rows) {
    std::cout << "metric " << spec.name << " " << json_number(v) << " "
              << spec.unit << "\n";
  }
  std::cout << "metric failed_share "
            << json_number(static_cast<double>(failed) /
                           static_cast<double>(attempted))
            << " ratio\n";
  std::cout << "record " << record.json() << "\n";
  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::cout << (i ? ", " : "") << "\"" << rows[i].first.name
              << "\": {\"value\": " << json_number(rows[i].second)
              << ", \"unit\": \"" << rows[i].first.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

/// Confines this thread, and every thread it starts later, to the last
/// CPU it may run on.
void pin_cpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      cpu_set_t chosen;
      CPU_ZERO(&chosen);
      CPU_SET(cpu, &chosen);
      (void)sched_setaffinity(0, sizeof chosen, &chosen);
      return;
    }
  }
}

/// A pass and its share of the run.
struct Scheduled {
  std::unique_ptr<Pass> pass;
  Recorder::Phase phase;
  double budget_s;
  double spent_s = 0.0;
  std::size_t steps = 0;
};

/// Sets every pass up, then steps them interleaved — always the one
/// furthest behind its time budget — until each has spent its budget and
/// made kMinSteps steps, then finishes them. Returns the first pass's
/// result.
PassResult run_passes(Recorder& rec, std::vector<Scheduled>& passes) {
  for (Scheduled& p : passes) {
    rec.set_phase(p.phase);
    p.pass->set_up();
  }
  while (true) {
    Scheduled* next = nullptr;
    double least = 0.0;
    for (Scheduled& p : passes) {
      if (p.steps >= kMinSteps && p.spent_s >= p.budget_s) continue;
      const double progress = p.spent_s / p.budget_s;
      if (next == nullptr || progress < least) {
        next = &p;
        least = progress;
      }
    }
    if (next == nullptr) break;
    rec.set_phase(next->phase);
    // Every step starts from fresh heap pages, whichever pass ran before
    // it: build-sparse hands freed heap back to measure its peak, and a
    // step that happens to follow it would otherwise page-fault more.
    release_free_heap();
    const auto start = Clock::now();
    next->pass->step();
    next->spent_s += seconds_since(start);
    ++next->steps;
  }
  PassResult first;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    rec.set_phase(passes[i].phase);
    const PassResult r = passes[i].pass->finish();
    if (i == 0) first = r;
  }
  return first;
}

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload build-sparse|serve|churn|simulate"
               " --seed N --seconds S --trace 0|1 [--smoke] [--workdir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool traced = false;
  bool smoke = false;
  std::string workdir = ".perfbench-work";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--smoke") {
      smoke = true;
      continue;
    }
    if (i + 1 >= argc) return usage("missing value after " + a);
    const std::string v = argv[++i];
    try {
      if (a == "--seed") {
        seed = std::stoull(v);
        continue;
      }
      if (a == "--seconds") {
        seconds = std::stod(v);
        continue;
      }
    } catch (const std::exception&) {
      return usage("bad value for " + a + ": " + v);
    }
    if (a == "--workload") {
      workload = v;
    } else if (a == "--trace") {
      traced = v == "1";
    } else if (a == "--workdir") {
      workdir = v;
    } else {
      return usage("unknown flag " + a);
    }
  }
  const Workload* focus = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload == w.name) focus = &w;
  }
  if (focus == nullptr) return usage("unknown workload '" + workload + "'");
  if (!(seconds > 0.0)) return usage("--seconds must be positive");

  pin_cpu();
  optrt::core::set_default_threads(kLibraryThreads);
  std::filesystem::create_directories(workdir);
  int status = 0;
  try {
    Metrics e2e;
    Metrics layer;
    Tally tally;
    Record record;
    const Size size = smoke ? Size::kSmall : Size::kFull;

    // A traced run first measures the workload's own pass untraced; the
    // ratio of the two work-unit times is the tracing overhead. Only the
    // traced run feeds the reported metrics.
    double plain_unit_s = 0.0;
    if (traced) {
      Recorder inert(nullptr);
      Metrics e2e_untraced;
      Metrics layer_untraced;
      Record record_untraced;
      Context untraced{seed,  workdir,        inert, e2e_untraced,
                       layer_untraced, tally, record_untraced};
      std::vector<Scheduled> plain;
      plain.push_back({focus->make(untraced, size), Recorder::Phase::kMain,
                       seconds * kMainShare / 2});
      plain_unit_s = run_passes(inert, plain).unit_s;
    }
    optrt::obs::Trace program_trace;
    std::optional<optrt::obs::TraceScope> scope;
    if (traced) scope.emplace(program_trace);
    Recorder rec(traced ? &program_trace : nullptr);
    Context ctx{seed, workdir, rec, e2e, layer, tally, record};
    std::vector<Scheduled> passes;
    passes.push_back({focus->make(ctx, size), Recorder::Phase::kMain,
                      seconds * kMainShare / (traced ? 2 : 1)});
    for (const Workload& w : kWorkloads) {
      if (&w == focus) continue;
      passes.push_back({w.make(ctx, Size::kSmall), Recorder::Phase::kCrossCheck,
                        seconds * kCrossCheckShare});
    }
    const PassResult main_pass = run_passes(rec, passes);
    rec.stop();
    if (traced) {
      layer.set("obs.trace_overhead", main_pass.unit_s / plain_unit_s, "ratio");
    }
    e2e.set("setup_s", main_pass.setup_s, "s");

    if (traced) {
      add_span_metrics(rec, layer);
      for (const auto& [name, m] : e2e.all()) {
        std::cout << "metric " << name << " " << json_number(m.value) << " "
                  << m.unit << "\n";
      }
      print_result(per_layer_metrics(), layer, false, tally, record);
    } else {
      print_result(end_to_end_metrics(), e2e, true, tally, record);
    }
    status = tally.failed() == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: error: " << e.what() << "\n";
    status = 1;
  }
  std::error_code ignored;
  std::filesystem::remove_all(workdir, ignored);
  return status;
}
