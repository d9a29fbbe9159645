#include "harness.hpp"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>

#include "obs/trace.hpp"

namespace perfbench {

namespace {

/// The library span whose time the recorder books to module graph.
constexpr const char* kProgramSpan = "graph.distance_matrix.build";

thread_local Recorder::Span* t_open_span = nullptr;

double status_field_mb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string key = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      std::istringstream fields(line.substr(key.size()));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double rss_mb() { return status_field_mb("VmRSS"); }

double peak_rss_mb() { return status_field_mb("VmHWM"); }

void release_free_heap() { ::malloc_trim(0); }

double settled_rss_mb() {
  release_free_heap();
  return rss_mb();
}

double reset_peak_rss() {
  const double start = settled_rss_mb();
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  return start;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream * 0x10001 + index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  values_.emplace(name, Metric{value, unit});
}

void Tally::check(bool ok, const std::string& what) {
  count(1, ok ? 0 : 1, what);
}

void Tally::count(std::uint64_t attempted, std::uint64_t failed,
                  const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0) std::cerr << "perfbench: FAIL (" << failed << "): " << what << "\n";
}

std::uint64_t Tally::attempted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return attempted_;
}

std::uint64_t Tally::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failed_;
}

void Record::add(const std::string& key, std::uint64_t value) {
  entries_.emplace_back(key, value);
}

std::string Record::json() const {
  std::ostringstream out;
  out << "{";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    out << (i ? "," : "") << "\"" << entries_[i].first
        << "\":" << entries_[i].second;
  }
  out << "}";
  return out.str();
}

Recorder::Recorder(optrt::obs::Trace* program_trace)
    : program_trace_(program_trace),
      active_(program_trace != nullptr),
      main_thread_(std::this_thread::get_id()),
      start_(Clock::now()) {}

void Recorder::stop() {
  if (!active_) return;
  wall_s_ = seconds_since(start_);
  active_ = false;
}

Recorder::Span Recorder::span(std::string name, bool capture_program) {
  return Span(active() ? this : nullptr, std::move(name), capture_program);
}

Recorder::Span::Span(Recorder* rec, std::string name, bool capture_program)
    : rec_(rec) {
  if (rec_ == nullptr) return;
  name_ = std::move(name);
  capture_program_ = capture_program;
  on_main_ = std::this_thread::get_id() == rec_->main_thread_;
  if (on_main_) {
    parent_ = t_open_span;
    t_open_span = this;
  }
  if (capture_program_) program_ns_at_open_ = rec_->program_span_ns();
  start_ = Clock::now();
}

Recorder::Span::~Span() {
  if (rec_ != nullptr) rec_->close(*this);
}

void Recorder::close(Span& span) {
  const auto dur = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           span.start_)
          .count());
  add_sample(span.name_, dur);
  if (!span.on_main_) return;
  if (span.capture_program_) {
    const std::uint64_t program = program_span_ns() - span.program_ns_at_open_;
    if (program > 0) {
      add_sample("graph.distance_matrix", program);
      std::lock_guard<std::mutex> lock(mu_);
      self_ns_["graph"] += program;
      span.child_ns_ += program;
    }
  }
  const std::string module = span.name_.substr(0, span.name_.find('.'));
  {
    std::lock_guard<std::mutex> lock(mu_);
    self_ns_[module] += dur - std::min(dur, span.child_ns_);
  }
  if (span.parent_ != nullptr) span.parent_->child_ns_ += dur;
  t_open_span = span.parent_;
}

void Recorder::add_sample(const std::string& name, std::uint64_t ns) {
  std::lock_guard<std::mutex> lock(mu_);
  samples_[static_cast<int>(phase_)][name].push_back(static_cast<double>(ns));
}

std::uint64_t Recorder::program_span_ns() const {
  for (const auto& row : program_trace_->summary()) {
    if (row.name == kProgramSpan) return row.total_ns;
  }
  return 0;
}

std::vector<double> Recorder::samples_ns(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& phase : samples_) {
    const auto it = phase.find(name);
    if (it != phase.end() && !it->second.empty()) return it->second;
  }
  return {};
}

std::map<std::string, double> Recorder::self_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, double> out;
  for (const auto& [module, ns] : self_ns_) out[module] = ns * 1e-9;
  return out;
}

double Recorder::wall_seconds() const { return wall_s_; }

}  // namespace perfbench
