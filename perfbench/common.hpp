#pragma once
// Shared pieces of the end-to-end benchmark: workload table, span recorder,
// metric sink and the small statistics helpers (README.md in this directory
// documents every metric these feed).

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <omp.h>

#include "core/diameter.hpp"
#include "graph/graph.hpp"
#include "sssp/delta_stepping.hpp"

namespace perfbench {

using gdiam::EdgeIndex;
using gdiam::Graph;
using gdiam::NodeId;

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// --- workloads ---------------------------------------------------------------

/// The pipeline workloads time the one-shot `gdiam estimate` / `gdiam sssp`
/// path on one generated .gcsr graph. With `mr_probe`, the traced run also
/// times the sharded BSP engine with resident pool workers on that graph.
struct PipelineWorkload {
  std::string name;
  bool mr_probe = false;
};

inline constexpr std::uint32_t kBspShards = 4;
/// Seeded sssp sources per run, and CLUSTER seeds (`gdiam estimate --seed
/// 1..8`) the estimates cycle through: the medians then cover the
/// algorithm's own randomness, not one draw of it.
inline constexpr unsigned kSourcesPerRun = 64;
inline constexpr std::uint64_t kClusterSeeds = 8;
/// Repetitions of every set-up step; the metric is their median.
inline constexpr int kSetupReps = 11;
/// Every timing gets at least this many samples, even when that takes longer
/// than --seconds, so that tail() sits at p66.7 or above.
inline constexpr std::size_t kMinSamples = 30;

/// Graph file names inside the run directory, per workload.
inline std::vector<std::string> graph_files(const std::string& workload) {
  if (workload == "social-rmat") return {"rmat17.gcsr"};
  if (workload == "road-grid") return {"road512.gcsr"};
  if (workload == "serve-mixed") return {"rmat15.gcsr", "road256.gcsr"};
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

// --- statistics ----------------------------------------------------------------

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest order statistic with at least ten samples above it: the
/// "tail" of README.md. Needs kMinSamples samples.
inline double tail(std::vector<double> v) {
  if (v.size() < kMinSamples) {
    throw std::runtime_error("tail needs >= " + std::to_string(kMinSamples) +
                             " samples, got " + std::to_string(v.size()));
  }
  std::sort(v.begin(), v.end());
  return v[v.size() - 11];
}

/// Percentile rank of tail() for n samples (reported next to the value).
inline double tail_rank(std::size_t n) {
  return 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
}

inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// --- spans -----------------------------------------------------------------------

/// In-memory span recorder around the benchmark's calls into the library:
/// name, start, duration and causing span. Written out once, at the end, as
/// Chrome trace-event JSON. When disabled, span() just runs the callable.
class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  /// Runs f inside a span named `name`; stores its wall time in *ms_out.
  template <class F>
  auto span(const char* name, F&& f, double* ms_out = nullptr) {
    const int parent = open_.empty() ? -1 : open_.back();
    const int id = static_cast<int>(spans_.size());
    if (enabled_) {
      spans_.push_back({name, us(Clock::now()), 0.0, parent});
      open_.push_back(id);
    }
    const Clock::time_point start = Clock::now();
    struct Closer {
      Trace& t;
      Clock::time_point start;
      double* ms_out;
      int id;
      ~Closer() {
        const double ms = ms_since(start);
        if (ms_out != nullptr) *ms_out = ms;
        if (t.enabled_) {
          t.spans_[static_cast<std::size_t>(id)].dur_us = ms * 1e3;
          t.open_.pop_back();
        }
      }
    } closer{*this, start, ms_out, id};
    return f();
  }

  /// Records an already finished span (an asynchronous request) under the
  /// innermost open span.
  void add(const char* name, Clock::time_point start, double ms) {
    if (!enabled_) return;
    spans_.push_back(
        {name, us(start), ms * 1e3, open_.empty() ? -1 : open_.back()});
  }

  void write_chrome(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write trace " + path);
    out << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                    "\"parent\":%d}}%s\n",
                    s.name.c_str(), s.start_us, s.dur_us, i, s.parent,
                    i + 1 < spans_.size() ? "," : "");
      out << buf;
    }
    out << "]}\n";
  }

 private:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double dur_us = 0.0;
    int parent = -1;
  };
  double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - t0_).count();
  }

  bool enabled_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// --- results -------------------------------------------------------------------

/// What one `run` reports to run.py: metrics with units, the operation
/// tally, counters that must repeat exactly across runs of the same input,
/// and free-form notes (failure reasons, sample counts).
struct Report {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::map<std::string, std::string> determinism;
  std::vector<std::string> notes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void put(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      fail("metric " + name + " is not finite");
      value = 0.0;
    }
    metrics.push_back({name, {value, unit}});
  }
  /// Records an operation; a failed check counts it as failed.
  void op(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      notes.push_back("FAILED: " + what);
    }
  }
  /// A failed check that belongs to no single operation.
  void fail(const std::string& what) {
    ++attempted;
    ++failed;
    notes.push_back("FAILED: " + what);
  }
  /// Pins a counter: a second value under the same key is a failure.
  void pin(const std::string& key, const std::string& value) {
    const auto [it, inserted] = determinism.emplace(key, value);
    if (!inserted && it->second != value) {
      fail("nondeterministic " + key + ": " + it->second + " vs " + value);
    }
  }

  void print_json() const;
};

inline std::string exact(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// `<prefix>.p50` and `<prefix>.tail` of a latency sample, with the sample
/// count and the tail's percentile rank in the notes.
inline void put_tally(Report& rep, const std::string& prefix,
                      const std::vector<double>& ms) {
  rep.put(prefix + ".p50", median(ms), "ms");
  rep.put(prefix + ".tail", tail(ms), "ms");
  char note[160];
  std::snprintf(note, sizeof note, "%s: %zu samples, tail = p%.1f",
                prefix.c_str(), ms.size(), tail_rank(ms.size()));
  rep.notes.push_back(note);
}

/// What the generator recorded for one graph file (meta.txt).
struct Meta {
  double lower_bound = 0.0;  // iterated-sweep diameter lower bound
  NodeId nodes = 0;
  EdgeIndex edges = 0;
};

Meta read_meta(const std::string& dir, const std::string& file);

/// kSourcesPerRun seeded sources with at least one edge.
std::vector<NodeId> pick_sources(const Graph& g, std::uint64_t seed);

/// The correctness checks shared by the workloads, each run outside the
/// timed region: a valid clustering, an estimate no lower than the lower
/// bound, Dijkstra's eccentricity from every Δ-stepping source, and
/// counters that repeat exactly (pinned per CLUSTER seed and per source).
class Checker {
 public:
  /// `key` prefixes the pinned counters (one Checker per graph).
  Checker(const Graph& g, double lower_bound, Report& rep,
          std::string key = "");
  /// Computes Dijkstra's eccentricity from every source, in parallel.
  void prepare(const std::vector<NodeId>& sources);
  void estimate(const gdiam::core::DiameterApproxResult& r,
                std::uint64_t seed);
  /// An estimate obtained another way (`how`: composed from the layer
  /// calls, or on another transport) must equal approximate_diameter's for
  /// the same seed.
  void same_estimate(double estimate, std::uint64_t seed,
                     const std::string& how);
  /// `transport` keys the pinned wire counters, which differ by transport.
  void sssp(NodeId s, const gdiam::sssp::DeltaSteppingResult& r,
            const std::string& transport = "");

  /// Medians over the distinct CLUSTER seeds checked so far.
  [[nodiscard]] double median_rounds() const;
  [[nodiscard]] double median_work() const;
  [[nodiscard]] double median_ratio() const;
  /// Mean over the distinct sources checked so far: per-source rounds are
  /// small integers on low-diameter graphs, and their median jumps.
  [[nodiscard]] double mean_sssp_rounds() const;

 private:
  struct EstimateCounts {
    double estimate = 0, rounds = 0, work = 0;
  };
  const Graph& g_;
  double lower_bound_;
  Report& rep_;
  std::string key_;
  std::map<std::uint64_t, EstimateCounts> estimates_;
  std::map<NodeId, double> oracle_ecc_;
  std::map<NodeId, double> sssp_rounds_;
};

/// Shared run parameters, parsed from the command line by e2e.cpp.
struct RunArgs {
  std::string workload;
  std::string dir;  // run directory holding the generated graphs
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // Chrome trace path (traced runs)
};

void run_pipeline(const RunArgs& args, Report& rep);
void run_serve_mixed(const RunArgs& args, Report& rep);

}  // namespace perfbench
