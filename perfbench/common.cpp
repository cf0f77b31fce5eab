// The workload-independent parts of the benchmark: the result line, the
// generator's meta file, source selection and the correctness checks
// (common.hpp).

#include <bit>
#include <fstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "sssp/dijkstra.hpp"
#include "util/rng.hpp"

using namespace gdiam;

namespace perfbench {

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  out += '"';
  return out;
}

}  // namespace

void Report::print_json() const {
  std::string s = "{\"attempted\":";
  s += std::to_string(attempted);
  s += ",\"failed\":";
  s += std::to_string(failed);
  s += ",\"metrics\":{";
  const char* sep = "";
  for (const auto& [name, vu] : metrics) {
    s += sep;
    s += json_string(name);
    s += ":{\"value\":";
    s += exact(vu.first);
    s += ",\"unit\":";
    s += json_string(vu.second);
    s += '}';
    sep = ",";
  }
  s += "},\"determinism\":{";
  sep = "";
  for (const auto& [k, v] : determinism) {
    s += sep;
    s += json_string(k);
    s += ':';
    s += json_string(v);
    sep = ",";
  }
  s += "},\"notes\":[";
  sep = "";
  for (const std::string& note : notes) {
    s += sep;
    s += json_string(note);
    sep = ",";
  }
  s += "],\"threads\":";
  s += std::to_string(omp_get_max_threads());
  s += ",\"build_type\":";
  s += json_string(PERFBENCH_BUILD_TYPE);
  s += '}';
  std::puts(s.c_str());
  std::fflush(stdout);
}

Meta read_meta(const std::string& dir, const std::string& file) {
  std::ifstream in(dir + "/meta.txt");
  std::string name;
  Meta m;
  while (in >> name >> m.lower_bound >> m.nodes >> m.edges) {
    if (name == file) return m;
  }
  throw std::runtime_error("meta.txt has no entry for " + file);
}

std::vector<NodeId> pick_sources(const Graph& g, std::uint64_t seed) {
  // One random source per equal slice of the id range (row bands on the
  // road grids), listed in bit-reversed slice order: every prefix of the
  // list is spread over the whole graph, so a run that reaches only some
  // sources still samples near and far ones alike.
  static_assert((kSourcesPerRun & (kSourcesPerRun - 1)) == 0);
  const unsigned bits = std::countr_zero(kSourcesPerRun);
  const std::uint64_t n = g.num_nodes();
  util::Xoshiro256 rng(seed ^ 0x5eed5eed5eedULL);
  std::vector<NodeId> out;
  for (unsigned i = 0; i < kSourcesPerRun; ++i) {
    unsigned slice = 0;
    for (unsigned b = 0; b < bits; ++b) slice |= ((i >> b) & 1u) << (bits - 1 - b);
    const std::uint64_t lo = n * slice / kSourcesPerRun;
    const std::uint64_t hi = n * (slice + 1) / kSourcesPerRun;
    NodeId v = static_cast<NodeId>(lo + rng.next_bounded(hi - lo));
    while (g.degree(v) == 0) v = static_cast<NodeId>((v + 1) % n);
    out.push_back(v);
  }
  return out;
}

Checker::Checker(const Graph& g, double lower_bound, Report& rep,
                 std::string key)
    : g_(g), lower_bound_(lower_bound), rep_(rep), key_(std::move(key)) {}

void Checker::prepare(const std::vector<NodeId>& sources) {
  std::vector<double> ecc(sources.size());
#pragma omp parallel for schedule(dynamic, 1)
  for (std::size_t i = 0; i < sources.size(); ++i) {
    ecc[i] = sssp::dijkstra(g_, sources[i]).eccentricity;
  }
  for (std::size_t i = 0; i < sources.size(); ++i) {
    oracle_ecc_[sources[i]] = ecc[i];
  }
}

void Checker::estimate(const core::DiameterApproxResult& r,
                       std::uint64_t seed) {
  const bool valid = r.clustering.validate(g_);
  rep_.op(valid && r.estimate >= lower_bound_,
          "estimate seed " + std::to_string(seed) + ": Clustering::validate=" +
              std::to_string(valid) + ", estimate " + exact(r.estimate) +
              " vs lower bound " + exact(lower_bound_));
  const std::string key = key_ + "estimate.seed" + std::to_string(seed);
  rep_.pin(key + ".estimate", exact(r.estimate));
  rep_.pin(key + ".rounds", std::to_string(r.stats.rounds()));
  rep_.pin(key + ".work", std::to_string(r.stats.work()));
  rep_.pin(key + ".cross_bytes", std::to_string(r.stats.cross_bytes));
  rep_.pin(key + ".wire_bytes", std::to_string(r.stats.wire_bytes));
  estimates_[seed] = {r.estimate, static_cast<double>(r.stats.rounds()),
                      static_cast<double>(r.stats.work())};
}

void Checker::same_estimate(double estimate, std::uint64_t seed,
                            const std::string& how) {
  const auto it = estimates_.find(seed);
  rep_.op(it == estimates_.end() || it->second.estimate == estimate,
          how + " estimate " + exact(estimate) +
              " != approximate_diameter's for seed " + std::to_string(seed));
  rep_.pin(key_ + "estimate.seed" + std::to_string(seed) + ".estimate",
           exact(estimate));
}

void Checker::sssp(NodeId s, const sssp::DeltaSteppingResult& r,
                   const std::string& transport) {
  auto it = oracle_ecc_.find(s);
  if (it == oracle_ecc_.end()) {
    it = oracle_ecc_.emplace(s, sssp::dijkstra(g_, s).eccentricity).first;
  }
  rep_.op(r.eccentricity == it->second,
          "delta-stepping eccentricity " + exact(r.eccentricity) +
              " from source " + std::to_string(s) + " != dijkstra " +
              exact(it->second));
  const std::string key =
      key_ + "sssp.source" + std::to_string(s) + transport;
  rep_.pin(key + ".rounds", std::to_string(r.stats.rounds()));
  rep_.pin(key + ".cross_bytes", std::to_string(r.stats.cross_bytes));
  rep_.pin(key + ".wire_bytes", std::to_string(r.stats.wire_bytes));
  sssp_rounds_[s] = static_cast<double>(r.stats.rounds());
}

namespace {

template <class Map, class F>
double median_of(const Map& m, F field) {
  std::vector<double> v;
  for (const auto& kv : m) v.push_back(field(kv.second));
  return median(v);
}

}  // namespace

double Checker::median_rounds() const {
  return median_of(estimates_, [](const EstimateCounts& e) { return e.rounds; });
}
double Checker::median_work() const {
  return median_of(estimates_, [](const EstimateCounts& e) { return e.work; });
}
double Checker::median_ratio() const {
  return median_of(estimates_, [this](const EstimateCounts& e) {
    return e.estimate / lower_bound_;
  });
}
double Checker::mean_sssp_rounds() const {
  double sum = 0;
  for (const auto& [s, rounds] : sssp_rounds_) sum += rounds;
  return sssp_rounds_.empty() ? 0.0
                              : sum / static_cast<double>(sssp_rounds_.size());
}

}  // namespace perfbench
