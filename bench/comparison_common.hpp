#pragma once
// Shared harness for the Table 2 / Figure 1–3 experiments: builds the
// benchmark graph suite at the selected scale and runs the CL-DIAM vs
// Δ-stepping comparison, producing one row per graph with the paper's four
// indicator groups (approximation ratio, time, rounds, work).

#include <functional>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "mr/stats.hpp"
#include "util/scale.hpp"

namespace gdiam::bench {

/// One benchmark instance, built lazily so binaries that only need a subset
/// don't pay for the rest.
struct BenchmarkGraph {
  std::string name;          // paper's row label (e.g. "roads-USA*")
  std::string substitution;  // non-empty when this stands in for real data
  std::function<Graph()> build;
};

/// The six graphs of Table 2, scaled per DESIGN.md §2:
/// roads-USA, roads-CAL, mesh, livejournal, twitter, R-MAT(S).
[[nodiscard]] std::vector<BenchmarkGraph> table2_suite(util::Scale scale);

/// Result of one CL-DIAM vs Δ-stepping comparison.
struct ComparisonRow {
  std::string name;
  NodeId nodes = 0;
  EdgeIndex edges = 0;
  Weight diameter_lb = 0.0;  // iterated-sweep lower bound (ground truth)

  // CL-DIAM
  double cl_ratio = 0.0;  // estimate / diameter_lb
  double cl_seconds = 0.0;
  mr::RoundStats cl_stats;
  NodeId cl_clusters = 0;

  // Δ-stepping (best Δ over the sweep, by rounds — the paper's selection)
  double ds_ratio = 0.0;  // 2·ecc(source) / diameter_lb
  double ds_seconds = 0.0;
  mr::RoundStats ds_stats;
  Weight ds_delta = 0.0;
};

struct ComparisonConfig {
  /// Δ multipliers (× average weight) swept for Δ-stepping; the run with
  /// fewest rounds is reported, mirroring the paper's per-graph tuning.
  std::vector<double> delta_sweep{1.0, 8.0, 64.0};
  unsigned lower_bound_sweeps = 4;
  std::uint64_t seed = 1;
  /// Target quotient size for choosing τ; 0 = auto via
  /// auto_quotient_target() (the paper's fixed 100k cap assumes billion-node
  /// inputs; scaled-down graphs need a proportionally smaller quotient).
  NodeId quotient_target = 0;
};

/// n/64 clamped to [512, 100000]: keeps the quotient-to-graph ratio in the
/// band the paper's τ choice produces on its (much larger) datasets.
[[nodiscard]] NodeId auto_quotient_target(NodeId n);

/// Runs the full comparison on one graph.
[[nodiscard]] ComparisonRow compare_on_graph(const std::string& name,
                                             const Graph& g,
                                             const ComparisonConfig& cfg);

/// Convenience: run the whole suite, printing progress to stderr.
[[nodiscard]] std::vector<ComparisonRow> run_table2(
    util::Scale scale, const ComparisonConfig& cfg = {});

/// Standard preamble every bench prints (experiment id + scale note).
void print_preamble(const char* experiment, const char* paper_ref,
                    util::Scale scale);

}  // namespace gdiam::bench
