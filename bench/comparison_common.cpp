#include <algorithm>
#include "comparison_common.hpp"

#include <cstdio>
#include <iostream>

#include "core/diameter.hpp"
#include "gen/mesh.hpp"
#include "gen/product.hpp"
#include "gen/rmat.hpp"
#include "gen/road.hpp"
#include "gen/weights.hpp"
#include "graph/components.hpp"
#include "sssp/sweep.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace gdiam::bench {

namespace {

Graph rmat_giant_uniform(unsigned scale, EdgeIndex edge_factor,
                         std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const Graph raw = gen::rmat(scale, edge_factor, rng);
  return gen::uniform_weights(largest_component(raw).graph, seed ^ 0x77);
}

}  // namespace

std::vector<BenchmarkGraph> table2_suite(util::Scale scale) {
  using util::pick;
  // Grid sides for the road-network substitutes and the mesh; R-MAT scales.
  const NodeId usa_side = pick<NodeId>(scale, 260, 560, 4800);
  const NodeId cal_side = pick<NodeId>(scale, 130, 280, 1370);
  const NodeId mesh_side = pick<NodeId>(scale, 220, 512, 2048);
  const unsigned lj_scale = pick<unsigned>(scale, 15, 18, 22);
  const unsigned tw_scale = pick<unsigned>(scale, 15, 18, 22);
  const unsigned rmat_scale = pick<unsigned>(scale, 16, 19, 24);

  return {
      {"roads-USA*", "synthetic road network (DESIGN.md: DIMACS data offline)",
       [=] {
         util::Xoshiro256 rng(101);
         return gen::road_network(usa_side, usa_side, rng);
       }},
      {"roads-CAL*", "synthetic road network (smaller grid)",
       [=] {
         util::Xoshiro256 rng(103);
         return gen::road_network(cal_side, cal_side, rng);
       }},
      {"mesh", "",
       [=] { return gen::uniform_weights(gen::mesh(mesh_side), 107); }},
      {"livejournal*", "R-MAT stand-in for the SNAP graph (edge factor 8)",
       [=] { return rmat_giant_uniform(lj_scale, 8, 109); }},
      {"twitter*", "R-MAT stand-in for the LAW graph (edge factor 16)",
       [=] { return rmat_giant_uniform(tw_scale, 16, 113); }},
      {"R-MAT(S)", "",
       [=] { return rmat_giant_uniform(rmat_scale, 16, 127); }},
  };
}

NodeId auto_quotient_target(NodeId n) {
  return std::min<NodeId>(100000, std::max<NodeId>(512, n / 3));
}

ComparisonRow compare_on_graph(const std::string& name, const Graph& g,
                               const ComparisonConfig& cfg) {
  ComparisonRow row;
  row.name = name;
  row.nodes = g.num_nodes();
  row.edges = g.num_edges();

  // Ground truth: iterated-sweep lower bound (paper, Table 2 caption).
  row.diameter_lb =
      sssp::diameter_lower_bound(g, cfg.lower_bound_sweeps, cfg.seed)
          .lower_bound;
  if (row.diameter_lb <= 0.0) row.diameter_lb = 1.0;  // degenerate graphs

  // --- CL-DIAM -------------------------------------------------------------
  {
    core::DiameterApproxOptions o;
    const NodeId target = cfg.quotient_target != 0
                              ? cfg.quotient_target
                              : auto_quotient_target(g.num_nodes());
    o.cluster.tau = core::tau_for_cluster_target(g.num_nodes(), target);
    o.cluster.seed = cfg.seed;
    o.quotient.exact_threshold = 1024;
    o.quotient.seed = cfg.seed;
    util::Timer t;
    const core::DiameterApproxResult r = core::approximate_diameter(g, o);
    row.cl_seconds = t.seconds();
    row.cl_ratio = r.estimate / row.diameter_lb;
    row.cl_stats = r.stats;
    row.cl_clusters = r.num_clusters;
  }

  // --- Δ-stepping, best Δ over the sweep (fewest rounds wins) --------------
  util::Xoshiro256 rng(cfg.seed ^ 0xd5);
  const auto source = static_cast<NodeId>(rng.next_bounded(g.num_nodes()));
  {
    bool first = true;
    for (const double factor : cfg.delta_sweep) {
      sssp::DeltaSteppingOptions o;
      o.delta = factor * g.avg_weight();
      util::Timer t;
      const sssp::SsspDiameterApprox a = sssp::diameter_two_approx(g, source, o);
      const double seconds = t.seconds();
      if (first || a.stats.rounds() < row.ds_stats.rounds()) {
        row.ds_ratio = a.upper_bound / row.diameter_lb;
        row.ds_seconds = seconds;
        row.ds_stats = a.stats;
        row.ds_delta = a.delta_used;
        first = false;
      }
    }
  }
  return row;
}

std::vector<ComparisonRow> run_table2(util::Scale scale,
                                      const ComparisonConfig& cfg) {
  std::vector<ComparisonRow> rows;
  for (const BenchmarkGraph& b : table2_suite(scale)) {
    std::cerr << "  [building] " << b.name << "...\n";
    const Graph g = b.build();
    std::cerr << "  [running]  " << b.name << "  n=" << g.num_nodes()
              << " m=" << g.num_edges() << "\n";
    rows.push_back(compare_on_graph(b.name, g, cfg));
  }
  return rows;
}

void print_preamble(const char* experiment, const char* paper_ref,
                    util::Scale scale) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("scale: %s (set GDIAM_SCALE=ci|small|paper)\n",
              util::scale_name(scale));
  std::printf("graphs marked * are synthetic stand-ins for datasets that\n");
  std::printf("cannot be downloaded here -- see DESIGN.md section 2\n");
  std::printf("==============================================================\n");
}

}  // namespace gdiam::bench
