// Tests for core/quotient.hpp: quotient construction rules, the
// conservativeness property Φ(G_C) + 2R ≥ Φ(G), and quotient diameter
// computation (exact vs sweep paths).

#include <gtest/gtest.h>

#include <limits>
#include <numeric>
#include <string>

#include "core/cluster.hpp"
#include "core/quotient.hpp"
#include "gen/basic.hpp"
#include "gen/weights.hpp"
#include "graph/builder.hpp"
#include "graph/ops.hpp"
#include "sssp/dijkstra.hpp"
#include "test_helpers.hpp"
#include "util/parallel.hpp"

namespace gdiam::core {
namespace {

using test::Family;

/// Every node its own cluster: the quotient must equal the original graph.
Clustering identity_clustering(const Graph& g) {
  Clustering c;
  const NodeId n = g.num_nodes();
  c.center_of.resize(n);
  std::iota(c.center_of.begin(), c.center_of.end(), NodeId{0});
  c.dist_to_center.assign(n, 0.0);
  c.centers = c.center_of;
  c.radius = 0.0;
  return c;
}

TEST(Quotient, IdentityClusteringReproducesGraph) {
  const Graph g = test::make_family(Family::kGnmUniform, 60, 3);
  const QuotientGraph q = build_quotient(g, identity_clustering(g));
  EXPECT_EQ(q.graph.num_nodes(), g.num_nodes());
  EXPECT_EQ(q.graph.num_edges(), g.num_edges());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(q.cluster_of_node[u], u);
    const auto gw = g.weights(u), qw = q.graph.weights(u);
    for (std::size_t i = 0; i < gw.size(); ++i) {
      EXPECT_DOUBLE_EQ(gw[i], qw[i]);
    }
  }
}

TEST(Quotient, TwoClusterPath) {
  // Path 0-1-2-3 (unit); clusters {0,1} centered 0 and {2,3} centered 3.
  const Graph g = gen::path(4);
  Clustering c;
  c.center_of = {0, 0, 3, 3};
  c.dist_to_center = {0.0, 1.0, 1.0, 0.0};
  c.centers = {0, 3};
  c.radius = 1.0;
  const QuotientGraph q = build_quotient(g, c);
  EXPECT_EQ(q.graph.num_nodes(), 2u);
  EXPECT_EQ(q.graph.num_edges(), 1u);
  // Edge (1,2): w + d_1 + d_2 = 1 + 1 + 1 = 3.
  EXPECT_DOUBLE_EQ(edge_weight(q.graph, 0, 1), 3.0);
  EXPECT_EQ(q.center_of_cluster[0], 0u);
  EXPECT_EQ(q.center_of_cluster[1], 3u);
}

TEST(Quotient, ParallelInterClusterEdgesKeepMinimum) {
  // Two parallel connections between the clusters with different d-sums.
  GraphBuilder b(4);
  b.add_edge(0, 2, 10.0);
  b.add_edge(1, 3, 1.0);
  b.add_edge(0, 1, 1.0);
  b.add_edge(2, 3, 1.0);
  const Graph g = b.build();
  Clustering c;
  c.center_of = {0, 0, 2, 2};
  c.dist_to_center = {0.0, 1.0, 0.0, 1.0};
  c.centers = {0, 2};
  c.radius = 1.0;
  const QuotientGraph q = build_quotient(g, c);
  EXPECT_EQ(q.graph.num_edges(), 1u);
  // min(10 + 0 + 0, 1 + 1 + 1) = 3.
  EXPECT_DOUBLE_EQ(edge_weight(q.graph, 0, 1), 3.0);
}

TEST(Quotient, MismatchedClusteringThrows) {
  const Graph g = gen::path(5);
  Clustering c = identity_clustering(gen::path(4));
  EXPECT_THROW((void)build_quotient(g, c), std::invalid_argument);
}

// A clustering file is untrusted input: a center id outside the graph or a
// node pointing at a center missing from the centers list must come back as
// a typed error, not an out-of-range write.
TEST(Quotient, UnlistedCenterThrows) {
  const Graph g = gen::path(4);
  Clustering c;
  c.center_of = {0, 0, 2, 2};  // 2 is not in the centers list
  c.dist_to_center = {0.0, 1.0, 0.0, 1.0};
  c.centers = {0, 3};
  EXPECT_THROW((void)build_quotient(g, c), std::invalid_argument);
}

TEST(Quotient, CenterOutOfRangeThrows) {
  const Graph g = gen::path(4);
  Clustering c;
  c.center_of = {0, 0, 3, 3};
  c.dist_to_center = {0.0, 1.0, 1.0, 0.0};
  c.centers = {0, 7};
  EXPECT_THROW((void)build_quotient(g, c), std::invalid_argument);
  c.centers = {0, 3};
  c.center_of = {0, 0, 9, 3};
  EXPECT_THROW((void)build_quotient(g, c), std::invalid_argument);
}

TEST(Quotient, NonFiniteDistanceThrows) {
  const Graph g = gen::path(4);
  Clustering c;
  c.center_of = {0, 0, 3, 3};
  c.centers = {0, 3};
  for (const Weight bad : {std::numeric_limits<Weight>::quiet_NaN(),
                           kInfiniteWeight}) {
    c.dist_to_center = {0.0, bad, 1.0, 0.0};
    EXPECT_THROW((void)build_quotient(g, c), std::invalid_argument);
  }
  // Finite distances whose sum is not a positive weight are rejected too.
  c.dist_to_center = {0.0, -1.0, -1.0, 0.0};
  EXPECT_THROW((void)build_quotient(g, c), std::invalid_argument);
}

// Floating-point addition is not associative: (0.3 + 0.1) + 0.2 and
// (0.3 + 0.2) + 0.1 differ in the last bit. The quotient weight is summed
// as (w + d_lo) + d_hi by node id even when the higher-id endpoint's
// cluster is scanned first, so both arc directions carry the bits of the
// serial u < v construction.
TEST(Quotient, WeightSumsLowerIdDistanceFirst) {
  GraphBuilder b(4);
  b.add_edge(0, 3, 0.2);
  b.add_edge(1, 2, 0.1);
  b.add_edge(2, 3, 0.3);
  const Graph g = b.build();
  Clustering c;
  c.center_of = {0, 1, 1, 0};  // node 3 lies in cluster 0, scanned first
  c.dist_to_center = {0.0, 0.0, 0.1, 0.2};
  c.centers = {0, 1};
  const QuotientGraph q = build_quotient(g, c);
  const Weight expected = (0.3 + 0.1) + 0.2;
  ASSERT_NE(expected, (0.3 + 0.2) + 0.1);
  EXPECT_EQ(edge_weight(q.graph, 0, 1), expected);
  EXPECT_EQ(edge_weight(q.graph, 1, 0), expected);
}

TEST(Quotient, IntraClusterEdgesVanish) {
  const Graph g = gen::complete(6);
  Clustering c;
  c.center_of = {0, 0, 0, 0, 0, 0};
  c.dist_to_center = {0.0, 1.0, 1.0, 1.0, 1.0, 1.0};
  c.centers = {0};
  c.radius = 1.0;
  const QuotientGraph q = build_quotient(g, c);
  EXPECT_EQ(q.graph.num_nodes(), 1u);
  EXPECT_EQ(q.graph.num_edges(), 0u);
}

// ---------------------------------------------------------------------------
// The cluster-by-cluster construction must reproduce the straightforward
// serial build (each cut edge once with u < v, GraphBuilder's sort + min
// dedup) bit-for-bit: identical quotient CSR arrays, membership and radii,
// for any thread count.

QuotientGraph serial_reference_quotient(const Graph& g, const Clustering& c) {
  QuotientGraph out;
  out.center_of_cluster = c.centers;
  const auto k = static_cast<NodeId>(c.centers.size());
  std::vector<NodeId> index_of_center(g.num_nodes(), kInvalidNode);
  for (NodeId i = 0; i < k; ++i) index_of_center[c.centers[i]] = i;
  out.cluster_of_node.resize(g.num_nodes());
  out.cluster_radius.assign(k, 0.0);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const NodeId cu = index_of_center[c.center_of[u]];
    out.cluster_of_node[u] = cu;
    out.cluster_radius[cu] =
        std::max(out.cluster_radius[cu], c.dist_to_center[u]);
  }
  GraphBuilder b(k);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto nbr = g.neighbors(u);
    const auto wts = g.weights(u);
    for (std::size_t i = 0; i < nbr.size(); ++i) {
      if (u >= nbr[i]) continue;
      const NodeId cu = out.cluster_of_node[u];
      const NodeId cv = out.cluster_of_node[nbr[i]];
      if (cu == cv) continue;
      b.add_edge(cu, cv,
                 wts[i] + c.dist_to_center[u] + c.dist_to_center[nbr[i]]);
    }
  }
  out.graph = b.build();
  return out;
}

/// Skewed clusterings the decomposition rarely produces: one giant cluster
/// centered at node 0 plus singletons, every node its own cluster, and a
/// single cluster. Distances vary per node so the weight sums round.
std::vector<Clustering> skewed_clusterings(const Graph& g) {
  const NodeId n = g.num_nodes();
  std::vector<Clustering> out;
  Clustering giant;
  Clustering one;
  for (NodeId u = 0; u < n; ++u) {
    const bool in_giant = u == 0 || u % 5 != 0;
    giant.center_of.push_back(in_giant ? 0 : u);
    giant.dist_to_center.push_back(in_giant && u != 0 ? 0.1 * (u % 7) : 0.0);
    if (!in_giant) giant.centers.push_back(u);
    one.center_of.push_back(0);
    one.dist_to_center.push_back(0.1 * (u % 3));
  }
  giant.centers.insert(giant.centers.begin(), 0);
  one.centers = {0};
  out.push_back(giant);
  out.push_back(identity_clustering(g));
  out.push_back(one);
  return out;
}

TEST(QuotientParallel, BitIdenticalToSerialReferenceOnAllFamilies) {
  const int prev = util::num_threads();
  for (const Family family : test::all_families()) {
    const Graph g = test::make_family(family, 220, 19);
    ClusterOptions opts;
    opts.tau = 4;
    opts.seed = 29;
    opts.stop_factor = 2.0;
    std::vector<Clustering> clusterings = skewed_clusterings(g);
    clusterings.push_back(cluster(g, opts));

    for (const Clustering& c : clusterings) {
      const QuotientGraph a = serial_reference_quotient(g, c);
      for (const int threads : {1, 3, 8}) {
        util::set_num_threads(threads);
        const QuotientGraph b = build_quotient(g, c);
        SCOPED_TRACE(std::string(test::family_name(family)) +
                     " k=" + std::to_string(c.centers.size()) +
                     " threads=" + std::to_string(threads));
        EXPECT_EQ(a.cluster_of_node, b.cluster_of_node);
        EXPECT_EQ(a.cluster_radius, b.cluster_radius);  // exact
        EXPECT_EQ(a.center_of_cluster, b.center_of_cluster);
        EXPECT_EQ(test::vec(a.graph.offsets()), test::vec(b.graph.offsets()));
        EXPECT_EQ(test::vec(a.graph.targets()), test::vec(b.graph.targets()));
        EXPECT_EQ(test::vec(a.graph.edge_weights()),
                  test::vec(b.graph.edge_weights()));
        EXPECT_TRUE(b.graph.is_symmetric());
      }
    }
  }
  util::set_num_threads(prev);
}

// ---------------------------------------------------------------------------
// The headline property: Φ(G_C) + 2R is a conservative diameter estimate.

class QuotientConservative
    : public testing::TestWithParam<
          std::tuple<Family, std::uint32_t, std::uint64_t>> {};

TEST_P(QuotientConservative, EstimateAtLeastTrueDiameter) {
  const auto [family, tau, seed] = GetParam();
  const Graph g = test::make_family(family, 120, seed);
  const Weight diam = test::brute_force_diameter(g);

  ClusterOptions o;
  o.tau = tau;
  o.seed = seed;
  const Clustering c = cluster(g, o);
  const QuotientGraph q = build_quotient(g, c);
  const Weight phi_qc = sssp::exact_diameter(q.graph);
  const Weight estimate = phi_qc + 2.0 * c.radius;
  EXPECT_GE(estimate * (1.0 + 1e-6), diam)
      << test::family_name(family) << " tau=" << tau << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, QuotientConservative,
    testing::Combine(testing::ValuesIn(test::all_families()),
                     testing::Values(1u, 4u, 16u),
                     testing::Values(2u, 31u)),
    [](const auto& param_info) {
      return std::string(test::family_name(std::get<0>(param_info.param))) +
             "_t" + std::to_string(std::get<1>(param_info.param)) + "_s" +
             std::to_string(std::get<2>(param_info.param));
    });

TEST(QuotientDiameter, ExactBelowThreshold) {
  const Graph g = test::make_family(Family::kGnmUniform, 100, 3);
  QuotientDiameterOptions o;
  o.exact_threshold = 200;
  const QuotientDiameterResult r = quotient_diameter(g, o);
  EXPECT_TRUE(r.exact);
  EXPECT_NEAR(r.diameter, test::brute_force_diameter(g), 1e-9);
}

TEST(QuotientDiameter, SweepsAboveThreshold) {
  const Graph g = gen::path(300);
  QuotientDiameterOptions o;
  o.exact_threshold = 10;
  o.sweeps = 4;
  const QuotientDiameterResult r = quotient_diameter(g, o);
  EXPECT_FALSE(r.exact);
  // Sweeps nail a path's diameter after the first bounce.
  EXPECT_DOUBLE_EQ(r.diameter, 299.0);
}

TEST(QuotientDiameter, SweepNeverExceedsExact) {
  const Graph g = test::make_family(Family::kRmatGiant, 300, 9);
  QuotientDiameterOptions sweep_o;
  sweep_o.exact_threshold = 1;
  sweep_o.sweeps = 8;
  const Weight exact = sssp::exact_diameter(g);
  const QuotientDiameterResult r = quotient_diameter(g, sweep_o);
  EXPECT_LE(r.diameter, exact + 1e-9);
  EXPECT_GT(r.diameter, 0.0);
}

TEST(QuotientDiameter, EmptyGraph) {
  const QuotientDiameterResult r = quotient_diameter(Graph{});
  EXPECT_DOUBLE_EQ(r.diameter, 0.0);
}

TEST(QuotientDiameters, PlainAndAugmentedConsistent) {
  const Graph g = test::make_family(Family::kMeshUniform, 200, 5);
  ClusterOptions o;
  o.tau = 4;
  o.seed = 5;
  const Clustering c = cluster(g, o);
  const QuotientGraph q = build_quotient(g, c);

  QuotientDiameterOptions qopts;
  qopts.exact_threshold = 100000;
  const QuotientDiametersResult both = quotient_diameters(q, qopts);
  ASSERT_TRUE(both.exact);
  // plain agrees with the standalone exact computation.
  EXPECT_NEAR(both.plain, quotient_diameter(q.graph, qopts).diameter, 1e-9);
  // augmented ≥ plain (radii are nonnegative) and ≥ 2·max cluster radius.
  EXPECT_GE(both.augmented, both.plain);
  Weight max_r = 0.0;
  for (const Weight r : q.cluster_radius) max_r = std::max(max_r, r);
  EXPECT_GE(both.augmented * (1.0 + 1e-12), 2.0 * max_r);
  // augmented ≤ the paper's classic bound plain + 2·max r.
  EXPECT_LE(both.augmented, both.plain + 2.0 * max_r + 1e-9);
  // The radius-aware wrapper matches.
  EXPECT_DOUBLE_EQ(quotient_diameter_radius_aware(q, qopts).diameter,
                   both.augmented);
}

TEST(QuotientDiameters, ClusterRadiusPerCluster) {
  const Graph g = gen::path(6);
  Clustering c;
  c.center_of = {0, 0, 0, 5, 5, 5};
  c.dist_to_center = {0.0, 1.0, 2.0, 2.0, 1.0, 0.0};
  c.centers = {0, 5};
  c.radius = 2.0;
  const QuotientGraph q = build_quotient(g, c);
  ASSERT_EQ(q.cluster_radius.size(), 2u);
  EXPECT_DOUBLE_EQ(q.cluster_radius[0], 2.0);
  EXPECT_DOUBLE_EQ(q.cluster_radius[1], 2.0);
  // Edge (2,3): w + d2 + d3 = 1 + 2 + 2 = 5; augmented diameter = 5 + 2 + 2.
  QuotientDiameterOptions qopts;
  const auto both = quotient_diameters(q, qopts);
  EXPECT_DOUBLE_EQ(both.plain, 5.0);
  EXPECT_DOUBLE_EQ(both.augmented, 9.0);
}

TEST(QuotientDiameters, SweepPathMatchesExactOnPathQuotient) {
  // Identity clustering of a long path: radii all 0, augmented == plain.
  const Graph g = gen::path(500);
  const Clustering c = identity_clustering(g);
  const QuotientGraph q = build_quotient(g, c);
  QuotientDiameterOptions qopts;
  qopts.exact_threshold = 10;  // force the sweep path
  qopts.sweeps = 4;
  const auto both = quotient_diameters(q, qopts);
  EXPECT_FALSE(both.exact);
  EXPECT_DOUBLE_EQ(both.plain, 499.0);
  EXPECT_DOUBLE_EQ(both.augmented, 499.0);
}

TEST(QuotientDiameter, DisconnectedQuotientUsesLargestIntraComponentDistance) {
  GraphBuilder b(7);
  for (NodeId u = 0; u + 1 < 4; ++u) b.add_edge(u, u + 1, 2.0);  // diam 6
  b.add_edge(5, 6, 1.0);                                         // diam 1
  const QuotientDiameterResult r = quotient_diameter(b.build());
  EXPECT_TRUE(r.exact);
  EXPECT_DOUBLE_EQ(r.diameter, 6.0);
}

}  // namespace
}  // namespace gdiam::core
