// Tests for core/cluster.hpp — Algorithm CLUSTER(G, τ): coverage, center
// structure, distance upper bounds, determinism, options, degenerate inputs.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/cluster.hpp"
#include "gen/basic.hpp"
#include "gen/mesh.hpp"
#include "gen/road.hpp"
#include "gen/weights.hpp"
#include "graph/builder.hpp"
#include "sssp/dijkstra.hpp"
#include "test_helpers.hpp"
#include "util/parallel.hpp"

namespace gdiam::core {
namespace {

using test::Family;

ClusterOptions opts_with_tau(std::uint32_t tau, std::uint64_t seed = 1) {
  ClusterOptions o;
  o.tau = tau;
  o.seed = seed;
  return o;
}

TEST(Cluster, EmptyGraph) {
  const Clustering c = cluster(Graph{}, opts_with_tau(4));
  EXPECT_EQ(c.num_clusters(), 0u);
  EXPECT_TRUE(c.validate(Graph{}));
}

TEST(Cluster, SingleNode) {
  const Graph g = build_graph(1, {});
  const Clustering c = cluster(g, opts_with_tau(1));
  EXPECT_TRUE(c.validate(g));
  EXPECT_EQ(c.num_clusters(), 1u);
  EXPECT_DOUBLE_EQ(c.radius, 0.0);
}

TEST(Cluster, HugeTauMakesAllSingletons) {
  // With τ ≥ n the stop threshold exceeds n: zero stages, all singletons.
  const Graph g = gen::path(50);
  const Clustering c = cluster(g, opts_with_tau(50));
  EXPECT_TRUE(c.validate(g));
  EXPECT_EQ(c.num_clusters(), 50u);
  EXPECT_DOUBLE_EQ(c.radius, 0.0);
  EXPECT_EQ(c.stages, 0u);
}

TEST(Cluster, InvalidTauThrows) {
  EXPECT_THROW((void)cluster(gen::path(4), opts_with_tau(0)),
               std::invalid_argument);
}

TEST(Cluster, CoversDisconnectedGraphs) {
  GraphBuilder b(40);
  for (NodeId u = 0; u + 1 < 20; ++u) b.add_edge(u, u + 1, 1.0);
  for (NodeId u = 20; u + 1 < 40; ++u) b.add_edge(u, u + 1, 1.0);
  const Graph g = b.build();
  const Clustering c = cluster(g, opts_with_tau(1, 5));
  EXPECT_TRUE(c.validate(g));
  // No cluster may span both components.
  for (NodeId u = 0; u < 40; ++u) {
    EXPECT_EQ(c.center_of[u] < 20, u < 20) << "node " << u;
  }
}

// ---------------------------------------------------------------------------
// Property sweep: structural invariants on every family × τ × seed.

class ClusterInvariants
    : public testing::TestWithParam<
          std::tuple<Family, std::uint32_t, std::uint64_t>> {};

TEST_P(ClusterInvariants, ValidCoverRadiusAndDistanceBounds) {
  const auto [family, tau, seed] = GetParam();
  const Graph g = test::make_family(family, 250, seed);
  const Clustering c = cluster(g, opts_with_tau(tau, seed));

  ASSERT_TRUE(c.validate(g));
  EXPECT_GE(c.num_clusters(), 1u);
  EXPECT_LE(c.num_clusters(), g.num_nodes());

  // radius is the max distance bound.
  Weight max_d = 0.0;
  for (const Weight d : c.dist_to_center) max_d = std::max(max_d, d);
  EXPECT_DOUBLE_EQ(c.radius, max_d);

  // dist_to_center upper-bounds the true distance to the assigned center —
  // the property that makes the quotient estimate conservative.
  std::set<NodeId> centers(c.centers.begin(), c.centers.end());
  for (const NodeId ctr : centers) {
    const auto d = sssp::dijkstra_distances(g, ctr);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      if (c.center_of[u] != ctr) continue;
      ASSERT_NE(d[u], kInfiniteWeight)
          << "cluster spans disconnected parts: " << u;
      EXPECT_GE(c.dist_to_center[u] + 1e-4 * (1.0 + d[u]), d[u])
          << "node " << u << " center " << ctr;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ClusterInvariants,
    testing::Combine(testing::ValuesIn(test::all_families()),
                     testing::Values(2u, 8u),
                     testing::Values(1u, 42u)),
    [](const auto& param_info) {
      return std::string(test::family_name(std::get<0>(param_info.param))) +
             "_t" + std::to_string(std::get<1>(param_info.param)) + "_s" +
             std::to_string(std::get<2>(param_info.param));
    });

TEST(Cluster, DeterministicForFixedSeed) {
  const Graph g = test::make_family(Family::kMeshUniform, 400, 7);
  const Clustering a = cluster(g, opts_with_tau(4, 123));
  const Clustering b = cluster(g, opts_with_tau(4, 123));
  EXPECT_EQ(a.center_of, b.center_of);
  EXPECT_EQ(a.dist_to_center, b.dist_to_center);
  EXPECT_EQ(a.stats, b.stats);
}

TEST(Cluster, DifferentSeedsGiveDifferentDecompositions) {
  const Graph g = test::make_family(Family::kMeshUniform, 400, 7);
  const Clustering a = cluster(g, opts_with_tau(4, 1));
  const Clustering b = cluster(g, opts_with_tau(4, 2));
  EXPECT_NE(a.centers, b.centers);
}

TEST(Cluster, PushAndPullPoliciesAgree) {
  const Graph g = test::make_family(Family::kGnmUniform, 300, 11);
  ClusterOptions o = opts_with_tau(4, 9);
  o.policy = GrowingPolicy::kPush;
  const Clustering push = cluster(g, o);
  o.policy = GrowingPolicy::kPull;
  const Clustering pull = cluster(g, o);
  EXPECT_EQ(push.center_of, pull.center_of);
  EXPECT_EQ(push.dist_to_center, pull.dist_to_center);
  EXPECT_EQ(push.stats.relaxation_rounds, pull.stats.relaxation_rounds);
  EXPECT_EQ(push.stats.messages, pull.stats.messages);
}

TEST(Cluster, DeltaInitMinStartsAtMinWeight) {
  const Graph g = test::make_family(Family::kMeshUniform, 200, 13);
  ClusterOptions o = opts_with_tau(2, 3);
  o.delta_init = DeltaInit::kMinWeight;
  const Clustering c = cluster(g, o);
  EXPECT_TRUE(c.validate(g));
  // Δ only ever doubles, so Δ_end is min_weight · 2^k.
  const double ratio = c.delta_end / g.min_weight();
  EXPECT_NEAR(std::log2(ratio), std::round(std::log2(ratio)), 1e-9);
}

TEST(Cluster, DeltaInitFixedValidation) {
  const Graph g = gen::path(60);
  ClusterOptions o = opts_with_tau(2);
  o.delta_init = DeltaInit::kFixed;
  o.delta_fixed = 0.0;
  EXPECT_THROW((void)cluster(g, o), std::invalid_argument);
  o.delta_fixed = 4.0;
  EXPECT_TRUE(cluster(g, o).validate(g));
}

TEST(Cluster, OversizedInitialDeltaBloatsRadiusOnBimodalMesh) {
  // The paper's Section 5 Δ-initialization study: on a mesh whose edges are
  // weight 1 with probability 0.1 and 10⁻⁶ otherwise, a self-tuned Δ keeps
  // clusters inside the light percolation cluster (tiny radius), while
  // Δ₀ ≈ diameter happily swallows weight-1 edges and blows the radius up.
  const Graph g = gen::bimodal_weights(gen::mesh(24), 1.0, 1e-6, 0.1, 7);
  ClusterOptions tuned = opts_with_tau(2, 3);
  tuned.delta_init = DeltaInit::kMinWeight;
  ClusterOptions oversized = tuned;
  oversized.delta_init = DeltaInit::kFixed;
  oversized.delta_fixed = 2.0;  // ≈ the weighted diameter
  const Clustering small_c = cluster(g, tuned);
  const Clustering big_c = cluster(g, oversized);
  EXPECT_TRUE(small_c.validate(g));
  EXPECT_TRUE(big_c.validate(g));
  EXPECT_GT(big_c.radius, 10.0 * small_c.radius);
  EXPECT_LT(small_c.radius, 0.1);
}

TEST(Cluster, StepCapStillProducesValidClustering) {
  const Graph g = test::make_family(Family::kMeshUniform, 400, 17);
  ClusterOptions o = opts_with_tau(2, 5);
  o.max_steps_per_growth = 3;
  const Clustering c = cluster(g, o);
  EXPECT_TRUE(c.validate(g));
}

TEST(Cluster, StepCapReducesRelaxationRoundsOnSkewedTopology) {
  // The Section 4 cap targets high-l_Delta inputs: on a long weighted path
  // uncapped PartialGrowth runs hop-deep relaxation sequences, so a tight
  // cap must cut the total relaxation rounds.
  const Graph g = gen::uniform_weights(gen::path(8000), 19);
  ClusterOptions uncapped = opts_with_tau(2, 7);
  ClusterOptions capped = uncapped;
  capped.max_steps_per_growth = 8;
  const Clustering cu = cluster(g, uncapped);
  const Clustering cc = cluster(g, capped);
  EXPECT_TRUE(cc.validate(g));
  EXPECT_LT(cc.stats.relaxation_rounds, cu.stats.relaxation_rounds);
}

TEST(Cluster, StatsPopulated) {
  const Graph g = test::make_family(Family::kTreePlusChords, 300, 23);
  const Clustering c = cluster(g, opts_with_tau(2, 11));
  EXPECT_GT(c.stats.relaxation_rounds, 0u);
  EXPECT_GT(c.stats.auxiliary_rounds, 0u);
  EXPECT_GT(c.stats.messages, 0u);
  EXPECT_GT(c.stats.node_updates, 0u);
  EXPECT_GT(c.stages, 0u);
}

TEST(Cluster, FewerClustersWithSmallerTau) {
  const Graph g = test::make_family(Family::kMeshUniform, 900, 29);
  const Clustering few = cluster(g, opts_with_tau(1, 3));
  const Clustering many = cluster(g, opts_with_tau(16, 3));
  EXPECT_LT(few.num_clusters(), many.num_clusters());
}

TEST(Cluster, UnweightedPathRadiusReasonable) {
  // On a unit path with τ=1, stages halve the uncovered set; the radius must
  // stay well below the diameter (otherwise the decomposition is useless).
  const Graph g = gen::path(512);
  const Clustering c = cluster(g, opts_with_tau(1, 13));
  EXPECT_TRUE(c.validate(g));
  EXPECT_LT(c.radius, 511.0 / 2.0);
}

// The contraction walks each cluster's newly covered nodes on its own thread;
// every field of the decomposition must still be a pure function of (graph,
// options). The hashes were recorded from the serial sorted sweep the
// per-cluster walk replaced, and must hold at every thread count.
TEST(Cluster, BitIdenticalAcrossThreadCounts) {
  util::Xoshiro256 road_rng(5);
  const Graph mesh = test::make_family(Family::kMeshUniform, 16384, 3);
  const Graph road = gen::road_network(128, 128, road_rng);
  const Graph rmat = test::make_family(Family::kRmatGiant, 16384, 9);
  struct Case {
    const char* name;
    const Graph& g;
    std::uint32_t tau;
    std::uint64_t max_steps;  // > 0 exercises the boundary-offset fallback
    std::uint64_t seed;
    std::uint64_t hash;
  };
  const Case cases[] = {
      {"mesh", mesh, 4, 0, 1, 0xd109ec48cd1c776cULL},
      {"mesh", mesh, 4, 0, 2, 0x8d8ad5214e1afbd8ULL},
      {"mesh", mesh, 4, 0, 3, 0x6fe400d4ed2fba51ULL},
      {"mesh_capped", mesh, 4, 3, 1, 0x5f388b81611f3fefULL},
      {"road", road, 4, 0, 1, 0x8c74d1db3c4512a7ULL},
      {"road", road, 4, 0, 2, 0x1fea302db542d453ULL},
      {"road", road, 4, 0, 3, 0x6188aca9e766f090ULL},
      {"road_capped", road, 4, 3, 2, 0x0643aa3cf8683604ULL},
      {"rmat", rmat, 8, 0, 1, 0xc4f10ebd4b2bd705ULL},
      {"rmat", rmat, 8, 0, 2, 0xe30c503213fc022cULL},
      {"rmat", rmat, 8, 0, 3, 0x8e9129db38d95c7aULL},
  };
  const int prev = util::num_threads();
  for (const Case& k : cases) {
    ClusterOptions o = opts_with_tau(k.tau, k.seed);
    o.max_steps_per_growth = k.max_steps;
    for (const int threads : {1, 2, 3}) {
      util::set_num_threads(threads);
      const Clustering c = cluster(k.g, o);
      ASSERT_TRUE(c.validate(k.g));
      EXPECT_EQ(test::clustering_hash(c), k.hash)
          << k.name << " seed " << k.seed << " threads " << threads;
    }
  }
  util::set_num_threads(prev);
}

TEST(TauForClusterTarget, BasicShape) {
  EXPECT_GE(tau_for_cluster_target(0, 100), 1u);
  EXPECT_GE(tau_for_cluster_target(1u << 20, 0), 1u);
  EXPECT_GE(tau_for_cluster_target(1u << 20, 100000),
            tau_for_cluster_target(1u << 20, 1000));
  EXPECT_GE(tau_for_cluster_target(1u << 20, 120000), 100u);
}

TEST(TauForClusterTarget, KeepsClusterCountNearTarget) {
  const Graph g = test::make_family(Family::kMeshUniform, 2500, 31);
  const NodeId target = 400;
  const auto tau = tau_for_cluster_target(g.num_nodes(), target);
  const Clustering c = cluster(g, opts_with_tau(tau, 3));
  EXPECT_LE(c.num_clusters(), 2u * target);
}

}  // namespace
}  // namespace gdiam::core
