#pragma once
// Shared fixtures for the gdiam test suite: small-graph factories with known
// answers and a brute-force APSP reference.

#include <cmath>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "gen/basic.hpp"
#include "gen/mesh.hpp"
#include "gen/rmat.hpp"
#include "gen/weights.hpp"
#include "graph/builder.hpp"
#include "graph/components.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace gdiam::test {

/// Materializes a span as a vector so EXPECT_EQ can compare (and pretty-
/// print) the CSR accessors, which hand out spans.
template <typename T>
std::vector<T> vec(std::span<const T> s) {
  return {s.begin(), s.end()};
}

/// Floyd–Warshall APSP; O(n³), for n up to a few hundred.
inline std::vector<std::vector<Weight>> brute_force_apsp(const Graph& g) {
  const NodeId n = g.num_nodes();
  std::vector<std::vector<Weight>> d(n,
                                     std::vector<Weight>(n, kInfiniteWeight));
  for (NodeId u = 0; u < n; ++u) {
    d[u][u] = 0.0;
    const auto nbr = g.neighbors(u);
    const auto wts = g.weights(u);
    for (std::size_t i = 0; i < nbr.size(); ++i) {
      d[u][nbr[i]] = std::min(d[u][nbr[i]], wts[i]);
    }
  }
  for (NodeId k = 0; k < n; ++k) {
    for (NodeId i = 0; i < n; ++i) {
      if (d[i][k] == kInfiniteWeight) continue;
      for (NodeId j = 0; j < n; ++j) {
        if (d[k][j] == kInfiniteWeight) continue;
        d[i][j] = std::min(d[i][j], d[i][k] + d[k][j]);
      }
    }
  }
  return d;
}

/// Largest finite entry of a brute-force APSP matrix (diameter).
inline Weight brute_force_diameter(const Graph& g) {
  const auto d = brute_force_apsp(g);
  Weight diam = 0.0;
  for (const auto& row : d) {
    for (const Weight x : row) {
      if (x != kInfiniteWeight) diam = std::max(diam, x);
    }
  }
  return diam;
}

/// Named families of small random connected weighted graphs for
/// parameterized property sweeps.
enum class Family {
  kTreePlusChords,
  kMeshUniform,
  kGnmUniform,
  kRmatGiant,
  kPathHeavyTail,
};

inline const char* family_name(Family f) {
  switch (f) {
    case Family::kTreePlusChords: return "tree_plus_chords";
    case Family::kMeshUniform: return "mesh_uniform";
    case Family::kGnmUniform: return "gnm_uniform";
    case Family::kRmatGiant: return "rmat_giant";
    case Family::kPathHeavyTail: return "path_heavy_tail";
  }
  return "?";
}

/// Builds a connected weighted instance of roughly `n` nodes.
inline Graph make_family(Family f, NodeId n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  switch (f) {
    case Family::kTreePlusChords: {
      Graph tree = gen::random_tree(n, rng);
      EdgeList edges = to_edge_list(tree);
      const EdgeIndex extra = n / 2;
      for (EdgeIndex i = 0; i < extra; ++i) {
        const auto u = static_cast<NodeId>(rng.next_bounded(n));
        const auto v = static_cast<NodeId>(rng.next_bounded(n));
        if (u != v) edges.push_back(Edge{u, v, 1.0});
      }
      return gen::uniform_weights(build_graph(n, edges), seed ^ 0xabcd);
    }
    case Family::kMeshUniform: {
      const auto side = static_cast<NodeId>(
          std::max(2.0, std::floor(std::sqrt(static_cast<double>(n)))));
      return gen::uniform_weights(gen::mesh(side), seed ^ 0xabcd);
    }
    case Family::kGnmUniform:
      return gen::uniform_weights(
          gen::gnm(n, static_cast<EdgeIndex>(n) * 3, rng,
                   /*ensure_connected=*/true),
          seed ^ 0xabcd);
    case Family::kRmatGiant: {
      unsigned scale = 1;
      while ((NodeId{1} << scale) < n) ++scale;
      Graph r = gen::rmat(scale, 8, rng);
      return gen::uniform_weights(largest_component(r).graph, seed ^ 0xabcd);
    }
    case Family::kPathHeavyTail: {
      // A path with occasional very heavy edges: stresses the light-edge
      // logic (ℓ_Δ large, weights spanning six orders of magnitude).
      GraphBuilder b(n);
      for (NodeId u = 0; u + 1 < n; ++u) {
        const Weight w = rng.next_bernoulli(0.1) ? 1e6 : 1.0 + rng.next_double();
        b.add_edge(u, u + 1, w);
      }
      return b.build();
    }
  }
  return Graph{};
}

/// FNV-1a over the bytes of every field of a clustering: assignments,
/// distance bits, centers, radius, Δ_end, stages and every RoundStats
/// counter. Pinned values of it catch any drift in a decomposition.
inline std::uint64_t clustering_hash(const core::Clustering& c) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      h = (h ^ p[i]) * 0x100000001b3ULL;
    }
  };
  const auto mix_u64 = [&mix](std::uint64_t x) { mix(&x, sizeof x); };
  const auto mix_double = [&mix_u64](double x) {
    std::uint64_t bits;
    std::memcpy(&bits, &x, sizeof bits);
    mix_u64(bits);
  };
  mix(c.center_of.data(), c.center_of.size() * sizeof(NodeId));
  for (const Weight d : c.dist_to_center) mix_double(d);
  mix(c.centers.data(), c.centers.size() * sizeof(NodeId));
  mix_double(c.radius);
  mix_double(c.delta_end);
  mix_u64(c.stages);
  const mr::RoundStats& s = c.stats;
  for (const std::uint64_t x :
       {s.relaxation_rounds, s.auxiliary_rounds, s.messages, s.node_updates,
        s.cross_messages, s.cross_bytes, s.wire_messages, s.wire_bytes,
        s.sparse_rounds, s.dense_rounds}) {
    mix_u64(x);
  }
  return h;
}

inline std::vector<Family> all_families() {
  return {Family::kTreePlusChords, Family::kMeshUniform, Family::kGnmUniform,
          Family::kRmatGiant, Family::kPathHeavyTail};
}

}  // namespace gdiam::test
