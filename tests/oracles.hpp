#pragma once
// Exact oracles and pinned model counters for the kernel suites of
// test_frontier and test_split_csr.
//
// These suites check every answer against one exact oracle — distances
// against sssp::dijkstra, Δ-growing labels against the GrowingPolicy::kPull
// reference engine — and pin the model counters of each configuration to
// the rows below. The rows were recorded from the kernels while the
// bit-identical A/B baselines (non-adaptive frontiers, branch-filter
// adjacency) still existed and were checked equal to them, so a match
// proves those paths were removed without moving a counter.
//
// Counters are independent of the thread count, the shard count K and the
// transport, so one row serves every K a test runs. Row layout:
//   {rounds, auxiliary, messages, updates, sparse, dense, extra}
// where rounds counts relaxation rounds (Δ-stepping phases or Δ-growing
// steps), auxiliary the auxiliary rounds, sparse/dense the relaxation
// rounds collected in each frontier representation, and extra the buckets
// processed (Δ-stepping), newly labeled nodes (Δ-growing) or clusters
// (CLUSTER). Keys name the suite, the graph and the configuration.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <ostream>
#include <string>

#include "core/growing.hpp"
#include "mr/stats.hpp"
#include "sssp/delta_stepping.hpp"
#include "sssp/dijkstra.hpp"

namespace gdiam::test {

struct Counters {
  std::uint64_t rounds = 0;
  std::uint64_t auxiliary = 0;
  std::uint64_t messages = 0;
  std::uint64_t updates = 0;
  std::uint64_t sparse = 0;
  std::uint64_t dense = 0;
  std::uint64_t extra = 0;

  friend bool operator==(const Counters&, const Counters&) = default;
  friend std::ostream& operator<<(std::ostream& os, const Counters& c) {
    return os << "{" << c.rounds << ", " << c.auxiliary << ", " << c.messages
              << ", " << c.updates << ", " << c.sparse << ", " << c.dense
              << ", " << c.extra << "}";
  }
};

inline Counters counters_of(const mr::RoundStats& s, std::uint64_t extra) {
  return {s.relaxation_rounds, s.auxiliary_rounds, s.messages,
          s.node_updates,      s.sparse_rounds,    s.dense_rounds,
          extra};
}

inline Counters counters_of(const sssp::DeltaSteppingResult& r) {
  return counters_of(r.stats, r.buckets_processed);
}

/// Folds one Δ-growing step into running totals (one round per step).
inline void accumulate(Counters& c, const core::GrowingStepResult& r) {
  c.rounds += 1;
  c.messages += r.messages;
  c.updates += r.updates;
  c.sparse += r.sparse_rounds;
  c.dense += r.dense_rounds;
  c.extra += r.newly_labeled;
}

struct PinnedRow {
  const char* key;
  Counters counters;
};

// clang-format off
inline constexpr PinnedRow kPinnedCounters[] = {
    {"cluster/pull", {1, 4, 161, 90, 0, 1, 199}},
    {"cluster/push", {1, 4, 161, 90, 0, 1, 199}},
    {"frontier/disconnected/s0", {66, 26, 78, 39, 66, 0, 26}},
    {"frontier/disconnected/s40", {2, 1, 0, 0, 2, 0, 1}},
    {"frontier/disconnected/s50", {80, 40, 96, 48, 80, 0, 40}},
    {"frontier/gnm_uniform/m0.5/df0.005", {27, 7, 1218, 269, 11, 16, 7}},
    {"frontier/gnm_uniform/m0.5/df0.0625", {27, 7, 1218, 269, 16, 11, 7}},
    {"frontier/gnm_uniform/m1/df0.005", {21, 4, 1272, 266, 6, 15, 4}},
    {"frontier/gnm_uniform/m1/df0.0625", {21, 4, 1272, 266, 13, 8, 4}},
    {"frontier/gnm_uniform/m8/df0.005", {13, 1, 3180, 525, 3, 10, 1}},
    {"frontier/gnm_uniform/m8/df0.0625", {13, 1, 3180, 525, 4, 9, 1}},
    {"frontier/hub_path", {10, 1, 256, 128, 9, 1, 1}},
    {"frontier/mesh_uniform/m0.5/df0.005", {79, 27, 734, 232, 14, 65, 27}},
    {"frontier/mesh_uniform/m0.5/df0.0625", {79, 27, 734, 232, 79, 0, 27}},
    {"frontier/mesh_uniform/m1/df0.005", {56, 14, 753, 231, 8, 48, 14}},
    {"frontier/mesh_uniform/m1/df0.0625", {56, 14, 753, 231, 54, 2, 14}},
    {"frontier/mesh_uniform/m8/df0.005", {29, 2, 931, 257, 3, 26, 2}},
    {"frontier/mesh_uniform/m8/df0.0625", {29, 2, 931, 257, 13, 16, 2}},
    {"frontier/path_heavy_tail/m0.5/df0.005", {224, 27, 398, 199, 221, 3, 27}},
    {"frontier/path_heavy_tail/m0.5/df0.0625", {224, 27, 398, 199, 224, 0, 27}},
    {"frontier/path_heavy_tail/m1/df0.005", {224, 27, 398, 199, 221, 3, 27}},
    {"frontier/path_heavy_tail/m1/df0.0625", {224, 27, 398, 199, 224, 0, 27}},
    {"frontier/path_heavy_tail/m8/df0.005", {222, 25, 398, 199, 219, 3, 25}},
    {"frontier/path_heavy_tail/m8/df0.0625", {222, 25, 398, 199, 222, 0, 25}},
    {"frontier/rmat_giant/m0.5/df0.005", {21, 6, 2913, 368, 11, 10, 6}},
    {"frontier/rmat_giant/m0.5/df0.0625", {21, 6, 2913, 368, 14, 7, 6}},
    {"frontier/rmat_giant/m1/df0.005", {16, 4, 4418, 544, 8, 8, 4}},
    {"frontier/rmat_giant/m1/df0.0625", {16, 4, 4418, 544, 9, 7, 4}},
    {"frontier/rmat_giant/m8/df0.005", {9, 1, 7760, 662, 2, 7, 1}},
    {"frontier/rmat_giant/m8/df0.0625", {9, 1, 7760, 662, 2, 7, 1}},
    {"frontier/tree_plus_chords/m0.5/df0.005", {49, 17, 596, 222, 24, 25, 17}},
    {"frontier/tree_plus_chords/m0.5/df0.0625", {49, 17, 596, 222, 41, 8, 17}},
    {"frontier/tree_plus_chords/m1/df0.005", {30, 9, 602, 217, 12, 18, 9}},
    {"frontier/tree_plus_chords/m1/df0.0625", {30, 9, 602, 217, 21, 9, 9}},
    {"frontier/tree_plus_chords/m8/df0.005", {12, 2, 785, 266, 4, 8, 2}},
    {"frontier/tree_plus_chords/m8/df0.0625", {12, 2, 785, 266, 5, 7, 2}},
    {"grow/bsp/disconnected", {20, 0, 116, 57, 20, 0, 57}},
    {"grow/bsp/hub_path", {9, 0, 256, 128, 8, 1, 128}},
    {"grow/bsp/mesh_uniform/df0.01", {8, 0, 106, 56, 0, 8, 48}},
    {"grow/bsp/mesh_uniform/df0.0625", {8, 0, 106, 56, 8, 0, 48}},
    {"grow/bsp/path_heavy_tail/df0.01", {21, 0, 90, 45, 15, 6, 45}},
    {"grow/bsp/path_heavy_tail/df0.0625", {21, 0, 90, 45, 21, 0, 45}},
    {"grow/bsp/per_center", {8, 0, 1031, 302, 1, 7, 146}},
    {"grow/bsp/rmat_giant/df0.01", {10, 0, 4047, 456, 1, 9, 210}},
    {"grow/bsp/rmat_giant/df0.0625", {10, 0, 4047, 456, 3, 7, 210}},
    {"grow/pull/disconnected", {20, 0, 116, 57, 20, 0, 57}},
    {"grow/pull/hub_path", {9, 0, 256, 128, 8, 1, 128}},
    {"grow/pull/mesh_uniform/df0.01", {8, 0, 106, 56, 0, 8, 48}},
    {"grow/pull/mesh_uniform/df0.0625", {8, 0, 106, 56, 8, 0, 48}},
    {"grow/pull/path_heavy_tail/df0.01", {21, 0, 90, 45, 15, 6, 45}},
    {"grow/pull/path_heavy_tail/df0.0625", {21, 0, 90, 45, 21, 0, 45}},
    {"grow/pull/per_center", {8, 0, 1031, 302, 1, 7, 146}},
    {"grow/pull/rmat_giant/df0.01", {10, 0, 4047, 456, 1, 9, 210}},
    {"grow/pull/rmat_giant/df0.0625", {10, 0, 4047, 456, 3, 7, 210}},
    {"grow/pull/threshold_bump", {12, 0, 877, 197, 4, 8, 149}},
    {"grow/push/disconnected", {20, 0, 116, 57, 20, 0, 57}},
    {"grow/push/hub_path", {9, 0, 256, 128, 8, 1, 128}},
    {"grow/push/mesh_uniform/df0.01", {8, 0, 106, 56, 0, 8, 48}},
    {"grow/push/mesh_uniform/df0.0625", {8, 0, 106, 56, 8, 0, 48}},
    {"grow/push/path_heavy_tail/df0.01", {21, 0, 90, 45, 15, 6, 45}},
    {"grow/push/path_heavy_tail/df0.0625", {21, 0, 90, 45, 21, 0, 45}},
    {"grow/push/per_center", {8, 0, 1031, 302, 1, 7, 146}},
    {"grow/push/rmat_giant/df0.01", {10, 0, 4047, 456, 1, 9, 210}},
    {"grow/push/rmat_giant/df0.0625", {10, 0, 4047, 456, 3, 7, 210}},
    {"grow/push/threshold_bump", {12, 0, 877, 197, 4, 8, 149}},
    {"split/gnm_uniform/m0.5", {26, 7, 1216, 271, 17, 9, 7}},
    {"split/gnm_uniform/m1", {19, 4, 1289, 268, 9, 10, 4}},
    {"split/gnm_uniform/m8", {10, 1, 2448, 413, 2, 8, 1}},
    {"split/mesh_uniform/m0.5", {81, 28, 737, 240, 81, 0, 28}},
    {"split/mesh_uniform/m1", {55, 15, 760, 237, 55, 0, 15}},
    {"split/mesh_uniform/m8", {31, 2, 1210, 341, 11, 20, 2}},
    {"split/path_heavy_tail/m0.5", {214, 17, 398, 199, 214, 0, 17}},
    {"split/path_heavy_tail/m1", {214, 17, 398, 199, 214, 0, 17}},
    {"split/path_heavy_tail/m8", {214, 17, 398, 199, 214, 0, 17}},
    {"split/rmat_giant/m0.5", {18, 5, 2791, 319, 10, 8, 5}},
    {"split/rmat_giant/m1", {16, 3, 4041, 462, 7, 9, 3}},
    {"split/rmat_giant/m8", {11, 1, 6675, 562, 3, 8, 1}},
    {"split/tree_plus_chords/m0.5", {36, 12, 594, 224, 26, 10, 12}},
    {"split/tree_plus_chords/m1", {23, 6, 596, 217, 15, 8, 6}},
    {"split/tree_plus_chords/m8", {10, 1, 867, 289, 4, 6, 1}},
};
// clang-format on

/// The pinned counters for `key`; a missing key is a test bug, reported as
/// an all-ones row that no run can match.
inline Counters pinned(const std::string& key) {
  for (const PinnedRow& row : kPinnedCounters) {
    if (key == row.key) return row.counters;
  }
  constexpr auto kMissing = ~std::uint64_t{0};
  return {kMissing, kMissing, kMissing, kMissing, kMissing, kMissing,
          kMissing};
}

/// The policy's name in pinned-row keys.
inline const char* policy_key(core::GrowingPolicy p) {
  return p == core::GrowingPolicy::kPush   ? "push"
         : p == core::GrowingPolicy::kPull ? "pull"
                                           : "bsp";
}

/// "%g" of `x` — the number format of the pinned-row keys.
inline std::string key_num(double x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", x);
  return buf;
}

/// Runs Δ-stepping and checks it against the oracles: distances and the
/// eccentricity against Dijkstra, the model counters against row `key`, and
/// every relaxation round classified as exactly one of sparse or dense.
inline void expect_delta_matches_oracles(const std::string& key,
                                         const Graph& g, NodeId source,
                                         const sssp::DeltaSteppingOptions& o) {
  const sssp::DeltaSteppingResult r = sssp::delta_stepping(g, source, o);
  const sssp::SsspResult ref = sssp::dijkstra(g, source);
  EXPECT_EQ(r.dist, ref.dist) << key;
  EXPECT_EQ(r.eccentricity, ref.eccentricity) << key;
  EXPECT_EQ(counters_of(r), pinned(key)) << key;
  EXPECT_EQ(r.stats.sparse_rounds + r.stats.dense_rounds,
            r.stats.relaxation_rounds)
      << key;
}

/// Steps `e` in lockstep with a kPull reference engine (default frontier
/// options, flat) seeded by the same `seed` callback. For each params entry
/// both engines rebuild their frontier and step until a step updates
/// nothing or `max_steps` ran; labels and the per-step messages, updates
/// and newly labeled counts must match the reference at every step, and
/// each step is exactly one sparse or dense round. Returns e's totals.
template <typename Seed>
Counters grow_against_pull(const Graph& g, core::GrowingEngine& e,
                           std::initializer_list<core::GrowingStepParams> ps,
                           int max_steps, Seed&& seed) {
  core::GrowingEngine ref(g, core::GrowingPolicy::kPull);
  seed(e);
  seed(ref);
  Counters c;
  for (const core::GrowingStepParams& p : ps) {
    e.rebuild_frontier(p);
    ref.rebuild_frontier(p);
    for (int step = 0; step < max_steps; ++step) {
      const core::GrowingStepResult r = e.step(p);
      const core::GrowingStepResult rr = ref.step(p);
      EXPECT_EQ(r.messages, rr.messages) << "step " << step;
      EXPECT_EQ(r.updates, rr.updates) << "step " << step;
      EXPECT_EQ(r.newly_labeled, rr.newly_labeled) << "step " << step;
      EXPECT_EQ(e.labels(), ref.labels()) << "step " << step;
      EXPECT_EQ(r.sparse_rounds + r.dense_rounds, 1u) << "step " << step;
      if (::testing::Test::HasFailure()) return c;
      accumulate(c, r);
      if (r.updates == 0) break;
    }
  }
  return c;
}

}  // namespace gdiam::test
