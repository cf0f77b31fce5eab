#include "core/cluster.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>

#include "core/partial_growth.hpp"
#include "exec/context.hpp"
#include "util/rng.hpp"

namespace gdiam::core {

namespace {

Weight initial_delta(const Graph& g, const ClusterOptions& opts) {
  switch (opts.delta_init) {
    case DeltaInit::kMinWeight:
      return g.min_weight() > 0.0 ? g.min_weight() : 1.0;
    case DeltaInit::kFixed:
      if (!(opts.delta_fixed > 0.0)) {
        throw std::invalid_argument("cluster: delta_fixed must be positive");
      }
      return opts.delta_fixed;
    case DeltaInit::kAverageWeight:
    default:
      return g.avg_weight() > 0.0 ? g.avg_weight() : 1.0;
  }
}

}  // namespace

bool Clustering::validate(const Graph& g) const {
  const NodeId n = g.num_nodes();
  if (center_of.size() != n || dist_to_center.size() != n) return false;
  for (NodeId u = 0; u < n; ++u) {
    if (center_of[u] >= n) return false;
    if (!(dist_to_center[u] >= 0.0) || dist_to_center[u] == kInfiniteWeight) {
      return false;
    }
    if (dist_to_center[u] > radius) return false;
  }
  for (const NodeId c : centers) {
    if (c >= n || center_of[c] != c || dist_to_center[c] != 0.0) return false;
  }
  if (!std::is_sorted(centers.begin(), centers.end())) return false;
  // Every center referenced must be listed.
  std::vector<std::uint8_t> is_center(n, 0);
  for (const NodeId c : centers) is_center[c] = 1;
  for (NodeId u = 0; u < n; ++u) {
    if (!is_center[center_of[u]]) return false;
  }
  return true;
}

Clustering cluster(const Graph& g, const ClusterOptions& opts,
                   exec::Context* ctx) {
  if (opts.tau == 0) throw std::invalid_argument("cluster: tau must be >= 1");
  const NodeId n = g.num_nodes();

  Clustering out;
  out.center_of.assign(n, kInvalidNode);
  out.dist_to_center.assign(n, kInfiniteWeight);

  if (n == 0) return out;

  exec::Context local_ctx;
  exec::Context& C = ctx != nullptr ? *ctx : local_ctx;
  detail::PartialGrowthDriver drv(g, opts, C, out);
  GrowingEngine& engine = drv.engine();

  // Upper bound on the distance from each center to its cluster's current
  // boundary; newly covered nodes get dist = offset(center) + stage label.
  std::vector<Weight> cluster_offset(n, 0.0);

  const double logn = std::max(1.0, std::log2(static_cast<double>(n)));
  const double stop_threshold =
      opts.stop_factor * static_cast<double>(opts.tau) * logn;
  // Any simple path weighs at most (n-1)·max_weight: once Δ exceeds this at
  // a relaxation fixpoint, the remaining uncovered nodes are unreachable
  // from every source and further doubling cannot help.
  const Weight max_useful_delta =
      std::max(1.0, static_cast<Weight>(n) * std::max(1.0, g.max_weight()));

  Weight delta = initial_delta(g, opts);
  util::Xoshiro256 rng(opts.seed);

  // The CLUSTER growth rule for the shared stage driver
  // (core/partial_growth.hpp): fresh random centers among the uncovered each
  // stage, geometrically increasing Δ until half the uncovered nodes are
  // captured, contraction with the relaxation-forest distance fix-up.
  NodeId uncovered_at_start = 0;
  std::uint64_t labeled_uncovered = 0;
  std::vector<NodeId> new_centers;

  struct Rule {
    Clustering& out;
    detail::PartialGrowthDriver& drv;
    GrowingEngine& engine;
    const Graph& g;
    const ClusterOptions& opts;
    util::Xoshiro256& rng;
    const double stop_threshold;
    const Weight max_useful_delta;
    Weight& delta;
    std::vector<Weight>& cluster_offset;
    NodeId& uncovered_at_start;
    std::uint64_t& labeled_uncovered;
    std::vector<NodeId>& new_centers;
    const double logn;

    bool more_stages() const {
      return static_cast<double>(drv.uncovered()) >= stop_threshold &&
             drv.uncovered() > 0;
    }

    // --- center selection (one MR round: sample + broadcast) --------------
    void select_centers() {
      const NodeId n = g.num_nodes();
      uncovered_at_start = drv.uncovered();
      const double p = std::min(
          1.0, opts.gamma * static_cast<double>(opts.tau) * logn /
                   static_cast<double>(drv.uncovered()));
      engine.clear_labels();
      new_centers.clear();
      for (NodeId u = 0; u < n; ++u) {
        if (!drv.is_covered(u) && rng.next_bernoulli(p)) {
          new_centers.push_back(u);
        }
      }
      if (new_centers.empty()) {
        // The w.h.p. analysis assumes at least one center per stage; force
        // one so the implementation always makes progress.
        NodeId pick = kInvalidNode;
        std::uint64_t skip = rng.next_bounded(drv.uncovered());
        for (NodeId u = 0; u < n && pick == kInvalidNode; ++u) {
          if (!drv.is_covered(u) && skip-- == 0) pick = u;
        }
        new_centers.push_back(pick);
      }
      // Contracted clusters re-enter as zero-distance sources (Contract
      // re-attaches their frontier edges to the center, original weights).
#pragma omp parallel for schedule(static)
      for (NodeId u = 0; u < n; ++u) {
        if (drv.is_covered(u)) engine.set_source(u, out.center_of[u]);
      }
      for (const NodeId c : new_centers) {
        engine.set_source(c, c);
      }
    }

    // --- grow with geometrically increasing Δ -----------------------------
    void grow() {
      const auto target =
          static_cast<std::uint64_t>((uncovered_at_start + 1) / 2);
      // New centers are uncovered nodes with d = 0 ≤ Δ: they are in V'.
      labeled_uncovered = new_centers.size();
      while (true) {
        GrowingStepParams params;
        params.light_threshold = delta;
        params.uniform_budget = delta;
        engine.rebuild_frontier(params);

        // PartialGrowth(G_i, Δ): Δ-growing steps until no state changes or
        // the coverage target is met (checked per step, as in the
        // pseudocode's repeat-until).
        const GrowingEngine::RunResult r = engine.run(
            params, out.stats, opts.max_steps_per_growth,
            [&](const GrowingStepResult& total) {
              return labeled_uncovered + total.newly_labeled >= target;
            });
        labeled_uncovered += r.totals.newly_labeled;
        out.stats.auxiliary_rounds++;  // |V'| count (prefix sum round)

        if (labeled_uncovered >= target) break;
        // Step cap exhausted mid-growth: accept the partial stage instead of
        // doubling (the Section 4 bounded-rounds variant — doubling Δ would
        // not shorten a hop-limited run, only re-pay it).
        if (r.hit_step_cap) break;
        // At a fixpoint, doubling unlocks heavier edges and more budget;
        // once Δ exceeds any possible path weight, the remaining uncovered
        // nodes are unreachable from the current sources and the stage must
        // settle for what it has.
        if (delta >= max_useful_delta) break;
        delta *= 2.0;
      }
    }

    // --- assignment + logical contraction (one MR round) ------------------
    //
    // dist_to_center fix-up: the stage label d_v only measures the path from
    // the cluster's *boundary* (Contract re-attaches frontier edges at
    // original weight), so the distance to the center is recovered by
    // walking the relaxation forest. Taking a cluster's newly covered nodes
    // by increasing (label, id), a node's true parent (the neighbor that set
    // d_v = d_u + w) is already final, giving the exact weight of an actual
    // center-to-v path — a tight, deterministic upper bound. When growth
    // stopped early the parent's label may have shifted afterwards; the
    // cluster's boundary offset then serves as a safe fallback.
    //
    // A node only ever looks at members of its own cluster, so each cluster
    // is walked on its own, in parallel: the newly covered nodes are
    // counting-sorted by center, and every bucket is sorted and walked by
    // one task. A walk reads only state fixed for the whole contraction
    // (coverage before the stage, the earlier stages' assignment, the
    // labels) plus its own members' distances, so the result does not
    // depend on the thread count.
    void contract() {
      const NodeId n = g.num_nodes();
      const std::vector<PackedLabel>& labels = engine.labels();
      const auto newly = [&](NodeId u) {
        return !drv.is_covered(u) && label_assigned(labels[u]);
      };

      bucket_pos.assign(n, 0);
#pragma omp parallel for schedule(static)
      for (NodeId u = 0; u < n; ++u) {
        if (!newly(u)) continue;
        std::atomic_ref<NodeId>(bucket_pos[label_center(labels[u])])
            .fetch_add(1, std::memory_order_relaxed);
      }
      buckets.clear();
      NodeId total = 0;
      for (NodeId c = 0; c < n; ++c) {
        const NodeId size = bucket_pos[c];
        if (size == 0) continue;
        buckets.push_back(Bucket{c, total, total + size});
        bucket_pos[c] = total;
        total += size;
      }
      newly_covered.resize(total);
#pragma omp parallel for schedule(static)
      for (NodeId u = 0; u < n; ++u) {
        if (!newly(u)) continue;
        const NodeId slot =
            std::atomic_ref<NodeId>(bucket_pos[label_center(labels[u])])
                .fetch_add(1, std::memory_order_relaxed);
        newly_covered[slot] = u;
      }

#pragma omp parallel
      {
        // (label_dist order bits, id) keys: labels are non-negative floats,
        // so integer order is exactly (label_dist, id) order.
        std::vector<std::uint64_t> order;
#pragma omp for schedule(dynamic, 16)
        for (std::size_t b = 0; b < buckets.size(); ++b) {
          const NodeId c = buckets[b].center;
          order.clear();
          for (NodeId i = buckets[b].begin; i < buckets[b].end; ++i) {
            const NodeId v = newly_covered[i];
            order.push_back((labels[v] >> 32 << 32) | v);
          }
          std::sort(order.begin(), order.end());
          const Weight offset = cluster_offset[c];
          Weight extent = offset;
          for (const std::uint64_t key : order) {
            const auto v = static_cast<NodeId>(key & 0xffffffffULL);
            const float bv = label_dist(key);
            Weight best = kInfiniteWeight;
            if (bv == 0.0f) {
              best = 0.0;  // new center
            } else {
              const auto nbr = g.neighbors(v);
              const auto wts = g.weights(v);
              for (std::size_t i = 0; i < nbr.size(); ++i) {
                const NodeId u = nbr[i];
                // Any final member of the same cluster — covered in an
                // earlier stage, or walked before v in this bucket —
                // certifies the real path center -> u -> v of weight
                // dist(u) + w.
                const bool final_member =
                    drv.is_covered(u)
                        ? out.center_of[u] == c
                        : label_center(labels[u]) == c &&
                              out.dist_to_center[u] != kInfiniteWeight;
                if (final_member) {
                  best = std::min(best, out.dist_to_center[u] + wts[i]);
                }
              }
              if (best == kInfiniteWeight) {
                best = offset + static_cast<Weight>(bv);  // fallback
              }
            }
            out.center_of[v] = c;
            out.dist_to_center[v] = best;
            extent = std::max(extent, best);
          }
          // The boundary offset advances to the stage's final extent.
          cluster_offset[c] = extent;
        }
      }
      drv.cover(newly_covered);
    }

    // Contraction scratch, reused across stages: per-center bucket cursors,
    // the non-empty buckets, and the newly covered nodes grouped by bucket.
    struct Bucket {
      NodeId center;
      NodeId begin;
      NodeId end;
    };
    std::vector<NodeId> bucket_pos{};
    std::vector<Bucket> buckets{};
    std::vector<NodeId> newly_covered{};
  };

  Rule rule{out,
            drv,
            engine,
            g,
            opts,
            rng,
            stop_threshold,
            max_useful_delta,
            delta,
            cluster_offset,
            uncovered_at_start,
            labeled_uncovered,
            new_centers,
            logn};
  drv.run_stages(rule);

  // --- leftover nodes become singleton clusters (one MR round) ------------
  out.stats.auxiliary_rounds++;
  drv.finalize();
  out.delta_end = delta;
  return out;
}

std::uint32_t tau_for_cluster_target(NodeId n, NodeId target_clusters) {
  if (n == 0 || target_clusters == 0) return 1;
  const double logn = std::max(1.0, std::log2(static_cast<double>(n)));
  // CLUSTER produces Θ(τ log n) centers per stage over ≈log n stages plus
  // ≤ 8·τ·log n singletons; dividing the target by c·log n with c ≈ 12
  // keeps the observed cluster counts at or below the target.
  const double tau = static_cast<double>(target_clusters) / (12.0 * logn);
  return static_cast<std::uint32_t>(std::max(1.0, tau));
}

}  // namespace gdiam::core
