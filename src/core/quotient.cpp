#include "core/quotient.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>

#include <omp.h>

#include "sssp/dijkstra.hpp"
#include "sssp/sweep.hpp"
#include "util/rng.hpp"

namespace gdiam::core {

namespace {

/// One deduplicated quotient arc of a cluster's row.
struct RowArc {
  NodeId to;
  Weight w;
};

}  // namespace

QuotientGraph build_quotient(const Graph& g, const Clustering& clustering,
                             exec::Context* /*ctx*/) {
  const NodeId n = g.num_nodes();
  const std::vector<NodeId>& center_of = clustering.center_of;
  const std::vector<Weight>& dist = clustering.dist_to_center;
  if (center_of.size() != n || dist.size() != n) {
    throw std::invalid_argument("build_quotient: clustering/graph mismatch");
  }

  QuotientGraph out;
  out.center_of_cluster = clustering.centers;
  const auto k = static_cast<NodeId>(clustering.centers.size());

  // center node id -> cluster index (centers are sorted ascending).
  std::vector<NodeId> index_of_center(n, kInvalidNode);
  for (NodeId i = 0; i < k; ++i) {
    const NodeId center = clustering.centers[i];
    if (center >= n) {
      throw std::invalid_argument("build_quotient: center id out of range");
    }
    index_of_center[center] = i;
  }

  // Membership, then a counting sort of the nodes by cluster: members[
  // first[c] .. first[c+1]) are cluster c's nodes in ascending id order.
  out.cluster_of_node.resize(n);
  std::vector<NodeId> first(static_cast<std::size_t>(k) + 1, 0);
  for (NodeId u = 0; u < n; ++u) {
    const NodeId cu =
        center_of[u] < n ? index_of_center[center_of[u]] : kInvalidNode;
    if (cu == kInvalidNode) {
      throw std::invalid_argument(
          "build_quotient: node assigned to a center not in the centers list");
    }
    if (!std::isfinite(dist[u])) {
      throw std::invalid_argument(
          "build_quotient: dist_to_center must be finite");
    }
    out.cluster_of_node[u] = cu;
    ++first[cu + 1];
  }
  for (NodeId c = 0; c < k; ++c) first[c + 1] += first[c];
  std::vector<NodeId> members(n);
  {
    std::vector<NodeId> next(first.begin(), first.end() - 1);
    for (NodeId u = 0; u < n; ++u) members[next[out.cluster_of_node[u]]++] = u;
  }

  // Cluster by cluster: scan the full adjacency of the members and keep the
  // minimum weight per target cluster. Each undirected cut edge is seen once
  // from each side, so row c holds c's arcs of the symmetric quotient and
  // nothing needs doubling or a global sort. The weight is summed as
  // (w + d_lo) + d_hi by node id, so both sides compute the same bits as the
  // serial u < v construction; a row's content is then independent of the
  // thread that builds it. Rows land in per-thread arenas and are copied
  // into the CSR once their lengths are known.
  out.cluster_radius.assign(k, 0.0);
  std::vector<EdgeIndex> offsets(static_cast<std::size_t>(k) + 1, 0);
  std::vector<std::size_t> row_start(k);
  std::vector<int> row_owner(k);
  std::vector<std::vector<RowArc>> arenas(
      static_cast<std::size_t>(omp_get_max_threads()));
  std::atomic<bool> bad_weight{false};
#pragma omp parallel
  {
    const int t = omp_get_thread_num();
    std::vector<RowArc>& rows = arenas[static_cast<std::size_t>(t)];
    // slot[c'] is c''s index in the current row when it points at an arc to
    // c'; stale entries from earlier rows fail that check, so the array
    // never needs clearing between clusters.
    std::vector<NodeId> slot(k);
#pragma omp for schedule(dynamic, 16)
    for (NodeId c = 0; c < k; ++c) {
      const std::size_t start = rows.size();
      Weight radius = 0.0;
      for (NodeId e = first[c]; e < first[c + 1]; ++e) {
        const NodeId u = members[e];
        const Weight du = dist[u];
        radius = std::max(radius, du);
        const auto nbr = g.neighbors(u);
        const auto wts = g.weights(u);
        for (std::size_t i = 0; i < nbr.size(); ++i) {
          const NodeId v = nbr[i];
          const NodeId cv = out.cluster_of_node[v];
          if (cv == c) continue;  // intra-cluster edges vanish
          const Weight w =
              u < v ? wts[i] + du + dist[v] : wts[i] + dist[v] + du;
          if (!(w > 0.0) || !std::isfinite(w)) {
            bad_weight.store(true, std::memory_order_relaxed);
          }
          const std::size_t s = start + slot[cv];
          if (s < rows.size() && rows[s].to == cv) {
            rows[s].w = std::min(rows[s].w, w);  // the paper's min rule
          } else {
            slot[cv] = static_cast<NodeId>(rows.size() - start);
            rows.push_back(RowArc{cv, w});
          }
        }
      }
      std::sort(rows.begin() + static_cast<std::ptrdiff_t>(start), rows.end(),
                [](const RowArc& a, const RowArc& b) { return a.to < b.to; });
      out.cluster_radius[c] = radius;
      offsets[c + 1] = rows.size() - start;
      row_start[c] = start;
      row_owner[c] = t;
    }
  }
  if (bad_weight.load(std::memory_order_relaxed)) {
    throw std::invalid_argument(
        "build_quotient: quotient weight must be positive and finite");
  }

  for (NodeId c = 0; c < k; ++c) offsets[c + 1] += offsets[c];
  std::vector<NodeId> targets(offsets[k]);
  std::vector<Weight> weights(offsets[k]);
#pragma omp parallel for schedule(static, 256)
  for (NodeId c = 0; c < k; ++c) {
    const RowArc* row = arenas[static_cast<std::size_t>(row_owner[c])].data() +
                        row_start[c];
    for (EdgeIndex i = offsets[c]; i < offsets[c + 1]; ++i, ++row) {
      targets[i] = row->to;
      weights[i] = row->w;
    }
  }
  out.graph = Graph(std::move(offsets), std::move(targets), std::move(weights));
  return out;
}

QuotientDiameterResult quotient_diameter(const Graph& quotient,
                                         const QuotientDiameterOptions& opts) {
  QuotientDiameterResult out;
  const NodeId k = quotient.num_nodes();
  if (k == 0) return out;

  if (k <= opts.exact_threshold) {
    out.diameter = sssp::exact_diameter(quotient);
    out.exact = true;
    return out;
  }

  util::Xoshiro256 rng(opts.seed);
  Weight best = 0.0;
  for (unsigned r = 0; r < std::max(1u, opts.restarts); ++r) {
    const auto seed_node = static_cast<NodeId>(rng.next_bounded(k));
    const auto sweep =
        sssp::diameter_lower_bound(quotient, opts.sweeps, opts.seed, seed_node);
    best = std::max(best, sweep.lower_bound);
  }
  out.diameter = best;
  out.exact = false;
  return out;
}

QuotientDiametersResult quotient_diameters(
    const QuotientGraph& quotient, const QuotientDiameterOptions& opts) {
  QuotientDiametersResult out;
  const Graph& q = quotient.graph;
  const NodeId k = q.num_nodes();
  if (k == 0) return out;
  const std::vector<Weight>& radius = quotient.cluster_radius;

  // Intra-cluster pairs: dist(u, v) ≤ 2·r(C).
  for (const Weight r : radius) out.augmented = std::max(out.augmented, 2.0 * r);

  // One Dijkstra feeds both metrics: plain eccentricity and the
  // radius-augmented eccentricity (max_j dist + r_j, plus r_c).
  struct Ecc {
    Weight plain = 0.0;
    Weight augmented = 0.0;
    NodeId far = 0;  // argmax in the augmented metric (sweep continuation)
  };
  auto both_ecc = [&](NodeId c) {
    const auto dist = sssp::dijkstra_distances(q, c);
    Ecc e;
    e.far = c;
    Weight aug_ecc = 0.0;
    for (NodeId j = 0; j < k; ++j) {
      if (dist[j] == kInfiniteWeight) continue;
      e.plain = std::max(e.plain, dist[j]);
      const Weight v = dist[j] + radius[j];
      if (v > aug_ecc) {
        aug_ecc = v;
        e.far = j;
      }
    }
    e.augmented = aug_ecc + radius[c];
    return e;
  };

  if (k <= opts.exact_threshold) {
    Weight plain = 0.0, augmented = out.augmented;
#pragma omp parallel for schedule(dynamic, 16) \
    reduction(max : plain, augmented)
    for (NodeId c = 0; c < k; ++c) {
      const Ecc e = both_ecc(c);
      plain = std::max(plain, e.plain);
      augmented = std::max(augmented, e.augmented);
    }
    out.plain = plain;
    out.augmented = augmented;
    out.exact = true;
    return out;
  }

  // Large quotient: iterated sweeps (augmented metric drives the farthest
  // hop), restarting from several seeds so disconnected quotients are
  // probed too.
  util::Xoshiro256 rng(opts.seed);
  for (unsigned r = 0; r < std::max(1u, opts.restarts); ++r) {
    NodeId source = static_cast<NodeId>(rng.next_bounded(k));
    std::vector<NodeId> visited;
    for (unsigned s = 0; s < std::max(1u, opts.sweeps); ++s) {
      if (std::find(visited.begin(), visited.end(), source) != visited.end()) {
        break;
      }
      visited.push_back(source);
      const Ecc e = both_ecc(source);
      out.plain = std::max(out.plain, e.plain);
      out.augmented = std::max(out.augmented, e.augmented);
      source = e.far;
    }
  }
  out.exact = false;
  return out;
}

QuotientDiameterResult quotient_diameter_radius_aware(
    const QuotientGraph& quotient, const QuotientDiameterOptions& opts) {
  const QuotientDiametersResult both = quotient_diameters(quotient, opts);
  return QuotientDiameterResult{both.augmented, both.exact};
}

}  // namespace gdiam::core
