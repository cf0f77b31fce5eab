#pragma once
// Δ-presplit view of a CSR adjacency (the "split-CSR" memory layout).
//
// The two hottest kernels in gdiam — Δ-stepping relaxation and Δ-growing
// steps — only ever need one *class* of a node's edges at a time: the light
// ones (w ≤ Δ) or the heavy ones (w > Δ). Iterating the full adjacency with a
// per-edge weight comparison pays a branch per arc and, worse, scans every
// frontier node's segment twice per bucket (once for each class). The split
// layout reorders each node's segment so all light edges come first and
// records the per-node boundary, so a kernel iterates exactly the arcs it
// needs with zero per-edge class branches.
//
// The reorder is a *stable* partition: within each class the original
// adjacency order is preserved, so the layout is a pure function of
// (CSR, Δ) and rebuilding it is deterministic. Reordering a node's segment
// never changes any algorithmic outcome here — all kernels are min-reductions
// whose per-phase message/update counters are set-based (see
// sssp/delta_stepping.cpp), which the parity tests in tests/test_split_csr.cpp
// enforce bit-for-bit.

#include <cassert>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace gdiam {

/// Light-first permutation of one CSR's payload arrays. `offsets` stays the
/// caller's; `split[u]` is the index of u's first heavy arc (== offsets[u+1]
/// when u has none). Works for any CSR — the flat Graph and the per-shard
/// CSRs of mr::Partition both use it, so partitioned kernels see the same
/// split offsets as the flat ones.
struct CsrSplit {
  std::vector<EdgeIndex> split;  // size n: first heavy index per node
  std::vector<NodeId> targets;   // permuted copy, aligned with weights
  std::vector<Weight> weights;
};

/// Builds the light-first permutation of (targets, weights) under `delta`
/// (light ⇔ w ≤ delta). Parallel over nodes; each node's segment is
/// stably partitioned in place. Spans, not vectors: the flat Graph hands
/// out views (possibly into an mmap'd .gcsr file), the per-shard CSRs of
/// mr::Partition convert implicitly from their vectors.
[[nodiscard]] CsrSplit presplit_csr(std::span<const EdgeIndex> offsets,
                                    std::span<const NodeId> targets,
                                    std::span<const Weight> weights,
                                    Weight delta);

/// Graph-level split view: the graph's offsets plus presplit payload copies.
/// Immutable after construction and safe to share across threads, like the
/// Graph itself. Default-constructed instances are empty placeholders.
class SplitCsr {
 public:
  SplitCsr() = default;
  SplitCsr(const Graph& g, Weight delta)
      : g_(&g),
        delta_(delta),
        data_(presplit_csr(g.offsets(), g.targets(), g.edge_weights(),
                           delta)) {}

  [[nodiscard]] bool empty() const noexcept { return g_ == nullptr; }
  [[nodiscard]] Weight delta() const noexcept { return delta_; }

  /// Index of u's first heavy arc in [offsets[u], offsets[u+1]].
  [[nodiscard]] EdgeIndex split_at(NodeId u) const noexcept {
    return data_.split[u];
  }
  [[nodiscard]] EdgeIndex light_degree(NodeId u) const noexcept {
    return data_.split[u] - g_->offsets()[u];
  }
  [[nodiscard]] EdgeIndex heavy_degree(NodeId u) const noexcept {
    return g_->offsets()[u + 1] - data_.split[u];
  }

  [[nodiscard]] std::span<const NodeId> light_neighbors(NodeId u) const noexcept {
    const EdgeIndex lo = g_->offsets()[u];
    return {data_.targets.data() + lo,
            static_cast<std::size_t>(data_.split[u] - lo)};
  }
  [[nodiscard]] std::span<const Weight> light_weights(NodeId u) const noexcept {
    const EdgeIndex lo = g_->offsets()[u];
    return {data_.weights.data() + lo,
            static_cast<std::size_t>(data_.split[u] - lo)};
  }
  [[nodiscard]] std::span<const NodeId> heavy_neighbors(NodeId u) const noexcept {
    const EdgeIndex hi = g_->offsets()[u + 1];
    return {data_.targets.data() + data_.split[u],
            static_cast<std::size_t>(hi - data_.split[u])};
  }
  [[nodiscard]] std::span<const Weight> heavy_weights(NodeId u) const noexcept {
    const EdgeIndex hi = g_->offsets()[u + 1];
    return {data_.weights.data() + data_.split[u],
            static_cast<std::size_t>(hi - data_.split[u])};
  }

  /// Raw permuted arrays (for kernels that iterate arcs by index).
  [[nodiscard]] const CsrSplit& data() const noexcept { return data_; }

  /// Checks the split invariants against the source graph: per-node segments
  /// are a permutation of the original adjacency (as (target, weight)
  /// multisets), classes are pure, and split offsets are in bounds.
  [[nodiscard]] bool validate() const;

 private:
  const Graph* g_ = nullptr;
  Weight delta_ = 0.0;
  CsrSplit data_;
};

}  // namespace gdiam
