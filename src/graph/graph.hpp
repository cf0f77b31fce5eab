#pragma once
// Immutable CSR representation of an undirected weighted graph.
//
// This is the substrate every algorithm in gdiam operates on. Graphs are
// built once (see graph/builder.hpp) and then treated as read-only, so all
// parallel kernels can share them without synchronization.
//
// Storage comes in two flavors behind one type:
//   * owned   — the CSR arrays live in std::vectors inside the Graph (the
//     builder / generator path);
//   * mapped  — the arrays are read-only views into a memory-mapped .gcsr
//     file (graph/binfmt.hpp), and the Graph holds a shared keep-alive for
//     the mapping. Copies share the mapping; nothing is deep-copied.
// Either way the accessors hand out std::spans, so kernels cannot tell (and
// must not care) which flavor they run on.

#include <cassert>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

namespace gdiam {

using NodeId = std::uint32_t;
using EdgeIndex = std::uint64_t;
using Weight = double;

/// Sentinel for "no node" (also used as the undefined cluster center).
inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();
inline constexpr Weight kInfiniteWeight =
    std::numeric_limits<Weight>::infinity();

/// One undirected edge; the builder symmetrizes, so (u,v) and (v,u) denote
/// the same edge.
struct Edge {
  NodeId u = 0;
  NodeId v = 0;
  Weight w = 1.0;

  friend bool operator==(const Edge&, const Edge&) = default;
};

using EdgeList = std::vector<Edge>;

/// Min, max and mean of an edge-weight array (all 0 when it is empty).
struct WeightStats {
  Weight min = 0.0;
  Weight max = 0.0;
  Weight avg = 0.0;
};

/// The one definition of a graph's weight stats: the builder, text ingest
/// and the .gcsr writer all get them through Graph, and `gdiam_convert
/// --verify` rechecks a .gcsr header against this function. The sum runs
/// serially in index order, so the mean (and with it the heuristic Δ) is a
/// pure function of the array, never of the thread count.
[[nodiscard]] WeightStats weight_stats(std::span<const Weight> weights) noexcept;

/// Undirected weighted graph in compressed-sparse-row form.
///
/// Internally each undirected edge is stored twice (both directions), so
/// `num_directed_edges() == 2 * num_edges()`. All edge weights are positive
/// and finite (enforced by GraphBuilder).
class Graph {
 public:
  Graph();

  /// Takes ownership of validated CSR arrays; use GraphBuilder to construct
  /// from an edge list. Pre: offsets.size() == n+1, offsets is nondecreasing,
  /// offsets.back() == targets.size() == weights.size().
  Graph(std::vector<EdgeIndex> offsets, std::vector<NodeId> targets,
        std::vector<Weight> weights);

  /// Zero-copy view over externally owned CSR arrays (the mmap path,
  /// graph/binfmt.hpp). `backing` is an opaque keep-alive: the spans must
  /// stay valid for as long as any copy of it is held. The weight stats are
  /// taken from the caller (the .gcsr header persists them) so opening a
  /// mapped graph never forces a scan of the weights section.
  Graph(std::span<const EdgeIndex> offsets, std::span<const NodeId> targets,
        std::span<const Weight> weights, std::shared_ptr<const void> backing,
        Weight min_weight, Weight max_weight, Weight avg_weight);

  Graph(const Graph& other);
  Graph& operator=(const Graph& other);
  Graph(Graph&& other) noexcept;
  Graph& operator=(Graph&& other) noexcept;
  ~Graph() = default;

  [[nodiscard]] NodeId num_nodes() const noexcept {
    return offsets_v_.empty() ? 0
                              : static_cast<NodeId>(offsets_v_.size() - 1);
  }

  /// Number of undirected edges.
  [[nodiscard]] EdgeIndex num_edges() const noexcept {
    return static_cast<EdgeIndex>(targets_v_.size() / 2);
  }

  /// Number of stored arcs (2 per undirected edge).
  [[nodiscard]] EdgeIndex num_directed_edges() const noexcept {
    return static_cast<EdgeIndex>(targets_v_.size());
  }

  [[nodiscard]] EdgeIndex degree(NodeId u) const noexcept {
    assert(u < num_nodes());
    return offsets_v_[u + 1] - offsets_v_[u];
  }

  /// Neighbor ids of u, aligned with weights(u).
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId u) const noexcept {
    assert(u < num_nodes());
    return {targets_v_.data() + offsets_v_[u],
            static_cast<std::size_t>(offsets_v_[u + 1] - offsets_v_[u])};
  }

  /// Weights of u's incident edges, aligned with neighbors(u).
  [[nodiscard]] std::span<const Weight> weights(NodeId u) const noexcept {
    assert(u < num_nodes());
    return {weights_v_.data() + offsets_v_[u],
            static_cast<std::size_t>(offsets_v_[u + 1] - offsets_v_[u])};
  }

  /// Raw CSR accessors (used by kernels that iterate arcs directly).
  [[nodiscard]] std::span<const EdgeIndex> offsets() const noexcept {
    return offsets_v_;
  }
  [[nodiscard]] std::span<const NodeId> targets() const noexcept {
    return targets_v_;
  }
  [[nodiscard]] std::span<const Weight> edge_weights() const noexcept {
    return weights_v_;
  }

  /// Smallest / largest / mean edge weight; 0 for edgeless graphs.
  [[nodiscard]] Weight min_weight() const noexcept { return min_weight_; }
  [[nodiscard]] Weight max_weight() const noexcept { return max_weight_; }
  [[nodiscard]] Weight avg_weight() const noexcept { return avg_weight_; }

  /// True when the CSR arrays are views into external storage (an mmap'd
  /// .gcsr file) rather than owned vectors.
  [[nodiscard]] bool is_mapped() const noexcept { return backing_ != nullptr; }

  /// True when both directions of every arc are present with equal weight
  /// and there are no self-loops — the invariant GraphBuilder establishes.
  [[nodiscard]] bool is_symmetric() const;

  /// Cheap structural sanity check of the CSR arrays.
  [[nodiscard]] bool validate() const;

 private:
  void compute_weight_stats() noexcept;
  /// Points the view spans at the owned vectors (owned-storage flavor).
  void rebind_views() noexcept;
  /// Returns *this to the empty owned state (moved-from graphs land here so
  /// they stay usable, not dangling into the destination's buffers).
  void reset_to_empty() noexcept;

  // Owned storage (empty for mapped graphs).
  std::vector<EdgeIndex> offsets_own_;
  std::vector<NodeId> targets_own_;
  std::vector<Weight> weights_own_;
  // Keep-alive for mapped storage (null for owned graphs).
  std::shared_ptr<const void> backing_;
  // The views every accessor reads; into offsets_own_/... or the mapping.
  std::span<const EdgeIndex> offsets_v_;
  std::span<const NodeId> targets_v_;
  std::span<const Weight> weights_v_;
  Weight min_weight_ = 0.0;
  Weight max_weight_ = 0.0;
  Weight avg_weight_ = 0.0;
};

}  // namespace gdiam
