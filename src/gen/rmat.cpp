#include "gen/rmat.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "graph/builder.hpp"

namespace gdiam::gen {

Graph rmat(unsigned scale, EdgeIndex edge_factor, util::Xoshiro256& rng,
           const RmatParams& params) {
  if (scale == 0 || scale > 31) {
    throw std::invalid_argument("rmat: scale must be in [1, 31]");
  }
  const double sum = params.a + params.b + params.c + params.d;
  if (std::abs(sum - 1.0) > 1e-9 || params.a <= 0 || params.b <= 0 ||
      params.c <= 0 || params.d <= 0) {
    throw std::invalid_argument("rmat: quadrant probabilities must be "
                                "positive and sum to 1");
  }

  const auto n = static_cast<NodeId>(1u << scale);
  const EdgeIndex samples = edge_factor << scale;

  // One RNG substream, sampled serially: the edge multiset must be a pure
  // function of (scale, edge_factor, seed, params), never of the thread
  // count (substreams keyed by thread id would make it one).
  util::Xoshiro256 local = rng.split(0);
  EdgeList edges;
  edges.reserve(static_cast<std::size_t>(samples));
  for (EdgeIndex s = 0; s < samples; ++s) {
    NodeId u = 0, v = 0;
    for (unsigned level = 0; level < scale; ++level) {
      // Perturb quadrant probabilities per level (R-MAT "noise").
      double a = params.a, b = params.b, c = params.c, d = params.d;
      if (params.noise > 0.0) {
        const double na = 1.0 + params.noise * (2.0 * local.next_double() - 1.0);
        const double nb = 1.0 + params.noise * (2.0 * local.next_double() - 1.0);
        const double nc = 1.0 + params.noise * (2.0 * local.next_double() - 1.0);
        const double nd = 1.0 + params.noise * (2.0 * local.next_double() - 1.0);
        a *= na; b *= nb; c *= nc; d *= nd;
        const double norm = a + b + c + d;
        a /= norm; b /= norm; c /= norm; d /= norm;
      }
      const double r = local.next_double();
      u <<= 1;
      v <<= 1;
      if (r < a) {
        // top-left: no bits set
      } else if (r < a + b) {
        v |= 1;
      } else if (r < a + b + c) {
        u |= 1;
      } else {
        u |= 1;
        v |= 1;
      }
    }
    if (u != v) edges.push_back(Edge{u, v, 1.0});
  }

  GraphBuilder builder(n);
  builder.add_edges(std::move(edges));
  return builder.build();
}

}  // namespace gdiam::gen
