#include "gen/road.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "graph/builder.hpp"
#include "graph/components.hpp"

namespace gdiam::gen {

Graph road_network(NodeId width, NodeId height, util::Xoshiro256& rng,
                   const RoadParams& params) {
  if (width < 2 || height < 2) {
    throw std::invalid_argument("road_network: grid must be at least 2x2");
  }
  if (std::uint64_t{width} * height > std::numeric_limits<NodeId>::max()) {
    throw std::invalid_argument("road_network: grid is too large");
  }
  const NodeId n = width * height;

  // Jittered intersection coordinates.
  std::vector<double> xs(n), ys(n);
  for (NodeId r = 0; r < height; ++r) {
    for (NodeId c = 0; c < width; ++c) {
      const NodeId u = r * width + c;
      const double jx = params.jitter * params.spacing *
                        (2.0 * rng.next_double() - 1.0);
      const double jy = params.jitter * params.spacing *
                        (2.0 * rng.next_double() - 1.0);
      xs[u] = static_cast<double>(c) * params.spacing + jx;
      ys[u] = static_cast<double>(r) * params.spacing + jy;
    }
  }
  auto euclid_weight = [&](NodeId u, NodeId v) {
    const double dx = xs[u] - xs[v];
    const double dy = ys[u] - ys[v];
    return std::max(1.0, std::round(std::sqrt(dx * dx + dy * dy)));
  };

  GraphBuilder b(n);
  for (NodeId r = 0; r < height; ++r) {
    for (NodeId c = 0; c < width; ++c) {
      const NodeId u = r * width + c;
      if (c + 1 < width && rng.next_bernoulli(params.keep_probability)) {
        b.add_edge(u, u + 1, euclid_weight(u, u + 1));
      }
      if (r + 1 < height && rng.next_bernoulli(params.keep_probability)) {
        b.add_edge(u, u + width, euclid_weight(u, u + width));
      }
      // Occasional diagonal shortcut (overpass / ramp).
      if (c + 1 < width && r + 1 < height &&
          rng.next_bernoulli(params.diagonal_fraction)) {
        const NodeId v = u + width + 1;
        b.add_edge(u, v, euclid_weight(u, v));
      }
    }
  }
  // Dropped street segments can disconnect pockets; the road network is the
  // giant component (covers ~all nodes at the default keep probability).
  return largest_component(b.build()).graph;
}

Graph road_network(NodeId approx_nodes, util::Xoshiro256& rng) {
  const auto side = static_cast<NodeId>(
      std::max(2.0, std::round(std::sqrt(static_cast<double>(approx_nodes)))));
  return road_network(side, side, rng);
}

}  // namespace gdiam::gen
