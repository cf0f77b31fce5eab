#include "gen/mesh.hpp"

#include <limits>
#include <stdexcept>
#include <string>

#include "graph/builder.hpp"

namespace gdiam::gen {

namespace {

/// side², or std::invalid_argument when it does not fit a NodeId (the 32-bit
/// product would wrap, e.g. side 2^16 to an empty graph).
NodeId square_nodes(NodeId side, const char* what) {
  const std::uint64_t n = std::uint64_t{side} * side;
  if (n > std::numeric_limits<NodeId>::max()) {
    throw std::invalid_argument(std::string(what) + ": side " +
                                std::to_string(side) + " is too large");
  }
  return static_cast<NodeId>(n);
}

}  // namespace

Graph mesh(NodeId side) {
  const NodeId n = square_nodes(side, "mesh");
  GraphBuilder b(n);
  for (NodeId r = 0; r < side; ++r) {
    for (NodeId c = 0; c < side; ++c) {
      const NodeId u = mesh_node(side, r, c);
      if (c + 1 < side) b.add_edge(u, mesh_node(side, r, c + 1), 1.0);
      if (r + 1 < side) b.add_edge(u, mesh_node(side, r + 1, c), 1.0);
    }
  }
  return b.build();
}

Graph torus(NodeId side) {
  if (side < 3) throw std::invalid_argument("torus: side must be >= 3");
  const NodeId n = square_nodes(side, "torus");
  GraphBuilder b(n);
  for (NodeId r = 0; r < side; ++r) {
    for (NodeId c = 0; c < side; ++c) {
      const NodeId u = mesh_node(side, r, c);
      b.add_edge(u, mesh_node(side, r, (c + 1) % side), 1.0);
      b.add_edge(u, mesh_node(side, (r + 1) % side, c), 1.0);
    }
  }
  return b.build();
}

}  // namespace gdiam::gen
