#include "serve/graphs.hpp"

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>

#include "gen/basic.hpp"
#include "gen/mesh.hpp"
#include "gen/rmat.hpp"
#include "gen/road.hpp"
#include "gen/weights.hpp"
#include "graph/binfmt.hpp"
#include "graph/io.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace gdiam::serve {
namespace {

/// "gen:mesh:side=64:weights=uniform" -> {"mesh", {side: "64", ...}}.
struct GenSpec {
  std::string family;
  std::map<std::string, std::string> params;

  [[nodiscard]] std::string str(const std::string& key,
                                const std::string& fallback) const {
    const auto it = params.find(key);
    return it != params.end() ? it->second : fallback;
  }
  /// The unsigned value of `key` as a T. Rejects a sign (std::stoull would
  /// wrap "-1" to 2^64 - 1), trailing junk, and values T cannot hold.
  template <typename T>
  [[nodiscard]] T num(const std::string& key, T fallback) const {
    const auto it = params.find(key);
    if (it == params.end()) return fallback;
    const std::string& s = it->second;
    std::size_t used = 0;
    unsigned long long v = 0;
    try {
      if (!s.empty() && s[0] >= '0' && s[0] <= '9') v = std::stoull(s, &used);
    } catch (const std::out_of_range&) {
      used = 0;
    }
    if (used == 0 || used != s.size() || v > std::numeric_limits<T>::max()) {
      throw std::invalid_argument("graph spec: bad number for '" + key +
                                  "': " + s);
    }
    return static_cast<T>(v);
  }
};

GenSpec parse_gen(const std::string& spec) {
  GenSpec out;
  std::size_t pos = 4;  // past "gen:"
  while (pos <= spec.size()) {
    const std::size_t sep = spec.find(':', pos);
    const std::size_t end = sep == std::string::npos ? spec.size() : sep;
    const std::string part = spec.substr(pos, end - pos);
    if (part.empty()) throw std::invalid_argument("graph spec: empty segment");
    if (out.family.empty()) {
      out.family = part;
    } else {
      const std::size_t eq = part.find('=');
      if (eq == std::string::npos) {
        throw std::invalid_argument("graph spec: expected key=value, got '" +
                                    part + "'");
      }
      out.params[part.substr(0, eq)] = part.substr(eq + 1);
    }
    if (sep == std::string::npos) break;
    pos = sep + 1;
  }
  if (out.family.empty()) {
    throw std::invalid_argument("graph spec: missing family after gen:");
  }
  return out;
}

Graph load_file(const std::string& path) {
  if (path.ends_with(".gr")) return io::read_dimacs_file(path);
  if (path.ends_with(".bin")) return io::read_binary_file(path);
  // Zero-copy mmap ingest; the returned Graph shares (and keeps alive) the
  // mapping.
  if (path.ends_with(".gcsr")) return io::open_mmap(path).graph();
  return io::read_edge_list_file(path);
}

}  // namespace

Graph make_graph(const std::string& spec) {
  if (spec.starts_with("file:")) return load_file(spec.substr(5));
  if (!spec.starts_with("gen:")) return load_file(spec);

  const GenSpec gs = parse_gen(spec);
  const auto seed = gs.num<std::uint64_t>("seed", 1);
  util::Xoshiro256 rng(seed);
  Graph g;
  if (gs.family == "mesh") {
    g = gen::mesh(gs.num<NodeId>("side", 256));
  } else if (gs.family == "torus") {
    g = gen::torus(gs.num<NodeId>("side", 256));
  } else if (gs.family == "rmat") {
    g = gen::rmat(gs.num<unsigned>("scale", 16),
                  gs.num<EdgeIndex>("edge-factor", 16), rng);
  } else if (gs.family == "road") {
    const auto side = gs.num<NodeId>("side", 256);
    g = gen::road_network(side, side, rng);
  } else if (gs.family == "gnm") {
    g = gen::gnm(gs.num<NodeId>("nodes", 10000),
                 gs.num<EdgeIndex>("edges", 30000), rng,
                 /*ensure_connected=*/true);
  } else if (gs.family == "path") {
    g = gen::path(gs.num<NodeId>("nodes", 10000));
  } else {
    throw std::invalid_argument("graph spec: unknown family '" + gs.family +
                                "'");
  }

  // Same weight kinds and seed derivation as `gdiam generate`, so a gen:
  // spec reproduces a generated file bit for bit.
  const std::string weights = gs.str("weights", "keep");
  const std::uint64_t wseed = seed ^ 0xabcd;
  if (weights == "keep") return g;
  if (weights == "unit") return gen::unit_weights(g);
  if (weights == "uniform") return gen::uniform_weights(g, wseed);
  if (weights == "int") return gen::uniform_int_weights(g, 1, 1000, wseed);
  if (weights == "bimodal") {
    return gen::bimodal_weights(g, 1.0, 1e-6, 0.1, wseed);
  }
  throw std::invalid_argument("graph spec: unknown weights '" + weights + "'");
}

GraphStore::Entry& GraphStore::get(const std::string& spec) {
  Entry* e = nullptr;
  {
    const std::lock_guard<std::mutex> lk(mu_);
    auto& slot = entries_[spec];
    if (slot == nullptr) {
      slot = std::make_unique<Entry>();
      slot->spec = spec;
    }
    e = slot.get();
  }
  // Load outside the store lock: a cold road network must not stall queries
  // on other (hot) graphs. Racing loaders of one spec serialize on the
  // entry's own mutex; losers find `loaded` set and return immediately.
  const std::lock_guard<std::mutex> elk(e->mu);
  if (!e->loaded) {
    // Fault point: a transient load failure (I/O error on a graph file,
    // allocation pressure) — the entry stays retryable, so the *next*
    // request for this spec loads cleanly.
    if (util::fault::check("serve.load").fail) {
      throw std::runtime_error("serve: graph load failed: " + spec);
    }
    e->graph = make_graph(spec);  // a throw leaves the entry retryable
    e->loaded = true;
    const std::lock_guard<std::mutex> lk(mu_);
    order_.push_back(e);
  }
  return *e;
}

std::vector<GraphStore::Snapshot> GraphStore::snapshot() {
  std::vector<Entry*> loaded;
  {
    const std::lock_guard<std::mutex> lk(mu_);
    loaded = order_;
  }
  std::vector<Snapshot> out;
  out.reserve(loaded.size());
  for (Entry* e : loaded) {
    // graph is immutable once the entry reached order_; served is a racy
    // monotonic counter by contract.
    out.push_back({e->spec, e->graph.num_nodes(), e->graph.num_edges(),
                   e->served.load(std::memory_order_relaxed)});
  }
  return out;
}

std::size_t GraphStore::size() {
  const std::lock_guard<std::mutex> lk(mu_);
  return order_.size();
}

}  // namespace gdiam::serve
