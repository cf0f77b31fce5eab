// gdiam — command-line interface to the library.
//
// Subcommands:
//   generate  — synthesize a benchmark graph and write it to a file
//   stats     — structural statistics of a graph file
//   estimate  — CL-DIAM diameter approximation of a graph file
//   sssp      — Δ-stepping SSSP / eccentricity from a source node
//   convert   — translate between dimacs / edgelist / binary formats
//
// File formats are selected by extension: .gr (DIMACS), .txt/.el (edge
// list), .bin (gdiam binary stream), .gcsr (versioned mmap binary CSR;
// zero-copy ingest, written by `convert` or tools/gdiam_convert). Examples:
//   gdiam generate --family mesh --side 512 --weights uniform --out m.bin
//   gdiam estimate m.bin --tau 64
//   gdiam sssp m.gcsr --source 0 --delta 0.5
//   gdiam convert m.bin m.gr

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/hop.hpp"
#include "gdiam.hpp"
#include "serve/render.hpp"
#include "util/fault.hpp"

namespace {

using namespace gdiam;

[[noreturn]] void usage(const char* error = nullptr) {
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(stderr, R"(usage: gdiam <command> [args]

commands:
  generate --family mesh|torus|rmat|road|gnm|path --out FILE
           [--side N] [--scale S] [--edge-factor F] [--nodes N] [--edges M]
           [--weights unit|uniform|int|bimodal] [--seed S]
  stats    FILE [--sweeps K]
  estimate FILE [--tau T] [--seed S] [--cluster2] [--classic] [--pull]
           [--partitions K] [--range-partition] [--transport local|pool]
           [--processes P] [--repeat N] [--reuse-context | --no-reuse-context]
  decompose FILE --out CLUSTERING.gdcl [--tau T] [--seed S]
            [--quotient QUOTIENT_GRAPH_FILE]
  sssp     FILE [--source U] [--delta D]
           [--partitions K] [--range-partition] [--transport local|pool]
           [--processes P] [--repeat N] [--reuse-context | --no-reuse-context]
  convert  IN OUT

Every command rejects flags it does not know, and numeric flag values it
cannot parse whole (--tau 4x), with this usage error.

sssp runs Delta-stepping (Meyer-Sanders buckets of width --delta; 0, the
default, picks the average edge weight).

--partitions K > 1 runs the kernels on the sharded BSP engine (K shards,
hash partitioner unless --range-partition) and reports the cross-partition
communication volume alongside rounds and work.

--processes P (or --transport pool, default P = 2) additionally fans each
BSP superstep out over P resident worker processes (fork once, ship per-step
inputs over persistent Unix-domain sockets) — the serving configuration
gdiamd runs hot graphs on. Results are bit-identical to the in-process
transport, and the cost line gains the genuinely-crossed wire=.../...
traffic. Requires --partitions K > 1.

--repeat N runs the estimate / sssp kernel N times and prints per-run wall
times. By default every repetition shares one exec::Context (pooled engines
and buffers, cached Δ-presplit and shard layouts — the steady-state serving
configuration); --no-reuse-context gives each repetition a fresh context
instead, making the context-reuse A/B of bench/micro_kernels reproducible
from the command line. Results are identical either way.
)");
  std::exit(error == nullptr ? 0 : 2);
}

Graph load(const std::string& path) {
  if (path.ends_with(".gr")) return io::read_dimacs_file(path);
  if (path.ends_with(".bin")) return io::read_binary_file(path);
  if (path.ends_with(".gcsr")) return io::open_mmap(path).graph();
  return io::read_edge_list_file(path);
}

void store(const Graph& g, const std::string& path) {
  if (path.ends_with(".gr")) {
    io::write_dimacs_file(g, path);
  } else if (path.ends_with(".bin")) {
    io::write_binary_file(g, path);
  } else if (path.ends_with(".gcsr")) {
    io::write_gcsr(g, path);
  } else {
    std::ofstream f(path);
    if (!f) throw std::runtime_error("cannot open " + path);
    io::write_edge_list(g, f);
  }
}

/// Shared --partitions / --range-partition parsing for estimate and sssp.
mr::PartitionOptions parse_partition(const util::Options& o) {
  mr::PartitionOptions p;
  p.num_partitions = o.get_uint32("partitions", 1);
  if (p.num_partitions == 0) usage("--partitions must be >= 1");
  p.strategy = o.get_bool("range-partition", false)
                   ? mr::PartitionStrategy::kRange
                   : mr::PartitionStrategy::kHash;
  return p;
}

/// Shared --transport / --processes parsing (estimate and sssp). --processes
/// alone implies the pool transport; the multi-process backend only exists
/// behind the BSP engine, so it requires --partitions K > 1.
mr::TransportOptions parse_transport(const util::Options& o,
                                     const mr::PartitionOptions& p) {
  mr::TransportOptions t;
  const std::string kind = o.get_string("transport", "");
  if (!kind.empty() && kind != "local" && kind != "pool") {
    usage("--transport must be local or pool");
  }
  if (kind == "local" && o.has("processes")) {
    usage("--transport local and --processes conflict");
  }
  if (kind == "pool" || o.has("processes")) {
    t.kind = mr::TransportKind::kPool;
    t.processes = o.get_uint32("processes", 2);
    if (t.processes == 0) usage("--processes must be >= 1");
    if (p.num_partitions <= 1) {
      usage("--transport pool / --processes requires --partitions K > 1");
    }
  }
  return t;
}

/// The execution flags estimate and sssp share.
constexpr std::string_view kExecFlags[] = {
    "partitions", "range-partition", "transport",        "processes",
    "repeat",     "reuse-context",   "no-reuse-context"};

/// Exits with the usage error when `o` carries a flag outside `known` (plus
/// kExecFlags when `exec_flags`): a retired or misspelled flag must not
/// silently run the default path.
void require_known(const util::Options& o, std::vector<std::string_view> known,
                   bool exec_flags = false) {
  if (exec_flags) {
    known.insert(known.end(), std::begin(kExecFlags), std::end(kExecFlags));
  }
  if (const auto name = o.first_unknown(known)) {
    usage(("unknown flag --" + *name).c_str());
  }
}

/// --tau, parsed before the graph loads so a malformed value fails fast;
/// absent (or bare), the caller falls back to default_tau once it has the
/// graph.
std::optional<std::uint32_t> parse_tau(const util::Options& o) {
  if (o.get_string("tau", "").empty()) return std::nullopt;
  return o.get_uint32("tau", 0);
}

/// The τ whose CLUSTER run targets about n/4 clusters.
std::uint32_t default_tau(const Graph& g) {
  return core::tau_for_cluster_target(g.num_nodes(), g.num_nodes() / 4);
}

/// Shared --repeat / --reuse-context / --no-reuse-context parsing.
struct RepeatOptions {
  unsigned repeat = 1;
  bool reuse_context = true;
};

RepeatOptions parse_repeat(const util::Options& o) {
  RepeatOptions r;
  const std::int64_t repeat = o.get_int("repeat", 1);
  if (repeat < 1) usage("--repeat must be >= 1");
  r.repeat = static_cast<unsigned>(repeat);
  if (o.has("reuse-context") && o.has("no-reuse-context")) {
    usage("--reuse-context and --no-reuse-context conflict");
  }
  r.reuse_context = o.has("reuse-context")
                        ? o.get_bool("reuse-context", true)
                        : !o.get_bool("no-reuse-context", false);
  return r;
}

/// Prints the context's per-phase cost breakdown (exec::StatsSink). The sink
/// accumulates across every run on the context, so with --repeat N the
/// phase lines total N times the single-run cost line — label them so.
void print_phase_stats(const exec::Context& ctx, unsigned runs) {
  if (ctx.stats().phases().empty()) return;
  if (runs > 1) {
    std::printf("phases (cumulative over %u runs):\n", runs);
  }
  for (const auto& [name, stats] : ctx.stats().phases()) {
    std::printf("  phase %-10s %s\n", name.c_str(),
                mr::to_string(stats).c_str());
  }
}

Graph apply_weights(const Graph& g, const std::string& kind,
                    std::uint64_t seed) {
  if (kind == "unit") return gen::unit_weights(g);
  if (kind == "uniform") return gen::uniform_weights(g, seed);
  if (kind == "int") return gen::uniform_int_weights(g, 1, 1000, seed);
  if (kind == "bimodal") return gen::bimodal_weights(g, 1.0, 1e-6, 0.1, seed);
  if (kind == "keep") return g;
  throw std::invalid_argument("unknown --weights " + kind);
}

int cmd_generate(const util::Options& o) {
  require_known(o, {"family", "out", "seed", "side", "scale", "edge-factor",
                    "nodes", "edges", "weights"});
  const std::string family = o.get_string("family", "mesh");
  const std::string out = o.get_string("out", "");
  if (out.empty()) usage("generate requires --out");
  const auto seed = static_cast<std::uint64_t>(o.get_int("seed", 1));
  util::Xoshiro256 rng(seed);

  Graph g;
  if (family == "mesh") {
    g = gen::mesh(o.get_uint32("side", 256));
  } else if (family == "torus") {
    g = gen::torus(o.get_uint32("side", 256));
  } else if (family == "rmat") {
    g = gen::rmat(o.get_uint32("scale", 16),
                  static_cast<EdgeIndex>(o.get_int("edge-factor", 16)), rng);
  } else if (family == "road") {
    const NodeId side = o.get_uint32("side", 256);
    g = gen::road_network(side, side, rng);
  } else if (family == "gnm") {
    g = gen::gnm(o.get_uint32("nodes", 10000),
                 static_cast<EdgeIndex>(o.get_int("edges", 30000)), rng,
                 /*ensure_connected=*/true);
  } else if (family == "path") {
    g = gen::path(o.get_uint32("nodes", 10000));
  } else {
    usage("unknown --family");
  }
  g = apply_weights(g, o.get_string("weights", "keep"), seed ^ 0xabcd);
  store(g, out);
  std::printf("wrote %s: n=%u m=%llu, weights [%g, %g]\n", out.c_str(),
              g.num_nodes(), static_cast<unsigned long long>(g.num_edges()),
              g.min_weight(), g.max_weight());
  return 0;
}

int cmd_stats(const util::Options& o) {
  require_known(o, {"sweeps"});
  if (o.positional().size() < 2) usage("stats requires a graph file");
  const auto sweeps = static_cast<unsigned>(o.get_uint32("sweeps", 4));
  const Graph g = load(o.positional()[1]);
  const Components cc = connected_components(g);
  const DegreeStats deg = degree_stats(g);
  std::printf("nodes:       %u\n", g.num_nodes());
  std::printf("edges:       %llu\n",
              static_cast<unsigned long long>(g.num_edges()));
  std::printf("components:  %u (giant: %u nodes)\n", cc.count,
              cc.count != 0 ? cc.sizes[0] : 0);
  std::printf("degree:      min %llu, avg %.2f, max %llu\n",
              static_cast<unsigned long long>(deg.min), deg.avg,
              static_cast<unsigned long long>(deg.max));
  std::printf("weights:     min %g, avg %g, max %g\n", g.min_weight(),
              g.avg_weight(), g.max_weight());
  const Graph giant = cc.count > 1 ? largest_component(g).graph : g;
  std::printf("diameter:    >= %.6g (weighted, %u sweeps, giant component)\n",
              sssp::diameter_lower_bound(giant, sweeps, 1).lower_bound,
              sweeps);
  std::printf("hop diam:    >= %u\n",
              analysis::hop_diameter_lower_bound(giant, sweeps, 1));
  return 0;
}

int cmd_estimate(const util::Options& o) {
  require_known(o, {"tau", "seed", "cluster2", "classic", "pull"},
                /*exec_flags=*/true);
  if (o.positional().size() < 2) usage("estimate requires a graph file");
  core::DiameterApproxOptions opt;
  opt.cluster.seed = static_cast<std::uint64_t>(o.get_int("seed", 1));
  opt.use_cluster2 = o.get_bool("cluster2", false);
  opt.radius_aware = !o.get_bool("classic", false);
  if (o.get_bool("pull", false)) {
    opt.cluster.policy = core::GrowingPolicy::kPull;
  }
  opt.cluster.partition = parse_partition(o);
  if (opt.cluster.partition.num_partitions > 1) {
    if (o.get_bool("pull", false)) {
      usage("--pull and --partitions K>1 select conflicting engines");
    }
    opt.cluster.policy = core::GrowingPolicy::kPartitioned;
  }
  opt.cluster.transport = parse_transport(o, opt.cluster.partition);
  const RepeatOptions rep = parse_repeat(o);
  const std::optional<std::uint32_t> tau = parse_tau(o);
  const Graph g = load(o.positional()[1]);
  opt.cluster.tau = tau.value_or(default_tau(g));

  // One context for every repetition (the default), or a fresh one per run
  // (--no-reuse-context): the reproducible command-line version of the
  // BM_ClusterContextReuse A/B. The result is identical either way; only the
  // wall time moves.
  exec::Context shared_ctx;
  core::DiameterApproxResult r;
  util::Timer total;
  for (unsigned run = 0; run < rep.repeat; ++run) {
    exec::Context fresh_ctx;
    exec::Context& ctx = rep.reuse_context ? shared_ctx : fresh_ctx;
    util::Timer t;
    r = core::approximate_diameter(g, opt, &ctx);
    if (rep.repeat > 1) {
      std::printf("run %-3u        %s  (%s context)\n", run + 1,
                  util::format_duration(t.seconds()).c_str(),
                  rep.reuse_context ? "reused" : "fresh");
    }
  }
  // The result block renders through serve/render.hpp — the same function
  // the gdiamd daemon uses — so one-shot and served outputs diff cleanly.
  std::fputs(serve::render_estimate(r, opt.cluster.tau).c_str(), stdout);
  if (rep.reuse_context) print_phase_stats(shared_ctx, rep.repeat);
  std::printf("time:          %s\n",
              util::format_duration(total.seconds()).c_str());
  return 0;
}

int cmd_decompose(const util::Options& o) {
  require_known(o, {"out", "tau", "seed", "quotient"});
  if (o.positional().size() < 2) usage("decompose requires a graph file");
  const std::string out = o.get_string("out", "");
  if (out.empty()) usage("decompose requires --out");
  core::ClusterOptions opt;
  opt.seed = static_cast<std::uint64_t>(o.get_int("seed", 1));
  const std::optional<std::uint32_t> tau = parse_tau(o);
  const Graph g = load(o.positional()[1]);
  opt.tau = tau.value_or(default_tau(g));
  util::Timer t;
  const core::Clustering c = core::cluster(g, opt);
  core::write_clustering_file(c, out);
  std::printf("decomposed in %s: %u clusters, radius %.6g (tau=%u)\n",
              util::format_duration(t.seconds()).c_str(), c.num_clusters(),
              c.radius, opt.tau);
  std::printf("clustering written to %s\n", out.c_str());
  const std::string qout = o.get_string("quotient", "");
  if (!qout.empty()) {
    const core::QuotientGraph q = core::build_quotient(g, c);
    store(q.graph, qout);
    std::printf("quotient graph (%u nodes, %llu edges) written to %s\n",
                q.graph.num_nodes(),
                static_cast<unsigned long long>(q.graph.num_edges()),
                qout.c_str());
  }
  return 0;
}

int cmd_sssp(const util::Options& o) {
  require_known(o, {"source", "delta"}, /*exec_flags=*/true);
  if (o.positional().size() < 2) usage("sssp requires a graph file");
  const auto source = static_cast<NodeId>(o.get_int("source", 0));
  sssp::DeltaSteppingOptions opt;
  opt.delta = o.get_double("delta", 0.0);
  opt.partition = parse_partition(o);
  opt.transport = parse_transport(o, opt.partition);
  const RepeatOptions rep = parse_repeat(o);
  const Graph g = load(o.positional()[1]);

  exec::Context shared_ctx;
  sssp::DeltaSteppingResult r;
  util::Timer total;
  for (unsigned run = 0; run < rep.repeat; ++run) {
    exec::Context fresh_ctx;
    exec::Context& ctx = rep.reuse_context ? shared_ctx : fresh_ctx;
    util::Timer t;
    r = sssp::delta_stepping(g, source, opt, &ctx);
    if (rep.repeat > 1) {
      std::printf("run %-3u        %s  (%s context)\n", run + 1,
                  util::format_duration(t.seconds()).c_str(),
                  rep.reuse_context ? "reused" : "fresh");
    }
  }
  // Same shared renderer as the daemon (see cmd_estimate).
  std::fputs(serve::render_sssp(source, r).c_str(), stdout);
  std::printf("time:          %s\n",
              util::format_duration(total.seconds()).c_str());
  return 0;
}

int cmd_convert(const util::Options& o) {
  require_known(o, {});
  if (o.positional().size() < 3) usage("convert requires IN and OUT files");
  const Graph g = load(o.positional()[1]);
  store(g, o.positional()[2]);
  std::printf("converted %s -> %s (n=%u, m=%llu)\n",
              o.positional()[1].c_str(), o.positional()[2].c_str(),
              g.num_nodes(), static_cast<unsigned long long>(g.num_edges()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  try {
    // Chaos runs drive the one-shot CLI through the same fault schedules as
    // the daemon (GDIAM_FAULTS; DESIGN.md §12).
    util::fault::arm_from_env();
    const util::Options opts(argc, argv);
    if (opts.has("help")) usage();
    if (cmd == "generate") return cmd_generate(opts);
    if (cmd == "stats") return cmd_stats(opts);
    if (cmd == "estimate") return cmd_estimate(opts);
    if (cmd == "decompose") return cmd_decompose(opts);
    if (cmd == "sssp") return cmd_sssp(opts);
    if (cmd == "convert") return cmd_convert(opts);
    if (cmd == "--help" || cmd == "help") usage();
    usage(("unknown command '" + cmd + "'").c_str());
  } catch (const util::OptionError& e) {
    usage(e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gdiam %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
}
