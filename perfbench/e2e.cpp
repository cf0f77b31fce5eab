// End-to-end CL-DIAM benchmark driver binary (README.md in this directory).
//
//   perfbench_e2e gen --workload W --seed N --dir D
//       Generates the workload's graphs from the seed, writes them to D as
//       .gcsr files, and writes D/meta.txt with each graph's iterated-sweep
//       diameter lower bound. Runs at one OpenMP thread so the weight
//       statistics stored in the file header do not depend on the machine.
//   perfbench_e2e run --workload W --seed N --seconds T --trace 0|1 --dir D
//       Measures the workload on the files in D and prints one JSON line
//       (metrics, operation tally, determinism counters) for run.py.
//
// The measuring process receives only the generated files, so its peak RSS
// is the program's, not the generator's.

#include <cstdio>
#include <exception>
#include <fstream>
#include <string>

#include "common.hpp"
#include "gen/rmat.hpp"
#include "gen/road.hpp"
#include "gen/weights.hpp"
#include "graph/binfmt.hpp"
#include "graph/components.hpp"
#include "sssp/sweep.hpp"
#include "util/rng.hpp"

using namespace gdiam;

namespace {

/// R-MAT giant component with uniform (0,1] weights, or a side x side
/// synthetic road network (its own Euclidean-style weights).
Graph generate(const std::string& file, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  if (file == "rmat17.gcsr" || file == "rmat15.gcsr") {
    const unsigned scale = file == "rmat17.gcsr" ? 17 : 15;
    const Graph giant = largest_component(gen::rmat(scale, 16, rng)).graph;
    return gen::uniform_weights(giant, seed ^ 0xabcd);
  }
  const NodeId side = file == "road512.gcsr" ? 512 : 256;
  return gen::road_network(side, side, rng);
}

int cmd_gen(const std::string& workload, std::uint64_t seed,
            const std::string& dir) {
  omp_set_num_threads(1);
  std::ofstream meta(dir + "/meta.txt");
  for (const std::string& file : perfbench::graph_files(workload)) {
    const Graph g = generate(file, seed);
    io::write_gcsr(g, dir + "/" + file);
    const sssp::SweepResult lb = sssp::diameter_lower_bound(g, 8, seed);
    meta << file << ' ' << perfbench::exact(lb.lower_bound) << ' '
         << g.num_nodes() << ' ' << g.num_edges() << '\n';
  }
  if (!meta.flush()) throw std::runtime_error("cannot write meta.txt");
  return 0;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_e2e: %s\n"
               "usage: perfbench_e2e gen --workload W --seed N --dir D\n"
               "       perfbench_e2e run --workload W --seed N --seconds T "
               "--trace 0|1 --dir D [--trace-out FILE]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage("missing command");
  const std::string cmd = argv[1];
  perfbench::RunArgs a;
  for (int i = 2; i < argc; ++i) {
    if (i + 1 >= argc) usage("flag without value");
    const std::string k = argv[i];
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--dir") {
      a.dir = v;
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      usage(("unknown flag " + k).c_str());
    }
  }
  if (a.workload.empty() || a.dir.empty()) usage("--workload and --dir required");
  try {
    (void)perfbench::graph_files(a.workload);  // rejects unknown workloads
    if (cmd == "gen") return cmd_gen(a.workload, a.seed, a.dir);
    if (cmd != "run") usage("unknown command");
    perfbench::Report rep;
    if (a.workload == "serve-mixed") {
      perfbench::run_serve_mixed(a, rep);  // reports its own peak RSS
    } else {
      perfbench::run_pipeline(a, rep);
      rep.put("peak_rss_mb", perfbench::peak_rss_mb(), "MB");
    }
    rep.print_json();
    return rep.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_e2e: %s\n", e.what());
    return 1;
  }
}
