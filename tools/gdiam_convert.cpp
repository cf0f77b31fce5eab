// gdiam_convert — convert any readable graph to the mmap-ready .gcsr format
// (graph/binfmt.hpp; DESIGN.md §14).
//
// usage:
//   gdiam_convert INPUT --out FILE.gcsr [--verify]
//
// INPUT is a graph file (.gr DIMACS, .bin gdiam binary, .gcsr, else edge
// list) or a gen: spec ("gen:mesh:side=64:weights=uniform" — the same
// grammar gdiamd serves, serve/graphs.hpp). --verify re-opens the written
// file (full checksum pass) and checks the mapped CSR and its weight stats
// bit-for-bit against the source. Unknown flags exit 2 before anything is
// read or written.
//
// examples:
//   gdiam generate --family mesh --side 512 --weights uniform --out m.bin
//   gdiam_convert m.bin --out m.gcsr --verify
//   gdiamd --socket /tmp/g.sock &   # then query spec "file:m.gcsr"

#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>

#include "graph/binfmt.hpp"
#include "serve/graphs.hpp"
#include "util/fault.hpp"
#include "util/options.hpp"
#include "util/timer.hpp"

namespace {

using namespace gdiam;

[[noreturn]] void usage(const char* error = nullptr) {
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(stderr,
               "usage: gdiam_convert INPUT --out FILE.gcsr [--verify]\n"
               "  INPUT       graph file (.gr/.bin/.gcsr/edge list) or a"
               " gen: spec\n"
               "  --verify    re-open the output and check it bit-for-bit"
               " against the source\n");
  std::exit(error == nullptr ? 0 : 2);
}

template <typename T>
bool bits_equal(std::span<const T> a, std::span<const T> b) {
  if (a.size() != b.size()) return false;
  return a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

/// The parity contract in full: mapped CSR arrays identical to the source's,
/// and persisted weight stats identical to freshly computed ones.
bool verify_output(const Graph& src, const std::string& path) {
  const io::MappedGraph m = io::open_mmap(path);  // full checksum pass
  const Graph& g = m.graph();
  if (!bits_equal(src.offsets(), g.offsets()) ||
      !bits_equal(src.targets(), g.targets()) ||
      !bits_equal(src.edge_weights(), g.edge_weights())) {
    std::fprintf(stderr, "verify: mapped CSR differs from source\n");
    return false;
  }
  // The header's stats must be exactly what weight_stats computes from the
  // mapped weights — the same definition every ingest path uses.
  const WeightStats fresh_stats = weight_stats(g.edge_weights());
  if (fresh_stats.min != g.min_weight() || fresh_stats.max != g.max_weight() ||
      fresh_stats.avg != g.avg_weight() ||
      src.avg_weight() != g.avg_weight()) {
    std::fprintf(stderr, "verify: persisted weight stats differ\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    util::fault::arm_from_env();  // chaos runs cover "io.write" here too
    const util::Options o(argc, argv);
    if (o.has("help")) usage();
    constexpr std::string_view kKnown[] = {"out", "verify", "help"};
    if (const auto name = o.first_unknown(kKnown)) {
      usage(("unknown flag --" + *name).c_str());
    }
    if (o.positional().empty()) usage("missing INPUT");
    const std::string input = o.positional().front();
    const std::string out = o.get_string("out", "");
    if (out.empty()) usage("--out FILE.gcsr is required");
    if (!out.ends_with(".gcsr")) usage("--out must end in .gcsr");

    util::Timer t_load;
    const Graph g = serve::make_graph(input);
    const double load_s = t_load.seconds();

    util::Timer t_write;
    io::write_gcsr(g, out);
    const double write_s = t_write.seconds();

    const io::MappedGraph m = io::open_mmap(out, {.verify_checksums = false});
    std::printf("wrote %s: n=%u m=%llu arcs=%llu bytes=%zu\n", out.c_str(),
                g.num_nodes(), static_cast<unsigned long long>(g.num_edges()),
                static_cast<unsigned long long>(g.num_directed_edges()),
                m.file_bytes());
    std::printf("fingerprint:   %016llx\n",
                static_cast<unsigned long long>(m.fingerprint()));
    std::printf("load %.3fs, write %.3fs\n", load_s, write_s);

    if (o.get_bool("verify", false)) {
      util::Timer t_verify;
      if (!verify_output(g, out)) return 1;
      std::printf("verified in %.3fs: CSR bit-identical\n",
                  t_verify.seconds());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gdiam_convert: %s\n", e.what());
    return 1;
  }
}
