// Ingest-path benchmark: text parse vs mmap binary CSR (DESIGN.md §14).
//
// Measures what the .gcsr format buys on the two cold-start paths:
//
//   text_parse       — read_edge_list_file on an edge-list dump (the
//                      streaming from_chars parser);
//   mmap_open        — open_mmap on the converted .gcsr, full checksum
//                      verification included (the serving default);
//   first_query_cold — open the .gcsr, fresh exec::Context, one Δ-stepping
//                      query: the context pays the O(m) presplit before the
//                      first relaxation;
//   gcsr_write       — write_gcsr of the in-memory graph.
//
// Emits BENCH_ingest.json with rows keyed by "name" ("real_time" in ms,
// medians) plus the gated top-level field
//   ingest_mmap_speedup = text_parse / mmap_open
// so tools/bench_diff.py flags a regression of the ratio against
// bench/baseline/BENCH_ingest.json.
//
//   ./bench_ingest_load [--scale ci|small|paper] [--reps N]

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "comparison_common.hpp"
#include "exec/context.hpp"
#include "gen/mesh.hpp"
#include "gen/weights.hpp"
#include "graph/binfmt.hpp"
#include "graph/io.hpp"
#include "report.hpp"
#include "sssp/delta_stepping.hpp"
#include "util/options.hpp"
#include "util/scale.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace gdiam;

namespace {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

template <typename Fn>
double median_ms(unsigned reps, Fn&& fn) {
  std::vector<double> ms;
  ms.reserve(reps);
  for (unsigned i = 0; i < reps; ++i) {
    const util::Timer t;
    fn();
    ms.push_back(t.millis());
  }
  return median(std::move(ms));
}

}  // namespace

int main(int argc, char** argv) {
  const util::Options opts(argc, argv);
  const util::Scale scale =
      opts.has("scale") ? util::parse_scale(opts.get_string("scale", "ci"))
                        : util::scale_from_env();
  bench::print_preamble("ingest_load: text parse vs mmap .gcsr cold starts",
                        "binary CSR ingest (no paper analogue; DESIGN.md §14)",
                        scale);

  const auto reps = static_cast<unsigned>(
      opts.get_int("reps", util::pick(scale, 3, 5, 7)));
  const auto side = util::pick<NodeId>(scale, 160, 320, 724);
  const Weight delta = 0.1;

  const Graph g = gen::uniform_weights(gen::mesh(side), 7);
  const std::string stem =
      "/tmp/gdiam_bench_ingest_" + std::to_string(::getpid());
  const std::string text_path = stem + ".el";
  const std::string plain_path = stem + "_plain.gcsr";

  {
    std::ofstream f(text_path);
    io::write_edge_list(g, f);
  }
  const double write_plain_ms =
      median_ms(1, [&] { io::write_gcsr(g, plain_path); });

  const double text_ms =
      median_ms(reps, [&] { (void)io::read_edge_list_file(text_path); });
  const double mmap_ms =
      median_ms(reps, [&] { (void)io::open_mmap(plain_path); });

  sssp::DeltaSteppingOptions qopt;
  qopt.delta = delta;
  const double cold_ms = median_ms(reps, [&] {
    const Graph mg = io::open_mmap(plain_path).graph();
    exec::Context ctx;
    (void)sssp::delta_stepping(mg, 0, qopt, &ctx);
  });

  const double mmap_speedup = mmap_ms > 0.0 ? text_ms / mmap_ms : 0.0;

  bench::JsonReport report("ingest");
  report.put("scale", util::scale_name(scale));
  report.put("side", static_cast<std::uint64_t>(side));
  report.put("nodes", static_cast<std::uint64_t>(g.num_nodes()));
  report.put("edges", static_cast<std::uint64_t>(g.num_edges()));
  report.put("delta", delta);
  report.put("reps", static_cast<std::uint64_t>(reps));
  report.put("ingest_mmap_speedup", mmap_speedup);

  util::Table table({"path", "median ms"});
  const auto emit = [&](const char* label, const char* name, double ms) {
    table.row().cell(label).num(ms);
    report.add_row().put("name", name).put("real_time", ms);
  };
  emit("text parse (.el)", "text_parse", text_ms);
  emit("mmap open (.gcsr, verified)", "mmap_open", mmap_ms);
  emit("first query, cold presplit", "first_query_cold", cold_ms);
  emit("write .gcsr", "gcsr_write", write_plain_ms);
  table.print(std::cout);
  std::printf("\ningest speedup:  %.2fx (text %.2fms -> mmap %.2fms)\n",
              mmap_speedup, text_ms, mmap_ms);

  ::unlink(text_path.c_str());
  ::unlink(plain_path.c_str());

  const std::string path = report.write();
  if (!path.empty()) std::printf("\nwrote %s\n", path.c_str());
  return 0;
}
