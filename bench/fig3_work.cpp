// Figure 3 — aggregate work (node updates + messages) of CL-DIAM and
// Δ-stepping per benchmark graph (log scale in the paper).

#include <cmath>
#include <cstdio>
#include <iostream>

#include "comparison_common.hpp"
#include "report.hpp"
#include "util/options.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"

using namespace gdiam;

int main(int argc, char** argv) {
  const util::Options opts(argc, argv);
  const util::Scale scale = opts.has("scale")
                                ? util::parse_scale(opts.get_string("scale", "ci"))
                                : util::scale_from_env();
  bench::print_preamble("fig3_work: aggregate work (updates + messages)",
                        "Figure 3", scale);

  const auto rows = bench::run_table2(scale, {});

  util::Table table({"graph", "work CL", "work DS", "DS/CL", "msgs CL",
                     "msgs DS", "updates CL", "updates DS"});
  for (const auto& r : rows) {
    table.row()
        .cell(r.name)
        .sci(static_cast<double>(r.cl_stats.work()), 2)
        .sci(static_cast<double>(r.ds_stats.work()), 2)
        .num(static_cast<double>(r.ds_stats.work()) /
                 static_cast<double>(r.cl_stats.work()),
             1)
        .sci(static_cast<double>(r.cl_stats.messages), 2)
        .sci(static_cast<double>(r.ds_stats.messages), 2)
        .sci(static_cast<double>(r.cl_stats.node_updates), 2)
        .sci(static_cast<double>(r.ds_stats.node_updates), 2);
  }
  table.print(std::cout);

  bench::JsonReport report("fig3_work");
  report.put("threads", util::num_threads());
  report.put("scale", util::scale_name(scale));
  for (const auto& r : rows) {
    report.add_row()
        .put("graph", r.name)
        .put("nodes", static_cast<std::uint64_t>(r.nodes))
        .put("edges", r.edges)
        .put("cl_seconds", r.cl_seconds)
        .put("ds_seconds", r.ds_seconds)
        .put("ds_delta", r.ds_delta)
        .put("cl_messages", r.cl_stats.messages)
        .put("ds_messages", r.ds_stats.messages)
        .put("cl_updates", r.cl_stats.node_updates)
        .put("ds_updates", r.ds_stats.node_updates)
        .put("cl_work", r.cl_stats.work())
        .put("ds_work", r.ds_stats.work())
        .put("cl_rounds", r.cl_stats.rounds())
        .put("ds_rounds", r.ds_stats.rounds());
  }
  report.write();

  std::printf(
      "\nexpected shape (paper, Fig. 3): CL-DIAM performs less work on every\n"
      "graph -- it explores paths only to bounded depth, while Delta-stepping\n"
      "must settle the exact distance of every node. Largest gap on roads.\n");
  return 0;
}
