// Pipeline workloads: social-rmat and road-grid.
//
// Untraced run (--trace 0): the end-to-end metrics. Each estimate is one
// core::approximate_diameter on a fresh exec::Context, as every
// `gdiam estimate` invocation pays it; each sssp is one sssp::delta_stepping
// on a fresh context from a seeded source. Following the PASGAL driver
// idiom, every call is timed, the warm-up call is discarded and the run
// reports the median and the tail.
//
// Traced run (--trace 1): the per-layer metrics. The estimate is composed
// from its public layer calls (cluster -> build_quotient ->
// quotient_diameters) with a span around each; the same calls are then
// repeated at one thread and on a warm context. On road-grid the traced run
// also runs the estimate and the sssp on K=4 hash shards with PoolTransport
// (the `mr` layer), and the same sharded calls on LocalTransport.
//
// Every correctness check runs outside the timed region.

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/cluster.hpp"
#include "core/diameter.hpp"
#include "core/quotient.hpp"
#include "exec/context.hpp"
#include "graph/binfmt.hpp"
#include "sssp/delta_stepping.hpp"

using namespace gdiam;

namespace perfbench {

namespace {

const PipelineWorkload& workload(const std::string& name) {
  static const std::vector<PipelineWorkload> table = {
      {"social-rmat", false},
      {"road-grid", true},
  };
  for (const PipelineWorkload& w : table) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument("not a pipeline workload: " + name);
}

/// Pool workers of the sharded calls: one per core of the run's OpenMP
/// budget (run.py sets it), at most one per shard. The forked workers
/// compute sequentially, so processes x coordinator threads stays within
/// the budget.
std::uint32_t pool_processes(int threads) {
  return static_cast<std::uint32_t>(
      std::clamp(threads, 1, static_cast<int>(kBspShards)));
}

/// The pipeline's options exactly as `gdiam estimate FILE` builds them
/// (CLI-default tau and seed).
struct Options {
  core::DiameterApproxOptions estimate;
  sssp::DeltaSteppingOptions sssp;

  /// `--partitions 4` on LocalTransport, or with `--transport pool`.
  Options sharded(std::uint32_t pool_workers) const {
    Options o = *this;
    mr::PartitionOptions p;
    p.num_partitions = kBspShards;
    mr::TransportOptions t;
    if (pool_workers > 0) {
      t.kind = mr::TransportKind::kPool;
      t.processes = pool_workers;
    }
    o.estimate.cluster.partition = p;
    o.estimate.cluster.transport = t;
    o.estimate.cluster.policy = core::GrowingPolicy::kPartitioned;
    o.sssp.partition = p;
    o.sssp.transport = t;
    return o;
  }
};

Options make_options(const Graph& g) {
  Options o;
  o.estimate.cluster.tau =
      core::tau_for_cluster_target(g.num_nodes(), g.num_nodes() / 4);
  o.estimate.cluster.seed = 1;
  return o;
}

/// One estimate composed from its layer calls, each inside a span; the
/// result equals approximate_diameter's (checked by the caller).
struct LayerTimes {
  double cluster = 0, build_quotient = 0, quotient_diameters = 0, total = 0;
};

struct Composed {
  double estimate = 0.0;
  core::Clustering clustering;
  core::QuotientGraph quotient;
  bool exact = false;
};

Composed composed_estimate(const Graph& g, const core::DiameterApproxOptions& o,
                           Trace& trace, LayerTimes& t) {
  exec::Context ctx;
  Composed out;
  trace.span("core.estimate", [&] {
    out.clustering = trace.span(
        "core.cluster", [&] { return core::cluster(g, o.cluster, &ctx); },
        &t.cluster);
    out.quotient = trace.span(
        "core.build_quotient",
        [&] { return core::build_quotient(g, out.clustering, &ctx); },
        &t.build_quotient);
    const core::QuotientDiametersResult qd = trace.span(
        "core.quotient_diameters",
        [&] { return core::quotient_diameters(out.quotient, o.quotient); },
        &t.quotient_diameters);
    out.estimate = o.radius_aware
                       ? qd.augmented
                       : qd.plain + 2.0 * out.clustering.radius;
    out.exact = qd.exact;
  }, &t.total);
  return out;
}

std::uint64_t cut_edges(const Graph& g, const core::Clustering& c) {
  std::uint64_t cut = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const NodeId v : g.neighbors(u)) {
      if (u < v && c.center_of[u] != c.center_of[v]) ++cut;
    }
  }
  return cut;
}

}  // namespace

void run_pipeline(const RunArgs& args, Report& rep) {
  const PipelineWorkload& w = workload(args.workload);
  const std::string file = graph_files(w.name).front();
  const Meta meta = read_meta(args.dir, file);
  Trace trace(args.trace);

  // Set-up: open_mmap with full checksum verification, as the CLI does.
  std::vector<double> open_ms;
  io::MappedGraph mapped;
  for (int r = 0; r < kSetupReps; ++r) {
    double ms = 0;
    mapped = trace.span(
        "graph.open_mmap",
        [&] { return io::open_mmap(args.dir + "/" + file); }, &ms);
    open_ms.push_back(ms);
  }
  const Graph& g = mapped.graph();
  if (g.num_nodes() != meta.nodes || g.num_edges() != meta.edges) {
    rep.fail("mapped graph shape differs from the generated one");
  }
  const int threads = omp_get_max_threads();
  const Options opt = make_options(g);
  const std::vector<NodeId> sources = pick_sources(g, args.seed);
  Checker check(g, meta.lower_bound, rep);
  check.prepare(sources);
  rep.notes.push_back("graph " + file + ": n=" + std::to_string(g.num_nodes()) +
                      " m=" + std::to_string(g.num_edges()) + " tau=" +
                      std::to_string(opt.estimate.cluster.tau) + " threads=" +
                      std::to_string(threads));

  // Each estimate runs the next CLUSTER seed, each sssp the next source.
  std::uint64_t next_seed = 0;
  auto estimate = [&](double& ms) {
    core::DiameterApproxOptions o = opt.estimate;
    o.cluster.seed = 1 + next_seed++ % kClusterSeeds;
    exec::Context ctx;
    const auto r = trace.span(
        "core.approximate_diameter",
        [&] { return core::approximate_diameter(g, o, &ctx); }, &ms);
    check.estimate(r, o.cluster.seed);
  };
  std::size_t next_source = 0;
  auto sssp_call = [&](double& ms, NodeId& s) {
    s = sources[next_source++ % sources.size()];
    exec::Context ctx;
    return trace.span(
        "sssp.delta_stepping",
        [&] { return sssp::delta_stepping(g, s, opt.sssp, &ctx); }, &ms);
  };

  // Warm-up (discarded, but checked).
  double ms = 0;
  NodeId s = 0;
  estimate(ms);
  {
    const auto r = sssp_call(ms, s);
    check.sssp(s, r);
  }

  if (!args.trace) {
    rep.put("setup_s", median(open_ms) / 1e3, "s");
    std::vector<double> est_ms, sssp_ms;
    const Clock::time_point t0 = Clock::now();
    // Whole cycles of CLUSTER seeds, so that each weighs the same.
    while (ms_since(t0) < args.seconds * 1e3 || est_ms.size() < kMinSamples ||
           est_ms.size() % kClusterSeeds != 0) {
      estimate(ms);
      est_ms.push_back(ms);
      const auto r = sssp_call(ms, s);
      sssp_ms.push_back(ms);
      check.sssp(s, r);
    }
    LayerTimes unused;
    Trace off(false);
    check.same_estimate(
        composed_estimate(g, opt.estimate, off, unused).estimate,
        opt.estimate.cluster.seed, "composed");

    put_tally(rep, "estimate_ms", est_ms);
    put_tally(rep, "sssp_ms", sssp_ms);
    rep.put("rounds", check.median_rounds(), "count");
    rep.put("sssp_rounds", check.mean_sssp_rounds(), "count");
    rep.put("work", check.median_work(), "count");
    rep.put("approx_ratio", check.median_ratio(), "ratio");
    return;
  }

  // ---- traced run: per-layer metrics --------------------------------------
  rep.put("graph.open_mmap_ms", median(open_ms), "ms");
  rep.put("graph.gcsr_bytes", static_cast<double>(mapped.file_bytes()), "B");

  // Untraced estimates first, as the base for the span sum and the overhead.
  const double third = args.seconds / 3.0;
  std::vector<double> direct_ms;
  next_seed = 0;
  for (Clock::time_point t0 = Clock::now();
       ms_since(t0) < third * 1e3 || direct_ms.size() < kClusterSeeds;) {
    estimate(ms);
    direct_ms.push_back(ms);
  }

  std::vector<double> cl, bq, qd, total, ds;
  std::vector<LayerTimes> seed1_times;
  std::map<NodeId, std::vector<double>> ds_by_source;
  // Counters come from CLUSTER seed 1 and the first source sampled here.
  Composed seed1;
  sssp::DeltaSteppingResult probe;
  NodeId probe_source = kInvalidNode;
  // The same CLUSTER seeds, in the same order, as the direct estimates.
  while (cl.size() < direct_ms.size()) {
    LayerTimes t;
    core::DiameterApproxOptions o = opt.estimate;
    o.cluster.seed = 1 + cl.size() % kClusterSeeds;
    Composed c = composed_estimate(g, o, trace, t);
    check.same_estimate(c.estimate, o.cluster.seed, "composed");
    if (o.cluster.seed == 1) {
      seed1 = std::move(c);
      seed1_times.push_back(t);
    }
    cl.push_back(t.cluster);
    bq.push_back(t.build_quotient);
    qd.push_back(t.quotient_diameters);
    total.push_back(t.total);
    auto r = sssp_call(ms, s);
    ds.push_back(ms);
    ds_by_source[s].push_back(ms);
    check.sssp(s, r);
    if (probe_source == kInvalidNode) {
      probe_source = s;
      probe = std::move(r);
    }
  }
  const double cl_ms = median(cl), bq_ms = median(bq), qd_ms = median(qd);
  const double direct = median(direct_ms);
  rep.put("core.cluster_ms", cl_ms, "ms");
  rep.put("core.build_quotient_ms", bq_ms, "ms");
  rep.put("core.quotient_diameters_ms", qd_ms, "ms");
  rep.put("bench.layer_sum_ms", cl_ms + bq_ms + qd_ms, "ms");
  rep.put("bench.untraced_estimate_ms", direct, "ms");
  rep.put("bench.layer_sum_frac", (cl_ms + bq_ms + qd_ms) / direct, "ratio");
  rep.put("bench.trace_overhead_frac", median(total) / direct - 1.0, "ratio");

  const core::Clustering& c = seed1.clustering;
  const std::uint64_t cut = cut_edges(g, c);
  const auto q_edges = static_cast<double>(seed1.quotient.graph.num_edges());
  rep.put("core.clusters", c.num_clusters(), "count");
  rep.put("core.quotient_edges", q_edges, "count");
  rep.put("core.cut_edges", static_cast<double>(cut), "count");
  rep.put("core.quotient_dedup_ratio",
          cut > 0 ? q_edges / static_cast<double>(cut) : 0.0, "ratio");
  rep.put("core.stages", c.stages, "count");
  rep.put("core.quotient_exact", seed1.exact ? 1.0 : 0.0, "bool");

  // Cold vs warm context; the cold run's StatsSink holds one "decompose".
  std::vector<double> cold, warm;
  mr::RoundStats decompose;
  for (int r = 0; r < 3; ++r) {
    exec::Context ctx;
    trace.span("exec.cold_estimate",
               [&] { return core::approximate_diameter(g, opt.estimate, &ctx); },
               &ms);
    cold.push_back(ms);
    if (r == 0) decompose = *ctx.stats().find("decompose");
    for (int k = 0; k < 2; ++k) {
      const auto res = trace.span(
          "exec.warm_estimate",
          [&] { return core::approximate_diameter(g, opt.estimate, &ctx); },
          &ms);
      check.estimate(res, opt.estimate.cluster.seed);
      warm.push_back(ms);
    }
  }
  rep.put("exec.cold_minus_warm_ms", median(cold) - median(warm), "ms");
  rep.put("core.decompose_rounds", static_cast<double>(decompose.rounds()),
          "count");
  rep.put("core.decompose_messages", static_cast<double>(decompose.messages),
          "count");
  rep.put("core.decompose_updates",
          static_cast<double>(decompose.node_updates), "count");
  rep.put("core.decompose_sparse_rounds",
          static_cast<double>(decompose.sparse_rounds), "count");
  rep.put("core.decompose_dense_rounds",
          static_cast<double>(decompose.dense_rounds), "count");

  // Per-round and per-superstep costs pair the probe source's own time and
  // CLUSTER seed 1's own cluster span with their round counts.
  const double probe_ms = median(ds_by_source[probe_source]);
  const auto field = [&](double LayerTimes::*f) {
    std::vector<double> v;
    for (const LayerTimes& t : seed1_times) v.push_back(t.*f);
    return median(v);
  };
  const double cl1_ms = field(&LayerTimes::cluster);
  const mr::RoundStats& ss = probe.stats;
  rep.put("sssp.delta_stepping_ms", median(ds), "ms");
  rep.put("sssp.relaxation_rounds", static_cast<double>(ss.relaxation_rounds),
          "count");
  rep.put("sssp.buckets", static_cast<double>(probe.buckets_processed),
          "count");
  rep.put("sssp.messages", static_cast<double>(ss.messages), "count");
  rep.put("sssp.sparse_rounds", static_cast<double>(ss.sparse_rounds), "count");
  rep.put("sssp.dense_rounds", static_cast<double>(ss.dense_rounds), "count");
  rep.put("sssp.us_per_round",
          ss.relaxation_rounds > 0
              ? 1e3 * probe_ms / static_cast<double>(ss.relaxation_rounds)
              : 0.0,
          "us");

  // The mr layer. road-grid: CLUSTER seed 1 and the probe source on K=4
  // hash shards with PoolTransport, against the same sharded calls on
  // LocalTransport. social-rmat: the flat calls above, whose cross and wire
  // counters read 0 and which have no pool call to compare.
  mr::RoundStats cs = c.stats;
  mr::RoundStats mr_ss = ss;
  double cluster_ms = cl1_ms, sssp_ms = probe_ms;
  double pool_minus_local = 0.0, sssp_pool_minus_local = 0.0;
  if (w.mr_probe) {
    const std::uint32_t workers = pool_processes(threads);
    const Options pool = opt.sharded(workers);
    const Options local = opt.sharded(0);
    auto sharded = [&](const Options& o, const char* how, int omp_threads,
                       std::vector<double>& cluster_out,
                       std::vector<double>& est_out,
                       std::vector<double>& sssp_out) {
      omp_set_num_threads(omp_threads);
      const std::string key = std::string("mr.") + how;
      for (int r = 0; r < 3; ++r) {
        exec::Context ctx;
        const core::Clustering cl = trace.span(
            (key + "_cluster").c_str(),
            [&] { return core::cluster(g, o.estimate.cluster, &ctx); }, &ms);
        cluster_out.push_back(ms);
        rep.op(cl.validate(g), key + " clustering fails validate");
        cs = cl.stats;
        exec::Context ctx2;
        const auto res = trace.span(
            (key + "_estimate").c_str(),
            [&] { return core::approximate_diameter(g, o.estimate, &ctx2); },
            &ms);
        est_out.push_back(ms);
        check.same_estimate(res.estimate, o.estimate.cluster.seed, key);
        rep.pin(key + ".estimate.cross_bytes",
                std::to_string(res.stats.cross_bytes));
        rep.pin(key + ".estimate.wire_bytes",
                std::to_string(res.stats.wire_bytes));
        exec::Context ctx3;
        const auto sr = trace.span(
            (key + "_sssp").c_str(),
            [&] { return sssp::delta_stepping(g, probe_source, o.sssp, &ctx3); },
            &ms);
        sssp_out.push_back(ms);
        check.sssp(probe_source, sr, "." + std::string(how));
        mr_ss = sr.stats;
      }
      omp_set_num_threads(threads);
    };
    std::vector<double> cl_local, est_local, sssp_local;
    sharded(local, "local", threads, cl_local, est_local, sssp_local);
    std::vector<double> cl_pool, est_pool, sssp_pool;
    sharded(pool, "pool",
            std::max(1, threads / static_cast<int>(workers)), cl_pool,
            est_pool, sssp_pool);
    cluster_ms = median(cl_pool);
    sssp_ms = median(sssp_pool);
    pool_minus_local = median(est_pool) - median(est_local);
    sssp_pool_minus_local = sssp_ms - median(sssp_local);
    rep.notes.push_back("mr: K=" + std::to_string(kBspShards) +
                        " hash shards, " + std::to_string(workers) +
                        " pool workers");
  }
  rep.put("mr.decompose_cross_messages", static_cast<double>(cs.cross_messages),
          "count");
  rep.put("mr.decompose_cross_bytes", static_cast<double>(cs.cross_bytes), "B");
  rep.put("mr.decompose_wire_bytes", static_cast<double>(cs.wire_bytes), "B");
  rep.put("mr.sssp_cross_messages",
          static_cast<double>(mr_ss.cross_messages), "count");
  rep.put("mr.sssp_cross_bytes", static_cast<double>(mr_ss.cross_bytes),
          "B");
  rep.put("mr.sssp_wire_bytes", static_cast<double>(mr_ss.wire_bytes), "B");
  const std::uint64_t supersteps =
      cs.relaxation_rounds + mr_ss.relaxation_rounds;
  rep.put("mr.us_per_superstep",
          supersteps > 0
              ? 1e3 * (cluster_ms + sssp_ms) / static_cast<double>(supersteps)
              : 0.0,
          "us");
  rep.put("mr.pool_minus_local_ms", pool_minus_local, "ms");
  rep.put("mr.sssp_pool_minus_local_ms", sssp_pool_minus_local, "ms");

  // The same layer calls at one thread: which phase stays serial. The
  // answers must not change with the thread count.
  omp_set_num_threads(1);
  std::vector<double> cl1, bq1, qd1, ds1;
  for (int r = 0; r < 2; ++r) {
    LayerTimes t;
    check.same_estimate(
        composed_estimate(g, opt.estimate, trace, t).estimate,
        opt.estimate.cluster.seed, "1-thread composed");
    cl1.push_back(t.cluster);
    bq1.push_back(t.build_quotient);
    qd1.push_back(t.quotient_diameters);
    exec::Context ctx;
    const auto r1 = trace.span(
        "sssp.delta_stepping",
        [&] { return sssp::delta_stepping(g, probe_source, opt.sssp, &ctx); },
        &ms);
    check.sssp(probe_source, r1);
    ds1.push_back(ms);
  }
  omp_set_num_threads(threads);
  rep.put("core.cluster_speedup_vs_1t", median(cl1) / cl1_ms, "x");
  rep.put("core.build_quotient_speedup_vs_1t",
          median(bq1) / field(&LayerTimes::build_quotient), "x");
  rep.put("core.quotient_diameters_speedup_vs_1t",
          median(qd1) / field(&LayerTimes::quotient_diameters), "x");
  rep.put("sssp.delta_stepping_speedup_vs_1t", median(ds1) / probe_ms, "x");

  if (!args.trace_out.empty()) trace.write_chrome(args.trace_out);
}

}  // namespace perfbench
