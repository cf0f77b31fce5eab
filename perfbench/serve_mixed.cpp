// serve-mixed: an in-process serve::Server under an open-loop request mix.
//
// Two hot .gcsr graphs of different families (R-MAT scale 15 giant
// component, 256x256 road network) are loaded into one daemon with its
// default options (two scheduler workers, as gdiamd starts). A generator
// sends requests at the constant rate kRatePerSec over at most four
// connections, whatever the responses do (an open loop). They go out in
// pairs, one to each graph at the same instant, so both workers compute
// at once on every pair. Pairs alternate estimate and sssp, the 1:1 mix of
// bench/serving_load.cpp. sssp requests come from seeded sources (one
// cached presplit per graph); estimates cycle CLUSTER seeds through
// 1..kClusterSeeds (the doubling-Δ cache). Latency is
// timed from each request's scheduled send time, so a stall also charges
// the requests queued behind it. A verb's latency is reported per graph and
// the two graphs' figures are combined by their geometric mean, so neither
// graph's share of the traffic decides the result.
//
// Each response body is compared, outside the timed region, with the
// library's render of the same query.

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common.hpp"
#include "core/diameter.hpp"
#include "exec/context.hpp"
#include "graph/binfmt.hpp"
#include "serve/protocol.hpp"
#include "serve/render.hpp"
#include "serve/server.hpp"
#include "sssp/delta_stepping.hpp"
#include "util/net.hpp"

using namespace gdiam;

namespace perfbench {
namespace {

/// Open-loop send rate, requests per second. A pair leaves every 400 ms,
/// longer than the slowest concurrent estimate measured at one OpenMP
/// thread per worker (README.md gives the capacity measurement), so no
/// request waits behind the one before it on its graph.
constexpr double kRatePerSec = 5.0;
/// Latency limits: a response later than this, counted from its scheduled
/// send time, misses the SLO.
constexpr double kSsspLimitMs = 200.0;
constexpr double kEstimateLimitMs = 400.0;
/// Closed-loop sssp requests on the idle daemon (serve.unloaded_sssp_ms).
constexpr std::size_t kUnloadedRequests = 24;

enum Verb : std::uint8_t { kSssp, kEstimate };
/// Graph indices, in graph_files("serve-mixed") order.
constexpr int kRmat = 0, kRoad = 1;

struct GraphSide {
  std::string file;
  std::string spec;  // the request's graph= field
  io::MappedGraph mapped;
  std::vector<NodeId> sources;
  double lower_bound = 0.0;
};

/// One scheduled request and what came back.
struct Slot {
  Verb verb = kSssp;
  int graph = 0;
  NodeId source = 0;       // sssp
  std::uint64_t seed = 1;  // estimate: CLUSTER seed
  Clock::time_point sched;
  Clock::time_point arrived;
  bool answered = false;
  std::string head;
  std::string body;
};

/// Latency samples per graph, for one verb.
using PerGraph = std::vector<std::vector<double>>;

/// The geometric mean over the graphs of stat(that graph's samples).
double across_graphs(const PerGraph& ms, double (*stat)(std::vector<double>)) {
  double log_sum = 0.0;
  for (const std::vector<double>& v : ms) log_sum += std::log(stat(v));
  return std::exp(log_sum / static_cast<double>(ms.size()));
}

/// `<prefix>.p50` and `<prefix>.tail`, each combined across the graphs.
void put_latency(Report& rep, const std::string& prefix, const PerGraph& ms) {
  rep.put(prefix + ".p50", across_graphs(ms, median), "ms");
  rep.put(prefix + ".tail", across_graphs(ms, tail), "ms");
  for (const std::vector<double>& v : ms) {
    char note[160];
    std::snprintf(note, sizeof note, "%s: %zu samples on a graph, tail = p%.1f",
                  prefix.c_str(), v.size(), tail_rank(v.size()));
    rep.notes.push_back(note);
  }
}

serve::Message make_request(const GraphSide& side, const Slot& s,
                            std::size_t id) {
  serve::Message m;
  m.head = s.verb == kEstimate ? "estimate" : "sssp";
  m.set("graph", side.spec);
  if (s.verb == kSssp) m.set("source", std::to_string(s.source));
  if (s.verb == kEstimate) m.set("seed", std::to_string(s.seed));
  m.set("id", std::to_string(id));
  return m;
}

/// Sends one request and waits for its response (closed loop).
serve::Message round_trip(int fd, const serve::Message& req) {
  serve::write_message(fd, req);
  serve::Message resp;
  if (!serve::read_message(fd, resp)) {
    throw std::runtime_error("serve-mixed: connection closed");
  }
  return resp;
}

serve::ServerOptions server_options(const RunArgs& args) {
  serve::ServerOptions o;
  o.socket_path = args.dir + "/gdiamd.sock";
  return o;
}

/// Server start plus the first `load` of each graph.
double cold_start_ms(const RunArgs& args, const std::vector<GraphSide>& sides,
                     Report& rep) {
  const Clock::time_point t0 = Clock::now();
  serve::Server server(server_options(args));
  server.start();
  const int fd = util::net::connect_unix(server.socket_path());
  for (const GraphSide& side : sides) {
    serve::Message load;
    load.head = "load";
    load.set("graph", side.spec);
    const serve::Message resp = round_trip(fd, load);
    rep.op(resp.head == "ok" &&
               resp.get("nodes") ==
                   std::to_string(side.mapped.graph().num_nodes()),
           "load " + side.spec + ": " + resp.head + " " + resp.get("message"));
  }
  const double ms = ms_since(t0);
  ::close(fd);
  server.stop();
  return ms;
}

}  // namespace

void run_serve_mixed(const RunArgs& args, Report& rep) {
  Trace trace(args.trace);
  const auto connections = static_cast<unsigned>(
      std::clamp(omp_get_num_procs(), 1, 4));

  std::vector<GraphSide> sides;
  std::vector<double> open_ms;
  std::uint64_t gcsr_bytes = 0;
  for (const std::string& file : graph_files(args.workload)) {
    GraphSide side;
    side.file = file;
    side.spec = "file:" + args.dir + "/" + file;
    double ms = 0;
    side.mapped = trace.span(
        "graph.open_mmap",
        [&] { return io::open_mmap(args.dir + "/" + file); }, &ms);
    open_ms.push_back(ms);
    gcsr_bytes += side.mapped.file_bytes();
    side.lower_bound = read_meta(args.dir, file).lower_bound;
    side.sources = pick_sources(side.mapped.graph(),
                                args.seed + sides.size());
    sides.push_back(std::move(side));
  }

  // Set-up: a cold daemon answering its first load of each graph.
  std::vector<double> setup_ms;
  for (int r = 0; r < kSetupReps; ++r) {
    setup_ms.push_back(trace.span("serve.cold_start", [&] {
      return cold_start_ms(args, sides, rep);
    }));
  }

  auto server = std::make_unique<serve::Server>(server_options(args));
  server->start();
  std::vector<int> fds;
  for (unsigned c = 0; c < connections; ++c) {
    fds.push_back(util::net::connect_unix(server->socket_path()));
  }

  // Warm both graphs with one request of each verb (discarded).
  for (std::size_t gi = 0; gi < sides.size(); ++gi) {
    for (const Verb v : {kEstimate, kSssp}) {
      Slot s;
      s.verb = v;
      s.graph = static_cast<int>(gi);
      s.source = sides[gi].sources[0];
      const serve::Message resp =
          round_trip(fds[0], make_request(sides[gi], s, 0));
      rep.op(resp.head == "ok", "warm-up " + resp.get("message"));
    }
  }

  // The loaded run's schedule: --seconds at kRatePerSec, and at least
  // kMinSamples requests of each verb on each graph. Each (graph, verb)
  // gets whole cycles of CLUSTER seeds, so that each seed weighs the same.
  constexpr std::size_t kCycle = 4 * kClusterSeeds;
  const std::size_t wanted = std::max(
      static_cast<std::size_t>(std::ceil(args.seconds * kRatePerSec)),
      4 * kMinSamples);
  const std::size_t total = (wanted + kCycle - 1) / kCycle * kCycle;
  std::vector<Slot> slots(total);
  std::array<std::array<std::size_t, 2>, 2> sent_to{};  // [graph][verb]
  for (std::size_t i = 0; i < total; ++i) {
    Slot& s = slots[i];
    s.verb = (i / 2) % 2 == 0 ? kEstimate : kSssp;
    s.graph = i % 2 == 0 ? kRmat : kRoad;
    const std::size_t k =
        sent_to[static_cast<std::size_t>(s.graph)][s.verb]++;
    if (s.verb == kSssp) {
      s.source = sides[static_cast<std::size_t>(s.graph)]
                     .sources[k % kSourcesPerRun];
    } else {
      s.seed = 1 + k % kClusterSeeds;
    }
  }
  // Unloaded: the schedule's first sssp requests, closed loop, on the idle
  // daemon.
  std::vector<Slot> unloaded;
  PerGraph unloaded_ms(sides.size());
  for (std::size_t i = 0;
       i < slots.size() && unloaded.size() < kUnloadedRequests; ++i) {
    if (slots[i].verb != kSssp) continue;
    Slot s = slots[i];
    s.sched = Clock::now();
    const serve::Message resp = round_trip(
        fds[0], make_request(sides[static_cast<std::size_t>(s.graph)], s, 0));
    s.arrived = Clock::now();
    s.answered = true;
    s.head = resp.head;
    s.body = resp.body;
    unloaded_ms[static_cast<std::size_t>(s.graph)].push_back(
        std::chrono::duration<double, std::milli>(s.arrived - s.sched).count());
    unloaded.push_back(std::move(s));
  }

  // Loaded: the open-loop generator on this thread, one reader per
  // connection. Readers only fill the slots whose id they receive.
  std::vector<std::atomic<std::size_t>> got(connections);
  std::vector<std::thread> readers;
  for (unsigned c = 0; c < connections; ++c) {
    got[c].store(0);
    readers.emplace_back([&, c] {
      serve::Message resp;
      for (;;) {
        std::size_t id = 0;
        try {
          if (!serve::read_message(fds[c], resp)) return;
          id = std::stoull(resp.get("id", "0"));
        } catch (const std::exception&) {
          return;  // shut down below, or a response without a usable id
        }
        if (id >= total) return;
        Slot& s = slots[id];
        s.arrived = Clock::now();
        s.answered = true;
        s.head = resp.head;
        s.body = std::move(resp.body);
        got[c].fetch_add(1);
      }
    });
  }
  std::vector<double> lag_ms;
  std::vector<std::size_t> sent(connections, 0);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  // Constant-rate open loop: the pair 2k, 2k+1 is due at 2k / kRatePerSec.
  std::vector<double> offsets(total);
  for (std::size_t i = 0; i < total; ++i) {
    offsets[i] = static_cast<double>(i - i % 2) / kRatePerSec;
  }
  trace.span("serve.loaded", [&] {
    for (std::size_t i = 0; i < total; ++i) {
      Slot& s = slots[i];
      s.sched = start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(offsets[i]));
      std::this_thread::sleep_until(s.sched);
      lag_ms.push_back(ms_since(s.sched));
      const auto c = static_cast<unsigned>(i % connections);
      try {
        serve::write_message(
            fds[c],
            make_request(sides[static_cast<std::size_t>(s.graph)], s, i));
      } catch (const std::exception& e) {
        // The request stays unanswered and counts as failed below.
        rep.notes.push_back(std::string("send failed: ") + e.what());
        continue;
      }
      ++sent[c];
    }
    // Bounded wait for the backlog; whatever is still missing after it
    // counts as failed.
    const Clock::time_point give_up = Clock::now() + std::chrono::seconds(60);
    for (unsigned c = 0; c < connections; ++c) {
      while (got[c].load() < sent[c] && Clock::now() < give_up) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
  });
  for (unsigned c = 0; c < connections; ++c) {
    ::shutdown(fds[c], SHUT_RDWR);  // wakes the reader
    readers[c].join();
  }
  const serve::ServerStats& st = server->stats();
  const double requests = static_cast<double>(st.requests.load());
  const double batched = static_cast<double>(st.batched_requests.load());
  const auto shed = st.shed.load();
  const auto deadline_exceeded = st.deadline_exceeded.load();
  const auto degraded = st.degraded.load();
  const auto disconnected_slow = st.disconnected_slow.load();
  for (const int fd : fds) ::close(fd);
  server->stop();
  // The serving process's peak: the checks below recompute every answer
  // with their own contexts and must not add to it.
  rep.put("peak_rss_mb", peak_rss_mb(), "MB");
  server.reset();

  // ---- checks (untimed): each body against the library's render ----------
  std::vector<Checker> checkers;
  checkers.reserve(sides.size());
  std::vector<exec::Context> contexts(sides.size());
  std::map<std::tuple<int, int, std::uint64_t>, std::string> expected_body;
  PerGraph direct_sssp_ms(sides.size());
  for (std::size_t gi = 0; gi < sides.size(); ++gi) {
    checkers.emplace_back(sides[gi].mapped.graph(), sides[gi].lower_bound, rep,
                          sides[gi].file + ".");
    checkers.back().prepare(sides[gi].sources);
  }
  auto expect = [&](const Slot& s) -> const std::string& {
    const auto key = std::make_tuple(s.graph, static_cast<int>(s.verb),
                                     s.verb == kSssp ? s.source : s.seed);
    auto it = expected_body.find(key);
    if (it != expected_body.end()) return it->second;
    const auto gi = static_cast<std::size_t>(s.graph);
    const Graph& g = sides[gi].mapped.graph();
    std::string body;
    if (s.verb == kEstimate) {
      core::DiameterApproxOptions o;
      o.cluster.tau = core::tau_for_cluster_target(g.num_nodes(),
                                                   g.num_nodes() / 4);
      o.cluster.seed = s.seed;
      const auto r = core::approximate_diameter(g, o, &contexts[gi]);
      checkers[gi].estimate(r, o.cluster.seed);
      body = serve::render_estimate(r, o.cluster.tau);
    } else {
      const auto r = sssp::delta_stepping(g, s.source, {}, &contexts[gi]);
      checkers[gi].sssp(s.source, r);
      body = serve::render_sssp(s.source, r);
    }
    return expected_body.emplace(key, std::move(body)).first->second;
  };
  for (const Slot& s : unloaded) {
    rep.op(s.head == "ok" && s.body == expect(s),
           "unloaded sssp response differs from the library render");
  }
  PerGraph est_ms(sides.size()), sssp_ms(sides.size());
  std::size_t slo_met = 0;
  for (const Slot& s : slots) {
    const bool ok = s.answered && s.head == "ok" && s.body == expect(s);
    rep.op(ok, std::string(s.verb == kEstimate ? "estimate" : "sssp") +
                   " response: " + (s.answered ? s.head : "missing"));
    if (!s.answered) continue;
    const double ms =
        std::chrono::duration<double, std::milli>(s.arrived - s.sched).count();
    (s.verb == kEstimate ? est_ms : sssp_ms)[static_cast<std::size_t>(s.graph)]
        .push_back(ms);
    trace.add(s.verb == kEstimate ? "serve.estimate" : "serve.sssp", s.sched,
              ms);
    if (ok && ms <= (s.verb == kEstimate ? kEstimateLimitMs : kSsspLimitMs)) {
      ++slo_met;
    }
  }

  for (std::size_t gi = 0; gi < sides.size(); ++gi) {
    char note[160];
    std::snprintf(note, sizeof note,
                  "%s: loaded sssp p50 %.3f ms, estimate p50 %.3f ms",
                  sides[gi].file.c_str(), median(sssp_ms[gi]),
                  median(est_ms[gi]));
    rep.notes.push_back(note);
  }

  // Direct library sssp on the warm contexts: the daemon's own overhead.
  for (const Slot& s : unloaded) {
    const auto gi = static_cast<std::size_t>(s.graph);
    double ms = 0;
    trace.span("sssp.delta_stepping", [&] {
      return sssp::delta_stepping(sides[gi].mapped.graph(), s.source, {},
                                  &contexts[gi]);
    }, &ms);
    direct_sssp_ms[gi].push_back(ms);
  }

  // Counts summed over the two graphs; the ratios' geometric mean.
  double rounds = 0, work = 0, sssp_rounds = 0, log_ratio = 0;
  for (const Checker& c : checkers) {
    rounds += c.median_rounds();
    work += c.median_work();
    sssp_rounds += c.mean_sssp_rounds();
    log_ratio += std::log(c.median_ratio());
  }
  const double ratio = std::exp(log_ratio / static_cast<double>(checkers.size()));

  if (!args.trace) {
    rep.put("setup_s", median(setup_ms) / 1e3, "s");
    put_latency(rep, "estimate_ms", est_ms);
    put_latency(rep, "sssp_ms", sssp_ms);
    rep.put("rounds", rounds, "count");
    rep.put("sssp_rounds", sssp_rounds, "count");
    rep.put("work", work, "count");
    rep.put("approx_ratio", ratio, "ratio");
    rep.put("slo_met_frac",
            static_cast<double>(slo_met) / static_cast<double>(total), "ratio");
    return;
  }

  rep.put("graph.open_mmap_ms", median(open_ms), "ms");
  rep.put("graph.gcsr_bytes", static_cast<double>(gcsr_bytes), "B");
  const double unloaded_p50 = across_graphs(unloaded_ms, median);
  rep.put("serve.unloaded_sssp_ms", unloaded_p50, "ms");
  rep.put("serve.overhead_ms",
          unloaded_p50 - across_graphs(direct_sssp_ms, median), "ms");
  rep.put("serve.queue_wait_ms",
          across_graphs(sssp_ms, median) - unloaded_p50, "ms");
  rep.put("serve.coalesce_ratio", requests > 0 ? batched / requests : 0.0,
          "ratio");
  rep.put("serve.shed", static_cast<double>(shed), "count");
  rep.put("serve.deadline_exceeded", static_cast<double>(deadline_exceeded),
          "count");
  rep.put("serve.degraded", static_cast<double>(degraded), "count");
  rep.put("serve.disconnected_slow", static_cast<double>(disconnected_slow),
          "count");
  double max_lag = 0;
  for (const double l : lag_ms) max_lag = std::max(max_lag, l);
  rep.put("bench.gen_lag_ms", max_lag, "ms");

  // Cold vs warm context on the R-MAT graph.
  const Graph& g0 = sides[0].mapped.graph();
  core::DiameterApproxOptions o;
  o.cluster.tau = core::tau_for_cluster_target(g0.num_nodes(), g0.num_nodes() / 4);
  std::vector<double> cold, warm;
  for (int r = 0; r < 3; ++r) {
    exec::Context ctx;
    double ms = 0;
    trace.span("exec.cold_estimate",
               [&] { return core::approximate_diameter(g0, o, &ctx); }, &ms);
    cold.push_back(ms);
    for (int k = 0; k < 2; ++k) {
      trace.span("exec.warm_estimate",
                 [&] { return core::approximate_diameter(g0, o, &ctx); }, &ms);
      warm.push_back(ms);
    }
  }
  rep.put("exec.cold_minus_warm_ms", median(cold) - median(warm), "ms");
  if (!args.trace_out.empty()) trace.write_chrome(args.trace_out);
}

}  // namespace perfbench
