// gdiamd — the gdiam serving daemon.
//
// Keeps graphs loaded in warm exec::Contexts (pooled engines, resident pool
// workers, cached Δ-presplits) and serves concurrent estimate / sssp
// queries over an AF_UNIX socket; see src/serve/server.hpp for the
// architecture and tools/gdiam_client.cpp for the matching client.
//
//   gdiamd --socket /tmp/gdiamd.sock [--workers 2] [--max-batch 16]
//          [--max-queue 256] [--write-timeout-ms 10000] [--faults SPEC]
//
// Runs in the foreground until SIGINT/SIGTERM or a client `shutdown`
// request, then prints its serving counters and exits 0.
//
// Fault injection (DESIGN.md §12): --faults or the GDIAM_FAULTS env var
// arms a deterministic fault schedule at startup; the `fault` control verb
// re-arms or clears it at runtime.

#include <csignal>
#include <cstdio>
#include <string>
#include <string_view>
#include <thread>

#include "serve/server.hpp"
#include "util/fault.hpp"
#include "util/options.hpp"

namespace {

[[noreturn]] void usage(const char* error = nullptr) {
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(stderr, R"(usage: gdiamd [--socket PATH] [--workers N] [--max-batch B]
              [--max-queue Q] [--write-timeout-ms T] [--faults SPEC]

  --socket PATH   AF_UNIX socket to serve on (default /tmp/gdiamd.sock)
  --workers N     concurrent request workers = graphs computing in
                  parallel (default 2; queries on ONE graph always
                  serialize on its warm context)
  --max-batch B   max same-graph requests coalesced per dispatch
                  (default 16)
  --max-queue Q   admission bound: requests past Q pending are shed
                  with an `overloaded` error (default 256)
  --write-timeout-ms T
                  disconnect a client whose response write stalls for
                  T ms on a full socket buffer (default 10000; 0 = wait
                  forever)
  --faults SPEC   arm a deterministic fault schedule, e.g.
                  "net.send=errno:EPIPE@3;pool.ship=kill@2"
                  (also read from the GDIAM_FAULTS env var)

Unknown flags exit 2 with this usage error before the socket is bound.

Query it with gdiam_client, e.g.:
  gdiam_client estimate --socket /tmp/gdiamd.sock graph=gen:mesh:side=64 tau=16
  gdiam_client shutdown --socket /tmp/gdiamd.sock
)");
  std::exit(error == nullptr ? 0 : 2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gdiam;
  try {
    const util::Options o(argc, argv);
    if (o.has("help")) usage();
    constexpr std::string_view kKnown[] = {"socket",    "workers",
                                           "max-batch", "max-queue",
                                           "write-timeout-ms", "faults",
                                           "help"};
    if (const auto name = o.first_unknown(kKnown)) {
      usage(("unknown flag --" + *name).c_str());
    }
    serve::ServerOptions opts;
    opts.socket_path = o.get_string("socket", "/tmp/gdiamd.sock");
    opts.worker_threads = o.get_uint32("workers", 2);
    opts.max_batch = o.get_uint32("max-batch", 16);
    opts.max_queue = o.get_uint32("max-queue", 256);
    opts.write_timeout_ms = o.get_uint32("write-timeout-ms", 10000);

    util::fault::arm_from_env();
    const std::string faults = o.get_string("faults", "");
    if (!faults.empty()) util::fault::arm(faults);  // flag wins over env
    if (util::fault::armed()) {
      std::fprintf(stderr, "gdiamd: fault schedule armed:\n%s",
                   util::fault::describe().c_str());
    }

    // Signals are consumed by a dedicated sigwait thread: every thread the
    // server spawns inherits this mask, so no handler ever interrupts a
    // compute or a socket write. SIGUSR1 is the self-wake that releases the
    // sigwait thread when shutdown arrives via the protocol instead.
    sigset_t set;
    sigemptyset(&set);
    sigaddset(&set, SIGINT);
    sigaddset(&set, SIGTERM);
    sigaddset(&set, SIGUSR1);
    pthread_sigmask(SIG_BLOCK, &set, nullptr);

    serve::Server server(opts);
    server.start();
    std::fprintf(stderr, "gdiamd: serving on %s (workers=%u, max-batch=%u)\n",
                 opts.socket_path.c_str(), opts.worker_threads,
                 opts.max_batch);

    std::thread signal_thread([&set, &server] {
      int sig = 0;
      sigwait(&set, &sig);
      server.request_stop();
    });
    server.wait();
    ::kill(::getpid(), SIGUSR1);  // no-op if a real signal already fired
    signal_thread.join();
    server.stop();

    const serve::ServerStats& s = server.stats();
    std::fprintf(stderr,
                 "gdiamd: served %llu requests (%llu connections, "
                 "%llu batches, %llu coalesced, %llu errors)\n",
                 static_cast<unsigned long long>(s.requests.load()),
                 static_cast<unsigned long long>(s.connections.load()),
                 static_cast<unsigned long long>(s.batches.load()),
                 static_cast<unsigned long long>(s.batched_requests.load()),
                 static_cast<unsigned long long>(s.errors.load()));
    std::fprintf(
        stderr,
        "gdiamd: robustness: %llu shed, %llu deadline_exceeded, "
        "%llu degraded, %llu disconnected_slow\n",
        static_cast<unsigned long long>(s.shed.load()),
        static_cast<unsigned long long>(s.deadline_exceeded.load()),
        static_cast<unsigned long long>(s.degraded.load()),
        static_cast<unsigned long long>(s.disconnected_slow.load()));
    return 0;
  } catch (const util::OptionError& e) {
    usage(e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gdiamd: %s\n", e.what());
    return 1;
  }
}
