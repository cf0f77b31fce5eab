#!/usr/bin/env python3
"""End-to-end CL-DIAM benchmark (perfbench/README.md explains every metric).

Run from the root of a checkout:

    python3 perfbench/run.py --workload road-grid --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 7      # every workload

The script builds perfbench/ (which compiles the library from src/) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), generates the
workload's graphs from --seed, runs the measurement, and prints every metric
by name with its unit. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; --trace 0 gives the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones. The exit
code is non-zero when any correctness check fails or nothing could be run.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

BENCH_DIR = "perfbench"
GEN_TIMEOUT_S = 120
RUN_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 840

# Cores the measuring process computes on, whatever the machine has. On a
# shared host every OpenMP barrier waits for the slowest thread, so a team
# as wide as the machine turns a neighbour's load into a many-fold slowdown
# (perfbench/README.md, "Threads"); half of a 4-vCPU machine does not.
COMPUTE_CORES = 2
# serve-mixed computes on the daemon's two scheduler workers, one OpenMP
# thread each; the pipeline workloads run one OpenMP team (the traced
# road-grid run splits it into pool worker processes itself).
SERVE_WORKERS = 2

# Per-layer metrics that do not apply to a workload; reported as 0.
NOT_APPLICABLE = {
    "pipeline": ("serve.", "bench.gen_lag_ms"),
    "serve-mixed": ("core.", "sssp.", "mr.", "bench.layer_sum",
                    "bench.untraced_estimate_ms", "bench.trace_overhead_frac"),
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=2):
    log("perfbench: " + msg)
    sys.exit(code)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def run_checked(cmd, timeout, stdout=None, stderr=None, env=None):
    """Runs cmd in its own process group. The whole group (pool workers
    included) is killed on timeout, and on SIGTERM/SIGINT to this script."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=stderr, env=env,
                            start_new_session=True, text=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    old = [signal.signal(s, stop) for s in (signal.SIGTERM, signal.SIGINT)]
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError("%s timed out after %ss" % (cmd[0], timeout))
    finally:
        signal.signal(signal.SIGTERM, old[0])
        signal.signal(signal.SIGINT, old[1])
    return proc.returncode, out


def build():
    if not os.path.isfile(os.path.join("src", "gdiam.hpp")):
        fail("no gdiam sources under ./src: run from the root of a checkout")
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    logfile = os.path.join(bdir, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", str(os.cpu_count() or 1)])
    with open(logfile, "w") as out:
        for cmd in steps:
            code, _ = run_checked(cmd, BUILD_TIMEOUT_S, stdout=out,
                                  stderr=subprocess.STDOUT)
            if code != 0:
                out.close()
                with open(logfile) as f:
                    log(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd), 1)
    return os.path.join(bdir, "perfbench_e2e")


def source_hash():
    """Hash of the library and benchmark sources: the build's identity when
    the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", BENCH_DIR):
        for dirpath, dirnames, files in os.walk(top):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.exists(".git"):
        return "unknown"  # not a git checkout; the source hash identifies it
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def check_ledger(key, counters):
    """Counters of the same (workload, seed, threads, build) must repeat
    exactly across runs; returns the mismatching names."""
    path = os.path.join(build_dir(), "determinism.json")
    ledger = {}
    if os.path.isfile(path):
        with open(path) as f:
            ledger = json.load(f)
    seen = ledger.setdefault(key, {})
    bad = sorted(k for k, v in counters.items() if k in seen and seen[k] != v)
    seen.update(counters)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(ledger, f, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return bad


def omp_threads(workload):
    """OpenMP threads of the measuring process: COMPUTE_CORES in all."""
    cores = max(1, min(COMPUTE_CORES, os.cpu_count() or 1))
    if workload == "serve-mixed":
        return max(1, cores // SERVE_WORKERS)
    return cores


def run_workload(exe, spec, workload, seed, seconds, trace):
    """Generates, measures and checks one workload; returns the result dict."""
    threads = str(omp_threads(workload))
    run_dir = os.path.relpath(os.path.join(build_dir(),
                                           "run-%d" % os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        code, _ = run_checked([exe, "gen", "--workload", workload, "--seed",
                               str(seed), "--dir", run_dir], GEN_TIMEOUT_S,
                              stdout=sys.stderr)
        if code != 0:
            raise RuntimeError("input generation failed")
        cmd = [exe, "run", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0",
               "--dir", run_dir]
        if trace:
            traces = os.path.join(build_dir(), "traces")
            os.makedirs(traces, exist_ok=True)
            cmd += ["--trace-out",
                    os.path.join(traces, "%s-seed%d.json" % (workload, seed))]
        code, out = run_checked(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                                env=dict(os.environ, OMP_NUM_THREADS=threads))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = [l for l in out.splitlines() if l.startswith("{")]
    if not lines:
        log(out)
        raise RuntimeError("measurement printed no result (exit %d)" % code)
    res = json.loads(lines[-1])
    res["info"] = {
        "nproc": os.cpu_count(), "OMP_NUM_THREADS": threads,
        "threads_used": res["threads"], "build_type": res["build_type"],
        "commit": commit(), "source_hash": source_hash(),
    }
    key = "|".join([workload, str(seed), str(res["threads"]),
                    res["build_type"], res["info"]["source_hash"]])
    for name in check_ledger(key, res["determinism"]):
        res["failed"] += 1
        res["attempted"] += 1
        res["notes"].append("FAILED: %s differs from an earlier run" % name)

    m = res["metrics"]
    ok = 1.0 - res["failed"] / max(1, res["attempted"])
    m["ok_frac"] = {"value": ok, "unit": "ratio"}
    if workload != "serve-mixed":
        # No latency limit on one-shot runs: only failures miss it.
        m["slo_met_frac"] = {"value": ok, "unit": "ratio"}

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    kind = "serve-mixed" if workload == "serve-mixed" else "pipeline"
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name in m:
            metrics[name] = {"value": m[name]["value"], "unit": entry["unit"]}
        elif trace and name.startswith(NOT_APPLICABLE[kind]):
            metrics[name] = {"value": 0.0, "unit": entry["unit"]}
        else:
            res["attempted"] += 1
            res["failed"] += 1
            res["notes"].append("FAILED: metric %s not measured" % name)
    res["selected"] = metrics
    return res


def print_result(workload, res):
    info = res["info"]
    print("== %s: %d operations, %d failed; nproc=%s OMP_NUM_THREADS=%s "
          "threads=%s build=%s commit=%s sources=%s" % (
              workload, res["attempted"], res["failed"], info["nproc"],
              info["OMP_NUM_THREADS"], info["threads_used"],
              info["build_type"], info["commit"], info["source_hash"]))
    for note in res["notes"]:
        print("   " + note)
    for name, v in res["selected"].items():
        print("   %-40s %16.6g %s" % (name, v["value"], v["unit"]))
    sys.stdout.flush()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile("BENCHMARK.json"):
        fail("BENCHMARK.json not found: run from the root of a checkout")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in workloads):
        fail("unknown workload %r (have: %s)" % (args.workload,
                                                  ", ".join(names)))
    seconds = args.seconds or spec["run_seconds"]
    exe = build()

    results = {}
    for w in workloads:
        try:
            results[w] = run_workload(exe, spec, w, args.seed, seconds,
                                      args.trace == 1)
        except (RuntimeError, ValueError, KeyError) as e:
            fail("%s: %s" % (w, e), 1)
        print_result(w, results[w])

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(workloads) == 1:
        metrics = results[workloads[0]]["selected"]
    else:
        metrics = {"%s/%s" % (w, k): v for w, r in results.items()
                   for k, v in r["selected"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if failed == 0 else 1)


if __name__ == "__main__":
    main()
