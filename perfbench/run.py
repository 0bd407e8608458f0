#!/usr/bin/env python3
"""The repo benchmark: builds perfbench from source, runs one workload and
prints every metric by name and unit, then one JSON result line.

Usage (from the repository root):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      [--smoke]

--trace 0 reports the end-to-end metrics of untraced trials; --trace 1
adds one traced trial and reports the per-layer metrics, writing the
benchmark's host-time spans as Chrome trace JSON under the build
directory. --smoke runs the workload at toy size through every check.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper_n800", "scale_churn_100k", "kv_zipf_rw", "fullstack_n200")

# name -> unit; must match BENCHMARK.json (test_smoke.py checks this).
END_TO_END = {
    "trial_s": "s",
    "setup_s": "s",
    "sim_events_per_s": "1/s",
    "host_ms_per_op": "ms",
    "peak_rss_mib": "MiB",
}
# Simulated outputs: deterministic for a seed, reported in the traced run.
SIM_OUTPUTS = {
    "hit_ratio": "ratio",
    "msgs_per_op": "count/op",
    "lookup_p50_sim_s": "s",
    "lookup_p99_sim_s": "s",
    "write_p99_sim_s": "s",
    "failed_op_rate": "ratio",
}
PER_LAYER = {
    "sim.step_host_s": "s",
    "sim.events_per_op": "count/op",
    "sim.heap_moves_per_event": "count/event",
    "sim.stale_drop_ratio": "ratio",
    "sim.calendar_migrations": "count",
    "mac.tx_per_op": "count/op",
    "mac.backoffs_per_op": "count/op",
    "mac.drops_per_op": "count/op",
    "mac.backoff_wait_sim_s": "s",
    "phy.events_per_frame": "count/frame",
    "net.routing_tx_per_op": "count/op",
    "net.route_discoveries_per_op": "count/op",
    "net.route_discovery_wait_sim_s": "s",
    "net.world_build_s": "s",
    "net.start_s": "s",
    "net.teardown_s": "s",
    "net.churn_host_s": "s",
    "net.hello_tx": "count",
    "net.data_tx_per_op": "count/op",
    "net.packet_pool_reuse_ratio": "ratio",
    "net.alive_snapshots": "count",
    "geom.grid_queries": "count",
    "geom.candidates_per_query": "count/query",
    "geom.cell_crossings": "count",
    "geom.grid_rebuilds": "count",
    "mobility.grid_moves": "count",
    "membership.build_s": "s",
    "core.advertise_phase_s": "s",
    "core.lookup_phase_s": "s",
    "core.issue_us": "us",
    "core.nodes_per_lookup": "count/op",
    "core.attempts_per_op": "count/op",
    "core.intersect_ratio": "ratio",
    "core.reply_drop_ratio": "ratio",
    "core.reply_repairs_per_op": "count/op",
    "core.walk_deaths_per_op": "count/op",
    "core.mrw_load": "ratio",
    "svc.seed_s": "s",
    "svc.read_issue_us": "us",
    "svc.write_issue_us": "us",
    "svc.cache_hit_rate": "ratio",
    "svc.cache_invalidations": "count",
    "svc.censored": "count",
    "util.arena_high_water_mib": "MiB",
    "util.callback_heap_allocs": "count",
    "obs.trace_overhead": "ratio",
    "obs.trace_dropped": "count",
    **SIM_OUTPUTS,
}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def read_stat():
    """(steal ticks, total ticks) from the aggregate cpu line."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def load1():
    with open("/proc/loadavg") as f:
        return float(f.read().split()[0])


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def cache_value(build_dir, key):
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def build(root):
    """Configures and builds perfbench under the checkout; returns the
    build directory. Build output goes to stderr."""
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    # Compiler temporaries stay in the build directory too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr, env=env,
            timeout=300)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr, env=env,
                   timeout=840)
    return build_dir


def fingerprint(build_dir):
    compiler = cache_value(build_dir, "CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=30).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        version = compiler
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": version,
        "build_type": cache_value(build_dir, "CMAKE_BUILD_TYPE"),
    }


def median(values):
    return statistics.median(values) if values else 0.0


def check_record(record):
    """Correctness checks across the trials of one run."""
    problems = list(record["failures"])
    trials = record["trials"]
    if not trials:
        return problems + ["no trial ran"]
    for i, t in enumerate(trials):
        problems += ["trial %d: %s" % (i, f) for f in t["failures"]]
        if t["attempted"] < 1:
            problems.append("trial %d attempted no op" % i)
    # Identical inputs must give identical simulations: every untraced
    # trial repeats the first, and the traced trial (the observer) must
    # leave every deterministic counter and simulated output unchanged.
    first = trials[0]["det"]
    for i, t in enumerate(trials[1:], start=1):
        if t["slice_tags"] != trials[0]["slice_tags"]:
            problems.append("trial %d is sliced differently" % i)
        diff = sorted(k for k in set(first) | set(t["det"])
                      if first.get(k) != t["det"].get(k))
        if diff:
            kind = "traced" if t["traced"] else "untraced"
            problems.append("%s trial %d differs from trial 0 in %s"
                            % (kind, i, ", ".join(diff[:8])))
    return problems


def sliced(trials, tags):
    """Host seconds of the trial parts tagged `tags`: the sum over slices
    of each slice's median across the trials. Every trial does the same
    work slice for slice, so a slice that one trial ran during a slow
    spell of the shared host is outvoted by the others."""
    total = 0.0
    for i, tag in enumerate(trials[0]["slice_tags"]):
        if tag in tags:
            total += median([t["slices"][i] for t in trials])
    return total


def metrics_of(record, trace):
    untraced = [t for t in record["trials"] if not t["traced"]]
    out = {}
    if not trace:
        det = untraced[0]["det"]
        window = sliced(untraced, "w")
        out["trial_s"] = sliced(untraced, "swbt")
        out["setup_s"] = sliced(untraced, "s")
        out["sim_events_per_s"] = det["window_events"] / window
        out["host_ms_per_op"] = 1e3 * window / det["ops"]
        # The first trial runs in a fresh process; later ones start on a
        # heap the earlier trials left behind.
        out["peak_rss_mib"] = (untraced[0]["host"]["peak_rss_bytes"]
                               / 1048576.0)
        return {k: {"value": out[k], "unit": u} for k, u in END_TO_END.items()}
    # A layer or output a workload never exercises reads 0.
    traced = [t for t in record["trials"] if t["traced"]][0]
    out.update(traced["layer"])
    for name in SIM_OUTPUTS:
        out[name] = traced["det"].get(name, 0.0)
    out["obs.trace_overhead"] = (
        traced["host"]["trial_s"]
        / median([t["host"]["trial_s"] for t in untraced]) - 1.0)
    return {k: {"value": out.get(k, 0.0), "unit": u}
            for k, u in PER_LAYER.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.exists(os.path.join(root, "src", "CMakeLists.txt")):
        log("perfbench: run from the repository root; src/ not found")
        return 2
    try:
        build_dir = build(root)
    except (subprocess.SubprocessError, OSError) as e:
        log("perfbench: build failed: %s" % e)
        return 2
    host = fingerprint(build_dir)

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    spans_path = None
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        spans_path = os.path.join(
            spans_dir, "%s-seed%d.json" % (args.workload, args.seed))
        cmd += ["--spans-out", spans_path]
    if args.smoke:
        cmd.append("--smoke")

    steal0, total0 = read_stat()
    load_start = load1()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out" % args.workload)
        return 1
    steal1, total1 = read_stat()
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        log("perfbench: binary exited with %d" % proc.returncode)
        return 1
    record = json.loads(proc.stdout.strip().splitlines()[-1])

    host["load1_start"] = load_start
    host["load1_end"] = load1()
    host["steal_share"] = (steal1 - steal0) / max(1, total1 - total0)
    # Noisy: the hypervisor stole >2% of CPU time, or other processes kept
    # more than half the CPUs busy (the benchmark itself accounts for ~1).
    host["noisy"] = (host["steal_share"] > 0.02
                     or max(load_start, host["load1_end"]) - 1.0
                     > host["nproc"] / 2.0)
    if host["noisy"]:
        log("perfbench: WARNING noisy host (load %.2f..%.2f, steal %.1f%%)"
            % (load_start, host["load1_end"], 100 * host["steal_share"]))

    problems = check_record(record)
    metrics = metrics_of(record, args.trace)
    trials = record["trials"]
    det = trials[0]["det"]
    attempted = trials[0]["attempted"]
    failed = max(t["failed"] for t in trials)

    print("workload %s seed %d: %d trial(s)%s" % (
        args.workload, args.seed, len(trials),
        ", smoke size" if args.smoke else ""))
    print("host: " + json.dumps(host, sort_keys=True))
    for name, m in metrics.items():
        print("  %-32s %.6g %s" % (name, m["value"], m["unit"]))
    print("  simulated outputs: %s" % json.dumps(
        {k: det[k] for k in sorted(det) if k in SIM_OUTPUTS
         or k.endswith("_samples") or k.startswith("ops")}, sort_keys=True))
    if spans_path:
        print("  spans written to %s" % os.path.relpath(spans_path, root))
    for p in problems:
        print("  CHECK FAILED: %s" % p)
    print("PERFBENCH_RECORD " + json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "host": host, "metrics": metrics,
        "problems": problems}, sort_keys=True))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
