#!/usr/bin/env python3
"""Compares two sets of benchmark runs, refusing when the hosts differ.

Usage: python3 perfbench/compare.py BASE.log NEW.log

Each log holds the standard output of one or more `perfbench/run.py`
runs (untraced); the PERFBENCH_RECORD lines are read. For every workload
and end-to-end metric it prints each side's median and quartiles and
flags a change whose median is worse than the base by more than the
metric's bound in BENCHMARK.json. Runs on a noisy host are listed.

Exit status: 0 no regression, 1 regression, 2 refused (different or mixed
host fingerprints, or nothing to compare).
"""

import json
import os
import statistics
import sys

HOST_KEYS = ("nproc", "cpu_model", "compiler", "build_type")


def records(path):
    out = []
    with open(path) as f:
        for line in f:
            if line.startswith("PERFBENCH_RECORD "):
                r = json.loads(line[len("PERFBENCH_RECORD "):])
                if not r["trace"] and not r["smoke"]:
                    out.append(r)
    return out


def host_of(r):
    return tuple(r["host"].get(k) for k in HOST_KEYS)


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}
    base, new = records(argv[1]), records(argv[2])
    hosts = {host_of(r) for r in base + new}
    if not base or not new:
        print("refused: a log has no untraced PERFBENCH_RECORD line")
        return 2
    if len(hosts) != 1:
        print("refused: runs come from different hosts:")
        for h in sorted(hosts, key=str):
            print("  " + json.dumps(dict(zip(HOST_KEYS, h))))
        return 2
    for side, rs in (("base", base), ("new", new)):
        for r in rs:
            if r["host"].get("noisy"):
                print("noisy %s run: %s seed %d (load %.2f..%.2f, steal "
                      "%.1f%%)" % (side, r["workload"], r["seed"],
                                   r["host"]["load1_start"],
                                   r["host"]["load1_end"],
                                   100 * r["host"]["steal_share"]))
    regressed = False
    for workload in sorted({r["workload"] for r in base + new}):
        for name, m in spec.items():
            b = [r["metrics"][name]["value"] for r in base
                 if r["workload"] == workload]
            n = [r["metrics"][name]["value"] for r in new
                 if r["workload"] == workload]
            if len(b) < 2 or len(n) < 2:
                continue
            bq, nq = statistics.quantiles(b, n=4), statistics.quantiles(n, n=4)
            bm, nm = statistics.median(b), statistics.median(n)
            change = (nm - bm) / bm if bm else 0.0
            worse = change if m["better"] == "lower" else -change
            verdict = "REGRESSION" if worse > m["bound"] else "ok"
            regressed |= worse > m["bound"]
            print("%-18s %-18s base %.5g [%.5g, %.5g]  new %.5g [%.5g, %.5g]"
                  "  %+.1f%% (bound %.0f%%) %s"
                  % (workload, name, bm, bq[0], bq[2], nm, nq[0], nq[2],
                     100 * change, 100 * m["bound"], verdict))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
