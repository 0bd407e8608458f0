#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at toy size, untraced and
traced, through every correctness check.

Run from the repository root:  python3 perfbench/test_smoke.py

Checks that each run reports correct=true with exactly the metrics
BENCHMARK.json names (with its units), that the traced trial leaves every
deterministic counter unchanged (run.py fails the run otherwise), that
compare.py refuses runs from different hosts, and that the command fails
without a result in a directory holding only BENCHMARK.json and the
benchmark's own files.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402


def bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END, "run.py END_TO_END != BENCHMARK.json"
    assert layer == run.PER_LAYER, "run.py PER_LAYER != BENCHMARK.json"
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)

    logs = []
    for workload in run.WORKLOADS:
        for trace, names in ((0, e2e), (1, layer)):
            p = bench(["--workload", workload, "--seed", "3", "--seconds",
                       "1", "--trace", str(trace), "--smoke"])
            assert p.returncode == 0, (workload, trace, p.stderr[-2000:])
            result = json.loads(p.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, result
            assert result["correct"], (workload, trace, p.stdout)
            assert result["attempted"] >= 1 and result["failed"] == 0
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            assert got == names, (workload, trace, sorted(got))
            if not trace:
                logs.append(p.stdout)
            print("ok  %-18s trace=%d" % (workload, trace))

    # The same seed reproduces the same inputs and outputs.
    a = bench(["--workload", "kv_zipf_rw", "--seed", "5", "--seconds", "0",
               "--trace", "1", "--smoke"])
    b = bench(["--workload", "kv_zipf_rw", "--seed", "5", "--seconds", "0",
               "--trace", "1", "--smoke"])
    det = [json.loads(p.stdout.strip().splitlines()[-1])["metrics"]
           for p in (a, b)]
    for name in run.SIM_OUTPUTS:
        assert det[0][name] == det[1][name], name
    print("ok  same seed, same simulated outputs")

    # compare.py refuses runs from different hosts.
    def relabel(cpu):
        out = []
        for log in logs * 2:
            for line in log.splitlines():
                if line.startswith("PERFBENCH_RECORD "):
                    r = json.loads(line[len("PERFBENCH_RECORD "):])
                    r["smoke"] = False
                    r["host"]["cpu_model"] = cpu or r["host"]["cpu_model"]
                    line = "PERFBENCH_RECORD " + json.dumps(r)
                out.append(line)
        return "\n".join(out)

    work = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_build"))
    try:
        base = os.path.join(work, "base.log")
        other = os.path.join(work, "other.log")
        with open(base, "w") as f:
            f.write(relabel(None))
        c = subprocess.run([sys.executable, "perfbench/compare.py", base,
                            base], cwd=ROOT, capture_output=True, text=True)
        assert c.returncode == 0, c.stdout
        with open(other, "w") as f:
            f.write(relabel("another cpu"))
        c = subprocess.run([sys.executable, "perfbench/compare.py", base,
                            other], cwd=ROOT, capture_output=True, text=True)
        assert c.returncode == 2 and "refused" in c.stdout, c.stdout
        print("ok  compare.py refuses a different host")

        # Only BENCHMARK.json and the benchmark's files: must fail, with
        # no result line.
        bare = os.path.join(work, "bare")
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        p = bench(["--workload", "paper_n800", "--seed", "1", "--seconds",
                   "1", "--trace", "0"], cwd=bare)
        assert p.returncode != 0 and '"correct"' not in p.stdout, p.stdout
        print("ok  fails without the library sources")
    finally:
        shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
