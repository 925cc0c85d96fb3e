"""Smoke test of the benchmark itself: ``python3 bench/smoke.py``.

Runs every workload at the tiny size, untraced and traced, and checks that
each run exits 0, reports no failed job, and emits exactly the metric names
BENCHMARK.json lists. Then checks that the benchmark refuses, with a nonzero
exit code and no result line, a directory holding only BENCHMARK.json and
the benchmark's own files. Takes well under a minute; exits 1 on a problem.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def run(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    with tempfile.TemporaryDirectory(dir=os.path.join(BENCH, "out")) as out:
        for workload in [w["name"] for w in spec["workloads"]]:
            for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
                proc = run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                           "--trace", trace, "--size", "tiny", "--out", out)
                label = f"{workload} trace {trace}"
                if proc.returncode != 0:
                    problems.append(f"{label}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
                    continue
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                want = [m["name"] for m in spec[kind]]
                if list(result["metrics"]) != want:
                    problems.append(f"{label}: metrics {sorted(result['metrics'])} != {want}")
                if result["failed"] or not result["correct"] or result["attempted"] < 1:
                    problems.append(f"{label}: failed_frac "
                                    f"{result['failed']}/{result['attempted']}")
                print(f"{label}: {result['attempted']} jobs, {result['failed']} failed")

        bare = tempfile.mkdtemp(dir=out)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(bare, "--workload", spec["workloads"][0]["name"], "--seed", "1",
                   "--seconds", "1", "--trace", "0")
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"without src/: exit {proc.returncode}, stdout {proc.stdout!r}")
        else:
            print(f"without src/: exit {proc.returncode}, no result line")
    for p in problems:
        print("PROBLEM", p)
    return 1 if problems else 0


if __name__ == "__main__":
    os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
    sys.exit(main())
