"""Compare two sets of untraced run records (``run.py --compare A B``).

For each workload and each end-to-end metric it prints both sides' median
and quartiles, the pairs B won (runs paired by seed; ties count for
neither), and a verdict against the metric's bound in BENCHMARK.json:

* ``unresolved``: either side's quartile spread exceeds the bound, and not
  every run of B is better than every run of A;
* ``worse``: B's median is worse than A's by more than the bound;
* ``better``: B won at least nine tenths of the pairs and the medians differ
  by more than A's quartile spread;
* ``same``: none of the above.

The exit code is 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import glob
import json
import os
import statistics


def load(directory: str) -> dict:
    """{workload: {seed: record}} for the untraced records in `directory`."""
    out: dict = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        env = record["environment"]
        out.setdefault(env["workload"], {})[env["seed"]] = record
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a, b, lower_is_better: bool, bound: float) -> tuple[str, int, int]:
    sign = 1.0 if lower_is_better else -1.0
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    pairs = list(zip(a, b))
    won = sum(sign * (y - x) < 0 for x, y in pairs)
    if (a3 - a1) / am > bound or (b3 - b1) / bm > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "better", won, len(pairs)
        return "unresolved", won, len(pairs)
    if sign * (bm - am) / am > bound:
        return "worse", won, len(pairs)
    if won >= 0.9 * len(pairs) and abs(bm - am) > (a3 - a1):
        return "better", won, len(pairs)
    return "same", won, len(pairs)


def compare(dir_a: str, dir_b: str, spec: dict) -> int:
    side_a, side_b = load(dir_a), load(dir_b)
    worse = False
    print(f"A = {dir_a}\nB = {dir_b}")
    for workload in [w["name"] for w in spec["workloads"]]:
        runs_a, runs_b = side_a.get(workload, {}), side_b.get(workload, {})
        if not runs_a or not runs_b:
            print(f"{workload}: no runs on {'A' if not runs_a else 'B'}")
            continue
        seeds = sorted(set(runs_a) & set(runs_b))
        if not seeds:
            print(f"{workload}: no seed was run on both sides")
            continue
        failed = [sum(r["failed"] for r in runs.values()) for runs in (runs_a, runs_b)]
        print(f"{workload}: {len(seeds)} paired seeds, failed jobs A {failed[0]} B {failed[1]}")
        for m in spec["end_to_end"]:
            name = m["name"]
            a = [runs_a[s]["metrics"][name]["value"] for s in seeds]
            b = [runs_b[s]["metrics"][name]["value"] for s in seeds]
            result, won, pairs = verdict(a, b, m["better"] == "lower", m["bound"])
            worse |= result == "worse"
            a1, am, a3 = quartiles(a)
            b1, bm, b3 = quartiles(b)
            print(f"  {name:<12} A {am:.6g} [{a1:.6g}, {a3:.6g}]  B {bm:.6g} [{b1:.6g}, {b3:.6g}]"
                  f" {m['unit']}  B won {won}/{pairs}  bound {m['bound']:.0%}  {result}")
    return 1 if worse else 0
