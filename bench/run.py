"""The law benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size full|tiny]
    python3 bench/run.py --compare DIR_A DIR_B

Run from the root of a checkout; the program is imported from its ``src/``.
A run sets up the workload (imports, gallery builds, input generation and
input files) `SETUP_REPEATS` times, spread over the run, and runs passes over
the seeded job list while another pass fits in ``--seconds`` and until
`MIN_JOBS` jobs have run (at least one pass). It checks every job's output,
prints every metric by name with its unit, writes a record of the run
(environment included) to ``bench/out/runs`` or ``--out``, and prints one
JSON line last. With ``--trace 1`` the run measures untraced passes for half
of ``--seconds``, then sets up and runs one more pass with every layer
wrapped, and reports the per-layer metrics. Untraced times are scaled to
the host's reference speed by the probes of `speed.py`. The exit code is 1
when any job failed its check or raised, 2 on bad use.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import speed

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SETUP_REPEATS = 5
# job_p90_ms needs at least ten latencies beyond it; only cli-cold, whose
# passes are short lists of slow jobs, ever runs longer because of this.
MIN_JOBS = 100


def parse_args(argv):
    p = argparse.ArgumentParser(prog="bench/run.py", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs every workload in seconds (used by smoke.py)")
    p.add_argument("--out", default=os.path.join(BENCH, "out", "runs"),
                   help="directory for the run records")
    p.add_argument("--compare", nargs=2, metavar=("DIR_A", "DIR_B"),
                   help="compare two directories of run records")
    return p.parse_args(argv)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# measuring


class Samples:
    """Everything one run measures: each job's time at every execution,
    pass times and set-up times, each with the speed probes around it, and
    failures. Times exclude the probes that interrupted them."""

    def __init__(self, probing: bool = True):
        self.speed = speed.Speedometer()
        self.probing = probing
        self.executions: dict[str, list[tuple]] = {}  # job name -> (seconds, before, after)
        self.walls: list[float] = []
        self.setup_marks: list[tuple] = []
        self.jobs_per_pass = 0
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, setup, seconds: float, min_jobs: int, min_setups: int,
            import_probe=None, tracer=None) -> None:
        """Run passes while another pass is expected to end within `seconds`
        and until `min_jobs` jobs have run; at least one. Set up anew before
        each of the first `min_setups` passes, and after the last pass until
        there are `min_setups` set-up times, so that they spread over the
        run. A set-up time includes the import time `import_probe` measures."""
        if self.probing:
            self.speed.start()
        try:
            start = time.perf_counter()
            while True:
                if len(self.setup_marks) < min_setups:
                    jobs = self.setup(setup, import_probe)
                reset_caches()
                self.walls.append(self.run_pass(jobs, tracer))
                spent = time.perf_counter() - start
                if spent + spent / len(self.walls) > seconds and self.attempted >= min_jobs:
                    break
            while len(self.setup_marks) < min_setups:
                self.setup(setup, import_probe)
        finally:
            if self.probing:
                self.speed.stop()
                self.speed.probe()  # the probe after the last piece of work

    def setup(self, setup, import_probe):
        imports = import_probe() if import_probe is not None else (0.0, 0.0)
        before = self.speed.mark()
        jobs = setup()
        after = self.speed.mark()
        self.setup_marks.append((imports, self.speed.elapsed(before, after), before, after))
        self.jobs_per_pass = len(jobs)
        return jobs

    def run_pass(self, jobs, tracer) -> float:
        before = self.speed.mark()
        for index, job in enumerate(jobs):
            self.run_job(index, job, tracer)
        return self.speed.elapsed(before, self.speed.mark())

    def run_job(self, index, job, tracer) -> None:
        if tracer is not None:
            tracer.job = index
        before = self.speed.mark()
        try:
            out = job.run()
            raised = None
        except Exception:  # a raising job is a failed job, not a crashed run
            raised = traceback.format_exc(limit=3)
        after = self.speed.mark()
        problem = raised if raised is not None else job.check(out)
        self.executions.setdefault(job.name, []).append(
            (self.speed.elapsed(before, after), before, after))
        self.attempted += 1
        if problem:
            self.failures.append(f"{job.name}: {problem}")

    def latencies(self) -> dict[str, list[float]]:
        """Each job's executions in seconds at the reference speed."""
        return {name: [self.speed.scale(*e) for e in runs]
                for name, runs in self.executions.items()}

    def setups(self) -> list[float]:
        """Set-up times in seconds at the reference speed."""
        return [imports[1] + self.speed.scale(*rest) for imports, *rest in self.setup_marks]

    def raw_setups(self) -> list[float]:
        return [imports[0] + seconds for imports, seconds, _, _ in self.setup_marks]


def reset_caches() -> None:
    """Empty every functools cache in law, so each pass does the same work."""
    for name, mod in list(sys.modules.items()):
        if name == "law" or name.startswith("law."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


IMPORT_PROBE = """
import speed
meter = speed.Speedometer()
meter.start()
before = meter.mark()
import numpy, law.cli
after = meter.mark()
meter.stop()
meter.probe()
seconds = meter.elapsed(before, after)
print(seconds, meter.scale(seconds, before, after))
"""


def import_seconds() -> tuple[float, float]:
    """`import numpy, law.cli` timed in a fresh interpreter, so that every
    set-up repeat pays the imports the run itself paid once: the time less
    the speed probes, and that time at the reference speed, which the child
    probes itself."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), BENCH]))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    seconds, scaled = proc.stdout.split()
    return float(seconds), float(scaled)


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end(samples: Samples, children: bool) -> dict:
    """A job's latency is the median of its executions, each in seconds at
    the reference speed (speed.py): the host's speed drifts by tens of
    percent within seconds and from one minute to the next."""
    latencies = samples.latencies()
    per_job = [statistics.median(lat) for lat in latencies.values()]
    pool = per_job
    if len(per_job) < MIN_JOBS:  # cli-cold: 17 distinct calls, each run six times or more
        pool = [x for lat in latencies.values() for x in lat]
    pool_ms = sorted(x * 1000.0 for x in pool)
    return {
        "wall_s": sum(per_job),
        "job_p50_ms": statistics.median(pool_ms),
        "job_p90_ms": statistics.quantiles(pool_ms, n=10)[8],
        "setup_s": statistics.median(samples.setups()),
        "peak_rss_mb": peak_rss_mb(children),
    }


def slowest_jobs(samples: Samples, count: int = 20) -> list:
    """The `count` slowest distinct jobs: name, median time as measured and
    at the reference speed, and number of executions."""
    rows = [(name, statistics.median(e[0] for e in runs),
             statistics.median(samples.speed.scale(*e) for e in runs), len(runs))
            for name, runs in samples.executions.items()]
    return sorted(rows, key=lambda row: -row[2])[:count]


def layer_metrics(snap: dict, imports: dict, overhead_ratio: float,
                  process_overhead_ms: float) -> dict:
    busy, calls, counts, self_s = snap["busy"], snap["calls"], snap["counts"], snap["self_s"]

    def b(*names):
        return sum(busy.get(n, 0.0) for n in names)

    def c(*names):
        return sum(calls.get(n, 0) for n in names)

    partition_ops = [n for n in busy if n.startswith("partitions.")]
    tried = counts.get("algebra.enumerate_algebras.tried", 0)
    pairs = counts.get("logics.closure.pairs", 0)
    out = {f"{layer}.self_s": self_s.get(layer, 0.0)
           for layer in ("terms", "hierarchy", "algebra", "partitions", "matrices",
                         "logics", "translations")}
    for name in ("terms.substitute", "terms.variables", "hierarchy.chain_entails",
                 "algebra.largest_congruence_below", "algebra.eval_term",
                 "matrices.leibniz_congruence", "logics.entails"):
        out[f"{name}.calls"] = c(name)
        out[f"{name}.busy_s"] = b(name)
    for name in ("terms.enumerate_terms", "hierarchy.derive_theorems",
                 "hierarchy.check_admissibility_bounded", "hierarchy.check_class",
                 "hierarchy.find_protoalgebraic_witness", "hierarchy.find_injective_theorem",
                 "algebra.enumerate_algebras", "algebra.congruences_bruteforce",
                 "matrices.subuniverses", "matrices.find_isomorphism",
                 "logics.reduced_filters_on", "logics.suszko_congruence", "logics.is_model",
                 "translations.check_interpretation_bounded", "translations.tau_reduct",
                 "gallery.build", "gallery.verify_entry", "cli.run"):
        out[f"{name}.busy_s"] = b(name)
    out.update({
        "terms.enumerate_terms.yielded": counts.get("terms.enumerate_terms.yielded", 0),
        "hierarchy.derive_theorems.theorems": counts.get("hierarchy.derive_theorems.theorems", 0),
        "hierarchy.admissibility.oracle_calls":
            counts.get("hierarchy.admissibility.oracle_calls", 0),
        "algebra.enumerate_algebras.kept_ratio":
            counts.get("algebra.enumerate_algebras.yielded", 0) / tried if tried else 0.0,
        "partitions.ops.calls": c(*partition_ops),
        "partitions.ops.busy_s": b(*partition_ops),
        "logics.deductive_filters.calls": c("logics.deductive_filters"),
        "logics.deductive_filters.first_busy_s":
            counts.get("logics.deductive_filters.first_busy_s", 0.0),
        "logics.deductive_filters.repeat_busy_s":
            counts.get("logics.deductive_filters.repeat_busy_s", 0.0),
        "logics.closure.saturated_ratio":
            counts.get("logics.closure.saturated", 0) / pairs if pairs else 0.0,
        "serialize.load.busy_s": b("serialize.load_algebra", "serialize.load_matrix",
                                   "serialize.load_logic", "serialize.load_translation"),
        "serialize.dump.busy_s": b("serialize.dump_json"),
        "cli.process_overhead_ms": process_overhead_ms,
        "cli.import_law_ms": imports["law"] * 1000.0,
        "cli.import_numpy_ms": imports["numpy"] * 1000.0,
        "trace.overhead_ratio": overhead_ratio,
    })
    return out


# ---------------------------------------------------------------------------
# environment


def environment(args, seconds: float, params: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git": git_state(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "size": args.size,
        "setup_repeats": SETUP_REPEATS,
        "params": params,
    }


def git_state() -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
        if sha.returncode != 0:
            return {"sha": None, "dirty": None}
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}
    return {"sha": sha.stdout.strip(), "dirty": bool(status.stdout.strip())}


# ---------------------------------------------------------------------------
# one run


def run_workload(args, spec: dict) -> int:
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "law", "__init__.py")):
        print(f"no program to measure: {src}/law is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    import law.cli  # noqa: F401

    t2 = time.perf_counter()
    imports = {"numpy": t1 - t0, "law": t2 - t1}
    if not os.path.abspath(law.cli.__file__).startswith(src + os.sep):
        print(f"law was imported from {law.cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    workdir = os.path.join(BENCH, "out", f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return measure(args, spec, seconds, imports, workdir, tracing, workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, spec, seconds, imports, workdir, tracing, workloads) -> int:
    cli = args.workload == "cli-cold"
    if cli:
        runner = workloads.CliCold(ROOT)
        setup_fn = runner.setup
    else:
        setup_fn = workloads.IN_PROCESS[args.workload]
    env = environment(args, seconds, workloads.parameters(args.workload, args.size))

    def setup(tracer=None):
        return setup_fn(args.size, args.seed, tracer, workdir)

    samples = Samples()
    min_jobs = MIN_JOBS if args.size == "full" else 1
    samples.run(setup, seconds / 2 if args.trace else seconds, min_jobs, SETUP_REPEATS,
                import_probe=import_seconds)
    record = {"environment": env, "jobs_per_pass": samples.jobs_per_pass,
              "passes": len(samples.walls), "distinct_jobs": len(samples.executions)}
    if not args.trace:
        values = end_to_end(samples, children=cli)
        metric_spec = spec["end_to_end"]
    else:
        tracer = tracing.Tracer()
        traced = Samples(probing=False)
        reset_caches()
        tracer.install()
        try:
            traced.run(lambda: setup(tracer), 0.0, 0, 1, tracer=tracer)
        finally:
            tracer.uninstall()
        tracer.closure_saturation()
        samples.attempted += traced.attempted
        samples.failures += traced.failures
        children = runner.children if cli else []
        snap = tracing.merge([tracer.snapshot()] + children)
        if cli:
            imports = {
                "numpy": statistics.median(ch["import_numpy_s"] for ch in children),
                "law": statistics.median(ch["import_law_s"] for ch in children),
            }
            process_ms = statistics.median(
                (ch["wall_s"] - ch["busy"].get("cli.run", 0.0)) * 1000.0 for ch in children)
        else:
            process_ms = 0.0
        untraced_wall = statistics.median(samples.walls)
        values = layer_metrics(snap, imports, traced.walls[0] / untraced_wall, process_ms)
        metric_spec = spec["per_layer"]
        record.update(traced_setup_s=traced.raw_setups()[0], traced_wall_s=traced.walls[0],
                      untraced_wall_s=untraced_wall)
        os.makedirs(args.out, exist_ok=True)
        trace_path = os.path.join(args.out, f"{args.workload}-seed{args.seed}.trace.json")
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(dict(snap, environment=env), fh)
        record["trace_file"] = os.path.relpath(trace_path, ROOT)

    missing = [m["name"] for m in metric_spec if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_spec}
    failed = len(samples.failures)
    result = {"correct": failed == 0, "attempted": samples.attempted, "failed": failed,
              "metrics": metrics}
    record.update(result, failures=samples.failures[:20], pass_walls_s=samples.walls,
                  setup_times_s=samples.raw_setups(), imports_s=imports,
                  slowest_jobs_s=slowest_jobs(samples),
                  speed_probes=len(samples.speed.durations),
                  probe_median_s=statistics.median(samples.speed.durations))
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  seconds {seconds:g}  "
          f"trace {args.trace}  size {args.size}")
    print("environment " + json.dumps(env, sort_keys=True, ensure_ascii=False))
    print(f"passes {len(samples.walls)}  jobs per pass {samples.jobs_per_pass}  distinct jobs "
          f"{len(samples.executions)}  attempted {samples.attempted}  failed {failed}  "
          f"failed_frac {failed / samples.attempted:g}")
    for problem in samples.failures[:10]:
        print(f"FAILED {problem}")
    width = max(len(name) for name in metrics)
    for name, m in metrics.items():
        print(f"  {name:<{width}}  {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        spec = load_spec()
    except OSError as exc:
        print(f"cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.compare:
        import compare

        return compare.compare(args.compare[0], args.compare[1], spec)
    if not args.workload:
        print("--workload is required", file=sys.stderr)
        return 2
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
