"""Layer tracing for the benchmark's traced runs.

`Tracer.install` wraps the public functions of every law module at each
binding a law module holds (so ``from .terms import substitute`` inside
``hierarchy`` is wrapped too), plus the public methods of ``Partition``.
Layer names are module names. Per function it keeps the number of
outermost calls and their busy time; a recursive function is timed at its
outermost call only. Per layer it keeps self time: busy time minus the time
spent in wrapped calls made from inside. Spans (name, start, end, parent,
job id) are kept only for calls of at least `SPAN_MIN_S`. Everything stays
in memory; the run writes a snapshot to a side file when it ends.
"""

from __future__ import annotations

import inspect
import sys
import time

LAYERS = (
    "terms",
    "partitions",
    "algebra",
    "matrices",
    "logics",
    "translations",
    "hierarchy",
    "gallery",
    "serialize",
    "cli",
)

# O(1) helpers called once per term node or carrier element. Wrapping them
# would multiply the cost of the traced run; their time counts as their
# caller's self time.
UNWRAPPED = frozenset({
    "terms.depth",
    "algebra.product_encode",
    "algebra.product_decode",
    "algebra.pair_symbol",
    "partitions.Partition.block_of",
    "partitions.Partition.related",
})

SPAN_MIN_S = 1e-3
MAX_SPANS = 200_000


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.self_s: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.counts: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.job = None
        self._stack: list[list] = []
        self._active: set[str] = set()
        self._next_id = 0
        self._restore: list[tuple] = []
        self._filter_keys: set = set()
        self.filter_pairs: list[tuple] = []

    # -- counters the benchmark feeds directly --------------------------

    def add(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def counting(self, name: str, fn):
        """`fn` with every call counted under `name`."""

        def counted(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        import law.cli  # noqa: F401  (loads every layer)

        holders = [m for n, m in sorted(sys.modules.items())
                   if n == "law" or n.startswith("law.")]
        for layer in LAYERS:
            mod = sys.modules[f"law.{layer}"]
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__ or f"{layer}.{attr}" in UNWRAPPED:
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", layer, obj)
                for holder in holders:
                    for name, value in list(vars(holder).items()):
                        if value is obj:
                            self._set(holder, name, wrapped)
        partition = sys.modules["law.partitions"].Partition
        for attr, raw in list(vars(partition).items()):
            fname = f"partitions.Partition.{attr}"
            if attr.startswith("_") or fname in UNWRAPPED:
                continue
            if isinstance(raw, staticmethod):
                self._set(partition, attr,
                          staticmethod(self._wrap(fname, "partitions", raw.__func__)))
            elif inspect.isfunction(raw):
                self._set(partition, attr, self._wrap(fname, "partitions", raw))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _set(self, owner, name, value) -> None:
        self._restore.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _wrap(self, fname: str, layer: str, fn):
        self.calls.setdefault(fname, 0)
        self.busy.setdefault(fname, 0.0)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fname, layer, fn)
        after = self._after_hook(fname, fn)
        tracer = self
        perf = time.perf_counter
        active = self._active
        stack = self._stack
        calls, busy, self_s = self.calls, self.busy, self.self_s

        def wrapper(*args, **kwargs):
            if fname in active:
                return fn(*args, **kwargs)
            active.add(fname)
            frame = [0.0, None]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                elapsed = end - start
                stack.pop()
                active.discard(fname)
                calls[fname] += 1
                busy[fname] += elapsed
                self_s[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if elapsed >= SPAN_MIN_S:
                    tracer._span(fname, start, end, frame)
            if after is not None:
                after(args, kwargs, result, elapsed)
            return result

        return wrapper

    def _wrap_generator(self, fname: str, layer: str, fn):
        tracer = self
        perf = time.perf_counter
        stack = self._stack
        calls, busy, self_s, counts = self.calls, self.busy, self.self_s, self.counts
        on_exhaust = self._exhaust_hook(fname, fn)

        def wrapper(*args, **kwargs):
            calls[fname] += 1
            it = fn(*args, **kwargs)
            yielded = 0
            try:
                while True:
                    frame = [0.0, None]
                    stack.append(frame)
                    start = perf()
                    try:
                        item = next(it)
                    except StopIteration:
                        if on_exhaust is not None:
                            on_exhaust(args, kwargs)
                        return
                    finally:
                        end = perf()
                        elapsed = end - start
                        stack.pop()
                        busy[fname] += elapsed
                        self_s[layer] += elapsed - frame[0]
                        if stack:
                            stack[-1][0] += elapsed
                        if elapsed >= SPAN_MIN_S:
                            tracer._span(fname, start, end, frame)
                    yielded += 1
                    yield item
            finally:
                counts[f"{fname}.yielded"] = counts.get(f"{fname}.yielded", 0) + yielded
                it.close()

        return wrapper

    def _span(self, fname, start, end, frame) -> None:
        if len(self.spans) >= MAX_SPANS:
            self.counts["trace.spans_dropped"] = self.counts.get("trace.spans_dropped", 0) + 1
            return
        parent = None
        if self._stack:
            parent_frame = self._stack[-1]
            if parent_frame[1] is None:
                parent_frame[1] = self._new_id()
            parent = parent_frame[1]
        if frame[1] is None:
            frame[1] = self._new_id()
        self.spans.append((frame[1], fname, start, end, parent, self.job))

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    # -- per-function counters that need the arguments or the result ----

    def _after_hook(self, fname, fn):
        if fname == "hierarchy.derive_theorems":
            def after(args, kwargs, result, elapsed):
                self.add("hierarchy.derive_theorems.theorems", len(result))
            return after
        if fname == "logics.deductive_filters":
            signature = inspect.signature(fn)

            def after(args, kwargs, result, elapsed):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
                key = (a["logic"], a["alg"], a["depth_cap"], a["cell_budget"])
                if key in self._filter_keys:
                    self.add("logics.deductive_filters.repeat_busy_s", elapsed)
                else:
                    self._filter_keys.add(key)
                    self.add("logics.deductive_filters.first_busy_s", elapsed)
                    if a["logic"].kind == "matrices":
                        self.filter_pairs.append(key)
            return after
        return None

    def _exhaust_hook(self, fname, fn):
        if fname == "algebra.enumerate_algebras":
            signature = inspect.signature(fn)

            def on_exhaust(args, kwargs):
                a = signature.bind(*args, **kwargs).arguments
                n = a["n"]
                cells = sum(n**arity for _, arity in a["sig"].symbols)
                self.add("algebra.enumerate_algebras.tried", n**cells)
            return on_exhaust
        return None

    # -- output -----------------------------------------------------------

    def closure_saturation(self) -> None:
        """Share of the traced bounded-filter closures that `filter_bounds`
        reports as not stopped by the cell budget. Run after `uninstall`."""
        from law.logics import filter_bounds

        reached = 0
        for logic, alg, depth_cap, cell_budget in self.filter_pairs:
            meta = filter_bounds(logic, alg, depth_cap, cell_budget)
            reached += meta["depth_effective"] == depth_cap
        self.add("logics.closure.pairs", len(self.filter_pairs))
        self.add("logics.closure.saturated", reached)

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "busy": dict(self.busy),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "spans": [list(s) for s in self.spans],
        }


def merge(snapshots) -> dict:
    """Sum several tracer snapshots (the parent and its children)."""
    out = {"calls": {}, "busy": {}, "self_s": {}, "counts": {}, "spans": []}
    for snap in snapshots:
        for key in ("calls", "busy", "self_s", "counts"):
            for name, value in snap[key].items():
                out[key][name] = out[key].get(name, 0) + value
        out["spans"].extend(snap["spans"])
    return out
