"""Command-line front end.

One JSON report per run on stdout, a short human summary (with wall time) on
stderr. Reports are byte-identical across runs on identical inputs and
config: maps are serialized with sorted keys, lists in canonical order, and
timing stays on stderr. Exit codes: 0 success/holds/witness found, 1
fails or witness absent within bounds, 2 input or cap error.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
import time
from typing import TYPE_CHECKING, Any, Callable, Sequence

from .algebra import FiniteAlgebra, congruences_bruteforce
from .config import Config, load_config
from .errors import LawError
from .matrices import leibniz_congruence, matrix_product, reduce_matrix
from .serialize import (
    file_fingerprint,
    load_algebra,
    load_logic,
    load_matrix,
    load_translation,
    logic_to_json,
    matrix_to_json,
    partition_to_json,
    payload_to_json,
)

if TYPE_CHECKING:
    from .verdicts import Verdict


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="law", description=__doc__)
    p.add_argument("--config", help="config JSON path (defaults to $LAW_CONFIG)")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name: str, handler, help: str) -> argparse.ArgumentParser:
        parser = sub.add_parser(name, help=help)
        parser.set_defaults(handler=handler)
        return parser

    leib = command("leibniz", _leibniz, "Leibniz congruence of a matrix")
    leib.add_argument("-m", "--matrix", required=True)

    susz = command("suszko", _suszko, "Suszko congruence of a filter")
    susz.add_argument("-l", "--logic", required=True)
    susz.add_argument("-a", "--algebra", required=True)
    susz.add_argument("--filter", required=True, help="comma-separated elements, empty for {}")

    filt = command("filters", _filters, "deductive filters of a logic on an algebra")
    filt.add_argument("-l", "--logic", required=True)
    filt.add_argument("-a", "--algebra", required=True)

    red = command("reduce", _reduce, "reduce a matrix by its Leibniz congruence")
    red.add_argument("-m", "--matrix", required=True)

    prod = command("product", _product, "non-indexed product of logics or matrices")
    prod.add_argument("-l", "--logic", action="append", default=[])
    prod.add_argument("-m", "--matrix", action="append", default=[])

    chk = command("check", _check, "bounded hierarchy class check")
    chk.add_argument("cls", metavar="CLASS")
    chk.add_argument("-l", "--logic", required=True)
    chk.add_argument("-i", "--inventory", action="append", required=True,
                     help="algebra JSON file or directory of them (repeatable)")
    chk.add_argument("--depth", type=_positive_int, default=None)
    chk.add_argument("--max-set", type=_positive_int, default=2)
    chk.add_argument("--recheck", action="store_true",
                     help="re-verify an embedded witness before reporting")

    interp = command("interpret", _interpret, "bounded interpretation check")
    interp.add_argument("-t", "--translation", required=True)
    interp.add_argument("--from", dest="source", required=True)
    interp.add_argument("--to", dest="target", required=True)
    interp.add_argument("-i", "--inventory", action="append", required=True)
    interp.add_argument("--recheck", action="store_true")

    gal = command("gallery", _gallery, "write a gallery entry to a directory")
    gal.add_argument("name")
    gal.add_argument("--param", action="append", default=[], help="k=v (repeatable)")
    gal.add_argument("--out", required=True)

    orc = command("oracle", _oracle, "brute-force oracles")
    orc.add_argument("what", choices=["congruences"])
    orc.add_argument("-a", "--algebra", required=True)
    return p


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


class _Inputs(dict):
    """Path -> fingerprint of every input file a handler has loaded."""

    def load(self, loader: Callable[[str], Any], path: str) -> Any:
        value = loader(path)
        self[path] = file_fingerprint(path)
        return value


def run(argv: Sequence[str], stdout=None, stderr=None) -> int:
    """Execute one CLI invocation; returns the exit code."""
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    started = time.monotonic()
    try:
        args = _parser().parse_args(list(argv))
    except SystemExit as exc:  # argparse already printed usage
        return 2 if exc.code else 0
    inputs = _Inputs()
    try:
        config = load_config(args.config)
        code, result, summary = args.handler(args, config, inputs)
    except (LawError, OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
        report = {
            "command": list(argv),
            "error": f"{type(exc).__name__}: {exc}",
        }
        print(json.dumps(report, sort_keys=True, ensure_ascii=False, indent=2), file=stdout)
        print(f"error: {exc}", file=stderr)
        return 2
    report = {
        "command": list(argv),
        "inputs": inputs,
        "result": result,
    }
    print(json.dumps(report, sort_keys=True, ensure_ascii=False, indent=2), file=stdout)
    elapsed = time.monotonic() - started
    print(f"{summary} ({elapsed:.2f}s)", file=stderr)
    return code


# ---------------------------------------------------------------------------
# handlers: (args, config, inputs) -> (exit code, result, stderr summary)


def _leibniz(args, config: Config, inputs: _Inputs):
    p = leibniz_congruence(inputs.load(load_matrix, args.matrix))
    return 0, {"partition": partition_to_json(p)}, f"leibniz congruence has {p.num_blocks} blocks"


def _reduce(args, config: Config, inputs: _Inputs):
    reduced, omega = reduce_matrix(inputs.load(load_matrix, args.matrix))
    return (0, {"matrix": matrix_to_json(reduced), "partition": partition_to_json(omega)},
            f"reduced to size {reduced.algebra.size}")


def _with_filter_bounds(args, config: Config, inputs: _Inputs, sweep):
    """Load `-l` and `-a`, run `sweep(logic, alg, **caps)` for a (result,
    summary) pair and add the filter bounds to the result. The bounds come
    second, so the sweep's carrier cap and signature check report first."""
    from .logics import filter_bounds

    logic = inputs.load(load_logic, args.logic)
    alg = inputs.load(load_algebra, args.algebra)
    result, summary = sweep(logic, alg, **config.caps())
    result["bounds"] = filter_bounds(logic, alg, **config.caps())
    return 0, result, summary


def _filters(args, config: Config, inputs: _Inputs):
    from .logics import deductive_filters

    def sweep(logic, alg, **caps):
        filters = deductive_filters(logic, alg, **caps)
        return {"filters": [list(f) for f in filters]}, f"{len(filters)} deductive filters"

    return _with_filter_bounds(args, config, inputs, sweep)


def _suszko(args, config: Config, inputs: _Inputs):
    from .logics import suszko_congruence

    def sweep(logic, alg, **caps):
        p = suszko_congruence(logic, alg, _parse_filter(args.filter), **caps)
        return {"partition": partition_to_json(p)}, f"suszko congruence has {p.num_blocks} blocks"

    return _with_filter_bounds(args, config, inputs, sweep)


def _parse_filter(text: str) -> tuple[int, ...]:
    items = text.split(",") if text.strip() else []
    try:
        return tuple(map(int, items))
    except ValueError as exc:  # int() names the item
        raise LawError(f"bad --filter {text!r}: {exc}") from None


def _product(args, config: Config, inputs: _Inputs):
    if args.logic and not args.matrix:
        if len(args.logic) != 2:
            raise LawError("product needs exactly two -l arguments")
        from .logics import product_of_logics

        l1, l2 = (inputs.load(load_logic, p) for p in args.logic)
        out = product_of_logics(l1, l2, cap=config.product_max)
        return (0, {"logic": logic_to_json(out)},
                f"product logic with {len(out.matrices)} defining matrices")
    if args.matrix and not args.logic:
        if len(args.matrix) != 2:
            raise LawError("product needs exactly two -m arguments")
        m1, m2 = (inputs.load(load_matrix, p) for p in args.matrix)
        out = matrix_product(m1, m2, cap=config.product_max)
        return 0, {"matrix": matrix_to_json(out)}, f"product matrix of size {out.algebra.size}"
    raise LawError("product needs two -l files or two -m files")


def _inventory(items: Sequence[str], inputs: _Inputs) -> list[FiniteAlgebra]:
    """The algebras of the `-i` items: files, and the *.json files of directories."""
    paths: list[str] = []
    for item in items:
        if os.path.isdir(item):
            paths.extend(sorted(glob.glob(os.path.join(item, "*.json"))))
        else:
            paths.append(item)
    if not paths:
        raise LawError("empty inventory")
    return [inputs.load(load_algebra, p) for p in paths]


def _verdict_report(recheck: bool, check: Callable[[], Verdict], label: str):
    """Report `check()`. With `recheck`, a Fails verdict is computed once
    more, and the run errs unless it fails again."""
    verdict = check()
    if recheck and verdict.fails and not check().fails:
        raise LawError("witness failed the recheck pass")
    return (0 if verdict.holds else 1), payload_to_json(verdict), f"{label}: {verdict.status}"


def _check(args, config: Config, inputs: _Inputs):
    from .hierarchy import check_class

    logic = inputs.load(load_logic, args.logic)
    inventory = _inventory(args.inventory, inputs)
    config = config.override(depth_default=args.depth)
    return _verdict_report(
        args.recheck,
        lambda: check_class(args.cls, logic, inventory, args.max_set, config),
        args.cls,
    )


def _interpret(args, config: Config, inputs: _Inputs):
    from .translations import check_interpretation_bounded

    tau = inputs.load(load_translation, args.translation)
    source = inputs.load(load_logic, args.source)
    target = inputs.load(load_logic, args.target)
    inventory = _inventory(args.inventory, inputs)
    return _verdict_report(
        args.recheck,
        lambda: check_interpretation_bounded(tau, source, target, inventory, config),
        "interpretation",
    )


def _gallery(args, config: Config, inputs: _Inputs):
    from . import gallery

    params = {}
    for item in args.param:
        key, eq, value = item.partition("=")
        if not eq:
            raise LawError(f"bad --param {item!r}, expected k=v")
        try:
            params[key] = int(value)
        except ValueError:
            raise LawError(f"bad --param {item!r}, the value must be an integer") from None
    entry = gallery.build(args.name, params)
    return (0, {"written": gallery.write_entry(entry, args.out)},
            f"gallery entry {entry.name} written to {args.out}")


def _oracle(args, config: Config, inputs: _Inputs):
    congruences = congruences_bruteforce(inputs.load(load_algebra, args.algebra),
                                         cap=config.oracle_max)
    return (0, {"congruences": [partition_to_json(p) for p in congruences]},
            f"{len(congruences)} congruences")


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":  # `python -m law`: the handlers import their layers
    main()
else:  # imported as law.cli: bench/tracing.py wraps every layer it finds loaded
    from . import clone, gallery, hierarchy, logics, translations, verdicts  # noqa: F401
