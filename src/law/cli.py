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
from typing import Any, Sequence

from . import gallery as gallery_mod
from .config import Config, load_config
from .errors import LawError
from .hierarchy import (
    CLASS_NAMES,
    check_class,
    consequence_presentation,
    find_protoalgebraic_witness,
    verify_protoalgebraic_witness,
)
from .logics import deductive_filters, filter_bounds, suszko_congruence
from .matrices import leibniz_congruence, matrix_product, reduce_matrix
from .algebra import congruences_bruteforce
from .serialize import (
    algebra_to_json,
    file_fingerprint,
    load_algebra,
    load_logic,
    load_matrix,
    load_translation,
    logic_to_json,
    matrix_to_json,
    partition_to_json,
    payload_to_json,
    dump_json,
)
from .translations import check_interpretation_bounded
from .verdicts import Verdict


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="law", description=__doc__)
    p.add_argument("--config", help="config JSON path (defaults to $LAW_CONFIG)")
    sub = p.add_subparsers(dest="command", required=True)

    leib = sub.add_parser("leibniz", help="Leibniz congruence of a matrix")
    leib.add_argument("-m", "--matrix", required=True)

    susz = sub.add_parser("suszko", help="Suszko congruence of a filter")
    susz.add_argument("-l", "--logic", required=True)
    susz.add_argument("-a", "--algebra", required=True)
    susz.add_argument("--filter", required=True, help="comma-separated elements, empty for {}")

    filt = sub.add_parser("filters", help="deductive filters of a logic on an algebra")
    filt.add_argument("-l", "--logic", required=True)
    filt.add_argument("-a", "--algebra", required=True)

    red = sub.add_parser("reduce", help="reduce a matrix by its Leibniz congruence")
    red.add_argument("-m", "--matrix", required=True)

    prod = sub.add_parser("product", help="non-indexed product of logics or matrices")
    prod.add_argument("-l", "--logic", action="append", default=[])
    prod.add_argument("-m", "--matrix", action="append", default=[])

    chk = sub.add_parser("check", help="bounded class check or witness search")
    chk.add_argument("cls", metavar="CLASS", choices=CLASS_NAMES + ("protoalgebraic",))
    chk.add_argument("-l", "--logic", required=True)
    chk.add_argument("-i", "--inventory", action="append", required=True,
                     help="algebra JSON file or directory of them (repeatable)")
    chk.add_argument("--depth", type=_positive_int, default=None)
    chk.add_argument("--max-set", type=int, default=2)
    chk.add_argument("--recheck", action="store_true",
                     help="re-verify an embedded witness before reporting")

    interp = sub.add_parser("interpret", help="bounded interpretation check")
    interp.add_argument("-t", "--translation", required=True)
    interp.add_argument("--from", dest="source", required=True)
    interp.add_argument("--to", dest="target", required=True)
    interp.add_argument("-i", "--inventory", action="append", required=True)
    interp.add_argument("--recheck", action="store_true")

    gal = sub.add_parser("gallery", help="write a gallery entry to a directory")
    gal.add_argument("name", choices=gallery_mod.GALLERY_NAMES)
    gal.add_argument("--param", action="append", default=[], help="k=v (repeatable)")
    gal.add_argument("--out", required=True)

    orc = sub.add_parser("oracle", help="brute-force oracles")
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


def _inventory_paths(args_inventory: Sequence[str]) -> list[str]:
    paths: list[str] = []
    for item in args_inventory:
        if os.path.isdir(item):
            paths.extend(sorted(glob.glob(os.path.join(item, "*.json"))))
        else:
            paths.append(item)
    if not paths:
        raise LawError("empty inventory")
    return paths


def _parse_filter(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(x) for x in text.split(","))


def _exit_for(verdict: Verdict) -> int:
    return 0 if verdict.holds else 1


def run(argv: Sequence[str], stdout=None, stderr=None) -> int:
    """Execute one CLI invocation; returns the exit code."""
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    started = time.monotonic()
    try:
        args = _parser().parse_args(list(argv))
    except SystemExit as exc:  # argparse already printed usage
        return 2 if exc.code else 0
    try:
        config = load_config(args.config)
        code, result, inputs, summary = _dispatch(args, config)
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


def _dispatch(args, config: Config) -> tuple[int, Any, dict, str]:
    cmd = args.command
    depth = getattr(args, "depth", None)
    if depth is None:
        depth = config.depth_default

    if cmd == "leibniz":
        m = load_matrix(args.matrix)
        p = leibniz_congruence(m)
        return (
            0,
            {"partition": partition_to_json(p)},
            {args.matrix: file_fingerprint(args.matrix)},
            f"leibniz congruence has {p.num_blocks} blocks",
        )

    if cmd == "suszko":
        logic = load_logic(args.logic)
        alg = load_algebra(args.algebra)
        filt = _parse_filter(args.filter)
        p = suszko_congruence(logic, alg, filt, oracle_max=config.oracle_max,
                              depth_cap=config.depth_default,
                              cell_budget=config.closure_cell_budget)
        return (
            0,
            {
                "partition": partition_to_json(p),
                "bounds": filter_bounds(logic, alg, config.depth_default,
                                        config.closure_cell_budget),
            },
            {path: file_fingerprint(path) for path in (args.logic, args.algebra)},
            f"suszko congruence has {p.num_blocks} blocks",
        )

    if cmd == "filters":
        logic = load_logic(args.logic)
        alg = load_algebra(args.algebra)
        filters = deductive_filters(logic, alg, oracle_max=config.oracle_max,
                                    depth_cap=config.depth_default,
                                    cell_budget=config.closure_cell_budget)
        return (
            0,
            {
                "filters": [list(f) for f in filters],
                "bounds": filter_bounds(logic, alg, config.depth_default,
                                        config.closure_cell_budget),
            },
            {path: file_fingerprint(path) for path in (args.logic, args.algebra)},
            f"{len(filters)} deductive filters",
        )

    if cmd == "reduce":
        m = load_matrix(args.matrix)
        reduced, omega = reduce_matrix(m)
        return (
            0,
            {"matrix": matrix_to_json(reduced), "partition": partition_to_json(omega)},
            {args.matrix: file_fingerprint(args.matrix)},
            f"reduced to size {reduced.algebra.size}",
        )

    if cmd == "product":
        if args.logic and not args.matrix:
            if len(args.logic) != 2:
                raise LawError("product needs exactly two -l arguments")
            l1, l2 = (load_logic(p) for p in args.logic)
            out = gallery_mod.product_of_logics(l1, l2, cap=config.product_max)
            return (
                0,
                {"logic": logic_to_json(out)},
                {p: file_fingerprint(p) for p in args.logic},
                f"product logic with {len(out.matrices)} defining matrices",
            )
        if args.matrix and not args.logic:
            if len(args.matrix) != 2:
                raise LawError("product needs exactly two -m arguments")
            m1, m2 = (load_matrix(p) for p in args.matrix)
            out = matrix_product(m1, m2, cap=config.product_max)
            return (
                0,
                {"matrix": matrix_to_json(out)},
                {p: file_fingerprint(p) for p in args.matrix},
                f"product matrix of size {out.algebra.size}",
            )
        raise LawError("product needs two -l files or two -m files")

    if cmd == "check":
        logic = load_logic(args.logic)
        paths = _inventory_paths(args.inventory)
        inventory = [load_algebra(p) for p in paths]
        inputs = {args.logic: file_fingerprint(args.logic)}
        inputs.update({p: file_fingerprint(p) for p in paths})
        if args.cls == "protoalgebraic":
            witness = find_protoalgebraic_witness(
                logic, depth=depth, max_set=args.max_set,
                inventory=inventory, depth_cap=config.depth_default,
            )
            if witness is None:
                return (
                    1,
                    {"status": "unknown_within_bounds",
                     "bounds": {"depth": depth, "max_set": args.max_set}},
                    inputs,
                    "no witness within bounds",
                )
            if args.recheck:
                consequence = consequence_presentation(logic, inventory, config.depth_default)
                if not verify_protoalgebraic_witness(consequence, witness.terms):
                    raise LawError("witness failed the recheck pass")
            return (
                0,
                {"status": "holds", "witness": witness.to_json(),
                 "bounds": {"depth": depth, "max_set": args.max_set}},
                inputs,
                "witness found",
            )
        verdict = check_class(args.cls, logic, inventory, depth=depth,
                              max_set=args.max_set, oracle_max=config.oracle_max)
        if args.recheck and verdict.fails:
            again = check_class(args.cls, logic, inventory, depth=depth,
                                max_set=args.max_set, oracle_max=config.oracle_max)
            if not again.fails:
                raise LawError("witness failed the recheck pass")
        return (
            _exit_for(verdict),
            payload_to_json(verdict),
            inputs,
            f"{args.cls}: {verdict.status}",
        )

    if cmd == "interpret":
        tau = load_translation(args.translation)
        source = load_logic(args.source)
        target = load_logic(args.target)
        paths = _inventory_paths(args.inventory)
        inventory = [load_algebra(p) for p in paths]
        verdict = check_interpretation_bounded(tau, source, target, inventory,
                                               depth_cap=config.depth_default)
        if args.recheck and verdict.fails:
            again = check_interpretation_bounded(tau, source, target, inventory,
                                                 depth_cap=config.depth_default)
            if not again.fails:
                raise LawError("witness failed the recheck pass")
        inputs = {p: file_fingerprint(p)
                  for p in [args.translation, args.source, args.target] + paths}
        return (_exit_for(verdict), payload_to_json(verdict), inputs,
                f"interpretation: {verdict.status}")

    if cmd == "gallery":
        params = {}
        for item in args.param:
            if "=" not in item:
                raise LawError(f"bad --param {item!r}, expected k=v")
            k, v = item.split("=", 1)
            params[k] = int(v)
        entry = gallery_mod.build(args.name, params)
        os.makedirs(args.out, exist_ok=True)
        files = {}
        if entry.logic is not None:
            path = os.path.join(args.out, f"{entry.name}.logic.json")
            dump_json(path, logic_to_json(entry.logic))
            files["logic"] = os.path.basename(path)
        for i, m in enumerate(entry.matrices):
            path = os.path.join(args.out, f"{entry.name}.matrix{i}.json")
            dump_json(path, matrix_to_json(m))
            files[f"matrix{i}"] = os.path.basename(path)
        for i, alg in enumerate(entry.inventory):
            path = os.path.join(args.out, f"{entry.name}.inv{i}.json")
            dump_json(path, algebra_to_json(alg))
            files[f"inventory{i}"] = os.path.basename(path)
        manifest = {
            "name": entry.name,
            "params": dict(entry.params),
            "provenance": entry.provenance,
            "files": files,
            "expectations": payload_to_json(list(entry.expectations)),
        }
        manifest_path = os.path.join(args.out, f"{entry.name}.manifest.json")
        dump_json(manifest_path, manifest)
        return (
            0,
            {"written": sorted(list(files.values()) + [os.path.basename(manifest_path)])},
            {},
            f"gallery entry {entry.name} written to {args.out}",
        )

    if cmd == "oracle":
        alg = load_algebra(args.algebra)
        congruences = congruences_bruteforce(alg, cap=config.oracle_max)
        return (
            0,
            {"congruences": [partition_to_json(p) for p in congruences]},
            {args.algebra: file_fingerprint(args.algebra)},
            f"{len(congruences)} congruences",
        )

    raise LawError(f"unknown command {cmd!r}")


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
