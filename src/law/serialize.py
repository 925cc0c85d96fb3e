"""JSON file formats and canonical, deterministic serialization.

Formats:

* algebra: ``{"name": str, "signature": {sym: arity}, "size": n,
  "ops": {sym: nested-array}}`` where nested array depth equals the arity
  and a nullary op is a bare integer
* matrix: ``{"algebra": <inline algebra | {"path": str}>, "filter": [ints]}``
* logic: ``{"signature": {...}, "kind": "rules"|"matrices",
  "rules": [{"premises": [sexpr], "conclusion": sexpr}],
  "matrices": [matrix], "variable_budget": int}``
* translation: ``{"source": sig, "target": sig, "map": {sym: sexpr}}``

Product carriers are indexed row-major with the first factor most
significant, matching `algebra.product_encode`.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import TYPE_CHECKING, Any, Callable

from .algebra import FiniteAlgebra
from .config import VARIABLE_BUDGET
from .errors import LawError
from .matrices import Matrix
from .partitions import Partition
from .terms import Signature, parse_term, to_sexpr

if TYPE_CHECKING:
    from .logics import LogicPresentation, Rule
    from .translations import Translation


def canonical_json(data: Any) -> str:
    return json.dumps(data, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def fingerprint(data: Any) -> str:
    return hashlib.sha256(canonical_json(data).encode("utf-8")).hexdigest()[:16]


def file_fingerprint(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# shapes: a value of the wrong JSON type raises LawError naming its field, and
# the loaders add the file


_TYPE_NAMES = {dict: "an object", list: "an array", str: "a string", int: "an integer",
               float: "a number", bool: "a boolean", type(None): "null"}


def _expect(value: Any, kind: type, what: str) -> Any:
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        got = _TYPE_NAMES.get(type(value), type(value).__name__)
        raise LawError(f"{what} must be {_TYPE_NAMES[kind]}, got {got}")
    return value


def _field(data: dict, name: str, kind: type) -> Any:
    """`data[name]` checked to be of `kind`; a KeyError names a missing field."""
    return _expect(data[name], kind, f"field {name!r}")


def _items(items: Any, kind: type, name: str) -> list:
    """The value of array field `name`, each item checked to be of `kind`."""
    _expect(items, list, f"field {name!r}")
    return [_expect(item, kind, f"each item of field {name!r}") for item in items]


def _signature(data: dict, name: str) -> Signature:
    arities = _field(data, name, dict)
    return Signature({str(k): _expect(v, int, f"arity of {k!r} in field {name!r}")
                      for k, v in arities.items()})


# ---------------------------------------------------------------------------
# algebras


def _nest(cells: tuple[int, ...], size: int, arity: int):
    if arity == 0:
        return cells[0]
    if arity == 1:
        return list(cells)
    span = size ** (arity - 1)
    return [_nest(cells[i * span : (i + 1) * span], size, arity - 1) for i in range(size)]


def _flatten(nested, arity: int, sym: str, at: str = "") -> list[int]:
    """The cells of `sym`'s table, row-major; `at` is the index path so far."""
    if arity == 0:
        cell = f"cell {at} of {sym!r}" if at else f"nullary op {sym!r}"
        return [_expect(nested, int, f"{cell} in field 'ops'")]
    if not isinstance(nested, list):
        raise LawError("operation table must nest to the arity")
    out: list[int] = []
    for i, item in enumerate(nested):
        out.extend(_flatten(item, arity - 1, sym, f"{at}[{i}]"))
    return out


def algebra_to_json(alg: FiniteAlgebra) -> dict:
    sig = alg.signature.as_dict()
    return {
        "name": alg.name,
        "signature": sig,
        "size": alg.size,
        "ops": {sym: _nest(alg.table(sym), alg.size, sig[sym]) for sym in sorted(sig)},
    }


def algebra_from_json(data: dict) -> FiniteAlgebra:
    data = _expect(data, dict, "the document")
    sig = _signature(data, "signature")
    size = _field(data, "size", int)
    ops = _field(data, "ops", dict)
    stray = next((sym for sym in sorted(ops) if sym not in sig), None)
    if stray is not None:
        raise LawError(f"field 'ops' has a table for {stray!r}, which the signature lacks")
    missing = next((sym for sym in sig.names() if sym not in ops), None)
    if missing is not None:
        raise LawError(f"field 'ops' has no table for {missing!r}")
    tables = {sym: tuple(_flatten(ops[sym], arity, sym)) for sym, arity in sig.symbols}
    return FiniteAlgebra(sig, size, tables, name=str(data.get("name", "")))


def algebra_fingerprint(alg: FiniteAlgebra) -> str:
    data = algebra_to_json(alg)
    data.pop("name", None)
    return fingerprint(data)


# ---------------------------------------------------------------------------
# matrices, partitions


def matrix_to_json(m: Matrix) -> dict:
    return {"algebra": algebra_to_json(m.algebra), "filter": list(m.filter)}


def matrix_from_json(data: dict, base_dir: str = ".") -> Matrix:
    data = _expect(data, dict, "the document")
    algdata = _field(data, "algebra", dict)
    if "path" in algdata:
        alg = load_algebra(os.path.join(base_dir, _field(algdata, "path", str)))
    else:
        alg = algebra_from_json(algdata)
    return Matrix(alg, _items(data["filter"], int, "filter"))


def partition_to_json(p: Partition) -> list[list[int]]:
    return [list(b) for b in p.blocks()]


# ---------------------------------------------------------------------------
# logics, translations


def rule_to_json(r: Rule) -> dict:
    return {
        "premises": [to_sexpr(p) for p in r.premises],
        "conclusion": to_sexpr(r.conclusion),
    }


def logic_to_json(logic: LogicPresentation) -> dict:
    from .logics import RULES

    out = {
        "signature": logic.signature.as_dict(),
        "kind": logic.kind,
        "variable_budget": logic.variable_budget,
    }
    if logic.name:
        out["name"] = logic.name
    if logic.kind == RULES:
        out["rules"] = [rule_to_json(r) for r in logic.rules]
    else:
        out["matrices"] = [matrix_to_json(m) for m in logic.matrices]
    return out


def logic_from_json(data: dict, base_dir: str = ".") -> LogicPresentation:
    from .logics import MATRICES, RULES, Rule, matrices_logic, rules_logic

    data = _expect(data, dict, "the document")
    sig = _signature(data, "signature")
    kind = _field(data, "kind", str)
    budget = _expect(data.get("variable_budget", VARIABLE_BUDGET), int, "field 'variable_budget'")
    name = str(data.get("name", ""))
    if kind == RULES:
        rules = [
            Rule(
                [parse_term(sig, s) for s in _items(r.get("premises", []), str, "premises")],
                parse_term(sig, _field(r, "conclusion", str)),
            )
            for r in _items(data.get("rules", []), dict, "rules")
        ]
        return rules_logic(sig, rules, name=name, variable_budget=budget)
    if kind == MATRICES:
        mats = [matrix_from_json(m, base_dir)
                for m in _items(data.get("matrices", []), dict, "matrices")]
        logic = matrices_logic(mats, name=name, variable_budget=budget)
        if logic.signature != sig:
            raise LawError("logic signature differs from its matrices")
        return logic
    raise LawError(f"unknown logic kind {kind!r}")


def translation_to_json(tau: Translation) -> dict:
    return {
        "source": tau.source.as_dict(),
        "target": tau.target.as_dict(),
        "map": {sym: to_sexpr(t) for sym, t in tau.mapping},
    }


def translation_from_json(data: dict) -> Translation:
    from .translations import Translation

    data = _expect(data, dict, "the document")
    source = _signature(data, "source")
    target = _signature(data, "target")
    mapping = {sym: parse_term(target, _expect(s, str, f"the image of {sym!r} in field 'map'"))
               for sym, s in _field(data, "map", dict).items()}
    return Translation(source, target, mapping)


# ---------------------------------------------------------------------------
# verdicts and generic payloads


def payload_to_json(value: Any) -> Any:
    """Best-effort canonical JSON for report payloads and witnesses."""
    from .logics import LogicPresentation, Rule
    from .verdicts import Verdict

    if isinstance(value, Verdict):
        out = {"status": value.status, "bounds": payload_to_json(value.bounds_dict())}
        if value.witness is not None:
            out["witness"] = payload_to_json(value.witness)
        return out
    if isinstance(value, Partition):
        return partition_to_json(value)
    if isinstance(value, Matrix):
        return matrix_to_json(value)
    if isinstance(value, FiniteAlgebra):
        return algebra_to_json(value)
    if isinstance(value, LogicPresentation):
        return logic_to_json(value)
    if isinstance(value, Rule):
        return rule_to_json(value)
    if isinstance(value, dict):
        return {str(k): payload_to_json(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [payload_to_json(v) for v in value]
    if hasattr(value, "to_json"):
        return payload_to_json(value.to_json())
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


# ---------------------------------------------------------------------------
# file helpers


def load_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load(path: str, from_json: Callable[..., Any], *args: Any) -> Any:
    """`from_json` of the document at `path`. A decoding error becomes a
    LawError that names the innermost file it was found in: an error in the
    algebra file of a matrix names that file, not the matrix's."""
    try:
        return from_json(load_json(path), *args)
    except KeyError as exc:
        message = f"missing field {exc.args[0]!r}"
    except (LawError, ValueError) as exc:
        if getattr(exc, "path", None) is not None:
            raise
        message = str(exc)
    located = LawError(f"{path}: {message}")
    located.path = path
    raise located


def load_algebra(path: str) -> FiniteAlgebra:
    return _load(path, algebra_from_json)


def load_matrix(path: str) -> Matrix:
    return _load(path, matrix_from_json, os.path.dirname(path) or ".")


def load_logic(path: str) -> LogicPresentation:
    return _load(path, logic_from_json, os.path.dirname(path) or ".")


def load_translation(path: str) -> Translation:
    return _load(path, translation_from_json)


def dump_json(path: str, data: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True, ensure_ascii=False, indent=2)
        fh.write("\n")
