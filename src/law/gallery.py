"""Canonical constructions, buildable by name, with machine-checkable
expectations attached. The gallery is self-verifying: `verify_entry` re-runs
every expectation through the core modules."""

from __future__ import annotations

import itertools
import os
from dataclasses import KW_ONLY, dataclass
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

from .algebra import FiniteAlgebra, enumerate_algebras, one_element
from .config import DEFAULTS, Config
from .errors import LawError, UnknownName
from .hierarchy import (
    consequence_presentation,
    derive_theorems,
    find_injective_theorem,
    leibniz_monotonicity_probe,
    monotonicity_probe_on_filters,
    nabla_theorem_oracle,
    theorem_search,
    verify_protoalgebraic_witness,
)
from .logics import (  # noqa: F401  (product_of_logics is re-exported)
    LogicPresentation,
    Rule,
    matrices_logic,
    product_of_logics,
    reduced_filters_on,
    rules_logic,
)
from .matrices import Matrix, leibniz_congruence
from .partitions import Partition
from .serialize import algebra_to_json, dump_json, logic_to_json, matrix_to_json, payload_to_json
from .terms import App, Signature, Term, Var, enumerate_terms, parse_term, substitute

X, Y = Var("x"), Var("y")


@dataclass(frozen=True)
class GalleryEntry:
    name: str
    params: tuple[tuple[str, int], ...]
    _: KW_ONLY
    logic: Optional[LogicPresentation] = None
    matrices: tuple[Matrix, ...] = ()
    inventory: tuple[FiniteAlgebra, ...]
    expectations: tuple[dict, ...]
    provenance: str


# ---------------------------------------------------------------------------
# stock algebras


BOOL_SIG = Signature({"and": 2, "or": 2, "not": 1})
IMP_SIG = Signature({"→": 2})
POINTED_SIG = Signature({"⊤": 1})


def bool2() -> FiniteAlgebra:
    return FiniteAlgebra(
        BOOL_SIG,
        2,
        {"and": (0, 0, 0, 1), "or": (0, 1, 1, 1), "not": (1, 0)},
        name="B2",
    )


def bool4() -> FiniteAlgebra:
    """Four-element Boolean algebra, elements 0=bottom, 1=a, 2=b, 3=top
    (pairs (left,right) encoded with the left coordinate most significant)."""
    return FiniteAlgebra(
        BOOL_SIG,
        4,
        {
            "and": (0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 2, 2, 0, 1, 2, 3),
            "or": (0, 1, 2, 3, 1, 1, 3, 3, 2, 3, 2, 3, 3, 3, 3, 3),
            "not": (3, 2, 1, 0),
        },
        name="B4",
    )


def imp2() -> FiniteAlgebra:
    return FiniteAlgebra(IMP_SIG, 2, {"→": (1, 1, 0, 1)}, name="B2→")


def pointed_set(n: int, point: int = 0) -> FiniteAlgebra:
    if not 0 <= point < n:
        raise ValueError("point out of range")
    return FiniteAlgebra(POINTED_SIG, n, {"⊤": (point,) * n}, name=f"pointed{n}")


def boolean_algebras_up_to(max_size: int = 4) -> list[FiniteAlgebra]:
    out = [one_element(BOOL_SIG)]
    if max_size >= 2:
        out.append(bool2())
    if max_size >= 4:
        out.append(bool4())
    return out


# ---------------------------------------------------------------------------
# the named constructions: each takes its parameters as keywords and returns
# the GalleryEntry fields after `params`


def _proto_signature(k: int, unary_params: int) -> Signature:
    syms = {f"⊸{i}": 2 for i in range(k)}
    syms.update({f"∗1{i}": 1 for i in range(unary_params)})
    return Signature(syms)


def _arrow(i: int, a: Term, b: Term) -> Term:
    return App(f"⊸{i}", (a, b))


def _detachment_rules(k: int) -> list[Rule]:
    """The axioms x ⊸i x and the rule x, x ⊸0 y, …, x ⊸{k-1} y / y."""
    rules = [Rule((), _arrow(i, X, X)) for i in range(k)]
    rules.append(Rule([X] + [_arrow(i, X, Y) for i in range(k)], Y))
    return rules


def _proto_witness(*terms: str) -> dict:
    return {"kind": "proto_witness_verifies", "terms": list(terms), "depth": 2}


def _rank_witness(k: int) -> dict:
    return _proto_witness(*(f"(⊸{i} x y)" for i in range(k)))


def _small_algebras(sig: Signature) -> tuple[FiniteAlgebra, ...]:
    """Every algebra of size 1 or 2 over `sig`."""
    return tuple(itertools.chain.from_iterable(enumerate_algebras(sig, n) for n in (1, 2)))


_NABLA_RULES = (Rule((), App("→", (X, X))), Rule([X, App("→", (X, Y))], Y))


def nabla_hat(max_depth: int = 2, params: Sequence[str] = ("z1",)) -> list[Term]:
    """Implication instances phi(x, zs) → phi(y, zs) of bounded depth."""
    out = []
    for phi in enumerate_terms(IMP_SIG, ("x", *params), max_depth - 1):
        out.append(App("→", (phi, substitute(phi, {"x": Y}))))
    return out


def _basic_assertional(n: int) -> dict:
    return dict(
        logic=rules_logic(POINTED_SIG, [Rule((), App("⊤", (X,)))], name="basic-assertional"),
        inventory=tuple(pointed_set(i) for i in range(1, n + 1)),
        expectations=({"kind": "reduced_singleton_filters"},
                      {"kind": "theorem_exists", "depth": 2}),
        provenance="one unary symbol pinned to a point; every reduced model is a pointed set",
    )


def _basic_proto(k: int, unary_params: int) -> dict:
    sig = _proto_signature(k, unary_params)
    count = {0: "no", 1: "one"}.get(unary_params, str(unary_params))
    params = f"{count} unary parameter symbol{'' if unary_params == 1 else 's'}"
    return dict(
        logic=rules_logic(sig, _detachment_rules(k), name=f"basic-proto-{k}"),
        inventory=_small_algebras(sig),
        expectations=(_rank_witness(k),),
        provenance=f"finite-rank basic protoalgebraic logic with {params}",
    )


def _basic_equiv(k: int) -> dict:
    sig = _proto_signature(k, 0)
    x1, y1, x2, y2 = Var("x1"), Var("y1"), Var("x2"), Var("y2")
    premises = [_arrow(i, x1, y1) for i in range(k)] + [_arrow(i, x2, y2) for i in range(k)]
    rules = _detachment_rules(k)
    rules.extend(Rule(premises, _arrow(beta, _arrow(alpha, x1, x2), _arrow(alpha, y1, y2)))
                 for alpha in range(k) for beta in range(k))
    return dict(
        logic=rules_logic(sig, rules, name=f"basic-equiv-{k}"),
        inventory=_small_algebras(sig),
        expectations=(_rank_witness(k),),
        provenance="finite-rank basic equivalential logic",
    )


def _nabla() -> dict:
    return dict(
        logic=rules_logic(IMP_SIG, _NABLA_RULES, name="nabla"),
        inventory=(one_element(IMP_SIG), imp2()),
        expectations=(_proto_witness("(→ x y)"),
                      {"kind": "theorem_oracle_agreement", "depth": 3}),
        provenance="two-rule implication logic whose theorems are the self-implications",
    )


def _delta(d: int) -> dict:
    hat = nabla_hat(d)
    premises = [substitute(psi, {"x": App("→", (X, X)), "y": App("→", (Y, Y))}) for psi in hat]
    rules = [*_NABLA_RULES, *(Rule(premises, psi) for psi in hat)]
    return dict(
        logic=rules_logic(IMP_SIG, rules, name=f"delta-depth{d}"),
        inventory=_small_algebras(IMP_SIG),
        expectations=(_proto_witness("(→ x y)"),
                      {"kind": "injective_theorem", "term": "(→ x x)", "depth": 2}),
        provenance="depth-capped extension of the implication logic forcing an injective "
        "self-implication; the capped rule family is an approximation",
    )


def _ba_star() -> dict:
    alg = bool4()
    return dict(
        matrices=(Matrix(alg, (1, 3)), Matrix(alg, (1, 2, 3))),
        inventory=(alg,),
        expectations=(
            {"kind": "leibniz_blocks", "matrix": 0, "blocks": [[0, 2], [1, 3]]},
            {"kind": "leibniz_blocks", "matrix": 1, "blocks": [[0], [1], [2], [3]]},
            {"kind": "monotonicity_fails", "filter_small": [1, 3], "filter_large": [1, 2, 3]},
        ),
        provenance="four-element Boolean algebra on which the Leibniz operator is not "
        "monotone over designated sets",
    )


def _ba_star_logic(n: int) -> dict:
    algebras = tuple(boolean_algebras_up_to(n))
    mats = [Matrix(alg, subset) for alg in algebras for k in range(alg.size + 1)
            for subset in itertools.combinations(range(alg.size), k) if alg.size - 1 in subset]
    return dict(
        logic=matrices_logic(mats, name="ba-star-logic"),
        inventory=algebras,
        expectations=({"kind": "monotonicity_fails_somewhere"},),
        provenance="logic of Boolean algebras with any top-containing designated set, "
        "restricted to algebras of bounded size",
    )


def _two_valued_pair() -> dict:
    alg = bool2()
    return dict(
        logic=matrices_logic([Matrix(alg, (1,)), Matrix(alg, (0,))], name="two-valued-pair"),
        inventory=(alg,),
        expectations=({"kind": "reduced_contains", "filters": [[0], [1]]},),
        provenance="theoremless logic of the two-element Boolean algebra with both "
        "one-element designated sets",
    )


def _pointed_set_entry(n: int) -> dict:
    alg = pointed_set(n)
    # every equivalence is a congruence of a constant map, so the Leibniz
    # congruence of the point's singleton is the point/rest split
    blocks = [[0]] + ([list(range(1, n))] if n > 1 else [])
    return dict(
        matrices=(Matrix(alg, (0,)),),
        inventory=(alg,),
        expectations=({"kind": "leibniz_blocks", "matrix": 0, "blocks": blocks},),
        provenance="pointed set with its point designated",
    )


class _Param(NamedTuple):
    default: int
    least: int  # the least admissible value


#: The one declaration of the gallery: each entry's construction and, per
#: parameter it reads, the default and the least admissible value.
_ENTRIES: dict[str, tuple[Callable[..., dict], dict[str, _Param]]] = {
    "basic-assertional": (_basic_assertional, {"n": _Param(3, 1)}),
    "basic-proto": (_basic_proto, {"k": _Param(1, 1), "unary_params": _Param(1, 0)}),
    "basic-equiv": (_basic_equiv, {"k": _Param(1, 1)}),
    "nabla": (_nabla, {}),
    "delta": (_delta, {"d": _Param(2, 1)}),
    "ba-star": (_ba_star, {}),
    # below 4 the inventory lacks B4, where the Leibniz operator fails monotonicity
    "ba-star-logic": (_ba_star_logic, {"n": _Param(4, 4)}),
    "two-valued-pair": (_two_valued_pair, {}),
    "pointed-set": (_pointed_set_entry, {"n": _Param(2, 1)}),
}

#: Every entry name and the parameters its construction reads.
GALLERY_PARAMS = {name: tuple(spec) for name, (_, spec) in _ENTRIES.items()}
GALLERY_NAMES = tuple(_ENTRIES)


def build(name: str, params: Optional[Mapping[str, int]] = None) -> GalleryEntry:
    """Construct a gallery entry; see GALLERY_PARAMS for the vocabulary.
    A name or a parameter the entry does not know raises UnknownName, a
    value below the parameter's least value LawError. Parameters not given
    take their defaults; the entry's `params` are the given ones."""
    params = dict(params or {})
    if name not in _ENTRIES:
        raise UnknownName(f"unknown gallery name {name!r}; choose from {GALLERY_NAMES}")
    construct, spec = _ENTRIES[name]
    for key in sorted(params):
        if key not in spec:
            raise UnknownName(f"gallery entry {name!r} has no parameter {key!r}; "
                              f"known: {', '.join(spec) or 'none'}")
        if params[key] < spec[key].least:
            raise LawError(f"gallery entry {name!r} needs {key} >= {spec[key].least}, "
                           f"got {params[key]}")
    values = {key: p.default for key, p in spec.items()} | params
    return GalleryEntry(name, tuple(sorted(params.items())), **construct(**values))


def write_entry(entry: GalleryEntry, out: str) -> list[str]:
    """Write `entry` into directory `out`, creating it if needed: its logic
    as `<name>.logic.json`, its matrices as `<name>.matrixI.json`, its
    inventory as `<name>.invI.json`, and a `<name>.manifest.json` that names
    those files. Returns the written file names, sorted."""
    docs = {}  # manifest key -> (file name, JSON document)
    if entry.logic is not None:
        docs["logic"] = (f"{entry.name}.logic.json", logic_to_json(entry.logic))
    for i, m in enumerate(entry.matrices):
        docs[f"matrix{i}"] = (f"{entry.name}.matrix{i}.json", matrix_to_json(m))
    for i, alg in enumerate(entry.inventory):
        docs[f"inventory{i}"] = (f"{entry.name}.inv{i}.json", algebra_to_json(alg))
    manifest = {
        "name": entry.name,
        "params": dict(entry.params),
        "provenance": entry.provenance,
        "files": {key: file for key, (file, _) in docs.items()},
        "expectations": payload_to_json(list(entry.expectations)),
    }
    docs["manifest"] = (f"{entry.name}.manifest.json", manifest)
    os.makedirs(out, exist_ok=True)
    for file, data in docs.values():
        dump_json(os.path.join(out, file), data)
    return sorted(file for file, _ in docs.values())


# ---------------------------------------------------------------------------
# companions and products of logics


def companions(
    logic: LogicPresentation,
    which: str,
    inventory: Optional[Sequence[FiniteAlgebra]] = None,
    config: Config = DEFAULTS,
) -> LogicPresentation:
    """`theoremless`: extend the defining matrices with an empty-filter copy
    of each defining algebra. `plus`: drop empty-filter matrices. Rule
    presentations are first replaced by their reduced models over an
    inventory, which makes the result bounded."""
    if which not in ("theoremless", "plus"):
        raise UnknownName(f"companion must be 'theoremless' or 'plus', not {which!r}")
    base = consequence_presentation(logic, inventory, config)
    mats = list(base.matrices)
    if which == "theoremless":
        for alg in sorted({m.algebra for m in mats}, key=lambda a: a.sort_key()):
            empty = Matrix(alg, ())
            if empty not in mats:
                mats.append(empty)
    else:
        mats = [m for m in mats if m.filter]
        if not mats:
            raise ValueError("plus companion removed every defining matrix")
    return matrices_logic(
        sorted(mats, key=lambda m: m.sort_key()),
        name=f"{which}({logic.name or logic.kind})",
        variable_budget=logic.variable_budget,
    )


# ---------------------------------------------------------------------------
# self-verification


def verify_entry(entry: GalleryEntry, config: Config = DEFAULTS) -> list[str]:
    """Run every expectation under the caps of `config`; return a list of
    failure descriptions (empty when the entry verifies)."""
    problems = []
    for exp in entry.expectations:
        kind = exp["kind"]
        if kind == "leibniz_blocks":
            m = entry.matrices[exp["matrix"]]
            got = leibniz_congruence(m)
            want = Partition.from_blocks(m.algebra.size, exp["blocks"])
            if got != want:
                problems.append(f"{entry.name}: leibniz blocks {got!r} != {want!r}")
        elif kind == "monotonicity_fails":
            alg = entry.matrices[0].algebra
            verdict = monotonicity_probe_on_filters(
                alg, [m.filter for m in entry.matrices]
            )
            if not verdict.fails:
                problems.append(f"{entry.name}: expected a monotonicity failure")
            else:
                w = verdict.witness
                if list(w["filter_small"]) != exp["filter_small"] or list(
                    w["filter_large"]
                ) != exp["filter_large"]:
                    problems.append(f"{entry.name}: wrong monotonicity witness {w}")
        elif kind == "monotonicity_fails_somewhere":
            verdict = leibniz_monotonicity_probe(entry.logic, entry.inventory, config)
            if not verdict.fails:
                problems.append(f"{entry.name}: expected a monotonicity failure")
        elif kind == "proto_witness_verifies":
            terms = tuple(parse_term(entry.logic.signature, s) for s in exp["terms"])
            consequence = consequence_presentation(entry.logic, entry.inventory, config)
            if not verify_protoalgebraic_witness(consequence, terms):
                problems.append(f"{entry.name}: witness {exp['terms']} does not verify")
        elif kind == "injective_theorem":
            t = find_injective_theorem(entry.logic, entry.inventory, exp["depth"], config)
            want = parse_term(entry.logic.signature, exp["term"])
            if t != want:
                problems.append(f"{entry.name}: injective theorem {t!r} != {want!r}")
        elif kind == "theorem_oracle_agreement":
            theorems = derive_theorems(entry.logic, ("x", "y"), exp["depth"])
            for t in enumerate_terms(entry.logic.signature, ("x", "y"), exp["depth"]):
                if (t in theorems) != nabla_theorem_oracle(t):
                    problems.append(f"{entry.name}: chaining and oracle disagree on {t!r}")
                    break
        elif kind == "reduced_singleton_filters":
            for alg in entry.inventory:
                mats = reduced_filters_on(entry.logic, alg, **config.caps())
                if [m.filter for m in mats] != [(0,)]:
                    problems.append(f"{entry.name}: reduced filters on {alg!r} not [{{point}}]")
        elif kind == "theorem_exists":
            if theorem_search(entry.logic, exp["depth"], config) is None:
                problems.append(f"{entry.name}: no theorem found")
        elif kind == "reduced_contains":
            for alg in entry.inventory:
                got = {m.filter for m in reduced_filters_on(entry.logic, alg, **config.caps())}
                for f in exp["filters"]:
                    if tuple(f) not in got:
                        problems.append(f"{entry.name}: reduced filters miss {f}")
        else:
            problems.append(f"{entry.name}: unknown expectation {kind!r}")
    return problems
