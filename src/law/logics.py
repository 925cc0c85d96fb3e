"""Logic presentations, consequence, deductive filters, Suszko congruences.

Two filter notions, always flagged:

* ``exact`` (rule presentations): a subset is a filter iff it is closed under
  every instance of the presenting rules.
* ``bounded`` (matrix presentations): a subset counts as a filter iff the
  matrix it induces validates every rule in at most carrier-many variables
  that holds in the presented logic, with premise and conclusion terms capped
  at a configured depth. Realized by closing the canonical premise set (one
  variable pinned to each carrier element) under consequence, with terms
  deduplicated by their joint evaluations so the caps stay feasible.

Verdicts derived from the bounded notion are never reported as exact; use
`filter_bounds` for the metadata to attach.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Container, Iterable, Optional, Sequence

import numpy as np

from .algebra import FiniteAlgebra, term_values
from .config import DEFAULTS
from .errors import CapExceeded, NotAFilter, SignatureMismatch
from .matrices import Matrix, leibniz_congruence
from .partitions import Partition
from .terms import Signature, Term, check_term, to_sexpr, variables_of


@dataclass(frozen=True, eq=False)
class Rule:
    """Finitely many premises and one conclusion over a shared signature."""

    premises: tuple[Term, ...]
    conclusion: Term
    _hash: int = field(init=False, compare=False)

    def __init__(self, premises: Iterable[Term], conclusion: Term):
        prem = tuple(sorted(set(premises), key=to_sexpr))
        object.__setattr__(self, "premises", prem)
        object.__setattr__(self, "conclusion", conclusion)
        object.__setattr__(self, "_hash", hash((prem, conclusion)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Rule)
            and self.premises == other.premises
            and self.conclusion == other.conclusion
        )

    def variables(self) -> frozenset[str]:
        return variables_of(self.premises + (self.conclusion,))

    def __repr__(self) -> str:
        lhs = ", ".join(to_sexpr(p) for p in self.premises)
        return f"<Rule {lhs} |> {to_sexpr(self.conclusion)}>"


RULES = "rules"
MATRICES = "matrices"


@dataclass(frozen=True)
class LogicPresentation:
    """A logic given either by rules or by defining matrices."""

    signature: Signature
    kind: str
    rules: tuple[Rule, ...] = ()
    matrices: tuple[Matrix, ...] = ()
    variable_budget: int = DEFAULTS.variable_budget
    name: str = field(default="", compare=False)

    def __post_init__(self):
        if self.kind not in (RULES, MATRICES):
            raise ValueError(f"bad presentation kind {self.kind!r}")
        if self.kind == MATRICES and not self.matrices:
            raise ValueError("a matrix presentation needs at least one matrix")
        if self.variable_budget < 1:
            raise ValueError("variable budget must be positive")
        for r in self.rules:
            for t in r.premises + (r.conclusion,):
                check_term(self.signature, t)
        for m in self.matrices:
            if m.algebra.signature != self.signature:
                raise SignatureMismatch("defining matrix over a different signature")

    def __repr__(self) -> str:
        label = self.name or f"{self.kind} logic"
        return f"<LogicPresentation {label} sig={self.signature!r}>"


def rules_logic(signature: Signature, rules: Iterable[Rule], name: str = "", **kw) -> LogicPresentation:
    return LogicPresentation(signature, RULES, rules=tuple(rules), name=name, **kw)


def matrices_logic(matrices: Iterable[Matrix], name: str = "", **kw) -> LogicPresentation:
    mats = tuple(matrices)
    if not mats:
        raise ValueError("need at least one defining matrix")
    return LogicPresentation(mats[0].algebra.signature, MATRICES, matrices=mats, name=name, **kw)


@dataclass(frozen=True)
class FilterFamily:
    """A family of filters on one algebra, used as a counterexample payload."""

    algebra: FiniteAlgebra
    filters: tuple[tuple[int, ...], ...]

    def __init__(self, algebra: FiniteAlgebra, filters: Iterable[Iterable[int]]):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(
            self, "filters", tuple(sorted(tuple(sorted(set(f))) for f in filters))
        )

    def to_json(self) -> dict:
        from .serialize import algebra_to_json

        return {"algebra": algebra_to_json(self.algebra),
                "filters": [list(f) for f in self.filters]}


def filter_notion(logic: LogicPresentation) -> str:
    return "exact" if logic.kind == RULES else "bounded"


# ---------------------------------------------------------------------------
# consequence for matrix presentations


def _violation(
    alg: FiniteAlgebra,
    premises: Sequence[Term],
    conclusion: Term,
    designated: Container[int],
    variables: Sequence[str],
) -> Optional[int]:
    """The conclusion's value at the first assignment of `variables`, in
    `term_values` order, that sends every premise into `designated` and the
    conclusion outside it; None when there is none."""
    rows = [term_values(alg, p, variables) for p in premises]
    for i, v in enumerate(term_values(alg, conclusion, variables)):
        if v not in designated and all(row[i] in designated for row in rows):
            return v
    return None


def is_model(m: Matrix, r: Rule) -> bool:
    """True iff every valuation sending all premises into the filter sends
    the conclusion there too."""
    variables = sorted(r.variables())
    return _violation(m.algebra, r.premises, r.conclusion, m.filter_set(), variables) is None


def entails(logic: LogicPresentation, gamma: Iterable[Term], phi: Term) -> bool:
    """Consequence for a matrix-presented logic, decided by truth tables."""
    if logic.kind != MATRICES:
        raise ValueError("entails needs a matrix presentation")
    gamma = tuple(gamma)
    variables = sorted(variables_of(gamma + (phi,)))
    if len(variables) > logic.variable_budget:
        raise CapExceeded(
            f"{len(variables)} variables exceed the budget {logic.variable_budget}"
        )
    return all(
        _violation(m.algebra, gamma, phi, m.filter_set(), variables) is None
        for m in logic.matrices
    )


# ---------------------------------------------------------------------------
# filters for rule presentations (exact)


def filter_generated(
    logic: LogicPresentation, alg: FiniteAlgebra, seed: Iterable[int]
) -> tuple[int, ...]:
    """Least superset of `seed` closed under every rule instance."""
    if logic.kind != RULES:
        raise ValueError("filter_generated needs a rule presentation")
    if logic.signature != alg.signature:
        raise SignatureMismatch("algebra signature differs from the logic's")
    current = set(seed)
    while True:
        fresh = {
            _violation(alg, r.premises, r.conclusion, current, sorted(r.variables()))
            for r in logic.rules
        } - {None}
        if not fresh:
            return tuple(sorted(current))
        current |= fresh


def _closed_under_rules(logic: LogicPresentation, alg: FiniteAlgebra, subset: frozenset[int]) -> bool:
    return all(
        _violation(alg, rule.premises, rule.conclusion, subset, sorted(rule.variables())) is None
        for rule in logic.rules
    )


# ---------------------------------------------------------------------------
# filters for matrix presentations (bounded)
#
# A candidate term over the canonical variables is represented by its joint
# evaluation row: its value in `alg` under the canonical valuation plus its
# value in every defining algebra under every assignment of the canonical
# variables. Rows are closed under the signature pointwise, one round per
# depth level, deduplicating as we go. G is a bounded filter iff no row has
# canonical value outside G while staying designated at every assignment
# that keeps the G-valued premise rows designated.


@dataclass(frozen=True)
class _ClosureKey:
    logic: LogicPresentation
    algebra: FiniteAlgebra
    depth_cap: int
    cell_budget: int


class _Closure:
    def __init__(self, blocks, block_algs, c_block, c_col, depth_effective, depth_cap):
        self.blocks = blocks              # list of np.ndarray (rows, cols) per distinct algebra
        self.block_algs = block_algs      # list of FiniteAlgebra, parallel to blocks
        self.c_block = c_block            # block index holding the canonical column
        self.c_col = c_col                # column index of the canonical valuation
        self.depth_effective = depth_effective
        self.depth_cap = depth_cap

    def canonical_values(self) -> np.ndarray:
        return self.blocks[self.c_block][:, self.c_col]


@functools.lru_cache(maxsize=64)
def _joint_closure(key: _ClosureKey) -> _Closure:
    logic, alg = key.logic, key.algebra
    n = alg.size
    distinct = sorted({m.algebra for m in logic.matrices}, key=lambda a: a.sort_key())
    canonical = tuple(range(n))
    if alg in distinct:
        c_block = distinct.index(alg)
        inputs_of = {b: list(itertools.product(range(b.size), repeat=n)) for b in distinct}
        c_col = inputs_of[alg].index(canonical)
        block_algs = distinct
    else:
        inputs_of = {b: list(itertools.product(range(b.size), repeat=n)) for b in distinct}
        inputs_of[alg] = [canonical]
        block_algs = distinct + [alg]
        c_block = len(block_algs) - 1
        c_col = 0

    cols_total = sum(len(inputs_of[b]) for b in block_algs)
    tables = [
        {sym: np.asarray(b.table(sym), dtype=np.int64) for sym, _ in b.signature.symbols}
        for b in block_algs
    ]
    sizes = [b.size for b in block_algs]

    # depth-0 rows: one per canonical variable
    blocks = [
        np.array([[inp[i] for inp in inputs_of[b]] for i in range(n)], dtype=np.uint8)
        for b in block_algs
    ]
    seen = {_row_bytes(blocks, i) for i in range(n)}

    depth_effective = 0
    syms = sorted(logic.signature.symbols)
    for level in range(1, key.depth_cap + 1):
        rows = blocks[0].shape[0]
        projected = sum(rows ** arity if arity else 1 for _, arity in syms) * cols_total
        if projected > key.cell_budget:
            break
        blocks_wide = [b.astype(np.int64) for b in blocks]
        new_blocks: list[list[np.ndarray]] = [[] for _ in block_algs]
        new_rows = 0
        for sym, arity in syms:
            if arity == 0:
                if level == 1:
                    cand = [np.full((1, blocks[bi].shape[1]), t[sym][0], dtype=np.uint8)
                            for bi, t in enumerate(tables)]
                    new_rows += _absorb(cand, new_blocks, seen)
                continue
            for combo in itertools.product(range(rows), repeat=arity - 1):
                # vary the last argument over all rows at once
                cand = []
                for bi, t in enumerate(tables):
                    nb = sizes[bi]
                    idx = np.zeros(blocks[bi].shape[1], dtype=np.int64)
                    for a in combo:
                        idx = idx * nb + blocks_wide[bi][a]
                    flat = idx[None, :] * nb + blocks_wide[bi]
                    cand.append(t[sym][flat].astype(np.uint8))
                new_rows += _absorb(cand, new_blocks, seen)
        if new_rows == 0:
            depth_effective = key.depth_cap  # fixpoint: deeper terms add nothing
            break
        blocks = [
            np.concatenate([blocks[bi]] + new_blocks[bi], axis=0) if new_blocks[bi] else blocks[bi]
            for bi in range(len(block_algs))
        ]
        depth_effective = level
    return _Closure(blocks, block_algs, c_block, c_col, depth_effective, key.depth_cap)


def _row_bytes(blocks: Sequence[np.ndarray], i: int) -> bytes:
    return b"".join(b[i].tobytes() for b in blocks)


def _absorb(cand: list[np.ndarray], new_blocks, seen) -> int:
    added = 0
    rows = cand[0].shape[0]
    for r in range(rows):
        key = b"".join(c[r].tobytes() for c in cand)
        if key in seen:
            continue
        seen.add(key)
        for bi in range(len(cand)):
            new_blocks[bi].append(cand[bi][r : r + 1])
        added += 1
    return added


def _bounded_filter_subsets(
    logic: LogicPresentation,
    alg: FiniteAlgebra,
    depth_cap: int,
    cell_budget: int,
) -> tuple[list[tuple[int, ...]], int]:
    n = alg.size
    if n > logic.variable_budget:
        raise CapExceeded(
            f"bounded filters need {n} canonical variables, budget is {logic.variable_budget}"
        )
    closure = _joint_closure(_ClosureKey(logic, alg, depth_cap, cell_budget))
    c_vals = closure.canonical_values()
    mats = [
        (closure.block_algs.index(m.algebra), m.filter_set()) for m in logic.matrices
    ]
    in_filter = []
    for bi, fset in mats:
        mask = np.zeros(closure.block_algs[bi].size, dtype=bool)
        for x in fset:
            mask[x] = True
        in_filter.append(mask[closure.blocks[bi]])

    results = []
    for subset in _subsets_sorted(n):
        g_mask = np.zeros(n, dtype=bool)
        for x in subset:
            g_mask[x] = True
        in_g = g_mask[c_vals]
        survivor = ~in_g
        for (bi, _), good in zip(mats, in_filter):
            killed = (in_g[:, None] & ~good).any(axis=0)
            active = ~killed
            if active.any():
                survivor = survivor & good[:, active].all(axis=1)
        if not survivor.any():
            results.append(subset)
    return results, closure.depth_effective


def _subsets_sorted(n: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    for k in range(n + 1):
        out.extend(itertools.combinations(range(n), k))
    return out


# ---------------------------------------------------------------------------
# the public filter interface


def deductive_filters(
    logic: LogicPresentation,
    alg: FiniteAlgebra,
    oracle_max: int = DEFAULTS.oracle_max,
    depth_cap: int = DEFAULTS.depth_default,
    cell_budget: int = DEFAULTS.closure_cell_budget,
) -> list[tuple[int, ...]]:
    """All deductive filters on `alg`, sorted by (size, elements).

    Exact for rule presentations; bounded (canonical variables, depth cap)
    for matrix presentations. The empty set appears exactly when nothing
    forces a theorem value into every filter.
    """
    if alg.size > oracle_max:
        raise CapExceeded(f"carrier {alg.size} exceeds the filter sweep cap {oracle_max}")
    if logic.signature != alg.signature:
        raise SignatureMismatch("algebra signature differs from the logic's")
    if logic.kind == RULES:
        return [
            s for s in _subsets_sorted(alg.size) if _closed_under_rules(logic, alg, frozenset(s))
        ]
    subsets, _ = _bounded_filter_subsets(logic, alg, depth_cap, cell_budget)
    return subsets


def filter_bounds(
    logic: LogicPresentation,
    alg: FiniteAlgebra,
    depth_cap: int = DEFAULTS.depth_default,
    cell_budget: int = DEFAULTS.closure_cell_budget,
) -> dict:
    """Metadata describing the filter notion used on this algebra."""
    meta = {
        "filter_notion": filter_notion(logic),
        "variable_budget": logic.variable_budget,
    }
    if logic.kind == MATRICES:
        if alg.size > logic.variable_budget:
            raise CapExceeded(
                f"bounded filters need {alg.size} canonical variables, "
                f"budget is {logic.variable_budget}"
            )
        meta["depth_cap"] = depth_cap
        closure = _joint_closure(_ClosureKey(logic, alg, depth_cap, cell_budget))
        meta["depth_effective"] = closure.depth_effective
    return meta


def is_deductive_filter(
    logic: LogicPresentation, alg: FiniteAlgebra, subset: Iterable[int], **kw
) -> bool:
    target = tuple(sorted(set(subset)))
    return target in deductive_filters(logic, alg, **kw)


def suszko_congruence(
    logic: LogicPresentation,
    alg: FiniteAlgebra,
    filter: Iterable[int],
    **kw,
) -> Partition:
    """Meet of the Leibniz congruences of all filters extending the given one."""
    target = tuple(sorted(set(filter)))
    filters = deductive_filters(logic, alg, **kw)
    if target not in filters:
        raise NotAFilter(f"{list(target)} is not a deductive filter on this algebra")
    target_set = set(target)
    out = Partition.total(alg.size)
    for g in filters:
        if target_set <= set(g):
            out = out.meet(leibniz_congruence(Matrix(alg, g)))
    return out


def reduced_filters_on(
    logic: LogicPresentation, alg: FiniteAlgebra, **kw
) -> list[Matrix]:
    """Matrices on `alg` whose filter has identity Suszko congruence."""
    filters = deductive_filters(logic, alg, **kw)
    omegas = {g: leibniz_congruence(Matrix(alg, g)) for g in filters}
    out = []
    for g in filters:
        gset = set(g)
        meet = Partition.total(alg.size)
        for h in filters:
            if gset <= set(h):
                meet = meet.meet(omegas[h])
        if meet.is_identity():
            out.append(Matrix(alg, g))
    return out


def models_presentation(
    logic: LogicPresentation,
    inventory: Sequence[FiniteAlgebra],
    **kw,
) -> LogicPresentation:
    """Matrix presentation collecting the reduced models over an inventory.

    Used to decide consequence for rule-presented logics; the result is a
    bounded stand-in and is flagged as such by its notion.
    """
    mats: list[Matrix] = []
    for alg in sorted(inventory, key=lambda a: a.sort_key()):
        mats.extend(reduced_filters_on(logic, alg, **kw))
    if not mats:
        raise ValueError("inventory produced no reduced models")
    return matrices_logic(
        mats, name=f"reduced models of {logic.name or logic.kind}",
        variable_budget=logic.variable_budget,
    )
