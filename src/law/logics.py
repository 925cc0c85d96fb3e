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

The bounded sweep reads the term classes of `clone.JointClosure` over the
canonical variables, with the target's canonical column: G is a bounded
filter iff no class has canonical value outside G while staying designated
at every column that keeps the G-valued classes designated. It reads each
column's classes as ints with one byte lane per class, in pure Python.

Either sweep runs once per (logic, algebra, caps): `filter_lattice` keeps the
filters with their Leibniz congruences, and every public filter function
reads it. The cache holds up to 1024 lattices, more than a gallery
inventory's algebras, so repeated scans over one inventory hit it. Verdicts
derived from the bounded notion are never reported as exact; use
`filter_bounds` for the metadata to attach.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Container, Iterable, Optional, Sequence

from .algebra import FiniteAlgebra, term_values
from .clone import JointClosure
from .config import DEFAULTS, VARIABLE_BUDGET, Config
from .errors import CapExceeded, NotAFilter, SignatureMismatch
from .matrices import Matrix, leibniz_congruence, matrix_product
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
    variable_budget: int = VARIABLE_BUDGET
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


def product_of_logics(
    l1: LogicPresentation, l2: LogicPresentation, cap: int = DEFAULTS.product_max
) -> LogicPresentation:
    """Defining matrices are all pairwise non-indexed matrix products."""
    if l1.kind != MATRICES or l2.kind != MATRICES:
        raise ValueError("both factors must be matrix presentations")
    mats = [
        matrix_product(m1, m2, cap=cap) for m1 in l1.matrices for m2 in l2.matrices
    ]
    return matrices_logic(
        mats,
        name=f"({l1.name or 'L1'})x({l2.name or 'L2'})",
        variable_budget=max(l1.variable_budget, l2.variable_budget),
    )


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


def _closed_under_rules(logic: LogicPresentation, alg: FiniteAlgebra, subset: frozenset[int]) -> bool:
    return all(
        _violation(alg, rule.premises, rule.conclusion, subset, sorted(rule.variables())) is None
        for rule in logic.rules
    )


# ---------------------------------------------------------------------------
# filters for matrix presentations (bounded): a sweep over the term classes


def _bounded_filter_subsets(logic: LogicPresentation, closure: JointClosure,
                            n: int) -> list[tuple[int, ...]]:
    # Sets of rows are ints with one byte lane per row, 1 for a member:
    # of_value[v] holds the rows of canonical value v, and each column of
    # every matrix gives the rows it leaves undesignated.
    of_value = [closure.rows_in({v})[0] for v in range(n)]
    columns: dict[int, None] = {}
    for m in logic.matrices:
        undesignated = set(range(m.algebra.size)) - m.filter_set()
        columns.update(dict.fromkeys(closure.rows_in(undesignated, m.algebra)))
    # kills[v]: bit j set when a row of canonical value v kills column j,
    # i.e. leaves it undesignated, so no G holding v can use that column
    kills = [sum(1 << j for j, col in enumerate(columns) if col & rows) for rows in of_value]

    results = []
    for subset in _subsets_sorted(n):
        killed = outside = 0
        for v in range(n):
            if v in subset:
                killed |= kills[v]
            else:
                outside |= of_value[v]
        cover = 0
        for j, col in enumerate(columns):
            if not killed >> j & 1:
                cover |= col
        # G is a filter iff every row outside it is undesignated in some
        # active column
        if outside & cover == outside:
            results.append(subset)
    return results


def _subsets_sorted(n: int) -> list[tuple[int, ...]]:
    return [s for k in range(n + 1) for s in itertools.combinations(range(n), k)]


# ---------------------------------------------------------------------------
# the filter lattice, cached per (logic, algebra, depth cap, cell budget)


@dataclass(frozen=True, eq=False)
class FilterLattice:
    """Filters on one algebra, with the Leibniz congruence of each computed
    on first use. `depth_effective` is the bounded closure's depth; None for
    an exact sweep or a given family."""

    algebra: FiniteAlgebra
    filters: tuple[tuple[int, ...], ...]
    depth_effective: Optional[int] = None
    _omegas: dict = field(default_factory=dict, init=False, repr=False)

    def omega(self, f: tuple[int, ...]) -> Partition:
        """The Leibniz congruence of the matrix with filter `f`."""
        got = self._omegas.get(f)
        if got is None:
            got = self._omegas[f] = leibniz_congruence(Matrix(self.algebra, f))
        return got

    def suszko(self, f: tuple[int, ...]) -> Partition:
        """Meet of the Leibniz congruences of the filters containing `f`."""
        above = (self.omega(g) for g in self.filters if set(f).issubset(g))
        return functools.reduce(Partition.meet, above, Partition.total(self.algebra.size))


@functools.lru_cache(maxsize=1024)  # lattices hold no closures: about 0.8 kB each
def _sweep(logic: LogicPresentation, alg: FiniteAlgebra, depth_cap: int,
           cell_budget: int) -> FilterLattice:
    if logic.kind == RULES:
        return FilterLattice(alg, tuple(s for s in _subsets_sorted(alg.size)
                                        if _closed_under_rules(logic, alg, frozenset(s))))
    closure = JointClosure(logic.signature, [m.algebra for m in logic.matrices],
                           [f"v{i}" for i in range(alg.size)], cell_budget, target=alg)
    depth_effective = closure.grow_to(depth_cap)
    filters = _bounded_filter_subsets(logic, closure, alg.size)
    return FilterLattice(alg, tuple(filters), depth_effective)


def filter_lattice(logic: LogicPresentation, alg: FiniteAlgebra,
                   oracle_max: int = DEFAULTS.oracle_max,
                   depth_cap: int = DEFAULTS.depth_default,
                   cell_budget: int = DEFAULTS.closure_cell_budget) -> FilterLattice:
    """The lattice of `deductive_filters`, shared by all callers with the same
    logic, algebra and caps, so read-only. Checks the carrier cap, the
    signature and the variable budget first. The exact rule sweep ignores the
    depth cap and cell budget, so it is kept once per algebra."""
    if alg.size > oracle_max:
        raise CapExceeded(f"carrier {alg.size} exceeds the filter sweep cap {oracle_max}")
    if logic.signature != alg.signature:
        raise SignatureMismatch("algebra signature differs from the logic's")
    if logic.kind == MATRICES and alg.size > logic.variable_budget:
        raise CapExceeded(f"bounded filters need {alg.size} canonical variables, "
                          f"budget is {logic.variable_budget}")
    if logic.kind == RULES:
        return _sweep(logic, alg, 0, 0)
    return _sweep(logic, alg, depth_cap, cell_budget)


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
    return list(filter_lattice(logic, alg, oracle_max, depth_cap, cell_budget).filters)


def filter_bounds(
    logic: LogicPresentation,
    alg: FiniteAlgebra,
    depth_cap: int = DEFAULTS.depth_default,
    cell_budget: int = DEFAULTS.closure_cell_budget,
    oracle_max: int = DEFAULTS.oracle_max,
) -> dict:
    """Metadata describing the filter notion used on this algebra; reads the
    filter lattice of a matrix presentation, under the same carrier cap."""
    meta = {"filter_notion": filter_notion(logic), "variable_budget": logic.variable_budget}
    if logic.kind == MATRICES:
        meta["depth_cap"] = depth_cap
        lattice = filter_lattice(logic, alg, oracle_max, depth_cap, cell_budget)
        meta["depth_effective"] = lattice.depth_effective
    elif logic.signature != alg.signature:
        raise SignatureMismatch("algebra signature differs from the logic's")
    return meta


def is_deductive_filter(
    logic: LogicPresentation, alg: FiniteAlgebra, subset: Iterable[int], **kw
) -> bool:
    return tuple(sorted(set(subset))) in filter_lattice(logic, alg, **kw).filters


def suszko_congruence(
    logic: LogicPresentation,
    alg: FiniteAlgebra,
    filter: Iterable[int],
    **kw,
) -> Partition:
    """Meet of the Leibniz congruences of all filters extending the given one."""
    target = tuple(sorted(set(filter)))
    lattice = filter_lattice(logic, alg, **kw)
    if target not in lattice.filters:
        bad = next((x for x in target if not 0 <= x < alg.size), None)
        if bad is not None:
            raise NotAFilter(f"{list(target)}: element {bad} is not in the carrier 0..{alg.size - 1}")
        raise NotAFilter(f"{list(target)} is not a deductive filter on this algebra")
    return lattice.suszko(target)


def reduced_filters_on(
    logic: LogicPresentation, alg: FiniteAlgebra, **kw
) -> list[Matrix]:
    """Matrices on `alg` whose filter has identity Suszko congruence."""
    lattice = filter_lattice(logic, alg, **kw)
    return [Matrix(alg, g) for g in lattice.filters if lattice.suszko(g).is_identity()]


def models_presentation(
    logic: LogicPresentation,
    inventory: Sequence[FiniteAlgebra],
    config: Config = DEFAULTS,
) -> LogicPresentation:
    """Matrix presentation collecting the reduced models over an inventory.

    Used to decide consequence for rule-presented logics; the result is a
    bounded stand-in and is flagged as such by its notion.
    """
    inv = sorted(inventory, key=lambda a: a.sort_key())
    mats = [m for alg in inv for m in reduced_filters_on(logic, alg, **config.caps())]
    if not mats:
        raise ValueError("inventory produced no reduced models")
    return matrices_logic(
        mats, name=f"reduced models of {logic.name or logic.kind}",
        variable_budget=logic.variable_budget,
    )
