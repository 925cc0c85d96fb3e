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

The bounded sweep is `JointClosure.filters` on the term classes of the
defining algebras over the canonical variables, read from
`clone.term_classes`: one closure per carrier size, shared by every target
of that size and by every logic and witness search over the same algebras.
G is a bounded filter iff no class has a value in the target, at the
canonical assignment, outside G while staying designated at every column
that keeps the classes with values in G designated. The exact sweep
compiles the rules once per logic into one program of distinct subterms,
runs it once per algebra and tests every subset against the stored values.

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
from typing import Iterable, Optional, Sequence

from .algebra import FiniteAlgebra, _apply, _columns, _values, distinct, eval_term
from .clone import _subsets_sorted, term_classes
from .config import DEFAULTS, VARIABLE_BUDGET, Config
from .errors import CapExceeded, Frozen, Hashed, NotAFilter, SignatureMismatch
from .matrices import Matrix, leibniz_congruence, matrix_product
from .partitions import Partition
from .terms import Signature, Term, Var, check_term, to_sexpr, variables_of


class Rule(Hashed):
    """Finitely many premises and one conclusion over a shared signature."""

    _fields = ("premises", "conclusion")
    __slots__ = _fields + ("_hash",)

    def __init__(self, premises: Iterable[Term], conclusion: Term):
        prem = tuple(sorted(set(premises), key=to_sexpr))
        self._assign(prem, conclusion, hash((prem, conclusion)))

    def variables(self) -> frozenset[str]:
        return variables_of(self.premises + (self.conclusion,))

    def __repr__(self) -> str:
        lhs = ", ".join(to_sexpr(p) for p in self.premises)
        return f"<Rule {lhs} |> {to_sexpr(self.conclusion)}>"


RULES = "rules"
MATRICES = "matrices"


class LogicPresentation(Hashed):
    """A logic given either by rules or by defining matrices. The name is
    not compared, but pickle and copy keep it."""

    _fields = ("signature", "kind", "rules", "matrices", "variable_budget")
    _args = _fields + ("name",)
    __slots__ = _args + ("_hash",)

    def __init__(self, signature: Signature, kind: str, rules: tuple[Rule, ...] = (),
                 matrices: tuple[Matrix, ...] = (), variable_budget: int = VARIABLE_BUDGET,
                 name: str = ""):
        if kind not in (RULES, MATRICES):
            raise ValueError(f"bad presentation kind {kind!r}")
        if kind == MATRICES and not matrices:
            raise ValueError("a matrix presentation needs at least one matrix")
        if variable_budget < 1:
            raise ValueError("variable budget must be positive")
        for r in rules:
            for t in r.premises + (r.conclusion,):
                check_term(signature, t)
        for m in matrices:
            if m.algebra.signature != signature:
                raise SignatureMismatch("defining matrix over a different signature")
        values = (signature, kind, rules, matrices, variable_budget)
        self._assign(*values, name, hash(values))

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


class FilterFamily(Frozen):
    """A family of filters on one algebra, used as a counterexample payload."""

    __slots__ = _fields = ("algebra", "filters")

    def __init__(self, algebra: FiniteAlgebra, filters: Iterable[Iterable[int]]):
        self._assign(algebra, tuple(sorted(tuple(sorted(set(f))) for f in filters)))

    def to_json(self) -> dict:
        from .serialize import algebra_to_json

        return {"algebra": algebra_to_json(self.algebra),
                "filters": [list(f) for f in self.filters]}


def filter_notion(logic: LogicPresentation) -> str:
    return "exact" if logic.kind == RULES else "bounded"


# ---------------------------------------------------------------------------
# consequence for matrix presentations


def _masks(premise_values: Iterable[Sequence[int]], count: int) -> list[int]:
    """Each of `count` assignments' mask of its premise values, bit v for
    element v, from every premise's values at every assignment."""
    masks = [0] * count
    for values in premise_values:
        masks = [m | 1 << v for m, v in zip(masks, values)]
    return masks


def _rows(conclusion_values: Sequence[int], masks: Sequence[int]) -> frozenset[tuple[int, int]]:
    """The distinct (conclusion bit, premises mask) pairs over the
    assignments: the rows `_violated` tests against a designated set. A row
    whose conclusion is among its premises' values holds under every
    designated set, so it is left out."""
    return frozenset((1 << c, m) for c, m in zip(conclusion_values, masks) if not 1 << c & m)


def _rule_rows(alg: FiniteAlgebra, premises: Sequence[Term], conclusion: Term,
               variables: Sequence[str]) -> frozenset[tuple[int, int]]:
    """A rule's `_rows` on `alg` at every assignment of `variables`. The
    caller has checked the terms against the algebra's signature
    (`check_term`)."""
    columns, count = _columns(alg, variables)
    masks = _masks((_values(alg, p, columns, count) for p in premises), count)
    return _rows(_values(alg, conclusion, columns, count), masks)


def _violated(rows: Iterable[tuple[int, int]], undesignated: int) -> bool:
    """True iff some row of `_rule_rows` sends every premise into a designated
    set and the conclusion outside it; `undesignated` is the mask of the
    elements outside the set."""
    return any(c & undesignated and not m & undesignated for c, m in rows)


def _undesignated(size: int, designated: Iterable[int]) -> int:
    """The mask of the elements of {0..size-1} outside `designated`."""
    mask = (1 << size) - 1
    for x in designated:
        mask &= ~(1 << x)
    return mask


def is_model(m: Matrix, r: Rule) -> bool:
    """True iff every valuation sending all premises into the filter sends
    the conclusion there too."""
    for t in r.premises + (r.conclusion,):
        check_term(m.algebra.signature, t)
    rows = _rule_rows(m.algebra, r.premises, r.conclusion, sorted(r.variables()))
    return not _violated(rows, _undesignated(m.algebra.size, m.filter))


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
    for t in gamma + (phi,):
        check_term(logic.signature, t)
    return not any(
        _violated(_rule_rows(m.algebra, gamma, phi, variables),
                  _undesignated(m.algebra.size, m.filter))
        for m in logic.matrices
    )


# ---------------------------------------------------------------------------
# filters for rule presentations (exact)


@functools.lru_cache(maxsize=64)
def _rule_program(logic: LogicPresentation) -> tuple:
    """The rules of `logic` compiled once for `_rule_filters`: one group
    (variables, steps, rules) per sorted variable tuple of the rules. Slot i
    holds variable i and slot len(variables) + j step j; `steps` lists the
    group's distinct other subterms in post-order as (symbol, child slots),
    and `rules` pairs each distinct premise slot tuple with the conclusion
    slots of its rules."""
    groups: dict[tuple[str, ...], tuple[dict[Term, int], list, dict]] = {}

    def slot(t: Term, slots: dict[Term, int], steps: list) -> int:
        got = slots.get(t)
        if got is None:
            # a variable is a slot from the start, so `t` is an application
            children = tuple(slot(a, slots, steps) for a in t.args)
            got = slots[t] = len(slots)
            steps.append((t.sym, children))
        return got

    for rule in logic.rules:
        variables = tuple(sorted(rule.variables()))
        if variables not in groups:
            groups[variables] = ({Var(v): i for i, v in enumerate(variables)}, [], {})
        slots, steps, rules = groups[variables]
        premises = tuple(sorted({slot(p, slots, steps) for p in rule.premises}))
        rules.setdefault(premises, []).append(slot(rule.conclusion, slots, steps))
    return tuple((variables, tuple(steps), tuple((p, tuple(c)) for p, c in rules.items()))
                 for variables, (_, steps, rules) in groups.items())


def _rule_filters(logic: LogicPresentation, alg: FiniteAlgebra) -> list[tuple[int, ...]]:
    """The subsets of `alg` closed under every rule, in `_subsets_sorted`
    order. The logic's `_rule_program`, compiled once per logic, runs every
    group of rules over the same variables once: each distinct subterm is
    evaluated once at every assignment, through the operation tables, and
    each distinct premise tuple's masks are built once. Every rule's rows
    are then built from the stored values, and each subset is tested
    against them. The rules were checked when the logic was built and
    `filter_lattice` checks the algebra's signature, so the terms are not
    checked again here."""
    rows = []
    for variables, steps, rules in _rule_program(logic):
        columns, count = _columns(alg, variables)
        values = [columns[v] for v in variables]
        for sym, children in steps:
            values.append(_apply(alg, sym, [values[c] for c in children], count))
        for premises, conclusions in rules:
            masks = _masks(map(values.__getitem__, premises), count)
            rows.extend(_rows(values[c], masks) for c in conclusions)
    filters = []
    for subset in _subsets_sorted(alg.size):
        undesignated = _undesignated(alg.size, subset)
        if not any(_violated(r, undesignated) for r in rows):
            filters.append(subset)
    return filters


def _closed_under_rules(logic: LogicPresentation, alg: FiniteAlgebra, subset: frozenset[int]) -> bool:
    """The slow oracle of `_rule_filters`: whether `subset` is closed under
    every rule, each premise and conclusion evaluated through `eval_term` at
    every assignment."""
    for rule in logic.rules:
        variables = sorted(rule.variables())
        for values in itertools.product(range(alg.size), repeat=len(variables)):
            valuation = dict(zip(variables, values))
            if (eval_term(alg, rule.conclusion, valuation) not in subset
                    and all(eval_term(alg, p, valuation) in subset for p in rule.premises)):
                return False
    return True


# ---------------------------------------------------------------------------
# the filter lattice, cached per (logic, algebra, depth cap, cell budget)


class FilterLattice(Frozen):
    """Filters on one algebra, with the Leibniz congruence of each and the
    reduced filters computed on first use. `depth_effective` is the bounded
    closure's depth; None for an exact sweep or a given family. Compared by
    identity."""

    _fields = ("algebra", "filters", "depth_effective")
    __slots__ = _fields + ("_omegas", "_reduced")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, algebra: FiniteAlgebra, filters: tuple[tuple[int, ...], ...],
                 depth_effective: Optional[int] = None):
        self._assign(algebra, filters, depth_effective, {}, None)

    def omega(self, f: tuple[int, ...]) -> Partition:
        """The Leibniz congruence of the matrix with filter `f`."""
        got = self._omegas.get(f)
        if got is None:
            got = self._omegas[f] = leibniz_congruence(Matrix(self.algebra, f))
        return got

    def meet(self, family: Iterable[tuple[int, ...]]) -> Partition:
        """Meet of the Leibniz congruences of the filters in `family`, folded
        from the first one; the total partition for an empty family."""
        omegas = map(self.omega, family)
        first = next(omegas, None)
        if first is None:
            return Partition.total(self.algebra.size)
        return functools.reduce(Partition.meet, omegas, first)

    def suszko(self, f: Iterable[int]) -> Partition:
        """Meet of the Leibniz congruences of the filters containing `f`,
        which may be any subset of the carrier, not only a filter."""
        subset = set(f)
        return self.meet(g for g in self.filters if subset.issubset(g))

    def reduced(self) -> tuple[tuple[int, ...], ...]:
        """The filters whose Suszko congruence is the identity, in lattice
        order: those of the reduced models on the algebra."""
        if self._reduced is None:
            object.__setattr__(self, "_reduced", tuple(
                f for f in self.filters if self.suszko(f).is_identity()))
        return self._reduced


@functools.lru_cache(maxsize=1024)  # lattices hold no closures: about 0.8 kB each
def _sweep(logic: LogicPresentation, alg: FiniteAlgebra, depth_cap: int,
           cell_budget: int) -> FilterLattice:
    if logic.kind == RULES:
        return FilterLattice(alg, tuple(_rule_filters(logic, alg)))
    closure = term_classes(logic.signature, frozenset(m.algebra for m in logic.matrices), alg.size)
    filters, depth_effective = closure.filters(logic.matrices, alg, depth_cap, cell_budget)
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
    filter lattice, so it runs the same guards as `filter_lattice`."""
    lattice = filter_lattice(logic, alg, oracle_max, depth_cap, cell_budget)
    meta = {"filter_notion": filter_notion(logic), "variable_budget": logic.variable_budget}
    if logic.kind == MATRICES:
        meta["depth_cap"] = depth_cap
        meta["depth_effective"] = lattice.depth_effective
    return meta


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
    return [Matrix(alg, g) for g in filter_lattice(logic, alg, **kw).reduced()]


def reduced_models(
    logic: LogicPresentation,
    inventory: Iterable[FiniteAlgebra],
    config: Config = DEFAULTS,
) -> list[Matrix]:
    """Every reduced model on the inventory's distinct algebras, the
    algebras in `sort_key` order and each one's filters in lattice order."""
    caps = config.caps()
    return [m for alg in distinct(inventory)
            for m in reduced_filters_on(logic, alg, **caps)]
