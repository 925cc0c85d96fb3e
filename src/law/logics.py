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

The joint closure is the one term engine: it grows the classes of terms over
k variables, terms with equal values at every assignment in every algebra
of a list, one depth level at a time and only as far as its caller reads,
and rebuilds each class's first term in `enumerate_terms` order on demand.
The bounded filter sweep runs it over the canonical variables; the witness
searches of `hierarchy` run it over x, or x and y, and read each class's
designation mask instead of evaluating terms. It is pure Python over
`bytes`: a row holds one byte per column over the columns of every algebra,
and an operation meets all rows of its last argument, in every algebra at
once, in one big-int lane computation and one `bytes.translate`: each lane
is tagged with its algebra and indexes one table built from every algebra's
operation table. Rounds are semi-naive (each level only tries argument
tuples touching the previous level's new rows). Its algebras therefore have
at most 256 elements. The subset sweep reads the rows as one row-major blob,
on the same byte lanes, as ints with one lane per row.

Either sweep runs once per (logic, algebra, caps): `filter_lattice` keeps the
filters with their Leibniz congruences, and every public filter function
reads it. The cache holds up to 1024 lattices, more than a gallery
inventory's algebras, so repeated scans over one inventory hit it. Verdicts
derived from the bounded notion are never reported as exact; use
`filter_bounds` for the metadata to attach.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
from dataclasses import dataclass, field
from typing import Callable, Container, Iterable, Iterator, Optional, Sequence

from .algebra import FiniteAlgebra, term_values
from .config import DEFAULTS, VARIABLE_BUDGET, Config
from .errors import CapExceeded, NotAFilter, SignatureMismatch
from .matrices import Matrix, leibniz_congruence
from .partitions import Partition
from .terms import App, Signature, Term, Var, check_term, to_sexpr, variables_of


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
# the joint closure: term classes by joint evaluation, one level at a time
#
# A term over k variables is represented by its joint evaluation row: its
# value in each of a list of algebras at every assignment of the variables
# (a column), and, for the filter sweep, its value in the target algebra at
# one canonical assignment. Terms with equal rows form a class. Rows are
# closed under the signature pointwise, one level per depth, deduplicating
# as we go, so each class is found at the depth of its first term. Two
# callers read the classes:
#
# * the bounded filter sweep, with one canonical variable per carrier
#   element over the defining algebras plus the target's canonical column:
#   G is a bounded filter iff no row has canonical value outside G while
#   staying designated at every column that keeps the G-valued rows
#   designated;
# * the witness searches of `hierarchy`, with x (theorems) or x, y
#   (protoalgebraic sets) over the algebras of the consequence matrices:
#   they read each class's designation mask, one byte lane per matrix
#   column, and never evaluate a term.
#
# A row is one `bytes` over the columns of every block (the columns of one
# algebra), one byte per column. An operation meets every row of its last
# argument at once, with each byte a lane tagged with its block: for base B,
# the largest block size, the lane holds ((block*B + h1)*B + ..)*B + t, an
# index into one table built from every block's operation table. The tags
# plus the tail rows are one big-endian int per (arity, first tail row) per
# level; each head row, repeated once per tail row and weighted by its power
# of B, adds one more. No lane carries while blocks * B**arity <= 256, and
# `bytes.translate` with the table padded to 256 maps the lanes to values.
# Wider joint tables go cell by cell over the same indices. Rounds are
# semi-naive (Bancilhon and Ramakrishnan, 1986): level L only tries argument
# tuples that touch a row new at level L-1, since the rest were tried one
# level up; the budget still counts every tuple.
#
# The tuples come in `enumerate_terms` product order, and the arguments of
# a class's first term are first terms of their own classes (swapping in an
# earlier argument of the same class gives an earlier term of the same
# class). So the first tuple that yields a new row spells the first term of
# its class, and the rows come in the order of those first terms. The
# closure keeps one record per (symbol, head) batch that adds rows, enough
# to rebuild that term on demand (`_JointClosure.term`).

_LANES = 256  # a closure cell is one byte


def _joint_table(block_algs: Sequence[FiniteAlgebra], sym: str, arity: int) -> bytes | list[int]:
    """`sym`'s value at every tagged lane index, as a translation table when
    the lanes fit a byte, else as a list."""
    base = max(b.size for b in block_algs)
    table = [0] * (len(block_algs) * base**arity)
    for bi, b in enumerate(block_algs):
        for args, value in zip(itertools.product(range(b.size), repeat=arity), b.table(sym)):
            table[functools.reduce(lambda i, d: i * base + d, args, bi)] = value
    return bytes(table).ljust(_LANES, b"\0") if len(table) <= _LANES else table


def _distinct(algebras: Iterable[FiniteAlgebra]) -> list[FiniteAlgebra]:
    """The distinct algebras in `sort_key` order: a closure's blocks."""
    return sorted(set(algebras), key=lambda a: a.sort_key())


class _JointClosure:
    """The term classes over `names`, grown one level per `grow`.

    `rows[i]` is class i's joint evaluation; `inputs[b]` lists block b's
    columns as assignments of the variables, and `offsets` holds the first
    column of each block, then the row width. `level` is the depth of the
    deepest rows; `saturated` is set once a level adds none."""

    def __init__(self, sig: Signature, algebras: Sequence[FiniteAlgebra], names: Sequence[str],
                 cell_budget: int, target: Optional[FiniteAlgebra] = None):
        self.block_algs = list(algebras)
        self.inputs = [list(itertools.product(range(b.size), repeat=len(names)))
                       for b in self.block_algs]
        if target is not None:
            canonical = tuple(range(target.size))
            if target not in self.block_algs:
                self.block_algs.append(target)
                self.inputs.append([canonical])
        for b in self.block_algs:
            if b.size > _LANES:
                raise CapExceeded(
                    f"closure cells are bytes: an algebra of size {b.size} exceeds {_LANES} elements"
                )
        self.offsets = tuple(itertools.accumulate(map(len, self.inputs), initial=0))
        if target is not None:
            c_block = self.block_algs.index(target)
            self.c_col = self.offsets[c_block] + self.inputs[c_block].index(canonical)
        self.width = self.offsets[-1]
        self.cell_budget = cell_budget
        self.level = 0
        self.saturated = False
        self._base = max(b.size for b in self.block_algs)
        self._tags = [bi for bi, cols in enumerate(self.inputs) for _ in cols]  # each column's block
        self._syms = sorted(sig.symbols)
        self._arity = dict(self._syms)
        self._tables = {sym: _joint_table(self.block_algs, sym, arity) for sym, arity in self._syms}
        # depth-0 rows: one per variable whose row is new
        self.rows: list[bytes] = []
        self._terms: dict[int, Term] = {}  # rebuilt first terms
        self._seen: set[bytes] = set()
        for i, name in enumerate(names):
            row = bytes(inp[i] for cols in self.inputs for inp in cols)
            if row not in self._seen:
                self._seen.add(row)
                self._terms[len(self.rows)] = Var(name)
                self.rows.append(row)
        self._batches: list[tuple] = []  # (first new row, symbol, head rows)
        self._old = 0  # rows that predate the previous level's new ones

    def grow(self) -> bool:
        """Build the next level. False, building nothing, when it would pass
        the cell budget or, setting `saturated`, when it adds no row."""
        rows, seen, width, syms = self.rows, self._seen, self.width, self._syms
        count = len(rows)
        projected = sum(count**arity if arity else 1 for _, arity in syms) * width
        if self.saturated or projected > self.cell_budget:
            return False
        old, base, tags, batches = self._old, self._base, self._tags, self._batches
        fresh: list[bytes] = []  # this level's new rows

        def absorb(out: bytes, sym: str, head: tuple[int, ...]) -> None:
            """Keep the unseen rows among the candidates, back to back in
            `out`, and record the batch when it adds one."""
            keys = [out[i : i + width] for i in range(0, len(out), width)]
            if not seen.issuperset(keys):
                batches.append((count + len(fresh), sym, head))
                for k in keys:
                    if k not in seen:
                        seen.add(k)
                        fresh.append(k)

        tails = {}  # (arity, first tail row) -> tags plus tail rows: an int, or cells
        for sym, arity in syms:
            table = self._tables[sym]
            if arity == 0:
                if self.level == 0:
                    absorb(bytes(map(table.__getitem__, tags)), sym, ())
                continue
            wide = isinstance(table, list)
            weights = [base**k for k in range(arity - 1, 0, -1)]
            for head in itertools.product(range(count), repeat=arity - 1):
                start = 0 if max(head, default=-1) >= old else old
                copies = count - start
                idx = tails.get((arity, start))
                if idx is None:
                    cells, scale = b"".join(rows[start:]), base**arity
                    if wide:
                        idx = [t * scale + v for t, v in zip(tags * copies, cells)]
                    else:
                        idx = (int.from_bytes(bytes(t * scale for t in tags) * copies, "big")
                               + int.from_bytes(cells, "big"))
                    tails[arity, start] = idx
                if wide:
                    for h, weight in zip(head, weights):
                        idx = [i + v * weight for i, v in zip(idx, rows[h] * copies)]
                    absorb(bytes(map(table.__getitem__, idx)), sym, head)
                else:
                    for h, weight in zip(head, weights):
                        idx += int.from_bytes(rows[h] * copies, "big") * weight
                    absorb(idx.to_bytes(copies * width, "big").translate(table), sym, head)
        if not fresh:
            self.saturated = True  # fixpoint: deeper terms add nothing
            return False
        self._old = count
        rows.extend(fresh)
        self.level += 1
        return True

    def grow_to(self, depth_cap: int) -> int:
        """Grow until `depth_cap`, a fixpoint or the cell budget; the depth
        reached, or `depth_cap` at a fixpoint, since deeper terms add nothing."""
        while self.level < depth_cap and self.grow():
            pass
        return depth_cap if self.saturated else self.level

    def classes(self, depth: int) -> Iterator[int]:
        """The indices of the classes of terms of depth <= `depth`, level by
        level, growing the closure only as far as the caller reads. Raises
        CapExceeded when the cell budget stops it short of `depth`."""
        done = 0
        while True:
            yield from range(done, len(self.rows))
            done = len(self.rows)
            if self.level >= depth or self.saturated:
                return
            if not self.grow() and not self.saturated:
                raise CapExceeded(f"closure cell budget {self.cell_budget} stops the term "
                                  f"classes at depth {self.level} of {depth}")

    def term(self, i: int) -> Term:
        """The first term of class i in `enumerate_terms` order: its batch's
        symbol applied to the head rows and the first tail row that yields
        row i, each argument rebuilt in turn. The tails are searched from
        row 0, cell by cell: a tuple the batch skipped has only rows that
        predate the previous level, so it yields an older row."""
        got = self._terms.get(i)
        if got is None:
            first, sym, head = self._batches[
                bisect.bisect_right(self._batches, i, key=operator.itemgetter(0)) - 1]
            rows, base, table, want = self.rows, self._base, self._tables[sym], self.rows[i]
            args = ()
            if self._arity[sym]:
                # each column's lane index with the head rows in place
                lanes = [functools.reduce(lambda x, h: x * base + rows[h][c], head, tag)
                         for c, tag in enumerate(self._tags)]
                args = head + (next(t for t in range(first) if all(
                    table[lane * base + v] == w for lane, v, w in zip(lanes, rows[t], want))),)
            got = self._terms[i] = App(sym, tuple(map(self.term, args)))
        return got

    def lanes(self, matrices: Sequence[Matrix], keep: Callable[[frozenset[int], tuple], bool]) -> int:
        """One byte lane per column of each matrix's block, matrices in
        order: 1 where `keep(filter, column)` holds."""
        return int.from_bytes(bytes(keep(m.filter_set(), col) for m in matrices
                                    for col in self.inputs[self.block_algs.index(m.algebra)]),
                              "big")

    def designation(self, matrices: Sequence[Matrix]) -> Callable[[int], int]:
        """Class i -> its designation mask, in the lanes of `lanes`: 1 where
        its value lies in the matrix's filter."""
        spans = []
        for m in matrices:
            bi = self.block_algs.index(m.algebra)
            spans.append((self.offsets[bi], self.offsets[bi + 1], _indicator(m.filter_set())))
        return lambda i: int.from_bytes(
            b"".join(self.rows[i][lo:hi].translate(t) for lo, hi, t in spans), "big")




def _bounded_filter_subsets(logic: LogicPresentation, closure: _JointClosure,
                            n: int) -> list[tuple[int, ...]]:
    # Sets of rows are ints with one byte lane per row, 1 for a member:
    # of_value[v] holds the rows of canonical value v, and each column of
    # every matrix gives the rows it leaves undesignated. The rows are one
    # row-major blob, and a column is read by stride.
    blob, width = b"".join(closure.rows), closure.width
    of_value = [_lanes(blob[closure.c_col :: width], _indicator({v})) for v in range(n)]
    columns: dict[int, None] = {}
    for m in logic.matrices:
        bi = closure.block_algs.index(m.algebra)
        undesignated = _indicator(set(range(m.algebra.size)) - m.filter_set())
        for c in range(closure.offsets[bi], closure.offsets[bi + 1]):
            columns[_lanes(blob[c::width], undesignated)] = None
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


def _indicator(members: Container[int]) -> bytes:
    """A translation table sending members to 1 and everything else to 0."""
    return bytes(x in members for x in range(_LANES))


def _lanes(cells: bytes, table: bytes) -> int:
    """The translated cells as the byte lanes of one int."""
    return int.from_bytes(cells.translate(table), "big")


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
    closure = _JointClosure(logic.signature, _distinct(m.algebra for m in logic.matrices),
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
