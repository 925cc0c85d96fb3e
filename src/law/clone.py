"""The term classes over k variables: the engine behind every Leibniz condition.

`JointClosure` grows the classes of terms over k variables, terms with equal
values at every assignment in every algebra of a list, one depth level at a
time and only as far as its caller reads, and rebuilds each class's first
term in `enumerate_terms` order on demand. Its classes are the k-ary part of
the clone of term operations of the algebras taken jointly. Three readers:

* the bounded filter sweep of `logics`, over one canonical variable per
  element of a target algebra, reads per-row lanes of each column
  (`rows_in`);
* the witness searches of `hierarchy`, over x, or x and y, read each class's
  designation mask (`designation`, `lanes`, `theorems`) and never evaluate a
  term;
* the injective-theorem search reads a class's values on one algebra
  (`values`).

Nothing outside this module knows how a class is stored.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
import struct
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .algebra import FiniteAlgebra
from .errors import CapExceeded, TermError
from .matrices import Matrix
from .terms import App, Signature, Term, Var

# A term over k variables is represented by its joint evaluation row: its
# value in each of a list of algebras at every assignment of the variables
# (a column), and, for the filter sweep, its value in the target algebra at
# one canonical assignment. Terms with equal rows form a class. Rows are
# closed under the signature pointwise, one level per depth, deduplicating
# as we go, so each class is found at the depth of its first term.
#
# A row is one `bytes` over the columns of every block (the columns of one
# algebra), one byte per column. An operation meets every row of its last
# argument at once, with each byte a lane tagged with its block: for base B,
# the largest block size, and a symbol of arity a, block b of n_b elements
# spans (n_b - 1)(B^a - 1)/(B - 1) + 1 lane indices, its largest base-B
# digit string plus one, and a lane holds the block's first index plus
# ((h1*B + h2)*B + ..)*B + t, an index into one table built from every
# block's operation table. The tags plus the tail rows are one big-endian
# int per (arity, first tail row) per level; each head row, repeated once
# per tail row and weighted by its power of B, adds one more. No lane
# carries while the spans add up to at most 256, and `bytes.translate` with
# the table padded to 256 maps the lanes to values. Wider joint tables go
# cell by cell over the same indices. Either way a batch of candidate rows
# comes back as one `bytes`, which one `struct` unpack splits into rows.
# Rounds are semi-naive (Bancilhon and Ramakrishnan, 1986): level L only
# tries argument tuples that touch a row new at level L-1, since the rest
# were tried one level up; the budget still counts every tuple.
#
# The tuples come in `enumerate_terms` product order, and the arguments of
# a class's first term are first terms of their own classes (swapping in an
# earlier argument of the same class gives an earlier term of the same
# class). So the first tuple that yields a new row spells the first term of
# its class, and the rows come in the order of those first terms. The
# closure keeps one record per (symbol, head) batch that adds rows, enough
# to rebuild that term on demand (`JointClosure.term`).

_LANES = 256  # a closure cell is one byte


def _block_offsets(block_algs: Sequence[FiniteAlgebra], arity: int) -> list[int]:
    """The first lane index of each block for a symbol of `arity`, then the
    table length."""
    base = max(b.size for b in block_algs)
    reach = sum(base**k for k in range(arity))
    return list(itertools.accumulate(((b.size - 1) * reach + 1 for b in block_algs), initial=0))


def _joint_table(block_algs: Sequence[FiniteAlgebra], sym: str, arity: int) -> bytes | list[int]:
    """`sym`'s value at every tagged lane index, as a translation table when
    the lanes fit a byte, else as a list."""
    base = max(b.size for b in block_algs)
    offsets = _block_offsets(block_algs, arity)
    table = [0] * offsets[-1]
    for first, b in zip(offsets, block_algs):
        for args, value in zip(itertools.product(range(b.size), repeat=arity), b.table(sym)):
            table[first + functools.reduce(lambda i, d: i * base + d, args, 0)] = value
    return bytes(table).ljust(_LANES, b"\0") if len(table) <= _LANES else table


def _distinct(algebras: Iterable[FiniteAlgebra]) -> list[FiniteAlgebra]:
    """The distinct algebras in `sort_key` order: a closure's blocks."""
    return sorted(set(algebras), key=lambda a: a.sort_key())


def _indicator(members: Iterable[int]) -> bytes:
    """A translation table sending members to 1 and everything else to 0."""
    table = bytearray(_LANES)
    for x in members:
        table[x] = 1
    return bytes(table)


class JointClosure:
    """The term classes over `names` and the distinct `algebras`, grown one
    level per `grow` under a cell budget; class i stands for its first term
    in `enumerate_terms` order, `term(i)`.

    With a `target`, the rows also carry the target's value at the canonical
    assignment (variable i sent to element i); the target's variables are
    the filter sweep's canonical ones, never rebuilt into terms, so their
    names may clash with a symbol. Without one, a name that is a symbol
    raises TermError. `level` is the depth of the deepest classes;
    `saturated` is set once a level adds none."""

    def __init__(self, sig: Signature, algebras: Iterable[FiniteAlgebra], names: Sequence[str],
                 cell_budget: int, target: Optional[FiniteAlgebra] = None):
        if target is None:
            for v in names:
                if v in sig:
                    raise TermError(f"variable {v!r} clashes with a symbol name")
        # each block's columns, as assignments of the variables, in block order
        self._columns = {b: list(itertools.product(range(b.size), repeat=len(names)))
                         for b in _distinct(algebras)}
        if target is not None:
            canonical = tuple(range(target.size))
            self._columns.setdefault(target, [canonical])
        block_algs = list(self._columns)
        for b in block_algs:
            if b.size > _LANES:
                raise CapExceeded(
                    f"closure cells are bytes: an algebra of size {b.size} exceeds {_LANES} elements"
                )
        offsets = tuple(itertools.accumulate(map(len, self._columns.values()), initial=0))
        self._spans = {b: slice(lo, hi) for b, lo, hi in zip(block_algs, offsets, offsets[1:])}
        if target is not None:
            self._canonical = self._spans[target].start + self._columns[target].index(canonical)
        self._width = offsets[-1]
        self.cell_budget = cell_budget
        self.level = 0
        self.saturated = False
        self._base = max(b.size for b in block_algs)
        self._syms = sorted(sig.symbols)
        self._arity = dict(self._syms)
        # each column's tag, per arity: its block's first lane index
        self._tags = {arity: [first for first, cols in zip(_block_offsets(block_algs, arity),
                                                           self._columns.values()) for _ in cols]
                      for arity in set(self._arity.values())}
        self._tables = {sym: _joint_table(block_algs, sym, arity) for sym, arity in self._syms}
        # depth-0 rows: one per variable whose row is new
        self._rows: list[bytes] = []
        self._terms: dict[int, Term] = {}  # rebuilt first terms
        self._seen: set[bytes] = set()
        self._blob = b""  # the rows back to back, joined by `rows_in`
        for i, name in enumerate(names):
            row = bytes(inp[i] for cols in self._columns.values() for inp in cols)
            if row not in self._seen:
                self._seen.add(row)
                self._terms[len(self._rows)] = Var(name)
                self._rows.append(row)
        self._batches: list[tuple] = []  # (first new row, symbol, head rows)
        self._old = 0  # rows that predate the previous level's new ones

    def grow(self) -> bool:
        """Build the next level. False, building nothing, when it would pass
        the cell budget or, setting `saturated`, when it adds no row."""
        rows, seen, width, syms = self._rows, self._seen, self._width, self._syms
        count = len(rows)
        projected = sum(count**arity if arity else 1 for _, arity in syms) * width
        if self.saturated or projected > self.cell_budget:
            return False
        old, base, batches = self._old, self._base, self._batches
        fresh: list[bytes] = []  # this level's new rows
        # batch length -> the unpack of a Struct that splits it into rows:
        # a level has two tail lengths, plus the one-row nullary batch
        splits: dict[int, Callable[[bytes], tuple[bytes, ...]]] = {}

        def absorb(out: bytes, sym: str, head: tuple[int, ...]) -> None:
            """Keep the unseen rows among the candidates, back to back in
            `out`, and record the batch when it adds one."""
            split = splits.get(len(out))
            if split is None:
                split = splits[len(out)] = struct.Struct(f"{width}s" * (len(out) // width)).unpack
            keys = split(out)
            if not seen.issuperset(keys):
                batches.append((count + len(fresh), sym, head))
                for k in keys:
                    if k not in seen:
                        seen.add(k)
                        fresh.append(k)

        tails = {}  # (arity, first tail row) -> tags plus tail rows: an int, or cells
        for sym, arity in syms:
            table, tags = self._tables[sym], self._tags[arity]
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
                    cells = b"".join(rows[start:])
                    if wide:
                        idx = [t + v for t, v in zip(tags * copies, cells)]
                    else:
                        idx = (int.from_bytes(bytes(tags) * copies, "big")
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
            yield from range(done, len(self._rows))
            done = len(self._rows)
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
            rows, base, table, want = self._rows, self._base, self._tables[sym], self._rows[i]
            args = ()
            if self._arity[sym]:
                # each column's lane index with the head rows in place
                lanes = [tag + base * functools.reduce(lambda x, h: x * base + rows[h][c], head, 0)
                         for c, tag in enumerate(self._tags[self._arity[sym]])]
                args = head + (next(t for t in range(first) if all(
                    table[lane + v] == w for lane, v, w in zip(lanes, rows[t], want))),)
            got = self._terms[i] = App(sym, tuple(map(self.term, args)))
        return got

    def values(self, i: int, alg: FiniteAlgebra) -> bytes:
        """Class i's values on `alg`, one byte per column of its block: at
        every assignment of the variables, or at the canonical one alone
        when `alg` is a target that is no defining algebra."""
        return self._rows[i][self._spans[alg]]

    def rows_in(self, members: Iterable[int], alg: Optional[FiniteAlgebra] = None) -> list[int]:
        """For each column of `alg`'s block, or for the target's canonical
        column alone when `alg` is None: the rows whose value there lies in
        `members`, as one int with one byte lane per row, 1 for such a row."""
        width, table = self._width, _indicator(members)
        if len(self._blob) != len(self._rows) * width:  # rows joined once per level
            self._blob = b"".join(self._rows)
        blob = self._blob
        span = self._spans[alg] if alg is not None else slice(self._canonical, self._canonical + 1)
        return [int.from_bytes(blob[c::width].translate(table), "big")
                for c in range(span.start, span.stop)]

    def lanes(self, matrices: Sequence[Matrix], keep: Callable[[frozenset[int], tuple], bool]) -> int:
        """One byte lane per column of each matrix's block, matrices in
        order: 1 where `keep(filter, column)` holds."""
        return int.from_bytes(bytes(keep(m.filter_set(), col) for m in matrices
                                    for col in self._columns[m.algebra]), "big")

    def designation(self, matrices: Sequence[Matrix]) -> Callable[[int], int]:
        """Class i -> its designation mask, in the lanes of `lanes`: 1 where
        its value lies in the matrix's filter."""
        tables = [(m.algebra, _indicator(m.filter_set())) for m in matrices]
        return lambda i: int.from_bytes(
            b"".join(self.values(i, a).translate(t) for a, t in tables), "big")

    def theorems(self, matrices: Sequence[Matrix], depth: int) -> Iterator[int]:
        """The classes of depth <= `depth` designated in every column of
        `matrices`, in order, growing the closure as they are read."""
        mask = self.designation(matrices)
        every = self.lanes(matrices, lambda d, col: True)
        return (i for i in self.classes(depth) if mask(i) == every)
