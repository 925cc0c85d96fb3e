"""The term classes over k variables: the engine behind every Leibniz condition.

`JointClosure` grows the classes of terms over k variables, terms with equal
values at every assignment in every algebra of a list, one depth level at a
time and only as far as its caller reads, and rebuilds each class's first
term in `enumerate_terms` order on demand. Its classes are the k-ary part of
the clone of term operations of the algebras taken jointly. Three readers:

* the bounded filter sweep of `logics`, over one canonical variable per
  element of a target algebra: one closure per logic and carrier size,
  which each target of that size follows with its own values
  (`canonical_rows`), and the distinct per-row lanes of each column
  (`rows_in`), kept for every target until the closure grows
  (`distinct_rows_in`). The sweep's family only shrinks as the depth
  grows, so `canonical_rows` offers the lanes of the depth below the cap
  before it propagates the last level, and a target they leave with only
  the full carrier skips that level;
* the witness searches of `hierarchy`, over x, or x and y, read each class's
  designation mask (`designation`, `lanes`, `theorems`) and never evaluate a
  term;
* the injective-theorem search reads a class's values on one algebra
  (`values`).

Nothing outside this module knows how a class is stored.
"""

from __future__ import annotations

import functools
import itertools
import struct
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .algebra import FiniteAlgebra, distinct
from .errors import CapExceeded, TermError
from .matrices import Matrix
from .terms import App, Signature, Term, Var

# A term over k variables is represented by its joint evaluation row: its
# value in each of a list of algebras at every assignment of the variables
# (a column). Terms with equal rows form a class. Rows are closed under the
# signature pointwise, one level per depth, deduplicating as we go, so each
# class is found at the depth of its first term.
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
# its class, and the rows come in the order of those first terms. Each new
# row records that tuple, its symbol and argument rows, as it is found:
# enough to rebuild its first term on demand (`JointClosure.term`).
#
# A target algebra of the filter sweep needs no column of its own. Each
# class keeps a bitmask of the values in the target, at the canonical
# assignment (variable i sent to element i), of its terms of depth <= L,
# and level L+1 adds to it the target's image of the masks of every tuple
# of earlier classes that yields it. A canonical closure keeps those tuples
# per level as it grows, with the class each yields, for every target it
# serves. A class of the closure with the target's column is
# one (class, value) pair, so the masks hold as many values as that
# closure has classes, and the cell budget counts them.

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


def _indicator(members: Iterable[int]) -> bytes:
    """A translation table sending members to 1 and everything else to 0."""
    table = bytearray(_LANES)
    for x in members:
        table[x] = 1
    return bytes(table)


def _image(alg: FiniteAlgebra, sym: str, head: Sequence[int]) -> list[int]:
    """`sym`'s image in `alg` over sets of values, as bitmasks (bit v for
    value v), with its head arguments' sets fixed: for each set of the tail,
    the set of values taken with each argument in its set, read off the
    table in one pass over the cells whose head arguments lie in their sets.
    A nullary symbol takes its one value at every nonempty tail set."""
    n, table = alg.size, alg.table(sym)
    if alg.signature.arity(sym) == 0:
        single = [1 << table[0]] * n
    else:
        # the first cell of each head tuple's run of n tail cells
        starts = [0]
        for m in head:
            starts = [(s + v) * n for s in starts for v in range(n) if m >> v & 1]
        single = [0] * n
        for s in starts:
            for t, value in enumerate(table[s:s + n]):
                single[t] |= 1 << value
    image = [0] * (1 << n)
    for m in range(1, len(image)):  # the image of a union is the union of the images
        image[m] = image[m & (m - 1)] | single[(m & -m).bit_length() - 1]
    return image


# bit v of each byte, as a translation table: runs of 2^v zeros and ones
_BITS = [(bytes(1 << v) + b"\1" * (1 << v)) * (_LANES >> v + 1) for v in range(8)]


class JointClosure:
    """The term classes over `names` and the distinct `algebras`, grown one
    level per `grow` under a cell budget; class i stands for its first term
    in `enumerate_terms` order, `term(i)`.

    A `canonical` closure is the filter sweep's, read by `canonical_rows`:
    its variables are never rebuilt into terms, so their names may clash
    with a symbol. Otherwise a name that is a symbol raises TermError.
    `level` is the depth of the deepest classes; `saturated` is set once a
    level adds none."""

    def __init__(self, sig: Signature, algebras: Iterable[FiniteAlgebra], names: Sequence[str],
                 cell_budget: float, canonical: bool = False):
        if not canonical:
            for v in names:
                if v in sig:
                    raise TermError(f"variable {v!r} clashes with a symbol name")
        # each block's columns, as assignments of the variables, in block order
        self._columns = {b: list(itertools.product(range(b.size), repeat=len(names)))
                         for b in distinct(algebras)}
        block_algs = list(self._columns)
        for b in block_algs:
            if b.size > _LANES:
                raise CapExceeded(
                    f"closure cells are bytes: an algebra of size {b.size} exceeds {_LANES} elements"
                )
        offsets = tuple(itertools.accumulate(map(len, self._columns.values()), initial=0))
        self._spans = {b: slice(lo, hi) for b, lo, hi in zip(block_algs, offsets, offsets[1:])}
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
        self._index: dict[bytes, int] = {}  # row -> its index
        self._variables = []  # each variable's row
        for i, name in enumerate(names):
            row = bytes(inp[i] for cols in self._columns.values() for inp in cols)
            if row not in self._index:
                self._index[row] = len(self._rows)
                self._terms[len(self._rows)] = Var(name)
                self._rows.append(row)
            self._variables.append(self._index[row])
        # each row's first term's symbol and argument rows; none for a variable
        self._origins: list[Optional[tuple[str, tuple[int, ...]]]] = [None] * len(self._rows)
        self._ends = [len(self._rows)]  # per level L: the rows of depth <= L
        # (algebra, member sets) -> `distinct_rows_in`, until a level adds rows
        self._kept_lanes: dict[tuple, tuple[int, ...]] = {}
        # a canonical closure's tuples per level L + 1, for `canonical_rows`:
        # (symbol, head rows, first tail row, the row each tail yields)
        self._yields: Optional[list[list[tuple]]] = [] if canonical else None

    def _candidates(self) -> Iterator[tuple[str, tuple[int, ...], int, bytes]]:
        """The next level's (symbol, head) batches: symbol, head rows, first
        tail row, and the candidate rows, one per tail row, back to back."""
        rows, width, base, count = self._rows, self._width, self._base, len(self._rows)
        old = self._ends[self.level - 1] if self.level else 0  # rows before the last level's
        tails = {}  # (arity, first tail row) -> tags plus tail rows: an int, or cells
        for sym, arity in self._syms:
            table, tags = self._tables[sym], self._tags[arity]
            if arity == 0:
                if self.level == 0:
                    yield sym, (), 0, bytes(map(table.__getitem__, tags))
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
                    yield sym, head, start, bytes(map(table.__getitem__, idx))
                else:
                    for h, weight in zip(head, weights):
                        idx += int.from_bytes(rows[h] * copies, "big") * weight
                    yield sym, head, start, idx.to_bytes(copies * width, "big").translate(table)

    def grow(self) -> bool:
        """Build the next level. False, building nothing, when it would pass
        the cell budget or, setting `saturated`, when it adds no row. An
        error part-way through a level leaves the closure as it was."""
        rows, index, origins, width = self._rows, self._index, self._origins, self._width
        count = len(rows)
        projected = sum(count**arity if arity else 1 for _, arity in self._syms) * width
        if self.saturated or projected > self.cell_budget:
            return False
        fresh: list[bytes] = []  # this level's new rows
        tuples = []  # this level's `_yields`, when kept
        # batch length -> the unpack of a Struct that splits it into rows: a
        # level has two tail lengths, plus the one-row nullary batch
        splits: dict[int, Callable[[bytes], tuple[bytes, ...]]] = {}
        try:
            for sym, head, start, out in self._candidates():
                split = splits.get(len(out))
                if split is None:
                    split = splits[len(out)] = struct.Struct(f"{width}s" * (len(out) // width)).unpack
                keys = split(out)
                if not all(map(index.__contains__, keys)):
                    for tail, k in enumerate(keys, start):
                        if k not in index:
                            index[k] = count + len(fresh)
                            fresh.append(k)
                            origins.append((sym, (*head, tail) if self._arity[sym] else ()))
                if self._yields is not None:
                    tuples.append((sym, head, start, list(map(index.__getitem__, keys))))
        except BaseException:
            for k in fresh:
                del index[k]
            del origins[count:]
            raise
        if self._yields is not None:
            self._yields.append(tuples)
        if not fresh:
            self.saturated = True  # fixpoint: deeper terms add nothing
            return False
        rows.extend(fresh)
        self._kept_lanes.clear()
        self._ends.append(len(rows))
        self.level += 1
        return True

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
        """The first term of class i in `enumerate_terms` order: its origin's
        symbol applied to its argument rows' first terms."""
        got = self._terms.get(i)
        if got is None:
            sym, args = self._origins[i]
            got = self._terms[i] = App(sym, tuple(map(self.term, args)))
        return got

    def values(self, i: int, alg: FiniteAlgebra) -> bytes:
        """Class i's values on `alg`, one byte per column of its block, at
        every assignment of the variables."""
        return self._rows[i][self._spans[alg]]

    def rows_in(self, member_sets: Sequence[Iterable[int]], alg: FiniteAlgebra) -> list[int]:
        """For each column of `alg`'s block and each set of `member_sets`:
        the rows whose value there lies in the set, as one int with one byte
        lane per row, 1 for such a row."""
        width, blob, span = self._width, b"".join(self._rows), self._spans[alg]
        tables = [_indicator(members) for members in member_sets]
        return [int.from_bytes(column.translate(t), "big")
                for column in (blob[c::width] for c in range(span.start, span.stop))
                for t in tables]

    def distinct_rows_in(self, member_sets: tuple[frozenset[int], ...],
                         alg: FiniteAlgebra) -> tuple[int, ...]:
        """The distinct ints of `rows_in`, in first order, built once per
        (alg, member_sets) and kept until `grow` adds rows, so every target
        that reads this closure at one depth shares them."""
        key = (alg, member_sets)
        got = self._kept_lanes.get(key)
        if got is None:
            got = self._kept_lanes[key] = tuple(dict.fromkeys(self.rows_in(member_sets, alg)))
        return got

    def canonical_rows(self, target: FiniteAlgebra, depth_cap: int,
                       cell_budget: int) -> Iterator[tuple[list[int], int]]:
        """For each element v of `target`: the rows with a term of depth <= d
        whose value in `target` at the canonical assignment is v, in the
        lanes of `rows_in`; and d. The closure grows as far as the target
        reads. d is `depth_cap`, or less when a closure with the target's
        own column would pass `cell_budget`; at a fixpoint it is
        `depth_cap`, since deeper terms add nothing.

        The last pair yielded is that answer. When the budget admits the
        last level, the lanes of depth `depth_cap` - 1 come first, paired
        with `depth_cap`, after the closure has grown for that level, so
        they read the same `distinct_rows_in` as the answer: a caller whose
        result those lanes already settle at every greater depth stops
        there, and the last level is never propagated."""
        width, arities = self._width + (target not in self._spans), list(self._arity.values())
        masks = [0] * self._ends[0]  # per row of depth <= level, bit v for a term of value v
        for v, row in enumerate(self._variables):
            masks[row] |= 1 << v
        images: dict[tuple, list[int]] = {}  # (symbol, head masks) -> `_image`
        level, joint = 0, target.size  # joint: the (row, value) pairs
        while level < depth_cap and sum(map(joint.__pow__, arities)) * width <= cell_budget:
            while self.level <= level and self.grow():
                pass
            if level == depth_cap - 1:
                yield self._value_lanes(masks, target.size), depth_cap
            masks, level = self._spread(target, masks, level, images), level + 1
            if level < depth_cap:  # the last level's count decides nothing
                grown = sum(map(int.bit_count, masks))
                if grown == joint:
                    level = depth_cap  # fixpoint: deeper terms add nothing
                joint = grown
        lanes = self._value_lanes(masks, target.size)
        del masks, images  # freed while the caller reads the lanes
        yield lanes, level

    def _spread(self, target: FiniteAlgebra, masks: list[int], level: int,
                images: dict[tuple, list[int]]) -> list[int]:
        """The masks of the rows of depth <= `level` + 1, from `masks`, those
        of depth <= `level`: each row gains the image of every tuple of rows
        of depth <= `level` that yields it."""
        new = masks + [0] * (self._ends[min(level + 1, self.level)] - len(masks))
        for sym, head, start, rows in itertools.chain.from_iterable(self._yields[:level + 1]):
            key = (sym, *map(masks.__getitem__, head))
            image = images.get(key)
            if image is None:
                image = images[key] = _image(target, sym, key[1:])
            for row, tail in zip(rows, masks[start:start + len(rows)]):
                new[row] |= image[tail]
        return new

    def _value_lanes(self, masks: list[int], size: int) -> list[int]:
        """For each of `size` values, the rows whose mask holds it, in the
        lanes of `rows_in`: bit v of each mask, eight values to a byte."""
        pad = bytes(len(self._rows) - len(masks))  # the rows of greater depth
        octets = [bytes(masks) + pad] if size <= 8 else [
            bytes(m >> k & 255 for m in masks) + pad for k in range(0, size, 8)]
        return [int.from_bytes(octets[v >> 3].translate(_BITS[v & 7]), "big") for v in range(size)]

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
