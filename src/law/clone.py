"""The term classes over n variables: the engine behind every Leibniz condition.

`JointClosure` grows the classes of terms over n variables, terms with equal
values at every assignment in every algebra of a set, one depth level at a
time and only as far as its readers read, and rebuilds each class's first
term in `enumerate_terms` order on demand, over the variable names its
reader passes. Its classes are the n-ary part of the clone of term
operations of the algebras taken jointly. Neither the names nor a cell
budget change a class, so `term_classes` keeps one closure per (signature,
algebras, n) for every reader. Each reader passes its own budget, checked
before each level is read, so a closure that another reader grew answers
as a fresh one would. The readers:

* the bounded filter sweep of `logics`, `filters`, over one canonical
  variable per element of a target algebra: every target of that size
  follows the closure of the defining algebras with its own values, and
  the lanes of each logic's columns are kept for every target until the
  closure grows. The sweep's family only shrinks as the depth grows, so it
  also tests each depth from 1 to the cap - 1 at which the budget provably
  admits every deeper level, and a target that one of them leaves with only
  the full carrier propagates no deeper level;
* the witness searches of `hierarchy`, over x (n = 1), or x and y (n = 2),
  read each class's designation mask (`designation`, `lanes`, `theorems`)
  and never evaluate a term;
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
from .errors import CapExceeded
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
# of earlier classes that yields it. A closure keeps those tuples per level
# as it grows, with the class each yields, for every target it serves. A
# class of the closure with the target's column is one (class, value) pair,
# so the masks hold as many values as that closure has classes, and the
# cell budget counts them.

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


def _subsets_sorted(n: int) -> list[tuple[int, ...]]:
    """Every subset of range(n), by size then elements: the full carrier is
    last, and alone at size n."""
    return [s for k in range(n + 1) for s in itertools.combinations(range(n), k)]


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
    """The term classes over n variables and the distinct `algebras`, grown
    one level per `grow`; class i stands for its first term in
    `enumerate_terms` order, `term(i, names)`. The library builds one only
    through `term_classes`.

    Its readers pass their cell budget per read (`classes`, `theorems`,
    `filters`), so one closure serves every budget. `level` is the
    depth of the deepest classes; `saturated` is set once a level adds
    none."""

    def __init__(self, sig: Signature, algebras: Iterable[FiniteAlgebra], n: int):
        # each block's columns, as assignments of the variables, in block order
        self._columns = {b: list(itertools.product(range(b.size), repeat=n))
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
        self._index: dict[bytes, int] = {}  # row -> its index
        self._variables = []  # each variable's row
        for i in range(n):
            row = bytes(inp[i] for cols in self._columns.values() for inp in cols)
            if row not in self._index:
                self._index[row] = len(self._rows)
                self._rows.append(row)
            self._variables.append(self._index[row])
        # each row's first term's symbol and argument rows; none for a variable
        self._origins: list[Optional[tuple[str, tuple[int, ...]]]] = [None] * len(self._rows)
        self._ends = [len(self._rows)]  # per level L: the rows of depth <= L
        # a logic's matrices -> `_column_lanes`, until a level adds rows
        self._kept_lanes: dict[tuple[Matrix, ...], tuple[int, ...]] = {}
        # the tuples per level L + 1, for `_canonical_masks`: (symbol, head
        # rows, first tail row, the row each tail yields)
        self._yields: list[list[tuple]] = []

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
        """Build the next level. False, building nothing, when it adds no
        row, setting `saturated`. An error part-way through a level leaves
        the closure as it was."""
        if self.saturated:
            return False
        rows, index, origins, width = self._rows, self._index, self._origins, self._width
        count = len(rows)
        fresh: list[bytes] = []  # this level's new rows
        tuples = []  # this level's `_yields`
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
                tuples.append((sym, head, start, list(map(index.__getitem__, keys))))
        except BaseException:
            for k in fresh:
                del index[k]
            del origins[count:]
            raise
        self._yields.append(tuples)
        if not fresh:
            self.saturated = True  # fixpoint: deeper terms add nothing
            return False
        rows.extend(fresh)
        self._kept_lanes.clear()
        self._ends.append(len(rows))
        self.level += 1
        return True

    def classes(self, depth: int, cell_budget: float) -> Iterator[int]:
        """The indices of the classes of terms of depth <= `depth`, level by
        level, growing the closure only as far as the caller reads. Raises
        CapExceeded when `cell_budget` stops it short of `depth`: level L + 1,
        built or not, and a fixpoint found there, are read only when the
        budget admits every argument tuple of the rows of depth <= L at every
        column, so a closure that a larger budget grew reads as a fresh one."""
        level = 0
        yield from range(self._ends[0])
        while level < depth:
            count = self._ends[level]
            cells = sum(count**arity if arity else 1 for _, arity in self._syms) * self._width
            if cells > cell_budget:
                raise CapExceeded(f"closure cell budget {cell_budget} stops the term "
                                  f"classes at depth {level} of {depth}")
            if level == self.level and not self.grow():
                return  # fixpoint: deeper terms add nothing
            level += 1
            yield from range(count, self._ends[level])

    def term(self, i: int, names: Sequence[str]) -> Term:
        """The first term of class i in `enumerate_terms` order over the
        variables `names`: a variable's name, or its origin's symbol applied
        to its argument rows' first terms."""
        origin = self._origins[i]
        if origin is None:
            return Var(names[self._variables.index(i)])
        sym, args = origin
        return App(sym, tuple(self.term(a, names) for a in args))

    def values(self, i: int, alg: FiniteAlgebra) -> bytes:
        """Class i's values on `alg`, one byte per column of its block, at
        every assignment of the variables."""
        return self._rows[i][self._spans[alg]]

    def filters(self, matrices: tuple[Matrix, ...], target: FiniteAlgebra, depth_cap: int,
                cell_budget: int) -> tuple[list[tuple[int, ...]], int]:
        """The bounded filters on `target` of the logic of `matrices`, over
        this closure's algebras and one canonical variable per element of
        `target`, sorted by (size, elements); and the effective depth of
        `_canonical_masks`. The family only shrinks as the depth grows,
        since deeper terms add rules, and the full carrier is always in it;
        so each depth offered below the answer tests the subsets that
        survived the one before, the first that leaves only the full carrier
        settles the sweep with no deeper level propagated, and otherwise the
        answer tests only the subsets that survived them all."""
        n = target.size
        subsets = _subsets_sorted(n)
        for masks, depth in self._canonical_masks(target, depth_cap, cell_budget):
            subsets = self._survivors(matrices, masks, subsets, n)
            if len(subsets) == 1:  # the full carrier, alone at every greater depth
                break
        return subsets, depth

    def _survivors(self, matrices: tuple[Matrix, ...], masks: list[int],
                   subsets: list[tuple[int, ...]], n: int) -> list[tuple[int, ...]]:
        """Those of `subsets`, of an `n`-element target, that stay filters
        under the rows of `masks`: G is one iff every row with a term of
        value outside G is undesignated in some column that no value in G
        kills."""
        # Sets of rows are ints with one byte lane per row, 1 for a member:
        # of_value[v] holds the rows with a term of value v, and each column
        # lane drops the lanes of the rows of greater depth than `masks`'
        of_value = self._value_lanes(masks, n)
        beyond = 8 * (len(self._rows) - len(masks))
        # covers[k]: the columns killed by exactly the values in bitmask k,
        # i.e. each leaves a row with a term of each such value undesignated,
        # so no G holding one of them can use it; their rows ORed together
        covers: dict[int, int] = {}
        for col in self._column_lanes(matrices):
            col >>= beyond
            k = sum(1 << v for v, rows in enumerate(of_value) if col & rows)
            covers[k] = covers.get(k, 0) | col
        survivors = []
        for subset in subsets:
            held = sum(1 << v for v in subset)
            outside = cover = 0
            for v, rows in enumerate(of_value):
                if not held >> v & 1:
                    outside |= rows
            for k, col in covers.items():
                if not k & held:
                    cover |= col
            if outside & cover == outside:
                survivors.append(subset)
        return survivors

    def _column_lanes(self, matrices: tuple[Matrix, ...]) -> tuple[int, ...]:
        """For each matrix and each column of its block: the rows whose value
        there lies outside its filter, as one int with one byte lane per
        row, 1 for such a row. The distinct ints, in first order, are built
        once per `matrices` and kept until `grow` adds rows, so every target
        that reads this closure at one depth shares them."""
        got = self._kept_lanes.get(matrices)
        if got is None:
            width, blob, lanes = self._width, b"".join(self._rows), {}
            for m in matrices:
                outside = _indicator(set(range(m.algebra.size)) - m.filter_set())
                span = self._spans[m.algebra]
                for c in range(span.start, span.stop):
                    lanes[int.from_bytes(blob[c::width].translate(outside), "big")] = None
            got = self._kept_lanes[matrices] = tuple(lanes)
        return got

    def _canonical_masks(self, target: FiniteAlgebra, depth_cap: int,
                         cell_budget: int) -> Iterator[tuple[list[int], int]]:
        """For each row with a term of depth <= d: the values in `target`
        of those terms at the canonical assignment, as a bitmask, bit v for
        value v; and d. The closure grows as far as the target reads. d is
        `depth_cap`, or less when a closure with the target's own column
        would pass `cell_budget`; at a fixpoint it is `depth_cap`, since
        deeper terms add nothing.

        The last pair yielded is that answer. Before it come the masks of
        each depth L from 1 to `depth_cap` - 1 (0 at cap 1) at which the
        budget provably admits every deeper level, paired with `depth_cap`,
        each after the closure has grown for level L + 1: at `depth_cap` - 1
        the loop has passed its test, and below it the test passes with
        every row of depth < `depth_cap` taking every value, if the closure
        has already built those rows. A caller whose result such masks
        settle at every greater depth stops there, and no deeper level is
        propagated."""
        width, arities = self._width + (target not in self._spans), list(self._arity.values())

        def admits(joint: int) -> bool:  # the budget admits a level of `joint` pairs
            return sum(map(joint.__pow__, arities)) * width <= cell_budget

        masks = [0] * self._ends[0]  # per row of depth <= level, bit v for a term of value v
        for v, row in enumerate(self._variables):
            masks[row] |= 1 << v
        images: dict[tuple, list[int]] = {}  # (symbol, head masks) -> `_image`
        level, joint = 0, target.size  # joint: the (row, value) pairs
        while level < depth_cap and admits(joint):
            while self.level <= level and self.grow():
                pass
            # a deeper level holds at most its rows times the values, and
            # `admits` grows with the count: bound the last, if it is built
            last = min(depth_cap - 1, self.level)
            bounded = (last == depth_cap - 1 or self.saturated) and admits(
                self._ends[last] * target.size)
            if level == depth_cap - 1 or level > 0 and bounded:
                yield masks, depth_cap
            masks, level = self._spread(target, masks, level, images), level + 1
            if level < depth_cap:  # the last level's count decides nothing
                grown = sum(map(int.bit_count, masks))
                if grown == joint:
                    level = depth_cap  # fixpoint: deeper terms add nothing
                joint = grown
        del images  # freed while the caller reads the masks
        yield masks, level

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

    @staticmethod
    def _value_lanes(masks: list[int], size: int) -> list[int]:
        """For each of `size` values, the rows whose mask holds it, one byte
        lane per mask, 1 for such a row: bit v of each mask, eight values to
        a byte."""
        octets = [bytes(masks)] if size <= 8 else [
            bytes(m >> k & 255 for m in masks) for k in range(0, size, 8)]
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

    def theorems(self, matrices: Sequence[Matrix], depth: int,
                 cell_budget: float) -> Iterator[int]:
        """The classes of depth <= `depth` designated in every column of
        `matrices`, in order, growing the closure as they are read."""
        mask = self.designation(matrices)
        every = self.lanes(matrices, lambda d, col: True)
        return (i for i in self.classes(depth, cell_budget) if mask(i) == every)


# 16 closures at most, since memory grows with them: Ł3's for n = 3 at
# depth 3 holds 117 KiB, the criterion-8 product's for n = 4 at depth 2
# 506 KiB, and the column lanes they keep (`_column_lanes`) add 14 KiB
# and 320 KiB
@functools.lru_cache(maxsize=16)
def term_classes(sig: Signature, algebras: frozenset[FiniteAlgebra], n: int) -> JointClosure:
    """The term classes over n variables of `algebras`, shared by every
    reader of those algebras and grown as far as the deepest of them reads."""
    return JointClosure(sig, algebras, n)
