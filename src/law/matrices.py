"""Logical matrices: an algebra with a designated subset, and the Leibniz
congruence machinery built on the partition-refinement engine."""

from __future__ import annotations

import itertools
from typing import Iterable, Optional, Sequence

from .algebra import (
    FiniteAlgebra,
    _induced,
    _set_subuniverses,
    largest_congruence_below,
    nonindexed_product,
    product_encode,
)
from .config import DEFAULTS
from .errors import CapExceeded, Hashed, SignatureMismatch
from .partitions import Partition


class Matrix(Hashed):
    """An algebra together with a designated filter, stored sorted."""

    _fields = ("algebra", "filter")
    __slots__ = _fields + ("_hash",)

    def __init__(self, algebra: FiniteAlgebra, filter: Iterable[int]):
        des = tuple(sorted(set(filter)))
        if des and (des[0] < 0 or des[-1] >= algebra.size):
            raise ValueError("filter element out of range")
        _set_algebra(self, algebra)
        _set_filter(self, des)
        _set_hash(self, hash((algebra, des)))

    def filter_set(self) -> frozenset[int]:
        return frozenset(self.filter)

    def sort_key(self):
        return (self.algebra.sort_key(), self.filter)

    def __repr__(self) -> str:
        return f"<Matrix {self.algebra!r} filter={list(self.filter)}>"


# the slots' own setters, which `__init__` calls since assignment is refused
_set_algebra = Matrix.algebra.__set__
_set_filter = Matrix.filter.__set__
_set_hash = Matrix._hash.__set__


def leibniz_congruence(m: Matrix) -> Partition:
    """Largest congruence under which the filter is a union of blocks.

    The seed partition is {F, complement}; for the empty or full filter that
    seed is the total relation, so the result is the largest congruence.
    """
    seed = Partition.seed_from_subset(m.algebra.size, m.filter)
    return largest_congruence_below(m.algebra, seed)


def is_compatible(theta: Partition, filter: Iterable[int]) -> bool:
    """True iff the subset is a union of theta-blocks."""
    inside = set(filter)
    touched = {theta.block_of(x) for x in inside}
    return all(theta.block_of(i) not in touched or i in inside for i in range(theta.size))


def reduce_matrix(m: Matrix) -> tuple[Matrix, Partition]:
    """Quotient by the Leibniz congruence; the result has identity Leibniz.
    Omega comes from the refinement engine, so it is a congruence and the
    quotient skips `quotient`'s re-check."""
    omega = leibniz_congruence(m)
    ids = omega.block_ids
    alg = _induced(m.algebra, [b[0] for b in omega.blocks()], ids.__getitem__)
    des = sorted({ids[x] for x in m.filter})
    return Matrix(alg, des), omega


def subuniverses(alg: FiniteAlgebra, cap: int = DEFAULTS.oracle_max + 2) -> list[tuple[int, ...]]:
    """All nonempty subsets closed under every operation, sorted by (size, elements).

    Visits the subsets X of the carrier as bit masks in ascending order, so
    Sg(X minus its top element t) is known when X comes: Sg(X) is that
    subuniverse when it holds t, and otherwise its closure with t, where
    only the argument tuples that touch t or a later addition are fired.
    The sorted list is built on first use and kept with the algebra; each
    call returns a fresh copy.
    """
    if alg.size > cap:
        raise CapExceeded(f"carrier {alg.size} exceeds subuniverse cap {cap}")
    if alg._subuniverses is None:
        n, ops = alg.size, _operations(alg)
        generated = [_close(n, ops, (), _constants(alg))]
        for mask in range(1, 1 << n):
            top = mask.bit_length() - 1
            below = generated[mask ^ (1 << top)]
            generated.append(below if top in below else _close(n, ops, below, (top,)))
        subs = tuple(sorted(set(generated[1:]), key=lambda s: (len(s), s)))
        _set_subuniverses(alg, subs)
    return list(alg._subuniverses)


def _operations(alg: FiniteAlgebra) -> list[tuple[tuple[int, ...], int]]:
    """(table, arity) of every symbol of arity at least 1."""
    return [(alg.table(sym), arity) for sym, arity in alg.signature.symbols if arity]


def _constants(alg: FiniteAlgebra) -> set[int]:
    return {alg.table(sym)[0] for sym, arity in alg.signature.symbols if not arity}


def _close(n: int, ops, closed: Sequence[int], fresh: Iterable[int]) -> tuple[int, ...]:
    """The closure of `closed` plus `fresh` under `ops` (`_operations`),
    sorted, where `closed` is already closed. Semi-naive: each round fires
    exactly the argument tuples over the elements so far that hold at least
    one of the last round's additions, reading the tables by flat index."""
    old = list(closed)
    members = set(old)
    delta = list(set(fresh) - members)
    members.update(delta)
    while delta:
        full = old + delta
        values: set[int] = set()
        for table, arity in ops:
            if arity == 1:
                values.update(map(table.__getitem__, delta))
                continue
            # flat-index prefixes of the tuples fired: `heads` over older
            # elements only, `cells` with an addition at some position
            heads, cells = old, delta
            for _ in range(arity - 2):
                cells = [i * n + e for i in cells for e in full] + [
                    i * n + d for i in heads for d in delta
                ]
                heads = [i * n + o for i in heads for o in old]
            values.update([table[i * n + e] for i in cells for e in full])
            values.update([table[i * n + d] for i in heads for d in delta])
        old = full
        delta = list(values - members)
        members.update(delta)
    return tuple(sorted(members))


def restrict_to_subuniverse(alg: FiniteAlgebra, sub: Sequence[int]) -> FiniteAlgebra:
    """Re-index a subuniverse as an algebra on {0..|sub|-1}."""
    index = {x: i for i, x in enumerate(sub)}
    # a value outside `sub` raises KeyError: `sub` is not closed
    return _induced(alg, sub, index.__getitem__)


def submatrices(m: Matrix, cap: int = DEFAULTS.oracle_max + 2) -> list[Matrix]:
    """Matrices on every subuniverse with the restricted filter, m itself included."""
    out = []
    for sub in subuniverses(m.algebra, cap=cap):
        index = {x: i for i, x in enumerate(sub)}
        alg = _induced(m.algebra, sub, index.__getitem__)
        des = sorted(index[x] for x in m.filter if x in index)
        out.append(Matrix(alg, des))
    return out


def matrix_product(m1: Matrix, m2: Matrix, cap: int = DEFAULTS.product_max) -> Matrix:
    """Non-indexed product of the algebras with the product filter."""
    alg = nonindexed_product(m1.algebra, m2.algebra, cap=cap)
    sizes = (m1.algebra.size, m2.algebra.size)
    des = [
        product_encode((a, b), sizes)
        for a in m1.filter
        for b in m2.filter
    ]
    return Matrix(alg, des)


def find_isomorphism(m1: Matrix, m2: Matrix) -> Optional[tuple[int, ...]]:
    """The lexicographically least carrier bijection preserving tables and
    mapping filter onto filter, or None. Backtracking over the images of
    0, 1, .. in ascending order with filter-membership pruning; assigning
    element i checks only the table cells that i completes, those over
    {0..i} with i as an argument or as the value."""
    if m1.algebra.signature != m2.algebra.signature:
        raise SignatureMismatch("isomorphism candidates must share a signature")
    n = m1.algebra.size
    if n != m2.algebra.size or len(m1.filter) != len(m2.filter):
        return None
    f1, f2 = m1.filter_set(), m2.filter_set()
    a1, a2 = m1.algebra, m2.algebra
    # checks[i]: (table of a2, args, value of the args in a1) for every cell
    # whose largest argument or value is i
    checks: list[list[tuple]] = [[] for _ in range(n)]
    for sym, arity in a1.signature.symbols:
        t2 = a2.table(sym)
        for args, v in zip(itertools.product(range(n), repeat=arity), a1.table(sym)):
            checks[max((v, *args))].append((t2, args, v))
    image = [-1] * n
    used = [False] * n

    def consistent(i: int) -> bool:
        for t2, args, v in checks[i]:
            idx = 0
            for a in args:
                idx = idx * n + image[a]
            if t2[idx] != image[v]:
                return False
        return True

    def extend(i: int) -> bool:
        if i == n:
            return True
        for cand in range(n):
            if used[cand] or ((i in f1) != (cand in f2)):
                continue
            image[i] = cand
            used[cand] = True
            if consistent(i) and extend(i + 1):
                return True
            used[cand] = False
            image[i] = -1
        return False

    if extend(0):
        return tuple(image)
    return None
