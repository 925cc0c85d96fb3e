"""Logical matrices: an algebra with a designated subset, and the Leibniz
congruence machinery built on the partition-refinement engine."""

from __future__ import annotations

import itertools
from typing import Iterable, Optional, Sequence

from .algebra import (
    FiniteAlgebra,
    _cells,
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
    seed is the total relation, a congruence, so it is the result.
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

    The subsets, in that order, that every table maps into themselves: the
    argument tuples over a subset are read from the tables by flat index,
    and a nullary symbol's one cell is among them. The list is built on
    first use and kept with the algebra; each call returns a fresh copy.
    """
    if alg.size > cap:
        raise CapExceeded(f"carrier {alg.size} exceeds subuniverse cap {cap}")
    if alg._subuniverses is None:
        n = alg.size
        tables = [(alg.table(sym), arity) for sym, arity in alg.signature.symbols]
        subs = []
        for k in range(1, n + 1):
            for sub in itertools.combinations(range(n), k):
                members = set(sub)
                for table, arity in tables:
                    if not members.issuperset(map(table.__getitem__, _cells(n, sub, arity))):
                        break
                else:
                    subs.append(sub)
        _set_subuniverses(alg, tuple(subs))
    return list(alg._subuniverses)


def restrict_to_subuniverse(alg: FiniteAlgebra, sub: Sequence[int]) -> FiniteAlgebra:
    """Re-index a subuniverse as an algebra on {0..|sub|-1}."""
    index = {x: i for i, x in enumerate(sub)}
    # a value outside `sub` raises KeyError: `sub` is not closed
    return _induced(alg, sub, index.__getitem__)


def submatrices(m: Matrix, cap: int = DEFAULTS.oracle_max + 2) -> list[Matrix]:
    """Matrices on every subuniverse with the restricted filter, m itself included."""
    f = m.filter_set()
    return [Matrix(restrict_to_subuniverse(m.algebra, sub),
                   [i for i, x in enumerate(sub) if x in f])
            for sub in subuniverses(m.algebra, cap=cap)]


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
