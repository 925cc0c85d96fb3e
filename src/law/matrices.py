"""Logical matrices: an algebra with a designated subset, and the Leibniz
congruence machinery built on the partition-refinement engine."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .algebra import (
    FiniteAlgebra,
    largest_congruence_below,
    nonindexed_product,
    product_encode,
    quotient,
)
from .config import DEFAULTS
from .errors import CapExceeded, SignatureMismatch
from .partitions import Partition


@dataclass(frozen=True, eq=False, slots=True)
class Matrix:
    """An algebra together with a designated filter, stored sorted."""

    algebra: FiniteAlgebra
    filter: tuple[int, ...]
    _hash: int = field(init=False, compare=False)

    def __init__(self, algebra: FiniteAlgebra, filter: Iterable[int]):
        des = tuple(sorted(set(filter)))
        if any(not 0 <= x < algebra.size for x in des):
            raise ValueError("filter element out of range")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "filter", des)
        object.__setattr__(self, "_hash", hash((algebra, des)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.algebra == other.algebra
            and self.filter == other.filter
        )

    def filter_set(self) -> frozenset[int]:
        return frozenset(self.filter)

    def sort_key(self):
        return (self.algebra.sort_key(), self.filter)

    def __repr__(self) -> str:
        return f"<Matrix {self.algebra!r} filter={list(self.filter)}>"


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
    """Quotient by the Leibniz congruence; the result has identity Leibniz."""
    omega = leibniz_congruence(m)
    alg = quotient(m.algebra, omega)
    des = sorted({omega.block_of(x) for x in m.filter})
    return Matrix(alg, des), omega


def subuniverses(alg: FiniteAlgebra, cap: int = DEFAULTS.oracle_max + 2) -> list[tuple[int, ...]]:
    """All nonempty subsets closed under every operation, sorted by (size, elements).

    Visits the subsets X of the carrier as bit masks in ascending order, so
    Sg(X minus its top element t) is known when X comes: Sg(X) is that
    subuniverse when it holds t, and otherwise the closure of it with t.
    """
    if alg.size > cap:
        raise CapExceeded(f"carrier {alg.size} exceeds subuniverse cap {cap}")
    generated = [subuniverse_closure(alg, ())]
    for mask in range(1, 1 << alg.size):
        top = mask.bit_length() - 1
        below = generated[mask ^ (1 << top)]
        generated.append(below if top in below else subuniverse_closure(alg, below + (top,)))
    return sorted(set(generated[1:]), key=lambda s: (len(s), s))


def subuniverse_closure(alg: FiniteAlgebra, seed: Iterable[int]) -> tuple[int, ...]:
    current = set(seed)
    for sym, arity in alg.signature.symbols:
        if arity == 0:
            current.add(alg.apply(sym, []))
    changed = True
    while changed:
        changed = False
        for sym, arity in alg.signature.symbols:
            for args in itertools.product(sorted(current), repeat=arity):
                v = alg.apply(sym, args)
                if v not in current:
                    current.add(v)
                    changed = True
    return tuple(sorted(current))


def restrict_to_subuniverse(alg: FiniteAlgebra, sub: Sequence[int]) -> FiniteAlgebra:
    """Re-index a subuniverse as an algebra on {0..|sub|-1}."""
    index = {x: i for i, x in enumerate(sub)}
    tables = {}
    for sym, arity in alg.signature.symbols:
        cells = []
        for args in itertools.product(sub, repeat=arity):
            cells.append(index[alg.apply(sym, args)])
        tables[sym] = tuple(cells)
    return FiniteAlgebra(alg.signature, len(sub), tables)


def submatrices(m: Matrix, cap: int = DEFAULTS.oracle_max + 2) -> list[Matrix]:
    """Matrices on every subuniverse with the restricted filter, m itself included."""
    out = []
    for sub in subuniverses(m.algebra, cap=cap):
        alg = restrict_to_subuniverse(m.algebra, sub)
        index = {x: i for i, x in enumerate(sub)}
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
    """A carrier bijection preserving tables and mapping filter onto filter,
    or None. Plain backtracking with filter-membership pruning."""
    if m1.algebra.signature != m2.algebra.signature:
        raise SignatureMismatch("isomorphism candidates must share a signature")
    n = m1.algebra.size
    if n != m2.algebra.size or len(m1.filter) != len(m2.filter):
        return None
    f1, f2 = m1.filter_set(), m2.filter_set()
    a1, a2 = m1.algebra, m2.algebra
    syms = a1.signature.symbols
    image = [-1] * n
    used = [False] * n

    def consistent(upto: int) -> bool:
        assigned = range(upto + 1)
        for sym, arity in syms:
            for args in itertools.product(assigned, repeat=arity):
                v = a1.apply(sym, args)
                if v > upto:
                    continue
                if a2.apply(sym, [image[a] for a in args]) != image[v]:
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
