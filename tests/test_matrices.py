"""Matrices: Leibniz congruence, reduction, submatrices, products, isomorphism."""

import itertools
import random

import pytest

from law.algebra import FiniteAlgebra, congruences_bruteforce, enumerate_algebras, one_element
from law.errors import SignatureMismatch
from law.gallery import bool2, bool4, imp2, pointed_set
from law.matrices import (
    Matrix,
    find_isomorphism,
    is_compatible,
    leibniz_congruence,
    matrix_product,
    reduce_matrix,
    submatrices,
    subuniverse_closure,
    subuniverses,
)
from law.partitions import Partition
from law.terms import Signature

BOOL = bool2().signature


def compatible_congruences(m):
    return [
        c
        for c in congruences_bruteforce(m.algebra)
        if is_compatible(c, m.filter)
    ]


def test_leibniz_on_the_four_element_counterexample():
    b4 = bool4()
    assert leibniz_congruence(Matrix(b4, (1, 3))) == Partition.from_blocks(4, [[3, 1], [0, 2]])
    assert leibniz_congruence(Matrix(b4, (1, 2, 3))).is_identity()


def test_leibniz_degenerate_filters():
    b4 = bool4()
    assert leibniz_congruence(Matrix(b4, range(4))).is_total()
    assert leibniz_congruence(Matrix(b4, ())).is_total()
    assert leibniz_congruence(Matrix(pointed_set(3), ())).is_total()


def test_leibniz_is_largest_compatible_congruence():
    for alg in [bool2(), imp2(), bool4(), pointed_set(3)]:
        for k in range(alg.size + 1):
            for f in itertools.combinations(range(alg.size), k):
                m = Matrix(alg, f)
                omega = leibniz_congruence(m)
                assert is_compatible(omega, f)
                for c in compatible_congruences(m):
                    assert c.refines(omega)


def test_is_compatible():
    assert is_compatible(Partition.identity(4), [1, 3])
    assert not is_compatible(Partition.total(4), [1, 3])
    assert is_compatible(Partition.from_blocks(4, [[3, 1], [0, 2]]), [1, 3])


def test_reduce_matrix():
    b4 = bool4()
    reduced, omega = reduce_matrix(Matrix(b4, (1, 3)))
    assert reduced.algebra.size == 2
    assert len(reduced.filter) == 1
    assert omega == Partition.from_blocks(4, [[1, 3], [0, 2]])
    assert find_isomorphism(reduced, Matrix(bool2(), (1,))) is not None
    # reduction is idempotent
    again, omega2 = reduce_matrix(reduced)
    assert omega2.is_identity()
    full, _ = reduce_matrix(Matrix(b4, range(4)))
    assert full.algebra.size == 1 and full.filter == (0,)


def test_reduce_idempotent_randomized():
    rng = random.Random(3)
    for alg in [bool4(), pointed_set(4), imp2()]:
        for _ in range(10):
            f = [x for x in range(alg.size) if rng.random() < 0.5]
            reduced, _ = reduce_matrix(Matrix(alg, f))
            _, omega = reduce_matrix(reduced)
            assert omega.is_identity()


def brute_subuniverses(alg):
    """Oracle: closure of every nonempty subset, deduplicated."""
    out = set()
    for k in range(1, alg.size + 1):
        for seed in itertools.combinations(range(alg.size), k):
            out.add(subuniverse_closure(alg, seed))
    return sorted(out, key=lambda s: (len(s), s))


def test_subuniverses_of_bool4():
    b4 = bool4()
    subs = subuniverses(b4)
    assert subs == [(0, 3), (0, 1, 2, 3)]
    assert subs == brute_subuniverses(b4)


def _check_subuniverses(alg, f):
    want = brute_subuniverses(alg)
    assert subuniverses(alg) == want, alg
    subs = submatrices(Matrix(alg, f))
    assert [len(s) for s in want] == [sm.algebra.size for sm in subs]
    for sub, sm in zip(want, subs):
        assert sm.filter == tuple(i for i, x in enumerate(sub) if x in f)
        for sym, arity in alg.signature.symbols:
            for args in itertools.product(range(len(sub)), repeat=arity):
                value = alg.apply(sym, [sub[a] for a in args])
                assert sub[sm.algebra.apply(sym, args)] == value


def test_subuniverses_match_the_closure_of_every_subset():
    rng = random.Random(5)
    imp = Signature({"→": 2})
    for n in (1, 2, 3):
        for alg in enumerate_algebras(imp, n, iso_prune=True):
            _check_subuniverses(alg, [x for x in range(n) if rng.random() < 0.5])
    sigs = [Signature({"c": 0, "t": 3}), Signature({"c": 0, "d": 0, "f": 1}),
            Signature({"c": 0, "g": 2, "t": 3}), Signature({"t": 3})]
    for _ in range(120):
        sig, n = rng.choice(sigs), rng.randint(1, 5)
        tables = {sym: [rng.randrange(n) for _ in range(n**arity)] for sym, arity in sig.symbols}
        _check_subuniverses(FiniteAlgebra(sig, n, tables),
                            [x for x in range(n) if rng.random() < 0.5])


def test_submatrices():
    assert len(submatrices(Matrix(one_element(BOOL), (0,)))) == 1
    mats = submatrices(Matrix(bool4(), (1, 3)))
    assert len(mats) == 2
    small = mats[0]
    assert small.algebra.size == 2 and small.filter == (1,)
    ps = submatrices(Matrix(pointed_set(2), (0,)))
    assert len(ps) == 2  # the point alone and the whole carrier


def test_subuniverses_intersection_closed():
    for alg in [bool4(), imp2(), pointed_set(3)]:
        subs = [set(s) for s in subuniverses(alg)]
        for a, b in itertools.combinations(subs, 2):
            inter = a & b
            if inter:
                assert tuple(sorted(inter)) in {tuple(sorted(s)) for s in subs}


def test_matrix_product():
    one = Matrix(one_element(BOOL), (0,))
    assert matrix_product(one, one).algebra.size == 1
    m = matrix_product(Matrix(bool2(), (1,)), Matrix(bool2(), (1,)))
    assert m.filter == (3,)
    assert m.algebra.size == 4


def test_matrix_product_of_reduced_is_reduced():
    # Holds over signatures rich enough to pad a separating polynomial with a
    # same-shape partner landing in the other filter (Boolean, implication).
    # A single constant symbol is too poor: see the counterexample test below.
    rng = random.Random(5)
    for alg in [bool2(), imp2()]:
        pool = []
        for k in range(1, alg.size + 1):
            for f in itertools.combinations(range(alg.size), k):
                m = Matrix(alg, f)
                if leibniz_congruence(m).is_identity():
                    pool.append(m)
        for _ in range(10):
            m1, m2 = rng.choice(pool), rng.choice(pool)
            assert leibniz_congruence(matrix_product(m1, m2)).is_identity()
    assert leibniz_congruence(
        matrix_product(Matrix(bool2(), (1,)), Matrix(bool2(), (0,)))
    ).is_identity()


def test_matrix_product_of_reduced_pointed_sets_need_not_reduce():
    m1 = Matrix(pointed_set(2), (0,))
    m2 = Matrix(pointed_set(2), (1,))
    assert leibniz_congruence(m1).is_identity()
    assert leibniz_congruence(m2).is_identity()
    assert not leibniz_congruence(matrix_product(m1, m2)).is_identity()


def test_find_isomorphism():
    m = Matrix(bool2(), (1,))
    assert find_isomorphism(m, m) == (0, 1)
    assert find_isomorphism(m, Matrix(bool2(), (0,))) is None
    with pytest.raises(SignatureMismatch):
        find_isomorphism(m, Matrix(imp2(), (1,)))
    # size mismatch is just a miss
    assert find_isomorphism(m, Matrix(bool4(), (3,))) is None
