"""Matrices: Leibniz congruence, reduction, submatrices, products, isomorphism."""

import itertools
import random

import pytest

from law.algebra import (
    FiniteAlgebra,
    congruences_bruteforce,
    enumerate_algebras,
    one_element,
    quotient,
)
from law.errors import CapExceeded, SignatureMismatch
from law.gallery import bool2, bool4, imp2, pointed_set
from law.matrices import (
    Matrix,
    find_isomorphism,
    is_compatible,
    leibniz_congruence,
    matrix_product,
    reduce_matrix,
    restrict_to_subuniverse,
    submatrices,
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


def flat(args, n):
    idx = 0
    for a in args:
        idx = idx * n + a
    return idx


def brute_subuniverses(alg):
    """Oracle: every nonempty subset that every table maps into itself, each
    argument tuple over the subset read from the tables directly."""
    n = alg.size
    return [
        sub
        for k in range(1, n + 1)
        for sub in itertools.combinations(range(n), k)
        if all(
            alg.table(sym)[flat(args, n)] in sub
            for sym, arity in alg.signature.symbols
            for args in itertools.product(sub, repeat=arity)
        )
    ]


def test_subuniverses_of_bool4():
    b4 = bool4()
    subs = subuniverses(b4)
    assert subs == [(0, 3), (0, 1, 2, 3)]
    assert subs == brute_subuniverses(b4)


def test_subuniverses_returns_a_fresh_list_each_call():
    b4 = bool4()
    first = subuniverses(b4)
    first.append((1,))
    first[0] = (2,)
    assert subuniverses(b4) == [(0, 3), (0, 1, 2, 3)]
    with pytest.raises(CapExceeded):
        subuniverses(b4, cap=3)


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


def generated(alg, generators):
    """Sg(generators) by a naive fixpoint: apply every symbol to every
    argument tuple over the set so far until nothing new turns up."""
    closed = set(generators)
    while True:
        values = {alg.apply(sym, args) for sym, arity in alg.signature.symbols
                  for args in itertools.product(sorted(closed), repeat=arity)}
        if values <= closed:
            return tuple(sorted(closed))
        closed |= values


def test_subuniverses_at_the_cap_are_the_generated_subalgebras():
    # an oracle independent of the definition `subuniverses` and
    # `brute_subuniverses` share: the listed sets are exactly the Sg(X)
    rng = random.Random(8)
    sigs = [Signature({"c": 0, "f": 1}), Signature({"g": 2}), Signature({"t": 3}),
            Signature({"c": 0, "g": 2, "t": 3})]
    for sig in sigs:
        for n in (6, 7, 8) * 3:
            alg = FiniteAlgebra(sig, n, {s: random_table(rng, n, a) for s, a in sig.symbols})
            subs = subuniverses(alg)
            for sub in subs:
                assert generated(alg, sub) == sub, (alg.tables, sub)
            want = {generated(alg, x) for k in range(n + 1)
                    for x in itertools.combinations(range(n), k)} - {()}
            assert set(subs) == want and len(subs) == len(want), alg.tables


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


def brute_isomorphism(m1, m2):
    """Oracle: the first of all n! permutations, in lexicographic order, that
    maps every table of m1 onto m2 and the filter onto the filter."""
    a1, a2 = m1.algebra, m2.algebra
    n = a1.size
    if n != a2.size:
        return None
    for perm in itertools.permutations(range(n)):
        if {perm[x] for x in m1.filter} != set(m2.filter):
            continue
        if all(
            a2.table(sym)[flat([perm[a] for a in args], n)] == perm[value]
            for sym, arity in a1.signature.symbols
            for args, value in zip(itertools.product(range(n), repeat=arity), a1.table(sym))
        ):
            return perm
    return None


def relabel(alg, perm):
    """The copy of `alg` in which element x is renamed perm[x]."""
    n = alg.size
    tables = {}
    for sym, arity in alg.signature.symbols:
        cells = [0] * n**arity
        for args, value in zip(itertools.product(range(n), repeat=arity), alg.table(sym)):
            cells[flat([perm[a] for a in args], n)] = perm[value]
        tables[sym] = cells
    return FiniteAlgebra(alg.signature, n, tables)


def random_table(rng, n, arity):
    """Random cells, a constant or the first projection: the last two give
    algebras with many automorphisms, so many isomorphisms to choose from."""
    kind = rng.choice(["random", "random", "constant", "projection"])
    if kind == "constant" or arity == 0:
        return [rng.randrange(n)] * n**arity
    if kind == "projection":
        return [args[0] for args in itertools.product(range(n), repeat=arity)]
    return [rng.randrange(n) for _ in range(n**arity)]


def test_find_isomorphism_is_the_least_preserving_bijection():
    rng = random.Random(13)
    sigs = [Signature({"c": 0}), Signature({"f": 1}), Signature({"→": 2}), Signature({"t": 3}),
            Signature({"c": 0, "f": 1}), Signature({"c": 0, "g": 2, "t": 3})]
    outcomes = set()
    for _ in range(150):
        sig, n = rng.choice(sigs), rng.randint(1, 5)
        alg = FiniteAlgebra(sig, n, {s: random_table(rng, n, a) for s, a in sig.symbols})
        f = [x for x in range(n) if rng.random() < 0.5]
        perm = list(range(n))
        rng.shuffle(perm)
        copy = relabel(alg, perm)
        other = FiniteAlgebra(sig, n, {s: random_table(rng, n, a) for s, a in sig.symbols})
        g = rng.sample(range(n), len(f))  # same size, maybe another subset
        m = Matrix(alg, f)
        pairs = {"copy": Matrix(copy, [perm[x] for x in f]), "filter only": Matrix(alg, g),
                 "other": Matrix(other, f)}
        for kind, target in pairs.items():
            want = brute_isomorphism(m, target)
            assert find_isomorphism(m, target) == want, (kind, alg, f, target)
            outcomes.add((kind, want is None, want == tuple(range(n))))
    # each kind of pair met an isomorphism other than the identity and,
    # but for the relabelled copy, a pair with none
    assert {(kind, False, False) for kind in ("copy", "filter only", "other")} <= outcomes
    assert {("filter only", True, False), ("other", True, False)} <= outcomes


def validated(alg, elems, relabel):
    """The algebra on {0..len(elems)-1} with f(i1, .., ik) =
    relabel(f(elems[i1], .., elems[ik])), built from `apply` through the
    validating constructor."""
    k = len(elems)
    return FiniteAlgebra(alg.signature, k, {
        sym: [relabel(alg.apply(sym, [elems[i] for i in args]))
              for args in itertools.product(range(k), repeat=arity)]
        for sym, arity in alg.signature.symbols
    })


def assert_same_algebra(got, want):
    assert got == want and hash(got) == hash(want)
    assert got.tables == want.tables and got.name == want.name == ""
    assert got.neighbours() == want.neighbours()
    assert subuniverses(got) == subuniverses(want)


def test_reduce_matrix_and_submatrices_equal_the_checked_constructions():
    # `reduce_matrix` skips the check of `quotient`; `submatrices` must match
    # the validated restriction to each of `subuniverses`, in order
    rng = random.Random(31)
    sigs = [BOOL, Signature({"c": 0}), Signature({"c": 0, "t": 3}),
            Signature({"c": 0, "f": 1, "g": 2})]
    for _ in range(200):
        sig, n = rng.choice(sigs), rng.randint(1, 4)
        alg = FiniteAlgebra(sig, n, {s: random_table(rng, n, a) for s, a in sig.symbols})
        m = Matrix(alg, [x for x in range(n) if rng.random() < 0.5])
        reduced, omega = reduce_matrix(m)
        assert omega == leibniz_congruence(m)
        assert_same_algebra(reduced.algebra, quotient(alg, omega))
        assert reduced.filter == tuple(sorted({omega.block_of(x) for x in m.filter}))
        for sm, sub in zip(submatrices(m), subuniverses(alg), strict=True):
            index = {x: i for i, x in enumerate(sub)}
            assert_same_algebra(sm.algebra, validated(alg, sub, index.__getitem__))


def test_restrictions_and_quotients_equal_the_validated_construction():
    rng = random.Random(17)
    algs = [bool4(), imp2(), pointed_set(3)]
    algs += list(enumerate_algebras(Signature({"→": 2}), 3, iso_prune=True))[::37]
    sigs = [Signature({"c": 0, "t": 3}), Signature({"c": 0, "f": 1, "g": 2})]
    for _ in range(40):
        sig, n = rng.choice(sigs), rng.randint(1, 4)
        algs.append(FiniteAlgebra(sig, n, {s: random_table(rng, n, a) for s, a in sig.symbols}))
    for alg in algs:
        for sub in subuniverses(alg):
            index = {x: i for i, x in enumerate(sub)}
            assert_same_algebra(restrict_to_subuniverse(alg, sub),
                                validated(alg, sub, index.__getitem__))
        for theta in congruences_bruteforce(alg):
            reps = [block[0] for block in theta.blocks()]
            assert_same_algebra(quotient(alg, theta), validated(alg, reps, theta.block_of))
