"""Finite algebras: evaluation, products, quotients, congruence engine vs oracle."""

import itertools
import random

import pytest

from law.algebra import (
    FiniteAlgebra,
    _row_keys,
    _split,
    congruences_bruteforce,
    direct_product,
    enumerate_algebras,
    eval_term,
    is_congruence,
    largest_congruence_below,
    nonindexed_product,
    one_element,
    product_decode,
    quotient,
    term_values,
)
from law.errors import CapExceeded, NotACongruence, TermError
from law.gallery import bool2, bool4, imp2, pointed_set
from law.matrices import Matrix, find_isomorphism
from law.partitions import Partition, all_partitions
from law.terms import App, Signature, enumerate_terms, parse_term

BOOL = bool2().signature


def coarsest_below(alg, seed):
    """Oracle: join of every brute-force congruence refining the seed."""
    below = [c for c in congruences_bruteforce(alg) if c.refines(seed)]
    best = below[0]
    for c in below[1:]:
        best = best.join(c)
    assert best in below, "congruences below a partition must be join-closed"
    return best


def _congruences_pairwise(alg):
    """Reference oracle: every partition under which every pair of
    componentwise-related argument tuples has related values."""
    n = alg.size
    out = []
    for p in all_partitions(n):
        ids = p.block_ids
        good = True
        for sym, arity in alg.signature.symbols:
            table = alg.table(sym)
            for xs in itertools.product(range(n), repeat=arity):
                for ys in itertools.product(range(n), repeat=arity):
                    if any(ids[x] != ids[y] for x, y in zip(xs, ys)):
                        continue
                    ix = iy = 0
                    for x in xs:
                        ix = ix * n + x
                    for y in ys:
                        iy = iy * n + y
                    if ids[table[ix]] != ids[table[iy]]:
                        good = False
                        break
                if not good:
                    break
            if not good:
                break
        if good:
            out.append(p)
    return sorted(out, key=lambda q: q.block_ids)


def _refine_reference(alg, p):
    """Reference engine: tag every element with its block and the blocks it
    reaches through every symbol, argument position and context, split,
    repeat until nothing splits."""
    n = alg.size
    ids = p.block_ids
    positions = []
    for sym, arity in alg.signature.symbols:
        if arity == 0:
            continue
        table = alg.table(sym)
        strides = [n ** (arity - 1 - i) for i in range(arity)]
        for pos in range(arity):
            ctx_strides = strides[:pos] + strides[pos + 1 :]
            bases = [
                sum(c * s for c, s in zip(ctx, ctx_strides))
                for ctx in itertools.product(range(n), repeat=arity - 1)
            ]
            positions.append((table, strides[pos], bases))
    while True:
        keys = [[b] for b in ids]
        for table, own, bases in positions:
            for base in bases:
                for a in range(n):
                    keys[a].append(ids[table[base + a * own]])
        fresh = Partition(tuple(tuple(k) for k in keys))
        if fresh.block_ids == ids:
            return fresh
        ids = fresh.block_ids


def _random_algebra(rng, sig, n):
    return FiniteAlgebra(
        sig, n, {sym: [rng.randrange(n) for _ in range(n**arity)] for sym, arity in sig.symbols}
    )


RANDOM_SIGNATURES = [
    Signature({"c": 0}),
    Signature({"c": 0, "d": 0}),
    Signature({"f": 1}),
    Signature({"f": 1, "h": 1}),
    Signature({"g": 2}),
    Signature({"c": 0, "f": 1, "g": 2}),
    Signature({"t": 3}),
    Signature({"c": 0, "t": 3}),
]


def test_eval_truth_tables():
    b2 = bool2()
    t = parse_term(BOOL, "(and x y)")
    assert eval_term(b2, t, {"x": 1, "y": 0}) == 0
    assert eval_term(b2, parse_term(BOOL, "x"), {"x": 1}) == 1
    # join of the two atoms in the four-element Boolean algebra, checked
    # against the independent product-of-two-chains table
    b4 = bool4()
    oracle = direct_product([bool2(), bool2()])
    assert oracle.table("or") == b4.table("or")
    assert eval_term(b4, parse_term(BOOL, "(or x y)"), {"x": 1, "y": 2}) == 3


def test_eval_errors():
    b2 = bool2()
    with pytest.raises(TermError):
        eval_term(b2, parse_term(BOOL, "(and x y)"), {"x": 1})
    with pytest.raises(TermError):
        eval_term(b2, parse_term(Signature({"⊥": 2}), "(⊥ x x)"), {"x": 0})
    with pytest.raises(TermError):
        term_values(b2, parse_term(BOOL, "(and x y)"), ("x",))
    with pytest.raises(TermError):
        term_values(b2, parse_term(Signature({"⊥": 2}), "(⊥ x x)"), ("x",))
    with pytest.raises(TermError):
        term_values(b2, App("not", ()), ())


def test_term_values_agree_with_eval_term():
    rng = random.Random(3)
    imp = Signature({"→": 2})
    mixed = Signature({"c": 0, "u": 1, "t": 3})
    cases = [(alg, imp) for n in (1, 2) for alg in enumerate_algebras(imp, n)]
    cases += [(bool2(), BOOL), (bool4(), BOOL)]
    for n in (1, 2, 3):
        tables = {sym: [rng.randrange(n) for _ in range(n**arity)] for sym, arity in mixed.symbols}
        cases.append((FiniteAlgebra(mixed, n, tables), mixed))
    for i, (alg, sig) in enumerate(cases):
        terms = list(enumerate_terms(sig, ("x", "y", "z"), 2))
        if len(terms) > 1500:  # the ternary signature has 39,311 such terms
            terms = rng.sample(terms, 1500)
        order = ("x", "y", "z") if i % 2 else ("z", "x", "y")
        assignments = list(itertools.product(range(alg.size), repeat=3))
        for t in terms:
            want = [eval_term(alg, t, dict(zip(order, a))) for a in assignments]
            assert term_values(alg, t, order) == want, (alg, t, order)


def test_direct_product_shapes():
    b2 = bool2()
    prod = direct_product([b2, b2])
    assert prod.size == 4
    assert find_isomorphism(Matrix(prod, ()), Matrix(bool4(), ())) is not None
    assert direct_product([b2, b2, b2]).size == 8
    single = direct_product([b2])
    assert single.tables == b2.tables
    trivial = direct_product([one_element(BOOL), one_element(BOOL)])
    assert trivial.size == 1
    with pytest.raises(CapExceeded):
        direct_product([bool4()] * 4, cap=64)


def test_direct_product_componentwise_random():
    rng = random.Random(7)
    b2, b4 = bool2(), bool4()
    prod = direct_product([b2, b4])
    terms = [
        parse_term(BOOL, s)
        for s in ["(and x (or y (not x)))", "(or (not y) (and x x))", "(not (and x y))"]
    ]
    for _ in range(100):
        t = rng.choice(terms)
        v = {"x": rng.randrange(8), "y": rng.randrange(8)}
        left = eval_term(prod, t, v)
        parts = {k: product_decode(e, (2, 4)) for k, e in v.items()}
        expect = (
            eval_term(b2, t, {k: p[0] for k, p in parts.items()}),
            eval_term(b4, t, {k: p[1] for k, p in parts.items()}),
        )
        assert product_decode(left, (2, 4)) == expect


def test_nonindexed_product_signature_counts():
    imp, full = imp2(), bool2()
    prod = nonindexed_product(imp, full)
    arities = {}
    for _, a in prod.signature.symbols:
        arities[a] = arities.get(a, 0) + 1
    assert arities == {2: 2}  # 1 binary times 2 binaries; no unary pairs
    pointed = pointed_set(2)
    pp = nonindexed_product(pointed, pointed)
    assert pp.signature.as_dict() == {"⊤⊗⊤": 1}
    assert pp.apply("⊤⊗⊤", [3]) == 0  # constant at (point, point)


def test_nonindexed_product_componentwise():
    b2 = bool2()
    prod = nonindexed_product(b2, b2)
    # and⊗or applied to ((1,0),(1,1)) is (1 and 1, 0 or 1) = (1,1)
    assert prod.apply("and⊗or", [2, 3]) == 3
    # projections commute with evaluation on every table cell
    for sym, arity in prod.signature.symbols:
        f, g = sym.split("⊗")
        for args in itertools.product(range(4), repeat=arity):
            cols = [product_decode(a, (2, 2)) for a in args]
            out = product_decode(prod.apply(sym, args), (2, 2))
            assert out[0] == b2.apply(f, [c[0] for c in cols])
            assert out[1] == b2.apply(g, [c[1] for c in cols])


def test_quotient_trivial_and_blocks():
    b4 = bool4()
    iso = quotient(b4, Partition.identity(4))
    assert find_isomorphism(Matrix(iso, ()), Matrix(b4, ())) is not None
    assert quotient(b4, Partition.total(4)).size == 1
    theta = Partition.from_blocks(4, [[3, 1], [0, 2]])
    q = quotient(b4, theta)
    assert find_isomorphism(Matrix(q, ()), Matrix(bool2(), ())) is not None
    with pytest.raises(NotACongruence):
        quotient(b4, Partition.from_blocks(4, [[0, 1], [2], [3]]))


def test_quotient_projection_is_homomorphism():
    alg = imp2()
    for theta in congruences_bruteforce(alg):
        q = quotient(alg, theta)
        for a, b in itertools.product(range(alg.size), repeat=2):
            assert q.apply("→", [theta.block_of(a), theta.block_of(b)]) == theta.block_of(
                alg.apply("→", [a, b])
            )


def test_congruences_bruteforce_counts():
    assert len(congruences_bruteforce(one_element(BOOL))) == 1
    assert len(congruences_bruteforce(pointed_set(2))) == 2
    congs = congruences_bruteforce(bool4())
    assert len(congs) == 4
    assert Partition.from_blocks(4, [[3, 1], [0, 2]]) in congs
    with pytest.raises(CapExceeded):
        congruences_bruteforce(pointed_set(7))


def test_largest_congruence_below_examples():
    b4 = bool4()
    assert largest_congruence_below(b4, Partition.identity(4)).is_identity()
    assert largest_congruence_below(b4, Partition.total(4)).is_total()
    theta = Partition.from_blocks(4, [[3, 1], [0, 2]])
    assert largest_congruence_below(b4, theta) == theta


def test_engine_agrees_with_oracle_exhaustively():
    algebras = [bool2(), imp2(), pointed_set(3), bool4()]
    algebras += list(enumerate_algebras(Signature({"f": 1}), 3))
    for alg in algebras:
        for p in all_partitions(alg.size):
            assert largest_congruence_below(alg, p) == coarsest_below(alg, p), (alg, p)


def test_engine_on_one_element_algebras():
    for sig in RANDOM_SIGNATURES + [BOOL, Signature({})]:
        alg = one_element(sig)
        only = Partition.total(1)
        assert largest_congruence_below(alg, only) == coarsest_below(alg, only) == only
        assert is_congruence(alg, only)
        assert congruences_bruteforce(alg) == [only]


def test_engine_on_nullary_signatures():
    # rows of width 1: each element's key is its block id, not a 1-tuple,
    # and every partition is a congruence
    rng = random.Random(29)
    for sig in (Signature({"c": 0}), Signature({"c": 0, "d": 0}), Signature({})):
        for n in range(1, 6):
            alg = _random_algebra(rng, sig, n)
            assert len(alg.neighbours()) == n
            partitions = list(all_partitions(n))
            assert congruences_bruteforce(alg) == sorted(partitions, key=lambda q: q.block_ids)
            for p in partitions:
                assert largest_congruence_below(alg, p) == p == coarsest_below(alg, p), (alg, p)
                assert is_congruence(alg, p)


def test_a_first_pass_that_reaches_the_identity_is_the_answer():
    # the seed of the filter {3} in B4 splits into singletons in one pass
    b4 = bool4()
    seed = Partition.seed_from_subset(4, (3,))
    assert _split(_row_keys(b4), seed.block_ids)[1] == 4
    assert largest_congruence_below(b4, seed) == coarsest_below(b4, seed) == Partition.identity(4)
    rng = random.Random(37)
    algebras = [bool4(), pointed_set(4), imp2()]
    algebras += [_random_algebra(rng, sig, rng.randint(2, 5)) for sig in RANDOM_SIGNATURES * 6]
    stopped = 0
    for alg in algebras:
        keys = _row_keys(alg)
        for p in all_partitions(alg.size):
            if p.num_blocks < alg.size and _split(keys, p.block_ids)[1] == alg.size:
                stopped += 1
                assert largest_congruence_below(alg, p) == coarsest_below(alg, p), (alg, p)
    assert stopped > 100


def test_engine_agrees_on_random_seeds_size4():
    rng = random.Random(11)
    sig = Signature({"g": 2})
    pool = list(enumerate_algebras(sig, 2))
    for alg in rng.sample(pool, 8):
        prod = direct_product([alg, alg])
        for p in all_partitions(4):
            assert largest_congruence_below(prod, p) == coarsest_below(prod, p)


def test_oracle_agrees_with_the_pairwise_loop():
    # the semantics benchmark's algebras at tiny size, iso classes only
    plans = [(Signature({"⊤": 1}), 3), (Signature({"→": 2}), 2), (BOOL, 1)]
    algebras = [
        alg for sig, top in plans for n in range(1, top + 1)
        for alg in enumerate_algebras(sig, n, iso_prune=True)
    ]
    rng = random.Random(19)
    while len(algebras) < 330:
        sig = rng.choice(RANDOM_SIGNATURES)
        n = rng.randint(1, 5)
        if n**3 > 64 and ("t", 3) in sig.symbols:
            continue  # the pairwise loop is quadratic in the table
        algebras.append(_random_algebra(rng, sig, n))
    for alg in algebras:
        assert congruences_bruteforce(alg) == _congruences_pairwise(alg), alg


def test_engine_agrees_with_the_reference_beyond_the_oracle_cap():
    rng = random.Random(23)
    algebras = [one_element(sig) for sig in RANDOM_SIGNATURES]
    algebras += [_random_algebra(rng, sig, n) for sig in RANDOM_SIGNATURES[:2] for n in (1, 3, 6)]
    for n in range(1, 7):
        for sig in RANDOM_SIGNATURES[2:6]:
            algebras.append(_random_algebra(rng, sig, n))
    algebras.append(_random_algebra(rng, Signature({"t": 3}), 4))
    for alg in algebras:
        for p in all_partitions(alg.size):
            assert largest_congruence_below(alg, p) == _refine_reference(alg, p), (alg, p)
    binary = Signature({"g": 2})
    products = []
    for sizes in [(2, 2), (2, 3), (4, 4), (2, 2, 2), (3, 5), (4, 2, 8), (8, 8)]:
        factors = [_random_algebra(rng, binary, n) for n in sizes]
        products.append(direct_product(factors, cap=64))
    products.append(direct_product([_random_algebra(rng, RANDOM_SIGNATURES[5], 4)] * 3, cap=64))
    for a, b in [(3, 3), (4, 8), (8, 8), (5, 6)]:
        products.append(nonindexed_product(
            _random_algebra(rng, Signature({"f": 1, "g": 2}), a),
            _random_algebra(rng, Signature({"h": 1, "k": 2, "c": 0}), b),
            cap=64,
        ))
    for prod in products:
        for _ in range(25):
            p = Partition([rng.randrange(rng.randint(1, 4)) for _ in range(prod.size)])
            assert largest_congruence_below(prod, p) == _refine_reference(prod, p), (prod, p)


def test_enumerate_algebras_counts_and_determinism():
    pointed_sig = Signature({"⊤": 1})
    assert len(list(enumerate_algebras(pointed_sig, 1))) == 1
    all2 = list(enumerate_algebras(pointed_sig, 2))
    assert len(all2) == 4
    constants = [a for a in all2 if len(set(a.table("⊤"))) == 1]
    assert len(constants) == 2
    assert len(list(enumerate_algebras(Signature({"→": 2}), 2))) == 16
    assert list(enumerate_algebras(pointed_sig, 2)) == all2
    with pytest.raises(CapExceeded):
        next(enumerate_algebras(Signature({"→": 2}), 4))


def test_enumerate_algebras_iso_pruning():
    pointed_sig = Signature({"⊤": 1})
    pruned = list(enumerate_algebras(pointed_sig, 2, iso_prune=True))
    assert len(pruned) == 3  # identity, swap, one constant class
    full = list(enumerate_algebras(pointed_sig, 2))
    for alg in full:
        assert any(
            find_isomorphism(Matrix(alg, ()), Matrix(rep, ())) is not None for rep in pruned
        )


def _canonical_tables(alg: FiniteAlgebra) -> tuple:
    """The least of the tables of `alg` relabelled by every carrier permutation."""
    n = alg.size
    best = None
    syms = alg.signature.symbols
    for perm in itertools.permutations(range(n)):
        inv = [0] * n
        for i, x in enumerate(perm):
            inv[x] = i
        candidate = []
        for sym, arity in syms:
            table = alg.table(sym)
            cells = []
            for args in itertools.product(range(n), repeat=arity):
                idx = 0
                for a in args:
                    idx = idx * n + perm[a]
                cells.append(inv[table[idx]])
            candidate.append(tuple(cells))
        candidate = tuple(candidate)
        if best is None or candidate < best:
            best = candidate
    return best


@pytest.mark.parametrize(
    "symbols, top",
    [
        ({"c": 0, "f": 1}, 3),
        ({"f": 1, "g": 1}, 3),
        ({"→": 2}, 3),
        ({"t": 3}, 2),
        ({"and": 2, "or": 2, "not": 1}, 2),
    ],
    ids=["constant-unary", "two-unary", "binary", "ternary", "boolean"],
)
def test_iso_pruning_agrees_with_the_canonical_tables(symbols, top):
    # the brute-force reference: keep a table iff no relabelling of it by a
    # carrier permutation is lexicographically smaller
    sig = Signature(symbols)
    for n in range(1, top + 1):
        reference = [
            alg for alg in enumerate_algebras(sig, n)
            if tuple(t for _, t in alg.tables) == _canonical_tables(alg)
        ]
        assert list(enumerate_algebras(sig, n, iso_prune=True)) == reference, n


def test_iso_class_counts_match_oeis():
    # OEIS A001372: mappings of an n-set into itself, up to isomorphism;
    # OEIS A001329: binary operations (groupoids) of order n, up to isomorphism
    unary = [len(list(enumerate_algebras(Signature({"f": 1}), n, iso_prune=True))) for n in range(1, 7)]
    assert unary == [1, 3, 7, 19, 47, 130]
    binary = [len(list(enumerate_algebras(Signature({"→": 2}), n, iso_prune=True))) for n in range(1, 4)]
    assert binary == [1, 10, 3330]


def test_is_congruence_matches_oracle_membership():
    alg = bool4()
    congs = set(congruences_bruteforce(alg))
    for p in all_partitions(4):
        assert is_congruence(alg, p) == (p in congs)
