"""The witness searches over term classes against per-term reference searches.

`theorem_search`, `find_protoalgebraic_witness` and `find_injective_theorem`
read each term class's designation mask off the joint closure. The
references below are the searches they replaced: they enumerate terms and
decide each candidate by truth tables (`entails`, `term_values`). Both must
return the same term or term set.
"""

import functools
import itertools
import random

import pytest

from law import clone, hierarchy, logics
from law.algebra import FiniteAlgebra, distinct, one_element, term_values
from law.config import DEFAULTS
from law.errors import CapExceeded
from law.gallery import GALLERY_NAMES, build, verify_entry
from law.hierarchy import (
    CLASS_NAMES,
    WitnessSet,
    check_class,
    consequence_presentation,
    derive_theorems,
    find_injective_theorem,
    find_protoalgebraic_witness,
    theorem_search,
    verify_protoalgebraic_witness,
)
from law.logics import RULES, deductive_filters, entails, matrices_logic
from law.matrices import Matrix
from law.terms import Signature, enumerate_terms, to_sexpr

# ---------------------------------------------------------------------------
# the per-term references


def _theorem_test(logic, pool, cap):
    """Theoremhood by saturation for a rule presentation, else by truth tables."""
    if logic.kind == RULES:
        return derive_theorems(logic, pool, cap).__contains__
    return lambda t: entails(logic, (), t)


def reference_theorem_search(logic, depth_cap):
    is_theorem = _theorem_test(logic, ("x",), depth_cap)
    terms = enumerate_terms(logic.signature, ("x",), depth_cap)
    return next((t for t in terms if is_theorem(t)), None)


def reference_protoalgebraic_witness(logic, depth, max_set, inventory=None):
    consequence = consequence_presentation(logic, inventory)
    candidates = list(enumerate_terms(logic.signature, ("x", "y"), depth))
    for size in range(1, max_set + 1):
        for combo in itertools.combinations(candidates, size):
            if verify_protoalgebraic_witness(consequence, combo):
                return WitnessSet("protoalgebraic", tuple(combo))
    return None


def reference_injective_theorem(logic, inventory, depth, depth_cap):
    inv = sorted(inventory, key=lambda a: a.sort_key())
    models = [m for alg in inv for m in logics.reduced_filters_on(logic, alg, depth_cap=depth_cap)]
    is_theorem = _theorem_test(logic, ("x",), max(depth, depth_cap))
    for t in enumerate_terms(logic.signature, ("x",), depth):
        if is_theorem(t) and all(len(set(term_values(m.algebra, t, ("x",)))) == m.algebra.size
                                 for m in models):
            return t
    return None


# ---------------------------------------------------------------------------
# agreement


def _random_logic(rng):
    """1-3 matrices over carriers of 1-3 elements, 1-2 symbols of arity 0-3,
    random filters."""
    sig = Signature({f"f{i}": rng.randrange(4) for i in range(rng.randint(1, 2))})
    mats = []
    for _ in range(rng.randint(1, 3)):
        n = rng.randint(1, 3)
        alg = FiniteAlgebra(sig, n, {s: [rng.randrange(n) for _ in range(n**a)]
                                     for s, a in sig.symbols})
        mats.append(Matrix(alg, [a for a in range(n) if rng.random() < 0.5]))
    return matrices_logic(mats)


def _implications(k):
    """k two-element matrices over k binary symbols: in matrix i, symbol
    f<i> is the implication and every other symbol the constant 1, so a
    protoalgebraic set needs one term per matrix."""
    sig = Signature({f"f{i}": 2 for i in range(k)})
    imp, one = [1, 1, 0, 1], [1, 1, 1, 1]
    return matrices_logic([Matrix(FiniteAlgebra(sig, 2, {f"f{j}": imp if j == i else one
                                                         for j in range(k)}), (1,))
                           for i in range(k)])


def _term_count(sig, variables, depth):
    """The number of terms over `variables` of depth <= `depth`."""
    count = variables
    for _ in range(depth):
        count = variables + sum(count**arity for _, arity in sig.symbols)
    return count


# Sizing: the references evaluate every candidate term, and their pair stage
# makes one `entails` call per pair (45,000 for the 302 Boolean terms of
# depth 2 in x, y). So depth 3 in x, and singletons and pairs at depth 2 in
# x, y, are compared where the candidates number at most these.
THEOREM_CANDIDATES = 10_000
SINGLETON_CANDIDATES = 2_000
PAIR_CANDIDATES = 100


def _agreement_cases():
    for name in GALLERY_NAMES:
        entry = build(name)
        if entry.logic is not None:
            yield name, entry.logic, entry.inventory
    logic = _implications(2)
    yield "two-implications", logic, distinct(m.algebra for m in logic.matrices)
    rng = random.Random(5)
    for i in range(150):
        logic = _random_logic(rng)
        yield f"random-{i}", logic, distinct(m.algebra for m in logic.matrices)


def test_searches_agree_with_the_per_term_references():
    answers = 0
    for name, logic, inventory in _agreement_cases():
        sig = logic.signature
        for depth in (1, 2, 3):
            if depth < 3 or _term_count(sig, 1, 3) <= THEOREM_CANDIDATES:
                got = theorem_search(logic, depth)
                assert got == reference_theorem_search(logic, depth), (name, depth)
                answers += 1
        candidates = _term_count(sig, 2, 2)
        searches = [(1, 2)]
        if candidates <= SINGLETON_CANDIDATES:
            searches.append((2, 2 if candidates <= PAIR_CANDIDATES else 1))
        for depth, max_set in searches:
            got = find_protoalgebraic_witness(logic, depth, max_set, inventory=inventory)
            want = reference_protoalgebraic_witness(logic, depth, max_set, inventory)
            assert got == want, (name, depth, max_set)
            if got is not None:
                consequence = consequence_presentation(logic, inventory)
                assert verify_protoalgebraic_witness(consequence, got.terms)
            answers += 1
        # reduced models from depth-2 filter sweeps: cheaper, and as good; a
        # rule logic's chaining cap is max(depth, depth_default), so its
        # search runs at depth_default 3 too
        for depth_cap in (2, 3) if logic.kind == RULES else (2,):
            got = find_injective_theorem(logic, inventory, 2,
                                         config=DEFAULTS.override(depth_default=depth_cap))
            assert got == reference_injective_theorem(logic, inventory, 2, depth_cap), \
                (name, depth_cap)
            answers += 1
    assert answers >= 850


@pytest.mark.parametrize("k", [2, 3])
def test_k_implications_need_a_set_of_k_terms(k):
    logic = _implications(k)
    got = find_protoalgebraic_witness(logic, 1, k)
    assert [to_sexpr(t) for t in got.terms] == [f"(f{i} x y)" for i in range(k)]
    assert got == reference_protoalgebraic_witness(logic, 1, k)
    assert find_protoalgebraic_witness(logic, 1, k - 1) is None
    assert reference_protoalgebraic_witness(logic, 1, k - 1) is None


# ---------------------------------------------------------------------------
# laziness and the named limits


def test_a_singleton_hit_builds_only_the_levels_it_needs(monkeypatch, fresh_caches):
    closures = []
    real = hierarchy.term_classes
    monkeypatch.setattr(hierarchy, "term_classes",
                        lambda *a: closures.append(real(*a)) or closures[-1])
    proto = build("basic-proto")
    w = find_protoalgebraic_witness(proto.logic, depth=3, inventory=proto.inventory)
    assert [to_sexpr(t) for t in w.terms] == ["(⊸0 x y)"]
    assert [c.level for c in closures] == [1]


def _many_classes_logic():
    """No theorem in x up to depth 2 (every term function is affine over
    Z_47, never constant 0), and 71 classes at depth 2: depth 3 would need
    71**3 * 47 cells, about 17M."""
    sig = Signature({"u0": 1, "u1": 1, "t": 3})
    n = 47
    tables = {"u0": [(a + 1) % n for a in range(n)], "u1": [(3 * a + 2) % n for a in range(n)],
              "t": [(a + 2 * b + 4 * c + 1) % n
                    for a, b, c in itertools.product(range(n), repeat=3)]}
    return matrices_logic([Matrix(FiniteAlgebra(sig, n, tables), (0,))])


def test_a_budget_stop_before_the_depth_raises():
    logic = _many_classes_logic()
    assert theorem_search(logic, 2) is None
    with pytest.raises(CapExceeded, match=f"budget {DEFAULTS.closure_cell_budget} stops the "
                                          "term classes at depth 2 of 3"):
        theorem_search(logic, 3)
    with pytest.raises(CapExceeded, match="budget 40 stops the term classes at depth 1 of 2"):
        find_protoalgebraic_witness(build("two-valued-pair").logic, depth=2,
                                    config=DEFAULTS.override(closure_cell_budget=40))


def test_a_hit_before_the_budget_stop_is_returned():
    # nabla's singleton (→ x y) is a level-1 class, found before the level
    # the budget refuses
    entry = build("nabla")
    w = find_protoalgebraic_witness(entry.logic, depth=3, inventory=entry.inventory,
                                    config=DEFAULTS.override(closure_cell_budget=40))
    assert [to_sexpr(t) for t in w.terms] == ["(→ x y)"]


def test_an_algebra_over_256_elements_is_refused():
    sig = Signature({"s": 1})
    big = FiniteAlgebra(sig, 257, {"s": [(x + 1) % 257 for x in range(257)]})
    logic = matrices_logic([Matrix(big, (0,))])
    for search in (lambda: theorem_search(logic, 2),
                   lambda: find_protoalgebraic_witness(logic, 2),
                   lambda: find_injective_theorem(logic, [one_element(sig)], 2)):
        with pytest.raises(CapExceeded, match="an algebra of size 257 exceeds 256 elements"):
            search()


def test_a_variable_budget_below_two_refuses_the_protoalgebraic_search():
    pair = build("two-valued-pair").logic
    tight = matrices_logic(pair.matrices, variable_budget=1)
    with pytest.raises(CapExceeded, match="2 variables exceed the budget 1"):
        find_protoalgebraic_witness(tight, 1)


# ---------------------------------------------------------------------------
# one store of term classes, shared by every sweep and search


def test_every_gallery_check_builds_each_closure_once(monkeypatch, fresh_caches):
    keys = []
    real = clone.JointClosure

    def spy(sig, algebras, n):
        keys.append((sig, algebras, n))
        return real(sig, algebras, n)

    monkeypatch.setattr(clone, "JointClosure", spy)
    entries = [build(name) for name in GALLERY_NAMES]
    for _ in range(2):
        for entry in entries:
            if entry.logic is not None:
                for class_name in CLASS_NAMES:
                    check_class(class_name, entry.logic, entry.inventory)
            assert verify_entry(entry) == []
    assert len(keys) == len(set(keys)) == clone.term_classes.cache_info().misses >= 5


def _outcome(call):
    try:
        return call()
    except CapExceeded as error:
        return str(error)


def _cold(call):
    logics._sweep.cache_clear()
    clone.term_classes.cache_clear()
    return _outcome(call)


def _store_calls():
    """(budget, depth, call) for the searches and class checks of two matrix
    logics and a rule logic, and the theorem search of a unary flip, whose x
    closure reaches a fixpoint at level 1, and of `_many_classes_logic`."""
    flip = FiniteAlgebra(Signature({"s": 1}), 2, {"s": [1, 0]})
    flips = matrices_logic([Matrix(flip, (1,))])
    many = _many_classes_logic()
    for budget in (3, 40, 2000, DEFAULTS.closure_cell_budget):
        for depth in (1, 2, 3):
            config = DEFAULTS.override(closure_cell_budget=budget, depth_default=depth)
            for logic in (flips, many):
                yield budget, depth, functools.partial(theorem_search, logic, depth, config)
            if budget == 3:
                continue
            for name in ("two-valued-pair", "ba-star-logic", "nabla"):
                entry = build(name)
                logic, inv = entry.logic, entry.inventory
                yield budget, depth, functools.partial(theorem_search, logic, depth, config)
                yield budget, depth, functools.partial(find_protoalgebraic_witness, logic, depth,
                                                       2, inv, config)
                yield budget, depth, functools.partial(find_injective_theorem, logic, inv, depth,
                                                       config)
                for class_name in CLASS_NAMES:
                    yield budget, depth, functools.partial(check_class, class_name, logic, inv,
                                                           config=config)


def test_warm_closures_answer_as_cold_ones_in_either_budget_order(fresh_caches):
    calls = list(_store_calls())
    cold = [_cold(call) for _, _, call in calls]
    assert "closure cell budget 3 stops the term classes at depth 1 of 3" in cold
    assert "closure cell budget 40 stops the term classes at depth 1 of 2" in cold
    logics._sweep.cache_clear()
    clone.term_classes.cache_clear()
    order = sorted(range(len(calls)), key=lambda k: calls[k][:2])
    for k in order + order[::-1]:
        assert _outcome(calls[k][2]) == cold[k], calls[k][:2]


def test_a_search_over_classes_a_sweep_grew_stops_where_a_cold_one_does(fresh_caches):
    pair = build("two-valued-pair").logic
    deductive_filters(pair, pair.matrices[0].algebra)
    closure = clone.term_classes(pair.signature, frozenset(m.algebra for m in pair.matrices), 2)
    assert closure.level >= 2
    with pytest.raises(CapExceeded, match="budget 40 stops the term classes at depth 1 of 2"):
        find_protoalgebraic_witness(pair, depth=2,
                                    config=DEFAULTS.override(closure_cell_budget=40))
