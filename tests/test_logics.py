"""Logic presentations: models, entailment, filters, Suszko congruences."""

import collections
import functools
import itertools
import operator
import random

import pytest

from law import clone, logics
from law.algebra import (FiniteAlgebra, congruences_bruteforce, eval_term, one_element,
                         term_values)
from law.clone import JointClosure, _image, _joint_table
from law.config import DEFAULTS
from law.errors import CapExceeded, NotAFilter, SignatureMismatch, TermError
from law.gallery import (GALLERY_NAMES, bool2, bool4, build, imp2, pointed_set,
                         product_of_logics)
from law.hierarchy import check_class, find_protoalgebraic_witness, theorem_search
from law.logics import (
    Rule,
    deductive_filters,
    entails,
    filter_bounds,
    filter_lattice,
    filter_notion,
    is_model,
    matrices_logic,
    reduced_filters_on,
    reduced_models,
    rules_logic,
    suszko_congruence,
)
from law.matrices import Matrix, is_compatible, leibniz_congruence
from law.partitions import Partition
from law.serialize import fingerprint
from law.terms import App, Signature, Var, enumerate_terms, parse_term

BOOL = bool2().signature
IMP = imp2().signature
POINTED = Signature({"⊤": 1})
X, Y = Var("x"), Var("y")

ASSERTIONAL = build("basic-assertional").logic
NABLA = build("nabla").logic
PAIR = build("two-valued-pair").logic


def test_is_model():
    mp = Rule([X, parse_term(IMP, "(→ x y)")], Y)
    assert is_model(Matrix(imp2(), (1,)), mp)
    axiom = Rule((), parse_term(POINTED, "(⊤ x)"))
    assert is_model(Matrix(pointed_set(2), (0,)), axiom)
    assert not is_model(Matrix(bool2(), (1,)), Rule((), X))


def test_is_model_and_entails_check_their_terms():
    m = Matrix(bool2(), (1,))
    with pytest.raises(TermError, match="unknown symbol"):
        is_model(m, Rule([X], App("→", (X, Y))))
    with pytest.raises(TermError, match="expects 2 arguments"):
        is_model(m, Rule([App("and", (X,))], X))
    logic = matrices_logic([m])
    with pytest.raises(TermError, match="clashes with a symbol name"):
        entails(logic, [Var("not")], X)
    with pytest.raises(TermError, match="unknown symbol"):
        entails(logic, [X], App("→", (X, X)))


def test_entails_truth_tables():
    b2one = matrices_logic([Matrix(bool2(), (1,))])
    assert entails(b2one, [X], parse_term(BOOL, "(or x y)"))
    assert entails(b2one, [X], X)
    assert entails(PAIR, [X], X)
    assert not entails(PAIR, [], parse_term(BOOL, "(or x (not x))"))
    assert entails(b2one, [], parse_term(BOOL, "(or x (not x))"))


def test_entails_budget_and_kind_errors():
    tight = matrices_logic([Matrix(bool2(), (1,))], variable_budget=1)
    with pytest.raises(CapExceeded):
        entails(tight, [X], parse_term(BOOL, "(or x y)"))
    with pytest.raises(ValueError):
        entails(NABLA, [], X)


def test_deductive_filters_rules_exact():
    assert deductive_filters(ASSERTIONAL, pointed_set(2)) == [(0,), (0, 1)]
    assert deductive_filters(NABLA, imp2()) == [(1,), (0, 1)]
    assert filter_notion(NABLA) == "exact"
    # one-element algebra: theorems force the point
    assert deductive_filters(ASSERTIONAL, one_element(POINTED)) == [(0,)]
    # a theoremless rule logic admits the empty filter
    mp_only = rules_logic(IMP, [Rule([X, parse_term(IMP, "(→ x y)")], Y)])
    assert () in deductive_filters(mp_only, imp2())


def _oracle_rule_filters(logic, alg):
    """The subsets closed under every rule, by the slow oracle: each subset
    against each rule at every assignment, terms through `eval_term`."""
    subsets = (s for k in range(alg.size + 1) for s in itertools.combinations(range(alg.size), k))
    return [s for s in subsets if logics._closed_under_rules(logic, alg, frozenset(s))]


def _random_term(rng, sig, names, depth):
    """A term of depth at most `depth`; `sig` has a nullary symbol for the
    leaves that are no variable."""
    if rng.random() < 0.3:
        return Var(rng.choice(names))
    sym, arity = rng.choice([(f, a) for f, a in sig.symbols if depth > 0 or a == 0])
    return App(sym, tuple(_random_term(rng, sig, names, depth - 1) for _ in range(arity)))


def _random_rule_case(rng):
    """1-3 rules of 0-2 premises over symbols of arity 0-3, terms of depth at
    most 2 over x, y, z, and an algebra of 1-3 elements."""
    arities = [0] + [rng.randrange(4) for _ in range(rng.randint(0, 2))]
    sig = Signature({f"f{i}": a for i, a in enumerate(arities)})
    names = ["x", "y", "z"][:rng.randint(1, 3)]
    rules = [Rule([_random_term(rng, sig, names, 2) for _ in range(rng.randint(0, 2))],
                  _random_term(rng, sig, names, 2)) for _ in range(rng.randint(1, 3))]
    n = rng.randint(1, 3)
    alg = FiniteAlgebra(sig, n, {f: [rng.randrange(n) for _ in range(n**a)]
                                 for f, a in sig.symbols})
    return rules_logic(sig, rules), alg


def test_exact_filters_agree_with_the_slow_oracle():
    # every gallery rule logic over its inventory
    for name in GALLERY_NAMES:
        entry = build(name)
        if entry.logic is not None and entry.logic.kind == logics.RULES:
            for alg in entry.inventory:
                assert deductive_filters(entry.logic, alg) == _oracle_rule_filters(
                    entry.logic, alg), (name, alg)
    # seeded random rule logics; each rule's `is_model` on every subset too
    rng = random.Random(19)
    proper = 0
    for _ in range(100):
        logic, alg = _random_rule_case(rng)
        filters = deductive_filters(logic, alg)
        assert filters == _oracle_rule_filters(logic, alg), logic.rules
        proper += len(filters) > 1
        for rule in logic.rules:
            one = rules_logic(logic.signature, [rule])
            for k in range(alg.size + 1):
                for s in itertools.combinations(range(alg.size), k):
                    assert is_model(Matrix(alg, s), rule) == logics._closed_under_rules(
                        one, alg, frozenset(s))
    assert proper >= 25  # the cases are not all trivial


def test_theoremless_logic_on_one_element_algebra():
    filters = deductive_filters(PAIR, one_element(BOOL))
    assert filters == [(), (0,)]


def test_deductive_filters_matrices_bounded():
    assert deductive_filters(PAIR, bool2()) == [(), (0,), (1,), (0, 1)]
    assert filter_notion(PAIR) == "bounded"
    meta = filter_bounds(PAIR, bool2())
    assert meta["filter_notion"] == "bounded"
    assert meta["depth_cap"] == 3
    b2one = matrices_logic([Matrix(bool2(), (1,))])
    assert deductive_filters(b2one, bool2()) == [(1,), (0, 1)]


def test_bounded_filters_reject_carrier_overflow():
    tight = matrices_logic([Matrix(bool2(), (1,))], variable_budget=1)
    with pytest.raises(CapExceeded):
        deductive_filters(tight, bool2())
    with pytest.raises(CapExceeded):
        deductive_filters(PAIR, pointed_set(7))


def test_bounded_filters_on_the_boolean_star_logic():
    bastar = build("ba-star-logic").logic
    from law.gallery import bool4

    filters = deductive_filters(bastar, bool4())
    assert filters == [
        (3,), (0, 3), (1, 3), (2, 3), (0, 1, 3), (0, 2, 3), (1, 2, 3), (0, 1, 2, 3),
    ]


def test_closure_system_invariants():
    cases = [
        (ASSERTIONAL, pointed_set(3)),
        (NABLA, imp2()),
        (PAIR, bool2()),
        (build("ba-star-logic").logic, bool2()),
    ]
    for logic, alg in cases:
        filters = [set(f) for f in deductive_filters(logic, alg)]
        assert set(range(alg.size)) in filters
        for a, b in itertools.combinations(filters, 2):
            assert a & b in filters, (logic.name, a, b)


def test_bounded_filters_preserve_sampled_valid_rules():
    """Soundness spot-check: every bounded filter validates small rules that
    hold in the presented logic."""
    logic = PAIR
    alg = bool2()
    terms = list(enumerate_terms(BOOL, ["x", "y"], 1))
    rules = []
    for concl in terms:
        for prem in itertools.combinations(terms, 2):
            rule = Rule(prem, concl)
            if all(is_model(m, rule) for m in logic.matrices):
                rules.append(rule)
    assert rules, "the sweep should find some valid rules"
    for f in deductive_filters(logic, alg):
        m = Matrix(alg, f)
        for rule in rules:
            assert is_model(m, rule)


def test_suszko_congruence_values():
    assert suszko_congruence(ASSERTIONAL, pointed_set(2), (0,)).is_identity()
    assert suszko_congruence(ASSERTIONAL, pointed_set(2), (0, 1)).is_total()
    assert suszko_congruence(NABLA, imp2(), (1,)).is_identity()
    with pytest.raises(NotAFilter):
        suszko_congruence(NABLA, imp2(), (0,))


def test_suszko_refines_leibniz_and_is_compatible():
    from law.matrices import is_compatible

    for logic, alg in [(ASSERTIONAL, pointed_set(3)), (NABLA, imp2()), (PAIR, bool2())]:
        for f in deductive_filters(logic, alg):
            s = suszko_congruence(logic, alg, f)
            assert s.refines(leibniz_congruence(Matrix(alg, f)))
            assert is_compatible(s, f)


def test_suszko_monotone_under_filter_inclusion():
    for logic, alg in [(ASSERTIONAL, pointed_set(3)), (PAIR, bool2())]:
        filters = deductive_filters(logic, alg)
        for f, g in itertools.product(filters, repeat=2):
            if set(f) <= set(g):
                assert suszko_congruence(logic, alg, f).refines(
                    suszko_congruence(logic, alg, g)
                )


def test_reduced_filters_on():
    assert [m.filter for m in reduced_filters_on(ASSERTIONAL, pointed_set(3))] == [(0,)]
    pair_reduced = {m.filter for m in reduced_filters_on(PAIR, bool2())}
    # the two singleton truth sets are reduced; the empty filter joins them
    # because this logic has no theorems
    assert {(0,), (1,)} <= pair_reduced
    assert pair_reduced == {(), (0,), (1,)}
    trivial = reduced_filters_on(ASSERTIONAL, one_element(POINTED))
    assert [m.filter for m in trivial] == [(0,)]
    # over an inventory: each distinct algebra once, in sort_key order, so a
    # repeated algebra adds no second truth set to the per-algebra checks
    models = reduced_models(ASSERTIONAL, [pointed_set(3), pointed_set(1), pointed_set(3)])
    assert [(m.algebra.size, m.filter) for m in models] == [(1, (0,)), (3, (0,))]
    assert check_class("truth_equational", NABLA, [imp2(), imp2()]).holds


def test_reduced_models_validate_their_rules():
    for logic in [ASSERTIONAL, NABLA]:
        for alg in build("basic-assertional").inventory if logic is ASSERTIONAL else [imp2()]:
            for m in reduced_filters_on(logic, alg):
                for rule in logic.rules:
                    assert is_model(m, rule)


def test_is_deductive_filter():
    filters = filter_lattice(NABLA, imp2()).filters
    assert (1,) in filters
    assert (0,) not in filters


def test_product_logic_filters_decompose():
    from law.algebra import product_decode

    b2one = matrices_logic([Matrix(bool2(), (1,))], name="b2one")
    prod = product_of_logics(b2one, b2one)
    palg = prod.matrices[0].algebra
    filters = deductive_filters(prod, palg)
    assert (3,) in filters and (0, 1, 2, 3) in filters
    component = deductive_filters(b2one, bool2())
    for f in filters:
        if not f:
            continue
        left = tuple(sorted({product_decode(x, (2, 2))[0] for x in f}))
        right = tuple(sorted({product_decode(x, (2, 2))[1] for x in f}))
        assert left in component and right in component
        rebuilt = {a * 2 + b for a in left for b in right}
        assert rebuilt == set(f)


# ---------------------------------------------------------------------------
# the joint closure against an oracle: evaluate every term


def _blocks(logic):
    return sorted({m.algebra for m in logic.matrices}, key=lambda a: a.sort_key())


def _closure_rows(closure, blocks):
    """The closure's rows, each a tuple of its values on every block."""
    return [tuple(closure.values(i, b) for b in blocks)
            for i in closure.classes(closure.level, float("inf"))]


def _grown(closure, depth):
    """`closure` grown to `depth`, or as far as the default cell budget
    admits."""
    try:
        collections.deque(closure.classes(depth, DEFAULTS.closure_cell_budget), maxlen=0)
    except CapExceeded:
        pass
    return closure


def _sweep_pairs(logic, alg, depth_cap, budget):
    """The filter sweep's (row, canonical value) pairs for `alg` under
    `logic`, each row as its values on every defining block, read from a
    closure of its own over one canonical variable per element; and the
    sweep's effective depth."""
    closure = JointClosure(logic.signature, [m.algebra for m in logic.matrices], alg.size)
    *_, (masks, depth_effective) = closure._canonical_masks(alg, depth_cap, budget)
    rows = _closure_rows(closure, _blocks(logic))
    pairs = {(rows[i], v) for i, mask in enumerate(masks) for v in range(alg.size) if mask >> v & 1}
    return pairs, depth_effective


def _joint_evaluations(logic, alg, depth):
    """The (row, canonical value) pair of every term over the canonical
    variables of depth <= `depth`: its values on each defining block at
    every assignment, and its value in `alg` with variable i sent to i."""
    names = [f"v{i}" for i in range(alg.size)]
    canonical = dict(zip(names, range(alg.size)))
    return {(tuple(bytes(term_values(b, t, names)) for b in _blocks(logic)),
             eval_term(alg, t, canonical)) for t in enumerate_terms(logic.signature, names, depth)}


def _filters_by_definition(logic, alg, pairs):
    """The bounded filters on `alg` that the (row, value) pairs give by the
    sweep's definition: G is a filter iff every pair of value outside G is
    undesignated at some column of a defining matrix that designates every
    pair of value in G. A pair's designated columns are one int, bit j for
    column j."""
    blocks = _blocks(logic)
    columns = [(blocks.index(m.algebra), c, m.filter_set())
               for m in logic.matrices for c in range(m.algebra.size ** alg.size)]
    designated = [(sum(1 << j for j, (b, c, f) in enumerate(columns) if row[b][c] in f), v)
                  for row, v in pairs]
    every = (1 << len(columns)) - 1
    filters = []
    for k in range(alg.size + 1):
        for g in itertools.combinations(range(alg.size), k):
            active = functools.reduce(operator.and_, (d for d, v in designated if v in g), every)
            if all(active & ~d for d, v in designated if v not in g):
                filters.append(g)
    return filters


def _assert_classes(closure, sig, algebras, names, depth):
    """The closure's rows are the joint evaluations of the terms over `names`
    of depth <= `depth` in each algebra at every assignment. Each row comes
    once, in the order of the first term with that row in `enumerate_terms`,
    and that term is the one `term` rebuilds."""
    blocks = sorted(set(algebras), key=lambda a: a.sort_key())
    first = {}
    for t in enumerate_terms(sig, names, depth):
        first.setdefault(tuple(bytes(term_values(b, t, names)) for b in blocks), t)
    rows = _closure_rows(closure, blocks)
    assert rows == list(first)
    for i, row in enumerate(rows):
        assert closure.term(i, names) == first[row]


def _assert_sweep(logic, alg, depth_cap, budget):
    """At every depth cap up to `depth_cap`, the sweep's (row, value) pairs
    are the joint evaluations of the terms up to its effective depth, and
    `deductive_filters`, through the cache shared by every algebra of this
    size, gives the filters those evaluations define."""
    for cap in range(depth_cap + 1):
        pairs, depth_effective = _sweep_pairs(logic, alg, cap, budget)
        assert pairs == _joint_evaluations(logic, alg, depth_effective), cap
        assert deductive_filters(logic, alg, oracle_max=alg.size, depth_cap=cap,
                                 cell_budget=budget) == _filters_by_definition(logic, alg, pairs)
        assert filter_bounds(logic, alg, cap, budget, alg.size)["depth_effective"] == depth_effective
        assert depth_effective <= cap


def _closure_cases():
    luk = FiniteAlgebra(IMP, 3, {"→": [min(2, 2 - a + b) for a in range(3) for b in range(3)]})
    l3 = matrices_logic([Matrix(luk, (2,))], name="Ł3")
    rng = random.Random(4)
    for i, size in enumerate((1, 2, 2, 3, 3)):
        table = [rng.randrange(size) for _ in range(size * size)]
        alg = FiniteAlgebra(IMP, size, {"→": table})
        yield pytest.param(l3, alg, 3, None, id=f"luk3-on-size-{size}-{i}")
    yield pytest.param(l3, luk, 3, None, id="luk3-on-itself")

    constant = Signature({"c": 0, "f": 2})
    cf = FiniteAlgebra(constant, 2, {"c": [1], "f": [0, 1, 1, 0]})
    alg = FiniteAlgebra(constant, 2, {"c": [0], "f": [1, 1, 0, 1]})
    yield pytest.param(matrices_logic([Matrix(cf, (1,))]), alg, 3, None, id="nullary-symbol")

    # 17 * 17 = 289 table cells do not fit the 256 byte lanes: cell by cell
    big = FiniteAlgebra(IMP, 17, {"→": [(3 * a + b * b) % 17 for a in range(17) for b in range(17)]})
    yield pytest.param(matrices_logic([Matrix(big, (0,))]), imp2(), 3, None, id="17-elements")

    # level 3 would need 81**2 * 28 cells: the budget stops the closure at level 2
    alg = FiniteAlgebra(IMP, 3, {"→": [1, 2, 0, 0, 0, 1, 2, 2, 1]})
    yield pytest.param(l3, alg, 3, 10_000, id="budget-stopped")

    # three blocks: Ł3, the two-element implication and the target
    two = matrices_logic([Matrix(luk, (2,)), Matrix(imp2(), (1,))])
    alg = FiniteAlgebra(IMP, 2, {"→": [1, 0, 0, 1]})
    yield pytest.param(two, alg, 3, None, id="two-defining-algebras")

    ternary = Signature({"m": 3})
    three = FiniteAlgebra(ternary, 3, {"m": [rng.randrange(3) for _ in range(27)]})
    alg = FiniteAlgebra(ternary, 2, {"m": [0, 0, 0, 1, 0, 1, 1, 1]})
    yield pytest.param(matrices_logic([Matrix(three, (0,))]), alg, 2, None, id="ternary-symbol")

    # 12 * 12 and 2 * 2 cells each fit a byte, and packed the joint table
    # does too: 144 + 14 = 158 lanes, the 2-element block's digits in base 12
    twelve = FiniteAlgebra(IMP, 12, {"→": [(a * b + 1) % 12 for a in range(12) for b in range(12)]})
    alg = FiniteAlgebra(IMP, 2, {"→": [1, 1, 0, 1]})
    yield pytest.param(matrices_logic([Matrix(twelve, (0,))]), alg, 3, None,
                       id="joint-table-over-256")

    # s(a, b) = a + 1 ignores b, so each (s, head) batch yields one new row
    # once per tail row, and c's batch is the one-row nullary batch; over 3
    # elements the joint table is bytes, over 17 a list
    successor = Signature({"c": 0, "s": 2})
    for n, kind in ((3, "bytes"), (17, "list")):
        cyclic = FiniteAlgebra(successor, n, {"c": [n - 1], "s": [(a + 1) % n for a in range(n)
                                                                 for _ in range(n)]})
        alg = FiniteAlgebra(successor, 2, {"c": [1], "s": [1, 1, 0, 0]})
        yield pytest.param(matrices_logic([Matrix(cyclic, (0,))]), alg, 3, None,
                           id=f"repeated-row-and-nullary-{kind}")

    # a class's set of values in a 9-element target no longer fits a byte
    unary = Signature({"s": 1})
    flip = FiniteAlgebra(unary, 2, {"s": [1, 0]})
    alg = FiniteAlgebra(unary, 9, {"s": [(a + 1) % 9 for a in range(9)]})
    yield pytest.param(matrices_logic([Matrix(flip, (0,))], variable_budget=9), alg, 3, None,
                       id="nine-elements")


@pytest.mark.parametrize("logic, alg, depth_cap, budget", _closure_cases())
def test_closure_rows_are_the_joint_evaluations_of_bounded_terms(logic, alg, depth_cap, budget):
    budget = budget or DEFAULTS.closure_cell_budget
    _assert_sweep(logic, alg, depth_cap, budget)
    if budget < DEFAULTS.closure_cell_budget:
        assert _sweep_pairs(logic, alg, depth_cap, budget)[1] == 2


def test_a_joint_table_is_bytes_while_its_packed_blocks_fit_256_lanes():
    cases = {case.id: case.values for case in _closure_cases()}
    for case, sym, table_type in (("joint-table-over-256", "→", bytes),
                                  ("17-elements", "→", list),
                                  ("repeated-row-and-nullary-bytes", "s", bytes),
                                  ("repeated-row-and-nullary-list", "s", list)):
        logic, alg = cases[case][:2]
        blocks = [m.algebra for m in logic.matrices] + [alg]
        assert type(_joint_table(blocks, sym, 2)) is table_type, case


def test_a_set_image_is_the_image_of_every_choice_of_arguments():
    sig = Signature({"c": 0, "u": 1, "b": 2, "t": 3})
    rng = random.Random(30)
    for n in range(1, 5):
        alg = FiniteAlgebra(sig, n, {sym: [rng.randrange(n) for _ in range(n**arity)]
                                     for sym, arity in sig.symbols})
        for sym, arity in sig.symbols:
            for head in itertools.product(range(1 << n), repeat=max(arity - 1, 0)):
                image = _image(alg, sym, head)
                assert len(image) == 1 << n
                for tail in range(1 << n):
                    sets = [[v for v in range(n) if m >> v & 1] for m in (*head, tail)]
                    want = {alg.apply(sym, args[:arity]) for args in itertools.product(*sets)}
                    assert image[tail] == sum(1 << v for v in want), (n, sym, head, tail)


def test_a_symbol_may_share_its_name_with_a_canonical_variable():
    # the sweep's canonical variables are never rebuilt into terms, so a
    # symbol named v0 sweeps like any other; the witness searches' x and y clash
    def logic(name):
        alg = FiniteAlgebra(Signature({name: 2}), 2, {name: [1, 1, 0, 1]})
        return matrices_logic([Matrix(alg, (1,))]), alg

    assert deductive_filters(*logic("v0")) == deductive_filters(*logic("s")) == [(1,), (0, 1)]
    with pytest.raises(TermError, match="variable 'x' clashes with a symbol name"):
        theorem_search(logic("x")[0], 2)

    # the protoalgebraic search checks its names before it reads a class, so
    # a symbol named y raises where no set of terms would qualify
    def constant(name):
        alg = FiniteAlgebra(Signature({name: 1}), 2, {name: [1, 1]})
        return matrices_logic([Matrix(alg, (1,))])

    assert find_protoalgebraic_witness(constant("s"), 2) is None
    with pytest.raises(TermError, match="variable 'y' clashes with a symbol name"):
        find_protoalgebraic_witness(constant("y"), 2)


def _random_closure_case(rng):
    """1-3 defining matrices over 2-5 elements, symbols of arity 0-3, and a
    target algebra of 1-2 elements that may or may not be a defining one."""
    sig = Signature({f"f{i}": rng.randrange(4) for i in range(rng.randint(1, 2))})

    def algebra(n):
        return FiniteAlgebra(sig, n, {s: [rng.randrange(n) for _ in range(n**a)]
                                      for s, a in sig.symbols})

    mats = [Matrix(algebra(rng.randint(2, 5)), (0,)) for _ in range(rng.randint(1, 3))]
    alg = mats[0].algebra if rng.random() < 0.2 and mats[0].algebra.size <= 2 else algebra(
        rng.randint(1, 2))
    return matrices_logic(mats), alg, rng.randint(1, 2)


def test_random_closures_are_the_joint_evaluations_of_bounded_terms():
    rng = random.Random(8)
    for _ in range(30):
        logic, alg, depth_cap = _random_closure_case(rng)
        algebras = [m.algebra for m in logic.matrices]
        _assert_sweep(logic, alg, depth_cap, DEFAULTS.closure_cell_budget)
        # the witness searches' closures: x, or x and y, and no canonical column
        for names in (("x",), ("x", "y")):
            closure = _grown(JointClosure(logic.signature, algebras, len(names)), depth_cap)
            _assert_classes(closure, logic.signature, algebras, names, closure.level)


def _assert_shrinks(logic, alg, budget):
    """Deeper terms add rules, so the bounded family at cap d + 1 is part of
    the one at cap d, and the full carrier is in every one."""
    before = None
    for cap in range(5):
        filters = deductive_filters(logic, alg, oracle_max=alg.size, depth_cap=cap,
                                    cell_budget=budget)
        assert filters[-1] == tuple(range(alg.size))
        if before is not None:
            assert set(filters) <= set(before), cap
        before = filters


@pytest.mark.parametrize("logic, alg, depth_cap, budget", _closure_cases())
def test_the_bounded_family_shrinks_as_the_depth_cap_grows(logic, alg, depth_cap, budget):
    _assert_shrinks(logic, alg, budget or DEFAULTS.closure_cell_budget)


def test_random_bounded_families_shrink_as_the_depth_cap_grows():
    rng = random.Random(31)
    for _ in range(30):
        logic, alg, _ = _random_closure_case(rng)
        _assert_shrinks(logic, alg, DEFAULTS.closure_cell_budget)


@pytest.mark.parametrize("logic, alg, depth_cap, budget", _closure_cases())
def test_witness_closures_rebuild_the_first_term_of_each_class(logic, alg, depth_cap, budget):
    # over x on the defining algebras, at depth 3: in the repeated-row cases
    # one batch yields a new row from several tails, and the first one counts
    algebras = [m.algebra for m in logic.matrices]
    closure = _grown(JointClosure(logic.signature, algebras, 1), 3)
    _assert_classes(closure, logic.signature, algebras, ("x",), closure.level)


def test_bounded_filters_refuse_algebras_over_256_elements():
    sig = Signature({"s": 1})
    big = FiniteAlgebra(sig, 257, {"s": [(x + 1) % 257 for x in range(257)]})
    logic = matrices_logic([Matrix(big, (0,))])
    with pytest.raises(CapExceeded, match="257"):
        deductive_filters(logic, one_element(sig))
    with pytest.raises(CapExceeded, match="257"):
        filter_bounds(logic, one_element(sig))


def test_filter_bounds_refuse_an_algebra_of_another_signature():
    with pytest.raises(SignatureMismatch):
        filter_bounds(build("two-valued-pair").logic, pointed_set(2))
    with pytest.raises(SignatureMismatch):
        filter_bounds(build("nabla").logic, pointed_set(2))


# ---------------------------------------------------------------------------
# the filter lattice against the definitions, and its cache


def _largest_compatible(congruences, f):
    """Omega(F) by definition: the largest congruence compatible with F."""
    compatible = [c for c in congruences if is_compatible(c, f)]
    largest = min(compatible, key=lambda c: c.num_blocks)
    assert all(c.refines(largest) for c in compatible)
    return largest


def _related(p):
    return {(a, b) for a in range(p.size) for b in range(p.size)
            if p.block_ids[a] == p.block_ids[b]}


def _lattice_cases():
    for name in GALLERY_NAMES:
        entry = build(name)
        if entry.logic is not None:
            yield pytest.param(entry.logic, entry.inventory, id=name)
    luk = FiniteAlgebra(IMP, 3, {"→": [min(2, 2 - a + b) for a in range(3) for b in range(3)]})
    rng = random.Random(6)
    inventory = [luk]
    for size in (1, 2, 2, 3, 3, 3, 3):
        inventory.append(FiniteAlgebra(IMP, size, {"→": [rng.randrange(size)
                                                         for _ in range(size * size)]}))
    yield pytest.param(matrices_logic([Matrix(luk, (2,))]), inventory, id="luk3-random")


@pytest.mark.parametrize("logic, inventory", _lattice_cases())
def test_suszko_and_reduced_filters_agree_with_the_definitions(logic, inventory):
    """The Suszko congruence of F relates a and b iff every Omega(G), G a
    filter containing F, does; F is reduced iff that relation is equality."""
    for alg in inventory:
        congruences = congruences_bruteforce(alg)
        filters = deductive_filters(logic, alg)
        omega = {g: _related(_largest_compatible(congruences, g)) for g in filters}
        diagonal = {(a, a) for a in range(alg.size)}
        want_reduced = []
        for f in filters:
            want = set(itertools.product(range(alg.size), repeat=2))
            for g in filters:
                if set(f) <= set(g):
                    want &= omega[g]
            assert _related(suszko_congruence(logic, alg, f)) == want
            if want == diagonal:
                want_reduced.append(f)
        assert [m.filter for m in reduced_filters_on(logic, alg)] == want_reduced


@pytest.mark.parametrize("logic, inventory", _lattice_cases())
def test_the_meet_of_a_family_is_the_meet_of_its_leibniz_congruences(logic, inventory):
    for alg in inventory:
        lattice = filter_lattice(logic, alg)
        assert lattice.meet([]) == lattice.meet(iter(())) == Partition.total(alg.size)
        for f in lattice.filters:
            assert lattice.meet([f]) == lattice.omega(f)
        for f, g in itertools.combinations(lattice.filters, 2):
            assert lattice.meet([f, g]) == lattice.omega(f).meet(lattice.omega(g))
            assert lattice.meet(iter([g, f])) == lattice.meet([f, g])
        # the whole family relates a and b iff every congruence in it does
        want = set(itertools.product(range(alg.size), repeat=2))
        for f in lattice.filters:
            want &= _related(lattice.omega(f))
        assert _related(lattice.meet(lattice.filters)) == want


def test_filter_lattice_is_swept_once_per_key(monkeypatch, fresh_caches):
    calls = collections.Counter()
    for owner, name in ((logics, "term_classes"), (JointClosure, "filters"),
                        (logics, "_rule_filters")):
        def counted(*args, real=getattr(owner, name), name=name, **kw):
            calls[name] += 1
            return real(*args, **kw)
        monkeypatch.setattr(owner, name, counted)
    for logic, alg in ((PAIR, bool2()), (NABLA, imp2())):
        def every_reader():
            filters = deductive_filters(logic, alg)
            return (filters, filter_bounds(logic, alg),
                    [suszko_congruence(logic, alg, f) for f in filters],
                    [m.filter for m in reduced_filters_on(logic, alg)],
                    filters[0] in filter_lattice(logic, alg).filters)
        first = every_reader()
        swept = calls.copy()
        assert swept
        assert every_reader() == first
        assert calls == swept
    # the exact rule sweep ignores the closure caps, so they share one entry
    swept = calls.copy()
    assert deductive_filters(NABLA, imp2(), depth_cap=1) == deductive_filters(
        NABLA, imp2(), depth_cap=2, cell_budget=10)
    assert calls == swept


def test_repeated_inventory_scans_sweep_each_algebra_once(fresh_caches):
    # basic-proto's inventory has 65 algebras: a cache smaller than that
    # evicts every lattice before the second scan reads it
    entry = build("basic-proto")
    for _ in range(2):
        check_class("truth_equational", entry.logic, entry.inventory)
    assert logics._sweep.cache_info().misses == len(set(entry.inventory)) == 65


def test_filter_bounds_keeps_the_carrier_cap(monkeypatch, fresh_caches):
    pointed = matrices_logic([Matrix(pointed_set(2), (0,))])
    sweeps = []
    real = JointClosure.filters
    monkeypatch.setattr(JointClosure, "filters", lambda *a: sweeps.append(a) or real(*a))
    with pytest.raises(CapExceeded, match="filter sweep cap 6"):
        filter_bounds(pointed, pointed_set(7))
    assert not sweeps
    assert filter_bounds(pointed, pointed_set(7), oracle_max=7)["depth_effective"] == 3
    assert len(sweeps) == 1
    # the exact notion has no closure to bound, but the same carrier cap
    with pytest.raises(CapExceeded, match="carrier 7 exceeds the filter sweep cap 6"):
        filter_bounds(ASSERTIONAL, pointed_set(7))
    assert filter_bounds(ASSERTIONAL, pointed_set(7), oracle_max=7) == {
        "filter_notion": "exact", "variable_budget": ASSERTIONAL.variable_budget}


LUK3 = FiniteAlgebra(IMP, 3, {"→": [min(2, 2 - a + b) for a in range(3) for b in range(3)]})
L3 = matrices_logic([Matrix(LUK3, (2,))], name="Ł3")
# two three-element targets that are no defining algebra of Ł3
TARGETS = (FiniteAlgebra(IMP, 3, {"→": [1, 2, 0, 0, 0, 1, 2, 2, 1]}),
           FiniteAlgebra(IMP, 3, {"→": [2, 2, 2, 0, 2, 2, 0, 1, 2]}))


def _read(logic, alg, **caps):
    return deductive_filters(logic, alg, **caps), filter_bounds(logic, alg, **caps)


def _cold(logic, alg, **caps):
    logics._sweep.cache_clear()
    clone.term_classes.cache_clear()
    return _read(logic, alg, **caps)


def _l3_classes():
    """The sweep's shared closure for Ł3's three-element targets."""
    return clone.term_classes(IMP, frozenset([LUK3]), 3)


def test_targets_of_one_size_share_the_defining_classes(fresh_caches):
    warm = [_read(L3, alg) for alg in TARGETS]
    info = clone.term_classes.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert warm == [_cold(L3, alg) for alg in TARGETS]


@pytest.mark.parametrize("alg", TARGETS + (LUK3,), ids=("target-0", "target-1", "luk3-itself"))
def test_warm_shared_classes_sweep_as_cold_ones(alg, fresh_caches):
    # each sweep reads the classes the one before it grew: depth 2, then
    # depth 3, then depth 2 again, stopped by the budget under classes of depth 3
    sweeps = [{"depth_cap": 2}, {"depth_cap": 3}, {"depth_cap": 3, "cell_budget": 10_000}]
    cold = [_cold(L3, alg, **caps) for caps in sweeps]
    logics._sweep.cache_clear()
    clone.term_classes.cache_clear()
    assert [_read(L3, alg, **caps) for caps in sweeps] == cold
    assert clone.term_classes.cache_info().misses == 1
    assert [bounds["depth_effective"] for _, bounds in cold] == [2, 3, 2]


def test_the_column_lanes_are_built_once_per_closure_state(monkeypatch, fresh_caches):
    closure = _l3_classes()
    built = []  # the closure's level at each build, as each build stores its lanes

    class Kept(dict):
        def __setitem__(self, matrices, lanes):
            built.append(closure.level)
            super().__setitem__(matrices, lanes)

    monkeypatch.setattr(closure, "_kept_lanes", Kept())
    targets = TARGETS + (LUK3,)
    warm = [_read(L3, alg, depth_cap=2) for alg in targets]
    assert built == [2]
    # TARGETS[0] is settled at depth 1, so the closure stays at level 2
    warm.append(_read(L3, TARGETS[0], depth_cap=3))
    assert (built, closure.level) == ([2], 2)
    # a target that does not collapse grows the closure, which drops the lanes
    warm.append(_read(L3, LUK3, depth_cap=3))
    assert built == [2, 3]
    warm.append(_read(L3, TARGETS[1], depth_cap=3))
    assert built == [2, 3]
    assert warm == ([_cold(L3, alg, depth_cap=2) for alg in targets]
                    + [_cold(L3, alg, depth_cap=3) for alg in (TARGETS[0], LUK3, TARGETS[1])])


def test_logics_over_one_closure_keep_their_own_column_lanes(fresh_caches):
    # two-valued-pair and <B2, {1}> read one closure of B2 over two canonical
    # variables, but their filters differ: each keeps the lanes of its own columns
    b2one = matrices_logic([Matrix(bool2(), (1,))])
    targets = (bool2(), FiniteAlgebra(BOOL, 2, {"and": (0, 1, 1, 1), "or": (0, 0, 0, 1),
                                                "not": (1, 0)}))
    sweeps = [(logic, alg, cap) for cap in (2, 3) for alg in targets for logic in (PAIR, b2one)]
    warm = [_read(logic, alg, depth_cap=cap) for logic, alg, cap in sweeps]
    assert clone.term_classes.cache_info().misses == 1
    closure = clone.term_classes(BOOL, frozenset([bool2()]), 2)
    assert set(closure._kept_lanes) == {PAIR.matrices, b2one.matrices}
    assert warm == [_cold(logic, alg, depth_cap=cap) for logic, alg, cap in sweeps]
    assert all(warm[i] != warm[i + 1] for i in range(0, len(warm), 2))


def test_a_target_down_to_the_full_carrier_never_propagates_the_last_level(monkeypatch,
                                                                         fresh_caches):
    # TARGETS[0] keeps only the full carrier from depth 1 on, so at cap 3
    # only level 0 is propagated; at cap 4 the default budget stops the sweep
    # at depth 3, so no trial below it answers and levels 0-2 run; Ł3 itself
    # keeps {2} at every depth, so its last level is propagated and tested
    closure = _l3_classes()
    spread = []  # the levels each sweep propagates
    real = closure._spread
    monkeypatch.setattr(closure, "_spread", lambda target, masks, level, images: (
        spread.append(level) or real(target, masks, level, images)))
    for alg, cap, want, depth in ((TARGETS[0], 3, [0], 3), (LUK3, 3, [0, 1, 2], 3),
                                  (TARGETS[0], 4, [0, 1, 2], 3)):
        spread.clear()
        assert _read(L3, alg, depth_cap=cap)[1]["depth_effective"] == depth
        assert spread == want, cap
    for alg in (TARGETS[0], LUK3):
        for budget in (2000, 20000, DEFAULTS.closure_cell_budget):
            for cap in range(1, 4):
                pairs, depth_effective = _sweep_pairs(L3, alg, cap, budget)
                filters, bounds = _read(L3, alg, depth_cap=cap, cell_budget=budget)
                assert filters == _filters_by_definition(L3, alg, pairs), (budget, cap)
                assert bounds["depth_effective"] == depth_effective, (budget, cap)
    assert deductive_filters(L3, TARGETS[0]) == [(0, 1, 2)]
    assert deductive_filters(L3, LUK3) == [(2,), (0, 1, 2)]


def _four_element_targets():
    b2one = matrices_logic([Matrix(bool2(), (1,))], name="b2one")
    product = product_of_logics(b2one, b2one)
    yield pytest.param(build("ba-star-logic").logic, bool4(), id="ba-star-logic-on-b4")
    yield pytest.param(product, product.matrices[0].algebra, id="criterion-8-product")


@pytest.mark.parametrize("logic, alg", _four_element_targets())
def test_sweeps_of_four_element_targets_agree_with_the_definition(logic, alg, fresh_caches):
    # the sweeps share one warm closure across caps and budgets; each oracle
    # reads a cold closure of its own
    for budget in (2000, 20000, DEFAULTS.closure_cell_budget):
        for cap in range(1, 4):
            pairs, depth_effective = _sweep_pairs(logic, alg, cap, budget)
            filters, bounds = _read(logic, alg, depth_cap=cap, cell_budget=budget)
            assert filters == _filters_by_definition(logic, alg, pairs), (budget, cap)
            assert bounds["depth_effective"] == depth_effective, (budget, cap)


def _spy_sweeps(monkeypatch):
    """Each bounded sweep from now on, as [the levels it propagates, whether
    it read the last pair of `_canonical_masks`]: a sweep that a trial
    settles never does."""
    sweeps = []
    masks, spread = JointClosure._canonical_masks, JointClosure._spread

    def spy_masks(self, *args):
        sweeps.append([[], False])
        yield from masks(self, *args)
        sweeps[-1][1] = True

    def spy_spread(self, target, masks, level, images):
        sweeps[-1][0].append(level)
        return spread(self, target, masks, level, images)

    monkeypatch.setattr(JointClosure, "_canonical_masks", spy_masks)
    monkeypatch.setattr(JointClosure, "_spread", spy_spread)
    return sweeps


def test_random_sweeps_settled_below_the_last_level_agree_with_the_definition(monkeypatch,
                                                                          fresh_caches):
    # three-element targets at caps 3 and 4, where a trial below depth cap - 1
    # may settle the sweep: `early` counts the sweeps one settled
    sweeps = _spy_sweeps(monkeypatch)
    rng = random.Random(32)
    early = 0
    for _ in range(20):
        sig = Signature({f"f{i}": rng.choice((0, 1, 2, 2)) for i in range(rng.randint(1, 2))})

        def algebra(n):
            return FiniteAlgebra(sig, n, {s: [rng.randrange(n) for _ in range(n**a)]
                                          for s, a in sig.symbols})

        logic = matrices_logic([Matrix(algebra(2), (0,)) for _ in range(rng.randint(1, 2))])
        alg = algebra(3)
        for cap in (3, 4):
            for budget in (20000, DEFAULTS.closure_cell_budget):
                sweeps.clear()  # a draw met before reads its cached lattice
                filters, bounds = _read(logic, alg, depth_cap=cap, cell_budget=budget)
                early += sum(not answered and len(levels) < cap - 1 for levels, answered in sweeps)
                pairs, depth_effective = _sweep_pairs(logic, alg, cap, budget)
                assert filters == _filters_by_definition(logic, alg, pairs), (cap, budget)
                assert bounds["depth_effective"] == depth_effective, (cap, budget)
    assert early >= 10


def _sweep_corpus():
    """100 random matrix logics, each with 1-2 symbols of arity 0-2 and 1-2
    defining matrices over 2-3 elements, and two targets of 1-3 elements
    each, with the eight (depth cap, budget) pairs of caps 1-4 and budgets
    2000 and the default in a shuffled order."""
    rng = random.Random(35)
    caps = [(cap, budget) for cap in range(1, 5)
            for budget in (2000, DEFAULTS.closure_cell_budget)]
    for _ in range(100):
        sig = Signature({f"f{i}": rng.randrange(3) for i in range(rng.randint(1, 2))})

        def algebra(n):
            return FiniteAlgebra(sig, n, {s: [rng.randrange(n) for _ in range(n**a)]
                                          for s, a in sig.symbols})

        mats = []
        for _ in range(rng.randint(1, 2)):
            a = algebra(rng.randint(2, 3))
            mats.append(Matrix(a, rng.sample(range(a.size), rng.randint(1, a.size - 1))))
        logic = matrices_logic(mats)
        for _ in range(2):
            alg = algebra(rng.randint(1, 3))
            rng.shuffle(caps)
            for cap, budget in caps:
                yield logic, alg, cap, budget


def test_the_bounded_sweeps_of_a_seeded_corpus_keep_their_outputs(fresh_caches):
    # 1,600 sweeps in one process, so later ones read closures that earlier
    # ones grew: (filters, depth_effective) of each, or the refusal
    outputs = []
    for logic, alg, cap, budget in _sweep_corpus():
        try:
            lattice = filter_lattice(logic, alg, depth_cap=cap, cell_budget=budget)
            outputs.append([[list(f) for f in lattice.filters], lattice.depth_effective])
        except CapExceeded as e:
            outputs.append(str(e))
    assert len(outputs) == 1600
    assert fingerprint(outputs) == "5c4d8de04868855f"


def test_a_budget_that_only_the_real_counts_admit_takes_no_early_trial(monkeypatch,
                                                                      fresh_caches):
    # at cap 3 TARGETS[0] needs 81**2 * 28 cells (81 (row, value) pairs at
    # depth 2), but the 52 rows of depth 2 bound it at (52 * 3)**2 * 28: in
    # between, no trial runs at depth 1, and the cap - 1 trial settles it
    sweeps = _spy_sweeps(monkeypatch)
    for budget, want in ((81**2 * 28, [[0, 1], False]), ((52 * 3)**2 * 28 - 1, [[0, 1], False]),
                         ((52 * 3)**2 * 28, [[0], False])):
        clone.term_classes.cache_clear()
        bounds = filter_bounds(L3, TARGETS[0], 3, budget)
        assert sweeps[-1] == want, budget
        pairs, depth_effective = _sweep_pairs(L3, TARGETS[0], 3, budget)
        assert bounds["depth_effective"] == depth_effective == 3, budget
        assert deductive_filters(L3, TARGETS[0], depth_cap=3, cell_budget=budget) == (
            _filters_by_definition(L3, TARGETS[0], pairs)) == [(0, 1, 2)]


def test_an_error_part_way_through_a_level_leaves_the_shared_classes_whole(monkeypatch,
                                                                         fresh_caches):
    _read(L3, TARGETS[0], depth_cap=2)
    closure = _l3_classes()
    kept = dict(closure._kept_lanes)
    real = closure._candidates

    def interrupted():
        for k, batch in enumerate(real()):
            if k == 40:  # well into level 3, past batches that add classes
                raise MemoryError
            yield batch

    monkeypatch.setattr(closure, "_candidates", interrupted)
    with pytest.raises(MemoryError):
        _read(L3, TARGETS[1], depth_cap=3)
    monkeypatch.undo()
    assert (closure.level, len(closure._index)) == (2, len(closure._rows))
    assert kept and closure._kept_lanes == kept  # the rows are unchanged, so are their lanes
    assert _read(L3, TARGETS[1], depth_cap=3) == _cold(L3, TARGETS[1], depth_cap=3)


def test_an_error_part_way_through_a_level_leaves_a_witness_closure_whole(monkeypatch):
    closure = _grown(JointClosure(IMP, [LUK3], 2), 2)
    names = ("x", "y")
    known = [closure.term(i, names) for i in closure.classes(2, DEFAULTS.closure_cell_budget)]
    real = closure._candidates

    def interrupted():
        for k, batch in enumerate(real()):
            if k == 5:  # part-way through level 3, past batches that add classes
                assert len(closure._origins) > len(closure._rows)
                raise MemoryError
            yield batch

    monkeypatch.setattr(closure, "_candidates", interrupted)
    with pytest.raises(MemoryError):
        closure.grow()
    monkeypatch.undo()
    assert closure.level == 2
    assert len(closure._index) == len(closure._origins) == len(closure._rows) == len(known)
    cold = JointClosure(IMP, [LUK3], 2)
    budget = DEFAULTS.closure_cell_budget
    assert [closure.term(i, names) for i in closure.classes(4, budget)] == [
        cold.term(i, names) for i in cold.classes(4, budget)]


def test_the_cell_budget_counts_the_target_column():
    # level 3 needs rows**2 * width cells, the rows being (class, value)
    # pairs: 81 over Ł3's 27 columns and the target's own, or Ł3's 52
    # classes over its 27 columns for Ł3 itself
    for alg, need in ((TARGETS[0], 81**2 * 28), (LUK3, 52**2 * 27)):
        assert filter_bounds(L3, alg, 3, need)["depth_effective"] == 3
        assert filter_bounds(L3, alg, 3, need - 1)["depth_effective"] == 2


def test_returned_lists_are_fresh():
    filters = deductive_filters(PAIR, bool2())
    filters.append((7,))
    filters[0] = (5,)
    assert deductive_filters(PAIR, bool2()) == [(), (0,), (1,), (0, 1)]
    reduced = reduced_filters_on(NABLA, imp2())
    reduced.clear()
    assert [m.filter for m in reduced_filters_on(NABLA, imp2())] == [(1,)]
    bounds = filter_bounds(PAIR, bool2())
    bounds["depth_effective"] = -1
    assert filter_bounds(PAIR, bool2())["depth_effective"] == DEFAULTS.depth_default
