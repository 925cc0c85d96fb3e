"""Hierarchy checks: witness searches, class verdicts, admissibility."""

import functools
import itertools
import random

import pytest

from law.algebra import FiniteAlgebra, congruences_bruteforce, direct_product, one_element
from law.config import DEFAULTS
from law.errors import CapExceeded, SignatureMismatch, UnknownName
from law.gallery import GALLERY_NAMES, bool2, bool4, build, imp2, nabla_hat, pointed_set
from law.hierarchy import (
    CLASS_NAMES,
    chain_entails,
    check_admissibility_bounded,
    check_class,
    consequence_presentation,
    derive_theorems,
    find_injective_theorem,
    find_protoalgebraic_witness,
    leibniz_monotonicity_probe,
    monotonicity_probe_on_filters,
    nabla_theorem_oracle,
    theorem_search,
    verify_protoalgebraic_witness,
)
from law.logics import (
    RULES,
    FilterFamily,
    Rule,
    _closed_under_rules,
    filter_lattice,
    matrices_logic,
    rules_logic,
)
from law.matrices import Matrix, leibniz_congruence
from law.partitions import Partition
from law.serialize import payload_to_json
from law.terms import (
    App,
    Signature,
    Var,
    depth,
    enumerate_terms,
    parse_term,
    substitute,
    to_sexpr,
    variables,
)
from law.translations import Translation, check_interpretation_bounded

IMP = imp2().signature
POINTED = Signature({"⊤": 1})
X, Y = Var("x"), Var("y")

NABLA = build("nabla")
DELTA = build("delta")
ASSERTIONAL = build("basic-assertional")
PAIR = build("two-valued-pair")
PROTO = build("basic-proto")


def test_nabla_theorem_oracle():
    assert nabla_theorem_oracle(parse_term(IMP, "(→ x x)"))
    assert not nabla_theorem_oracle(parse_term(IMP, "(→ x y)"))
    assert nabla_theorem_oracle(parse_term(IMP, "(→ (→ x y) (→ x y))"))
    assert not nabla_theorem_oracle(X)


def test_chaining_agrees_with_oracle_small():
    theorems = derive_theorems(NABLA.logic, ("x", "y"), 3)
    for t in enumerate_terms(IMP, ["x", "y"], 3):
        assert (t in theorems) == nabla_theorem_oracle(t)


def test_chain_entails():
    assert chain_entails(NABLA.logic, [X, parse_term(IMP, "(→ x y)")], Y)
    assert not chain_entails(NABLA.logic, [], X)
    assert chain_entails(NABLA.logic, [], parse_term(IMP, "(→ (→ x y) (→ x y))"))


def test_find_protoalgebraic_witness_nabla():
    w = find_protoalgebraic_witness(NABLA.logic, depth=2, inventory=NABLA.inventory)
    assert w is not None
    assert [to_sexpr(t) for t in w.terms] == ["(→ x y)"]


def test_find_protoalgebraic_witness_finite_rank():
    w = find_protoalgebraic_witness(PROTO.logic, depth=2, inventory=PROTO.inventory)
    assert w is not None
    assert [to_sexpr(t) for t in w.terms] == ["(⊸0 x y)"]


def test_find_protoalgebraic_witness_assertional_absent():
    w = find_protoalgebraic_witness(
        ASSERTIONAL.logic, depth=3, inventory=[pointed_set(n) for n in (1, 2, 3)]
    )
    assert w is None


def test_find_protoalgebraic_witness_matrix_presented():
    imp_logic = matrices_logic([Matrix(imp2(), (1,))])
    w = find_protoalgebraic_witness(imp_logic, depth=2)
    assert w is not None and [to_sexpr(t) for t in w.terms] == ["(→ x y)"]


def test_witness_reverifies_by_contract():
    w = find_protoalgebraic_witness(NABLA.logic, depth=2, inventory=NABLA.inventory)
    consequence = consequence_presentation(NABLA.logic, NABLA.inventory)
    assert verify_protoalgebraic_witness(consequence, w.terms)
    assert not verify_protoalgebraic_witness(consequence, (X,))
    # y at y = x is x, no theorem; and an empty set yields nothing
    assert verify_protoalgebraic_witness(consequence, (Y,)) is False
    assert verify_protoalgebraic_witness(consequence, ()) is False


def test_monotonicity_probe_on_gallery_bundle():
    entry = build("ba-star")
    verdict = monotonicity_probe_on_filters(
        entry.matrices[0].algebra, [m.filter for m in entry.matrices]
    )
    assert verdict.fails
    assert verdict.witness["filter_small"] == (1, 3)
    assert verdict.witness["filter_large"] == (1, 2, 3)
    small, large = verdict.witness["omega_small"], verdict.witness["omega_large"]
    assert not small.refines(large)


def test_monotonicity_probe_full_logic():
    bastar = build("ba-star-logic")
    verdict = leibniz_monotonicity_probe(bastar.logic, [bool4()])
    assert verdict.fails
    w = verdict.witness
    # the embedded witness re-verifies
    from law.matrices import leibniz_congruence

    omega_small = leibniz_congruence(Matrix(w["algebra"], w["filter_small"]))
    omega_large = leibniz_congruence(Matrix(w["algebra"], w["filter_large"]))
    assert not omega_small.refines(omega_large)


def as_a_set(inventory):
    """The inventory, the same reversed, and the same with its first algebra
    appended again: one set of algebras, so one report."""
    inventory = list(inventory)
    return inventory, inventory[::-1], inventory + inventory[:1]


def test_reports_read_an_inventory_as_a_set():
    for entry in map(build, GALLERY_NAMES):
        if entry.logic is None:
            continue
        for cls in CLASS_NAMES:
            own, *others = (payload_to_json(check_class(cls, entry.logic, inv))
                            for inv in as_a_set(entry.inventory))
            assert others == [own, own], f"{cls} {entry.name}"
    bastar = build("ba-star-logic")
    own, *others = (payload_to_json(leibniz_monotonicity_probe(bastar.logic, inv))
                    for inv in as_a_set(bastar.inventory))
    assert others == [own, own]


def test_monotonicity_probe_holds_cases():
    assert leibniz_monotonicity_probe(NABLA.logic, [imp2()]).holds
    assert leibniz_monotonicity_probe(NABLA.logic, [one_element(IMP)]).holds


def test_check_class_assertional():
    v = check_class("assertional", ASSERTIONAL.logic, [pointed_set(n) for n in (1, 2, 3, 4)])
    assert v.holds
    assert v.witness == parse_term(POINTED, "(⊤ x)")  # the found theorem
    v2 = check_class("assertional", PAIR.logic, PAIR.inventory)
    assert not v2.holds  # theoremless, and two reduced singletons


def test_check_class_truth_minimal_and_pte():
    assert check_class("truth_minimal", PAIR.logic, PAIR.inventory).holds
    v = check_class("param_truth_equational", PAIR.logic, PAIR.inventory)
    assert v.fails
    family = v.witness["family"]
    assert [list(f) for f in family.filters] == [[1]]
    assert list(v.witness["filter"]) == [0]


def test_check_class_pte_implies_truth_minimal_on_gallery():
    for name in ("basic-assertional", "basic-proto", "basic-equiv", "nabla",
                 "delta", "two-valued-pair", "ba-star-logic"):
        entry = build(name)
        pte = check_class("param_truth_equational", entry.logic, entry.inventory)
        tm = check_class("truth_minimal", entry.logic, entry.inventory)
        assert not (pte.holds and not tm.holds), name


GALLERY_LOGICS = [pytest.param(e.logic, e.inventory, id=e.name)
                  for e in map(build, GALLERY_NAMES) if e.logic is not None]


def _escapes(lattice, f, family):
    """Whether the Leibniz congruences of `family` meet below Omega(f) while
    its intersection is not inside f: a Fails of `param_truth_equational`."""
    meet = Partition.total(lattice.algebra.size)
    for g in family:
        meet = meet.meet(lattice.omega(g))
    return meet.refines(lattice.omega(f)) and not set(family[0]).intersection(*family) <= set(f)


def family_loop(logic, inventory):
    """The slow oracle of `param_truth_equational`, with no size cap: the
    first nonempty filter f, and for it the first family of nonempty filters
    (by size, then in combination order) that `_escapes` at f, as (f,
    family); None if there is none."""
    for alg in sorted(inventory, key=lambda a: a.sort_key()):
        lattice = filter_lattice(logic, alg)
        filters = [f for f in lattice.filters if f]
        for f in filters:
            for k in range(1, len(filters) + 1):
                for family in itertools.combinations(filters, k):
                    if _escapes(lattice, f, family):
                        return f, FilterFamily(alg, family)
    return None


def random_matrix_logics(rng, count, own_algebras=False):
    """`count` (logic, inventory) pairs: one or two matrices of size 2-3 with
    a nonempty proper filter over one signature, and an inventory of one or
    two random algebras of size 2-4, plus the matrices' own algebras when
    `own_algebras` is set."""
    sigs = (Signature({"f": 2}), Signature({"f": 2, "g": 1}), Signature({"g": 1, "h": 1}))

    def algebra(sig, n):
        return FiniteAlgebra(sig, n, {s: [rng.randrange(n) for _ in range(n ** arity)]
                                      for s, arity in sig.symbols})

    for _ in range(count):
        sig = rng.choice(sigs)
        mats = []
        for _ in range(rng.randint(1, 2)):
            n = rng.randint(2, 3)
            designated = tuple(sorted(rng.sample(range(n), rng.randint(1, n - 1))))
            mats.append(Matrix(algebra(sig, n), designated))
        inventory = [algebra(sig, rng.randint(2, 4)) for _ in range(rng.randint(1, 2))]
        if own_algebras:
            inventory += [m.algebra for m in mats]
        yield matrices_logic(mats), inventory


def test_pte_agrees_with_the_family_loop():
    cases = [p.values for p in GALLERY_LOGICS]
    cases += random_matrix_logics(random.Random(7), 150)
    for logic, inventory in cases:
        v = check_class("param_truth_equational", logic, inventory)
        found = family_loop(logic, inventory)
        assert v.fails == (found is not None)
        if v.fails:
            assert (v.witness["filter"], v.witness["family"]) == found


def test_pte_fails_name_the_loops_filter_and_a_minimal_family():
    # With the matrices' own algebras in the inventories, far more logics
    # fail. The check takes the first a outside the filter and the loop the
    # first family by size, so the families may differ; each is minimal.
    fails = 0
    for logic, inventory in random_matrix_logics(random.Random(11), 100, own_algebras=True):
        v = check_class("param_truth_equational", logic, inventory)
        found = family_loop(logic, inventory)
        assert v.fails == (found is not None)
        if v.fails:
            fails += 1
            f, family = v.witness["filter"], v.witness["family"].filters
            lattice = filter_lattice(logic, v.witness["family"].algebra)
            assert f == found[0] and _escapes(lattice, f, family)
            for g in family if len(family) > 1 else ():
                assert not _escapes(lattice, f, [h for h in family if h != g])
    assert fails >= 15


def kleene3():
    """The 3-element Kleene chain 0 < 1 < 2: min, max and 2 - x."""
    return FiniteAlgebra(bool2().signature, 3,
                         {"and": [min(a, b) for a in range(3) for b in range(3)],
                          "or": [max(a, b) for a in range(3) for b in range(3)],
                          "not": [2 - a for a in range(3)]})


def test_pte_decides_algebras_above_five_elements():
    # B2 x K3 has 6 elements, within oracle_max, so it is decided
    prod = direct_product([bool2(), kleene3()])
    v = check_class("param_truth_equational", PAIR.logic, [prod])
    assert v.fails and "skipped_algebras" not in v.bounds_dict()
    assert (v.witness["filter"], v.witness["family"].filters) == ((0, 1, 2), ((3, 4, 5),))
    assert family_loop(PAIR.logic, [prod]) == (v.witness["filter"], v.witness["family"])


@pytest.mark.parametrize("logic, inventory", GALLERY_LOGICS)
def test_class_inclusions_on_the_gallery(logic, inventory):
    # assertional logics are truth-equational, equivalential ones
    # protoalgebraic (Font 2016)
    for small, large in (("assertional", "truth_equational"),
                         ("equivalential", "protoalgebraic")):
        if check_class(small, logic, inventory).holds:
            assert check_class(large, logic, inventory).holds, (small, large)


def test_check_class_truth_equational():
    v = check_class("truth_equational", ASSERTIONAL.logic, [pointed_set(n) for n in (1, 2, 3, 4)])
    assert v.holds
    v2 = check_class("truth_equational", PAIR.logic, PAIR.inventory)
    assert v2.fails
    assert v2.witness["filters"] == ((0,), (1,))


def test_every_filter_class_stops_at_the_first_algebra_that_refutes_it(chain7):
    # B2 refutes these three, so none sweeps the chain above the carrier cap
    grown = [*PAIR.inventory, chain7]
    for cls in ("assertional", "truth_equational", "param_truth_equational"):
        alone, v = (payload_to_json(check_class(cls, PAIR.logic, inv))
                    for inv in (PAIR.inventory, grown))
        assert v["status"] == alone["status"] == "fails" and v["witness"] == alone["witness"], cls
    # truth_minimal holds on B2, so it reaches the chain
    with pytest.raises(CapExceeded, match="carrier 7 exceeds the filter sweep cap 6"):
        check_class("truth_minimal", PAIR.logic, grown)
    assert check_class("has_theorems", PAIR.logic, grown).unknown


def imp_chain7():
    """The 7-element →-chain: a → b is the top if a ≤ b, else b."""
    return FiniteAlgebra(IMP, 7, {"→": [6 if a <= b else b for a in range(7) for b in range(7)]})


def test_interpretation_and_submatrix_checks_stop_at_the_first_refuting_model():
    # each refutes on its 3- or 2-element algebra, so neither sweeps the
    # chain above the carrier cap
    top_to_arg = Translation(POINTED, IMP, {"⊤": Var("x1")})
    imp_logic = matrices_logic([Matrix(imp2(), (1,))], name="b2-implication")
    a = FiniteAlgebra(IMP, 3, {"→": (1, 2, 1, 2, 1, 1, 0, 2, 2)})
    checks = [
        (lambda inv: check_interpretation_bounded(top_to_arg, ASSERTIONAL.logic, imp_logic, inv),
         imp2(), "reduct filter is not a source filter"),
        (lambda inv: check_class("equivalential", matrices_logic([Matrix(a, (1, 2))]), inv),
         a, "submatrix of a reduced model is not reduced"),
    ]
    for check, alg, reason in checks:
        alone, v = (payload_to_json(check(inv)) for inv in ([alg], [alg, imp_chain7()]))
        assert v["status"] == alone["status"] == "fails" and v["witness"] == alone["witness"]
        assert v["witness"]["reason"] == reason


def test_interpretation_refuses_an_inventory_algebra_of_another_signature():
    # refused before any model is read, as check_class does, although B2→
    # comes first and refutes the translation
    top_to_arg = Translation(POINTED, IMP, {"⊤": Var("x1")})
    imp_logic = matrices_logic([Matrix(imp2(), (1,))])
    with pytest.raises(SignatureMismatch, match="algebra signature differs"):
        check_interpretation_bounded(top_to_arg, ASSERTIONAL.logic, imp_logic,
                                     [imp2(), bool4()])


def test_check_class_has_theorems():
    assert check_class("has_theorems", NABLA.logic, NABLA.inventory).holds
    assert check_class("has_theorems", PAIR.logic, PAIR.inventory).unknown


def test_check_class_equivalential():
    equiv = build("basic-equiv")
    v = check_class("equivalential", equiv.logic, equiv.inventory)
    assert v.status in ("holds", "fails")  # bounded; must at least decide
    # the two-rule implication logic is protoalgebraic, and its tiny reduced
    # models happen to be closed under submatrices, so a bounded check holds
    v2 = check_class("equivalential", NABLA.logic, NABLA.inventory)
    assert v2.holds
    assert v2.bounds_dict()["inventory"]


def suszko_by_subsets(logic, m):
    """Oracle: the meet of the Leibniz congruences of every subset that
    contains m's filter and is closed under the rules."""
    n = m.algebra.size
    subsets = (s for k in range(n + 1) for s in itertools.combinations(range(n), k))
    above = [s for s in subsets
             if set(m.filter) <= set(s) and _closed_under_rules(logic, m.algebra, frozenset(s))]
    return functools.reduce(Partition.meet, (leibniz_congruence(Matrix(m.algebra, s))
                                             for s in above), Partition.total(n))


def test_check_class_equivalential_fails_on_a_submatrix_that_is_not_reduced():
    # ⟨A, {0, 1}⟩ is a reduced nabla model; → is constantly 0 on {0, 1}, a
    # subalgebra whose whole carrier is the filter
    a = FiniteAlgebra(IMP, 3, {"→": (0, 0, 2, 0, 0, 2, 0, 2, 0)})
    v = check_class("equivalential", NABLA.logic, [*NABLA.inventory, a])
    assert v.fails
    w = v.witness
    assert w["reason"] == "submatrix of a reduced model is not reduced"
    assert w["model"] == Matrix(a, (0, 1))
    sub = w["submatrix"]
    assert (sub.algebra.size, sub.algebra.table("→"), sub.filter) == (2, (0, 0, 0, 0), (0, 1))
    assert [to_sexpr(t) for t in w["witness"].terms] == ["(→ x y)"]
    assert suszko_by_subsets(NABLA.logic, w["model"]).is_identity()
    assert not suszko_by_subsets(NABLA.logic, sub).is_identity()


def _rule_presented_cases():
    cases = []
    for name in GALLERY_NAMES:
        entry = build(name)
        if entry.logic is not None and entry.logic.kind == RULES:
            cases.append(pytest.param(entry.logic, entry.inventory, id=name))
    pointed = [pointed_set(n) for n in (1, 2, 3, 4)]
    cases.append(pytest.param(ASSERTIONAL.logic, pointed, id="basic-assertional-pointed-1-4"))
    return cases


RULE_PRESENTED = _rule_presented_cases()


def nonmonotone_pairs(logic, inventory):
    """Oracle: every (algebra, F, G) with F properly inside G, both filters,
    and Omega(F) not below Omega(G). Filters come from the rule test on every
    subset, Omega(F) is the coarsest brute-force congruence compatible with F."""
    bad = set()
    for alg in inventory:
        n = alg.size
        subsets = (s for k in range(n + 1) for s in itertools.combinations(range(n), k))
        filters = [s for s in subsets if _closed_under_rules(logic, alg, frozenset(s))]
        congruences = congruences_bruteforce(alg)

        def omega(f):
            seed = Partition.seed_from_subset(n, f)
            return min((c for c in congruences if c.refines(seed)), key=lambda c: c.num_blocks)

        for small, large in itertools.permutations(filters, 2):
            if set(small) < set(large) and not omega(small).refines(omega(large)):
                bad.add((alg, small, large))
    return bad


@pytest.mark.parametrize("logic, inventory", RULE_PRESENTED)
def test_protoalgebraic_verdict_agrees_with_independent_paths(logic, inventory):
    v = check_class("protoalgebraic", logic, inventory)
    bad = nonmonotone_pairs(logic, inventory)
    assert v.fails == bool(bad)
    if v.fails:
        w = v.witness
        assert (w["algebra"], w["filter_small"], w["filter_large"]) in bad
        assert check_class("equivalential", logic, inventory).fails
    elif v.holds:
        assert v.witness == find_protoalgebraic_witness(
            logic, depth=DEFAULTS.depth_default, inventory=inventory)


@pytest.mark.parametrize("name", ["ba-star-logic", "two-valued-pair"])
def test_bounded_filters_give_no_protoalgebraic_fails(name):
    # the probe fails on the bounded sweep, but those filters over-approximate
    # the real ones, so the pair is no certificate and the verdict stays open
    entry = build(name)
    shallow = DEFAULTS.override(depth_default=1)
    assert leibniz_monotonicity_probe(entry.logic, entry.inventory, config=shallow).fails
    for cls in ("protoalgebraic", "equivalential"):
        assert check_class(cls, entry.logic, entry.inventory, config=shallow).unknown, cls


def test_check_class_unknown_name():
    with pytest.raises(UnknownName):
        check_class("mystery", NABLA.logic, NABLA.inventory)


def test_fails_witness_persists_under_inventory_growth():
    small = list(PAIR.inventory)
    grown = small + [one_element(PAIR.logic.signature)]
    for cls in ("truth_equational", "param_truth_equational"):
        assert check_class(cls, PAIR.logic, small).fails
        assert check_class(cls, PAIR.logic, grown).fails


def test_find_injective_theorem():
    assert to_sexpr(find_injective_theorem(DELTA.logic, DELTA.inventory, depth=2)) == "(→ x x)"
    assert find_injective_theorem(ASSERTIONAL.logic, [pointed_set(2)], depth=2) is None
    # on a one-element inventory any theorem qualifies
    t = find_injective_theorem(ASSERTIONAL.logic, [one_element(POINTED)], depth=2)
    assert to_sexpr(t) == "(⊤ x)"


def test_admissibility_of_the_capped_rule_family():
    hat = nabla_hat(2)
    premises = [
        substitute(p, {"x": App("→", (X, X)), "y": App("→", (Y, Y))}) for p in hat
    ]
    for psi in hat:
        v = check_admissibility_bounded(
            NABLA.logic, Rule(premises, psi), subst_depth=2,
            theorem_oracle=nabla_theorem_oracle,
        )
        assert v.holds, to_sexpr(psi)


def test_admissibility_rule_of_logic_itself():
    mp = Rule([X, parse_term(IMP, "(→ x y)")], Y)
    v = check_admissibility_bounded(
        NABLA.logic, mp, subst_depth=1, theorem_oracle=nabla_theorem_oracle
    )
    assert v.holds


def test_admissibility_fails_with_identity_substitution():
    v = check_admissibility_bounded(
        NABLA.logic, Rule((), X), subst_depth=2, theorem_oracle=nabla_theorem_oracle
    )
    assert v.fails
    assert v.witness["substitution"] == {"x": "x"}


def test_admissibility_chaining_fallback():
    v = check_admissibility_bounded(NABLA.logic, Rule((), X), subst_depth=1)
    assert v.fails


def naive_admissibility(logic, rule, subst_depth, oracle, pool=("x", "y", "z1")):
    """Reference search: every substitution from the pool in product order,
    all premises checked, then the conclusion. Returns the first witness as
    sexprs, or None."""
    names = sorted(rule.variables())
    pool_terms = list(enumerate_terms(logic.signature, pool, subst_depth))
    for images in itertools.product(pool_terms, repeat=len(names)):
        binding = dict(zip(names, images))
        if all(oracle(substitute(p, binding)) for p in rule.premises):
            if not oracle(substitute(rule.conclusion, binding)):
                return {v: to_sexpr(t) for v, t in binding.items()}
    return None


def admissibility_cases():
    """(logic, rule, first witness at subst_depth 1, or None when it holds)."""
    hat = nabla_hat(2)
    lifted = [substitute(p, {"x": App("→", (X, X)), "y": App("→", (Y, Y))}) for p in hat]
    cases = [pytest.param(NABLA.logic, Rule(lifted, psi), None, id=f"nabla-hat-{i}")
             for i, psi in enumerate(hat)]
    const = rules_logic(Signature({"c": 0, "→": 2}), [])
    c = App("c", ())

    def imp(text):
        return parse_term(IMP, text)

    cases += [
        pytest.param(const, Rule([App("→", (c, c))], App("→", (X, c))), {"x": "x"},
                     id="ground-theorem-premise"),
        pytest.param(const, Rule([c, App("→", (X, Y))], Y), None,
                     id="ground-premise-never-holds"),
        pytest.param(NABLA.logic, Rule([imp("(→ x y)"), imp("(→ y z1)")], imp("(→ x z1)")),
                     None, id="shared-variables-holds"),
        pytest.param(NABLA.logic, Rule([imp("(→ x y)"), imp("(→ y x)")], imp("(→ x (→ y y))")),
                     {"x": "x", "y": "x"}, id="shared-variables-fails"),
        pytest.param(NABLA.logic, Rule((), X), {"x": "x"}, id="no-premises"),
    ]
    return cases


@pytest.mark.parametrize("logic, rule, want", admissibility_cases())
def test_admissibility_agrees_with_naive_search(logic, rule, want):
    assert naive_admissibility(logic, rule, 1, nabla_theorem_oracle) == want
    v = check_admissibility_bounded(
        logic, rule, subst_depth=1, theorem_oracle=nabla_theorem_oracle
    )
    if want is None:
        assert v.holds
    else:
        assert v.fails and v.witness["substitution"] == want


def test_theorem_search():
    assert to_sexpr(theorem_search(NABLA.logic)) == "(→ x x)"
    assert to_sexpr(theorem_search(ASSERTIONAL.logic)) == "(⊤ x)"
    assert theorem_search(PAIR.logic) is None


@pytest.mark.parametrize("depth_cap", [1, 2])
def test_chain_entails_agrees_with_derive_theorems(depth_cap):
    # terms one level deeper than the cap too: neither may derive them
    pool = ("x", "y")
    for name in GALLERY_NAMES:
        logic = build(name).logic
        if logic is None or logic.kind != "rules":
            continue
        theorems = derive_theorems(logic, pool, depth_cap)
        for t in enumerate_terms(logic.signature, pool, depth_cap + 1):
            assert chain_entails(logic, (), t, pool, depth_cap) == (t in theorems), (name, t)


GH = Signature({"g": 1, "h": 1})


def naive_theorems(logic, pool, cap):
    """Oracle: every rule instance over the terms of depth <= cap, the
    conclusion variables that no premise binds ranging over the pool's
    variables, applied until nothing changes."""
    terms = list(enumerate_terms(logic.signature, pool, cap))
    derived = set()
    changed = True
    while changed:
        changed = False
        for rule in logic.rules:
            bound = set().union(*map(variables, rule.premises))
            names = sorted(rule.variables())
            ranges = [terms if v in bound or not rule.premises else [Var(p) for p in pool]
                      for v in names]
            for images in itertools.product(*ranges):
                sigma = dict(zip(names, images))
                t = substitute(rule.conclusion, sigma)
                if (depth(t) <= cap and t not in derived
                        and all(substitute(p, sigma) in derived for p in rule.premises)):
                    derived.add(t)
                    changed = True
    return derived


GX, HX, HY = (parse_term(GH, s) for s in ("(g x)", "(h x)", "(h y)"))
G_TO_H = rules_logic(GH, [Rule((), GX), Rule([GX], HX), Rule([GX], HY)], name="g-to-h")
G_TO_ANY_H = rules_logic(GH, [Rule((), GX), Rule([GX], HY)], name="g-to-any-h")


@pytest.mark.parametrize("cap", [1, 2, 3])
@pytest.mark.parametrize("pool", [("x",), ("x", "y")])
@pytest.mark.parametrize("logic", [G_TO_H, G_TO_ANY_H], ids=lambda logic: logic.name)
def test_forward_chaining_agrees_with_a_naive_fixpoint(logic, pool, cap):
    # the axiom gives the g-terms and the rules derive the h-terms; (g x) /
    # (h y) leaves y unbound, so it gives h of each pool variable
    theorems = derive_theorems(logic, pool, cap)
    assert theorems == naive_theorems(logic, pool, cap)
    g_args = {t.args[0] for t in theorems if t.sym == "g"}
    h_args = {t.args[0] for t in theorems if t.sym == "h"}
    assert h_args == (g_args if logic is G_TO_H else {Var(v) for v in pool})
