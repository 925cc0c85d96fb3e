"""Hierarchy checks: witness searches, class verdicts, admissibility."""

import itertools

import pytest

from law.algebra import one_element
from law.errors import UnknownName
from law.gallery import bool4, build, imp2, nabla_hat, pointed_set
from law.hierarchy import (
    WitnessSet,
    chain_entails,
    check_admissibility_bounded,
    check_class,
    congruence_formulas_with_params,
    consequence_presentation,
    derive_theorems,
    find_injective_theorem,
    find_protoalgebraic_witness,
    leibniz_monotonicity_probe,
    monotonicity_probe_on_filters,
    nabla_theorem_oracle,
    theorem_search,
    verify_order_alg_witness,
    verify_protoalgebraic_witness,
)
from law.logics import Rule, matrices_logic, rules_logic
from law.matrices import Matrix
from law.terms import App, Signature, Var, enumerate_terms, parse_term, substitute, to_sexpr

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
    consequence = consequence_presentation(NABLA.logic, NABLA.inventory, 3)
    assert verify_protoalgebraic_witness(consequence, w.terms)
    assert not verify_protoalgebraic_witness(consequence, (X,))


def test_congruence_formulas_with_params():
    nabla = WitnessSet("protoalgebraic", (parse_term(IMP, "(→ x y)"),))
    out = congruence_formulas_with_params(nabla, IMP, 1)
    sexprs = [to_sexpr(t) for t in out]
    assert "(→ x y)" in sexprs
    assert "(→ (→ x z1) (→ y z1))" in sexprs
    psis = list(enumerate_terms(IMP, ["x", "z1"], 1))
    assert len(out) == len(psis)
    deeper = congruence_formulas_with_params(nabla, IMP, 2)
    assert len(deeper) == len(list(enumerate_terms(IMP, ["x", "z1"], 2)))


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


def test_check_class_truth_equational():
    v = check_class("truth_equational", ASSERTIONAL.logic, [pointed_set(n) for n in (1, 2, 3, 4)])
    assert v.holds
    v2 = check_class("truth_equational", PAIR.logic, PAIR.inventory)
    assert v2.fails
    assert v2.witness["filters"] == ((0,), (1,))


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


def test_verify_order_alg_witness():
    imp_logic = matrices_logic([Matrix(imp2(), (1,))])
    delta = [parse_term(IMP, "(→ x y)")]
    inequalities = [(parse_term(IMP, "(→ x x)"), X)]
    assert verify_order_alg_witness(imp_logic, delta, inequalities, [imp2()]).holds
    assert verify_order_alg_witness(
        imp_logic, delta, inequalities, [one_element(IMP)]
    ).holds
    v = verify_order_alg_witness(
        ASSERTIONAL.logic,
        [parse_term(POINTED, "(⊤ x)")],
        [],
        [pointed_set(2)],
    )
    assert v.fails and v.witness["reason"] == "not antisymmetric"


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
