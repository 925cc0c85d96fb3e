"""Translations: term images, reducts, bounded interpretation checks."""

import itertools
import random

import pytest

from law.algebra import FiniteAlgebra, eval_term
from law.errors import SignatureMismatch, TermError
from law.gallery import build, bool2, imp2
from law.logics import matrices_logic
from law.matrices import Matrix, leibniz_congruence, restrict_to_subuniverse, subuniverses
from law.partitions import Partition
from law.serialize import fingerprint, payload_to_json
from law.terms import Signature, Var, enumerate_terms, parse_term, substitute, to_sexpr
from law.translations import (
    Translation,
    check_interpretation_bounded,
    tau_reduct,
    translate_term,
)
from law.verdicts import Verdict

POINTED = Signature({"⊤": 1})
IMP = imp2().signature

TOP_TO_SELF_IMP = Translation(POINTED, IMP, {"⊤": parse_term(IMP, "(→ x1 x1)")})
TOP_TO_ARG = Translation(POINTED, IMP, {"⊤": Var("x1")})
ASSERTIONAL = build("basic-assertional").logic
IMP_LOGIC = matrices_logic([Matrix(imp2(), (1,))], name="b2-implication")


def imp_inventory():
    return [restrict_to_subuniverse(imp2(), s) for s in subuniverses(imp2())]


# ⊤ ↦ x1 → (x1 → x1) is constantly 0 on A', so on the reduct of ⟨A', {0, 2}⟩,
# a reduced model, {0, 2} is a filter whose Suszko congruence identifies 0 and 2
THREE = FiniteAlgebra(IMP, 3, {"→": (0, 0, 0, 0, 0, 0, 0, 0, 1)})
TOP_TO_NESTED_IMP = Translation(POINTED, IMP, {"⊤": parse_term(IMP, "(→ x1 (→ x1 x1))")})
THREE_LOGIC = matrices_logic([Matrix(THREE, (0, 2))])


def interpretations():
    """The checks whose reports are pinned: each kind of verdict and Fails reason."""
    return {
        "good": check_interpretation_bounded(TOP_TO_SELF_IMP, ASSERTIONAL, IMP_LOGIC, imp_inventory()),
        "bad": check_interpretation_bounded(TOP_TO_ARG, ASSERTIONAL, IMP_LOGIC, imp_inventory()),
        "suszko": check_interpretation_bounded(TOP_TO_NESTED_IMP, ASSERTIONAL, THREE_LOGIC, [THREE]),
    }


def test_translation_validation():
    with pytest.raises(SignatureMismatch):
        Translation(POINTED, IMP, {})
    with pytest.raises(TermError):
        Translation(POINTED, IMP, {"⊤": parse_term(IMP, "(→ x1 x2)")})


def test_translate_term():
    assert to_sexpr(translate_term(TOP_TO_SELF_IMP, parse_term(POINTED, "(⊤ y)"))) == "(→ y y)"
    nested = translate_term(TOP_TO_SELF_IMP, parse_term(POINTED, "(⊤ (⊤ y))"))
    assert to_sexpr(nested) == "(→ (→ y y) (→ y y))"
    ident = Translation.identity(IMP)
    t = parse_term(IMP, "(→ (→ x y) x)")
    assert translate_term(ident, t) == t


def test_translate_commutes_with_substitution():
    rng = random.Random(13)
    terms = list(enumerate_terms(POINTED, ["x", "y"], 2))
    for _ in range(50):
        t = rng.choice(terms)
        sigma = {"x": rng.choice(terms), "y": rng.choice(terms)}
        lhs = translate_term(TOP_TO_SELF_IMP, substitute(t, sigma))
        tau_sigma = {k: translate_term(TOP_TO_SELF_IMP, v) for k, v in sigma.items()}
        rhs = substitute(translate_term(TOP_TO_SELF_IMP, t), tau_sigma)
        assert lhs == rhs


def test_tau_reduct_tables():
    ident = Translation.identity(IMP)
    assert tau_reduct(ident, imp2()).tables == imp2().tables
    reduct = tau_reduct(TOP_TO_SELF_IMP, imp2())
    assert reduct.signature == POINTED
    assert reduct.table("⊤") == (1, 1)  # self-implication is constantly true


def test_tau_reduct_eval_commutes_exhaustively():
    from law.algebra import FiniteAlgebra

    three = FiniteAlgebra(IMP, 3, {"→": (2, 2, 2, 0, 1, 2, 0, 0, 1)})
    for alg in imp_inventory() + [three]:
        reduct = tau_reduct(TOP_TO_SELF_IMP, alg)
        for t in enumerate_terms(POINTED, ["x", "y"], 3):
            for vx in range(alg.size):
                for vy in range(alg.size):
                    v = {"x": vx, "y": vy}
                    assert eval_term(reduct, t, v) == eval_term(
                        alg, translate_term(TOP_TO_SELF_IMP, t), v
                    )


def test_projection_reduct_of_pair_product():
    from law.algebra import nonindexed_product, product_decode

    b2 = bool2()
    prod = nonindexed_product(b2, b2)
    # send each symbol to a pair acting as itself on first coordinates
    tau = Translation(
        b2.signature,
        prod.signature,
        {
            "and": parse_term(prod.signature, "(and⊗and x1 x2)"),
            "or": parse_term(prod.signature, "(or⊗and x1 x2)"),
            "not": parse_term(prod.signature, "(not⊗not x1)"),
        },
    )
    reduct = tau_reduct(tau, prod)
    for sym, arity in b2.signature.symbols:
        for args in itertools.product(range(4), repeat=arity):
            got = product_decode(reduct.apply(sym, args), (2, 2))[0]
            want = b2.apply(sym, [product_decode(a, (2, 2))[0] for a in args])
            assert got == want


def test_interpretation_identity_holds():
    v = check_interpretation_bounded(
        Translation.identity(IMP), IMP_LOGIC, IMP_LOGIC, imp_inventory()
    )
    assert v.holds


def test_interpretation_assertional_into_implication_holds():
    v = check_interpretation_bounded(TOP_TO_SELF_IMP, ASSERTIONAL, IMP_LOGIC, imp_inventory())
    assert v.holds
    assert "inventory" in v.bounds_dict()


def test_interpretation_bad_translation_fails_with_witness():
    v = check_interpretation_bounded(TOP_TO_ARG, ASSERTIONAL, IMP_LOGIC, imp_inventory())
    assert v.fails
    witness = v.witness
    assert witness["reason"]
    # the witness re-verifies: the translated axiom really fails on the model
    from law.logics import Rule, is_model

    model = witness["model"]
    translated = Rule((), translate_term(TOP_TO_ARG, parse_term(POINTED, "(⊤ x)")))
    assert not is_model(model, translated)


def test_interpretation_fails_on_a_reduct_that_is_not_suszko_reduced():
    v = interpretations()["suszko"]
    assert v.fails
    assert v.witness["reason"] == "reduct is not Suszko-reduced for the source logic"
    assert v.witness["model"] == Matrix(THREE, (0, 2))
    reduct = v.witness["reduct"]
    assert reduct == tau_reduct(TOP_TO_NESTED_IMP, THREE) and reduct.table("⊤") == (0, 0, 0)
    # the reduct's filters are the sets holding 0, so those above {0, 2} are
    # {0, 2} and the carrier; the meet of their Leibniz congruences is not
    # the identity
    omegas = [leibniz_congruence(Matrix(reduct, f)) for f in ((0, 2), (0, 1, 2))]
    assert omegas[0].meet(omegas[1]) == Partition([0, 1, 0])


def test_interpretation_reports_are_pinned():
    """fingerprint of {case: report JSON} over `interpretations`"""
    reports = {name: payload_to_json(v) for name, v in interpretations().items()}
    assert reports["bad"]["witness"]["reason"] == "reduct filter is not a source filter"
    assert fingerprint(reports) == "c858985535fa4b96"


def test_interpretation_monotone_under_inventory_shrink():
    inventory = imp_inventory()
    assert check_interpretation_bounded(
        TOP_TO_SELF_IMP, ASSERTIONAL, IMP_LOGIC, inventory
    ).holds
    for k in range(1, len(inventory) + 1):
        for subset in itertools.combinations(inventory, k):
            v = check_interpretation_bounded(
                TOP_TO_SELF_IMP, ASSERTIONAL, IMP_LOGIC, list(subset)
            )
            assert v.holds


def test_interpretation_reads_the_inventory_as_a_set():
    # reversed, or with an algebra repeated, the inventory is the same set
    inventory = imp_inventory()
    for tau in (TOP_TO_SELF_IMP, TOP_TO_ARG):
        own, *others = (payload_to_json(check_interpretation_bounded(tau, ASSERTIONAL, IMP_LOGIC, inv))
                        for inv in (inventory, inventory[::-1], inventory + inventory[:1]))
        assert others == [own, own]


def test_verdict_validation():
    with pytest.raises(ValueError):
        Verdict("maybe")
