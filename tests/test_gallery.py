"""Gallery entries build correctly, self-verify, and support companions and
products of logics."""

import itertools
import json
import os

import pytest

from law.config import DEFAULTS
from law.errors import CapExceeded, LawError, UnknownName
from law.gallery import (
    GALLERY_NAMES,
    GALLERY_PARAMS,
    bool2,
    bool4,
    build,
    companions,
    imp2,
    nabla_hat,
    product_of_logics,
    verify_entry,
    write_entry,
)
from law.hierarchy import (
    CLASS_NAMES,
    check_class,
    derive_theorems,
    find_injective_theorem,
    nabla_theorem_oracle,
)
from law.logics import entails, matrices_logic
from law.matrices import Matrix
from law.serialize import fingerprint, load_matrix, payload_to_json
from law.terms import App, Var, enumerate_terms, parse_term, to_sexpr

X, Y = Var("x"), Var("y")


def test_every_entry_self_verifies():
    for name in GALLERY_NAMES:
        assert verify_entry(build(name)) == [], name


#: (entry, parameter) -> the least admissible value
LEAST = {("basic-assertional", "n"): 1, ("basic-proto", "k"): 1,
         ("basic-proto", "unary_params"): 0, ("basic-equiv", "k"): 1, ("delta", "d"): 1,
         ("ba-star-logic", "n"): 4, ("pointed-set", "n"): 1}
LEAST_IDS = [f"{name}-{key}" for name, key in LEAST]


def test_least_values_cover_every_parameter():
    assert set(LEAST) == {(name, key) for name, keys in GALLERY_PARAMS.items() for key in keys}


@pytest.mark.parametrize("name, key", LEAST, ids=LEAST_IDS)
def test_every_entry_verifies_at_each_least_value(name, key):
    assert verify_entry(build(name, {key: LEAST[name, key]})) == []


@pytest.mark.parametrize("name, key", LEAST, ids=LEAST_IDS)
def test_build_refuses_a_value_below_the_least(name, key):
    least = LEAST[name, key]
    with pytest.raises(LawError) as info:
        build(name, {key: least - 1})
    assert str(info.value) == f"gallery entry {name!r} needs {key} >= {least}, got {least - 1}"


@pytest.mark.parametrize("name", ["basic-proto", "basic-equiv"])
def test_rank_two_entries_expect_and_verify_both_arrows(name):
    entry = build(name, {"k": 2})
    assert entry.params == (("k", 2),)
    assert entry.expectations == ({"kind": "proto_witness_verifies",
                                   "terms": ["(⊸0 x y)", "(⊸1 x y)"], "depth": 2},)
    assert verify_entry(entry) == []


@pytest.mark.parametrize("unary_params, says", [
    (0, "with no unary parameter symbols"),
    (1, "with one unary parameter symbol"),
    (2, "with 2 unary parameter symbols"),
])
def test_basic_proto_provenance_counts_the_unary_parameters(unary_params, says):
    entry = build("basic-proto", {"unary_params": unary_params})
    assert entry.provenance == f"finite-rank basic protoalgebraic logic {says}"
    assert len([s for s in entry.logic.signature.names() if s.startswith("∗1")]) == unary_params


def test_written_files_at_the_defaults_are_pinned(tmp_path):
    """fingerprint of {file name: parsed JSON} for every entry's write_entry
    output at its defaults"""
    pinned = {
        "basic-assertional": "45692b273f29de70",
        "basic-proto": "c3a3e7f8d115b1d2",
        "basic-equiv": "4b5432028d1bbf2f",
        "nabla": "78f753b4a9a543d8",
        "delta": "05d0053b2147e925",
        "ba-star": "81e9acce99f9d459",
        "ba-star-logic": "8ccedb5fb2ad27de",
        "two-valued-pair": "096adf2f05ad2ada",
        "pointed-set": "e7431cb3a561178b",
    }
    got = {}
    for name in GALLERY_NAMES:
        out = os.path.join(tmp_path, name)
        docs = {}
        for file in write_entry(build(name), out):
            with open(os.path.join(out, file), encoding="utf-8") as fh:
                docs[file] = json.load(fh)
        got[name] = fingerprint(docs)
    assert got == pinned


def test_class_reports_at_the_defaults_are_pinned():
    """fingerprint of {"<class> <entry>": report JSON} for every class check
    on every gallery entry that has a logic and an inventory"""
    entries = [e for e in map(build, GALLERY_NAMES) if e.logic is not None and e.inventory]
    assert len(entries) == 7
    reports = {f"{cls} {e.name}": payload_to_json(check_class(cls, e.logic, e.inventory))
               for e in entries for cls in CLASS_NAMES}
    assert fingerprint(reports) == "54ce0f7c44e72c23"


def test_the_config_reaches_the_injective_search_and_verify_entry():
    # nabla's inventory holds a 2-element algebra, above a carrier cap of 1
    entry = build("nabla")
    tight = DEFAULTS.override(oracle_max=1)
    for run in (lambda: find_injective_theorem(entry.logic, entry.inventory, 2, tight),
                lambda: verify_entry(entry, tight)):
        with pytest.raises(CapExceeded, match="carrier 2 exceeds the filter sweep cap 1"):
            run()


def test_unknown_name_and_params():
    with pytest.raises(UnknownName):
        build("mystery-logic")
    entry = build("basic-proto", {"k": 2})
    assert entry.logic.signature.as_dict() == {"⊸0": 2, "⊸1": 2, "∗10": 1}
    assert len([r for r in entry.logic.rules if not r.premises]) == 2


def test_basic_assertional_rules():
    logic = build("basic-assertional").logic
    assert len(logic.rules) == 1
    rule = logic.rules[0]
    assert rule.premises == () and to_sexpr(rule.conclusion) == "(⊤ x)"


def test_basic_proto_rules_exactly():
    logic = build("basic-proto").logic
    assert logic.signature.as_dict() == {"⊸0": 2, "∗10": 1}
    axioms = [r for r in logic.rules if not r.premises]
    assert [to_sexpr(r.conclusion) for r in axioms] == ["(⊸0 x x)"]
    detach = [r for r in logic.rules if r.premises]
    assert len(detach) == 1
    assert set(map(to_sexpr, detach[0].premises)) == {"x", "(⊸0 x y)"}
    assert to_sexpr(detach[0].conclusion) == "y"


def test_basic_equiv_rank_two_rule_counts():
    logic = build("basic-equiv", {"k": 2}).logic
    # two axioms, one detachment, and alpha x beta replacement rules
    assert len(logic.rules) == 2 + 1 + 4
    axioms = [r for r in logic.rules if not r.premises]
    assert {to_sexpr(r.conclusion) for r in axioms} == {"(⊸0 x x)", "(⊸1 x x)"}


def test_basic_equiv_has_replacement_rules():
    logic = build("basic-equiv", {"k": 1}).logic
    replacement = [
        r for r in logic.rules if r.premises and to_sexpr(r.conclusion).startswith("(⊸0 (⊸0")
    ]
    assert len(replacement) == 1
    assert set(map(to_sexpr, replacement[0].premises)) == {"(⊸0 x1 y1)", "(⊸0 x2 y2)"}


def test_nabla_rules_and_ba_star_matrices():
    nabla = build("nabla").logic
    assert len(nabla.rules) == 2
    bastar = build("ba-star")
    assert [m.filter for m in bastar.matrices] == [(1, 3), (1, 2, 3)]
    assert bastar.matrices[0].algebra == bool4()


def test_delta_materializes_the_capped_rule_family():
    entry = build("delta")
    hat = nabla_hat(2)
    rules = entry.logic.rules
    capped = [r for r in rules if len(r.premises) > 2]
    assert len(capped) == len(hat)
    conclusions = {to_sexpr(r.conclusion) for r in capped}
    assert conclusions == {to_sexpr(t) for t in hat}
    # every capped rule carries the key diagonal premise
    for r in capped:
        assert "(→ (→ x x) (→ y y))" in set(map(to_sexpr, r.premises))


def test_nabla_entails_vs_oracle_soundness_report():
    """Evaluation over reduced models on the B2-based inventory approves every
    oracle theorem (soundness); the semantic direction over-approves, which is
    why exact agreement is asserted through chaining instead."""
    entry = build("nabla")
    from law.hierarchy import consequence_presentation

    consequence = consequence_presentation(entry.logic, entry.inventory)
    semantic = set()
    oracle = set()
    for t in enumerate_terms(entry.logic.signature, ["x", "y"], 3):
        if entails(consequence, (), t):
            semantic.add(t)
        if nabla_theorem_oracle(t):
            oracle.add(t)
    assert oracle <= semantic
    theorems = derive_theorems(entry.logic, ("x", "y"), 3)
    assert theorems == frozenset(oracle)


def test_ba_star_logic_defining_matrices():
    logic = build("ba-star-logic").logic
    sizes = sorted(m.algebra.size for m in logic.matrices)
    assert sizes == [1, 2, 2, 4, 4, 4, 4, 4, 4, 4, 4]
    for m in logic.matrices:
        assert m.algebra.size - 1 in m.filter  # top is always designated


def test_companions_theoremless_and_plus():
    assertional = build("basic-assertional")
    inventory = assertional.inventory[:2]
    theoremless = companions(assertional.logic, "theoremless", inventory=inventory)
    top_x = parse_term(assertional.logic.signature, "(⊤ x)")
    assert not entails(theoremless, [], top_x)
    assert entails(theoremless, [Y], top_x)
    plus = companions(theoremless, "plus")
    assert entails(plus, [], top_x)
    again = companions(theoremless, "theoremless")
    assert set(again.matrices) == set(theoremless.matrices)


def test_plus_of_theoremless_restores_consequence():
    base = matrices_logic([Matrix(imp2(), (1,))], name="imp")
    round_trip = companions(companions(base, "theoremless"), "plus")
    terms = list(enumerate_terms(base.signature, ["x", "y"], 3))
    for t in terms:
        assert entails(base, [], t) == entails(round_trip, [], t)
    for premise in [X, App("→", (X, Y))]:
        for t in terms[:30]:
            assert entails(base, [premise], t) == entails(round_trip, [premise], t)


def test_companions_validation():
    base = matrices_logic([Matrix(imp2(), (1,))])
    with pytest.raises(UnknownName):
        companions(base, "minus")
    with pytest.raises(ValueError):
        companions(build("basic-assertional").logic, "theoremless")  # no inventory


def test_product_of_logics_counts():
    b2one = matrices_logic([Matrix(bool2(), (1,))], name="b2one")
    prod = product_of_logics(b2one, b2one)
    assert len(prod.matrices) == 1
    assert prod.matrices[0].filter == (3,)
    pair = build("two-valued-pair").logic
    prod2 = product_of_logics(pair, pair)
    assert len(prod2.matrices) == 4


def test_product_entails_matches_factor_through_diagonal_translation():
    """Pure first-coordinate rules transfer along f -> f⊗f for a self-product."""
    from law.translations import Translation, translate_term

    b2 = bool2()
    b2one = matrices_logic([Matrix(b2, (1,))], name="b2one")
    prod = product_of_logics(b2one, b2one)
    tau = Translation(
        b2.signature,
        prod.signature,
        {
            "and": parse_term(prod.signature, "(and⊗and x1 x2)"),
            "or": parse_term(prod.signature, "(or⊗or x1 x2)"),
            "not": parse_term(prod.signature, "(not⊗not x1)"),
        },
    )
    terms = list(enumerate_terms(b2.signature, ["x", "y"], 1))
    for concl in terms:
        for k in (0, 1):
            for prem in itertools.combinations(terms, k):
                direct = entails(b2one, prem, concl)
                lifted = entails(
                    prod, [translate_term(tau, p) for p in prem], translate_term(tau, concl)
                )
                assert direct == lifted, (prem, concl)


def test_pointed_set_entry_params():
    entry = build("pointed-set", {"n": 4})
    assert entry.matrices[0].algebra.size == 4
    assert verify_entry(entry) == []


@pytest.mark.parametrize(
    "name, params, known",
    [("pointed-set", {"m": 5}, "known: n"),
     ("basic-proto", {"k": 1, "n": 2}, "known: k, unary_params"),
     ("nabla", {"n": 1}, "known: none")],
    ids=["pointed-set", "basic-proto", "no-params"],
)
def test_build_refuses_unknown_params(name, params, known):
    with pytest.raises(UnknownName) as info:
        build(name, params)
    assert repr(name) in str(info.value) and known in str(info.value)


def test_write_entry_writes_every_file_and_a_manifest(tmp_path):
    out = os.path.join(tmp_path, "new", "dir")
    entry = build("pointed-set", {"n": 3})
    written = write_entry(entry, out)
    assert written == ["pointed-set.inv0.json", "pointed-set.manifest.json",
                       "pointed-set.matrix0.json"]
    assert sorted(os.listdir(out)) == written
    manifest = json.load(open(os.path.join(out, "pointed-set.manifest.json")))
    assert manifest["params"] == {"n": 3}
    assert manifest["files"] == {"matrix0": "pointed-set.matrix0.json",
                                 "inventory0": "pointed-set.inv0.json"}
    assert load_matrix(os.path.join(out, "pointed-set.matrix0.json")) == entry.matrices[0]
