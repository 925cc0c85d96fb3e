"""File formats round-trip and stay canonical."""

import hashlib
import json
import os

import pytest

from law.errors import LawError
from law.gallery import bool2, bool4, build, imp2
from law.logics import matrices_logic
from law.matrices import Matrix
from law.partitions import Partition
from law.serialize import (
    algebra_fingerprint,
    algebra_from_json,
    algebra_to_json,
    canonical_json,
    dump_json,
    file_fingerprint,
    fingerprint,
    inventory_fingerprint,
    load_algebra,
    load_logic,
    load_matrix,
    load_translation,
    logic_from_json,
    logic_to_json,
    matrix_from_json,
    matrix_to_json,
    partition_to_json,
    payload_to_json,
    translation_from_json,
    translation_to_json,
)
from law.terms import Signature, parse_term
from law.translations import Translation
from law.verdicts import fails


def test_algebra_roundtrip_and_nesting():
    for alg in [bool2(), bool4(), imp2()]:
        data = algebra_to_json(alg)
        assert algebra_from_json(data) == alg
    data = algebra_to_json(bool2())
    assert data["ops"]["and"] == [[0, 0], [0, 1]]  # arity-2 tables nest twice
    assert data["ops"]["not"] == [1, 0]


def test_nullary_ops_are_bare_integers():
    sig = Signature({"c": 0, "f": 1})
    from law.algebra import FiniteAlgebra

    alg = FiniteAlgebra(sig, 2, {"c": (1,), "f": (0, 1)})
    data = algebra_to_json(alg)
    assert data["ops"]["c"] == 1
    assert algebra_from_json(data) == alg
    with pytest.raises(LawError):
        algebra_from_json({**data, "ops": {**data["ops"], "c": [1]}})


def test_matrix_roundtrip_inline_and_path(tmp_path):
    m = Matrix(bool4(), (1, 3))
    assert matrix_from_json(matrix_to_json(m)) == m
    alg_path = os.path.join(tmp_path, "b4.json")
    dump_json(alg_path, algebra_to_json(bool4()))
    mat_path = os.path.join(tmp_path, "m.json")
    dump_json(mat_path, {"algebra": {"path": "b4.json"}, "filter": [1, 3]})
    assert load_matrix(mat_path) == m


def test_logic_roundtrip_both_kinds():
    rules = build("nabla").logic
    assert logic_from_json(logic_to_json(rules)) == rules
    mats = matrices_logic([Matrix(bool2(), (1,)), Matrix(bool2(), (0,))], name="pair")
    again = logic_from_json(logic_to_json(mats))
    assert again.matrices == mats.matrices
    assert again.variable_budget == mats.variable_budget


def test_translation_roundtrip():
    tau = Translation(
        Signature({"⊤": 1}), imp2().signature, {"⊤": parse_term(imp2().signature, "(→ x1 x1)")}
    )
    assert translation_from_json(translation_to_json(tau)) == tau


def test_partition_and_payload_serialization():
    assert partition_to_json(Partition.from_blocks(4, [[3, 1], [0, 2]])) == [[0, 2], [1, 3]]
    verdict = fails({"filter": (0,), "partition": Partition.identity(2)}, depth=3)
    data = payload_to_json(verdict)
    assert data["status"] == "fails"
    assert data["witness"]["partition"] == [[0], [1]]
    assert data["bounds"] == {"depth": 3}
    json.dumps(data)  # JSON-safe all the way down


def test_payload_terms_are_sexprs_and_unknown_types_are_refused():
    sig = imp2().signature
    assert payload_to_json({"terms": (parse_term(sig, "(→ x y)"), parse_term(sig, "x"))}) == {
        "terms": ["(→ x y)", "x"]}
    # a set's repr would depend on the hash seed
    for value in ({"x", "y"}, frozenset(), object()):
        with pytest.raises(TypeError, match=f"no JSON form for a {type(value).__name__}"):
            payload_to_json({"witness": value})


def test_canonical_json_is_sorted_and_stable():
    a = canonical_json({"b": 1, "a": [2, 1]})
    assert a == '{"a":[2,1],"b":1}'


def test_fingerprints_are_sha256_prefixes(tmp_path):
    data = {"b": [1, "é"], "a": None}
    assert fingerprint(data) == hashlib.sha256(
        canonical_json(data).encode("utf-8")).hexdigest()[:16]
    path = tmp_path / "doc.json"
    path.write_bytes(b'{"x": 1}\n')
    assert file_fingerprint(str(path)) == hashlib.sha256(b'{"x": 1}\n').hexdigest()[:16]
    assert algebra_fingerprint(bool2()) == "049ba4f91b79eaf2"
    # sorted by size, signature and tables, so the list order does not count
    assert inventory_fingerprint([imp2(), bool2()]) == "049ba4f91b79eaf2+6fde763415d1f4ff"
    assert inventory_fingerprint([bool2(), imp2()]) == inventory_fingerprint([imp2(), bool2()])


@pytest.mark.parametrize(
    "loader, data, field",
    [(load_algebra, algebra_to_json(bool2()), "size"),
     (load_matrix, matrix_to_json(Matrix(bool2(), (1,))), "filter"),
     (load_logic, logic_to_json(build("nabla").logic), "kind"),
     (load_translation, translation_to_json(Translation.identity(imp2().signature)), "map")],
    ids=["algebra", "matrix", "logic", "translation"],
)
def test_loaders_name_the_file_and_the_missing_field(tmp_path, loader, data, field):
    del data[field]
    path = os.path.join(tmp_path, "broken.json")
    dump_json(path, data)
    with pytest.raises(LawError) as info:
        loader(path)
    assert str(info.value) == f"{path}: missing field {field!r}"


def _reshaped(data, field, value):
    return {**data, field: value}


@pytest.mark.parametrize(
    "loader, data, message",
    [(load_algebra, [], "the document must be an object, got an array"),
     (load_algebra, _reshaped(algebra_to_json(bool2()), "signature", [["and", 2]]),
      "field 'signature' must be an object, got an array"),
     (load_algebra, _reshaped(algebra_to_json(bool2()), "size", "2"),
      "field 'size' must be an integer, got a string"),
     (load_algebra, _reshaped(algebra_to_json(bool2()), "name", ["B", 2]),
      "field 'name' must be a string, got an array"),
     (load_matrix, _reshaped(matrix_to_json(Matrix(bool2(), (1,))), "filter", {"1": True}),
      "field 'filter' must be an array, got an object"),
     (load_logic, _reshaped(logic_to_json(build("nabla").logic), "rules", ["(→ x x)"]),
      "each item of field 'rules' must be an object, got a string"),
     (load_logic, _reshaped(logic_to_json(build("two-valued-pair").logic), "matrices", {}),
      "field 'matrices' must be an array, got an object"),
     (load_logic, _reshaped(logic_to_json(build("nabla").logic), "name", {"a": 1}),
      "field 'name' must be a string, got an object"),
     (load_translation,
      _reshaped(translation_to_json(Translation.identity(imp2().signature)), "map", []),
      "field 'map' must be an object, got an array")],
    ids=["algebra-document", "algebra-signature", "algebra-size", "algebra-name",
         "matrix-filter", "logic-rules", "logic-matrices", "logic-name", "translation-map"],
)
def test_loaders_name_the_file_and_a_field_of_the_wrong_shape(tmp_path, loader, data, message):
    path = os.path.join(tmp_path, "misshapen.json")
    dump_json(path, data)
    with pytest.raises(LawError) as info:
        loader(path)
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize(
    "loader, data, message",
    [(load_algebra, {"signature": {"f": 2}, "size": 2, "ops": {"f": [0, 1]}},
      "row [0] of 'f' in field 'ops' must be an array, got an integer"),
     (load_algebra, {"signature": {"f": 1}, "size": 2, "ops": {"f": [0, 1, 1]}},
      "table for 'f' has 3 cells, expected 2"),
     (load_algebra, {"signature": {"f": 1}, "size": 2, "ops": {"f": [0, 1], "g": [1, 0]}},
      "field 'ops' has a table for 'g', which the signature lacks"),
     (load_algebra, {"signature": {"f": 1}, "size": 2, "ops": {"f": [0, True]}},
      "cell [1] of 'f' in field 'ops' must be an integer, got a boolean"),
     (load_logic, {"signature": {"→": 2}, "kind": "rules",
                   "rules": [{"premises": [], "conclusion": "(→ x)"}]},
      "in item [0] of field 'rules': '→' expects 2 arguments, got 1")],
    ids=["algebra-nesting", "algebra-cells", "algebra-stray-op", "algebra-boolean-cell",
         "logic-conclusion"],
)
def test_loaders_name_the_file_for_a_decoding_error(tmp_path, loader, data, message):
    path = os.path.join(tmp_path, "undecodable.json")
    dump_json(path, data)
    with pytest.raises(LawError) as info:
        loader(path)
    assert str(info.value) == f"{path}: {message}"


def _rules_logic(**fields):
    """The nabla logic's file with `fields` set, or removed where None."""
    data = {**logic_to_json(build("nabla").logic), **fields}
    return {k: v for k, v in data.items() if v is not None}


@pytest.mark.parametrize(
    "loader, data, message",
    [(load_algebra, {**algebra_to_json(bool2()), "tables": {}},
      "the document has no field 'tables' (known: name, ops, signature, size)"),
     (load_matrix, {**matrix_to_json(Matrix(bool2(), (1,))), "filters": [1]},
      "the document has no field 'filters' (known: algebra, filter)"),
     (load_matrix, {"algebra": {"path": "b.json", "name": "B2"}, "filter": [1]},
      "field 'algebra' has no field 'name' (known: path)"),
     (load_logic, _rules_logic(rules=None, rule=[{"premises": [], "conclusion": "(→ x x)"}]),
      "a rules logic has no field 'rule' (known: kind, name, rules, signature, variable_budget)"),
     (load_logic, _rules_logic(rules=[{"premise": ["x"], "conclusion": "(→ x x)"}]),
      "each item of field 'rules' has no field 'premise' (known: conclusion, premises)"),
     (load_logic, _rules_logic(matrices=[]),
      "a rules logic has no field 'matrices' (known: kind, name, rules, signature, "
      "variable_budget)"),
     (load_logic, {**logic_to_json(build("two-valued-pair").logic), "rules": []},
      "a matrices logic has no field 'rules' (known: kind, matrices, name, signature, "
      "variable_budget)"),
     (load_translation,
      {**translation_to_json(Translation.identity(imp2().signature)), "name": "id"},
      "the document has no field 'name' (known: map, source, target)")],
    ids=["algebra", "matrix", "matrix-algebra-path", "logic-rule", "logic-rule-premise",
         "rules-logic-matrices", "matrices-logic-rules", "translation"],
)
def test_loaders_refuse_a_field_they_do_not_read(tmp_path, loader, data, message):
    dump_json(os.path.join(tmp_path, "b.json"), algebra_to_json(bool2()))
    path = os.path.join(tmp_path, "stray.json")
    dump_json(path, data)
    with pytest.raises(LawError) as info:
        loader(path)
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize(
    "algebra, message",
    [({**algebra_to_json(bool2()), "x": 1},
      "the document has no field 'x' (known: name, ops, signature, size)"),
     ({"signature": {"f": 1, "g": 1}, "size": 2, "ops": {"g": [1, 0]}},
      "field 'ops' has no table for 'f'"),
     ({"signature": {"f": 1}, "size": 2}, "missing field 'ops'")],
    ids=["stray-field", "missing-table", "missing-field"],
)
def test_an_inline_algebra_error_names_the_matrix_field(tmp_path, algebra, message):
    path = os.path.join(tmp_path, "m.json")
    dump_json(path, {"algebra": algebra, "filter": [1]})
    with pytest.raises(LawError) as info:
        load_matrix(path)
    assert str(info.value) == f"{path}: in field 'algebra': {message}"


@pytest.mark.parametrize(
    "contents, message",
    [(json.dumps({"signature": {"f": 1}, "size": 2, "ops": {"f": [0, 1, 1]}}),
      "table for 'f' has 3 cells, expected 2"),
     ("{nope", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)")],
    ids=["bad-table", "bad-json"],
)
def test_a_matrix_names_its_algebra_file_once(tmp_path, contents, message):
    alg_path = os.path.join(tmp_path, "b.json")
    with open(alg_path, "w", encoding="utf-8") as fh:
        fh.write(contents)
    matrix_path = os.path.join(tmp_path, "m.json")
    dump_json(matrix_path, {"algebra": {"path": "b.json"}, "filter": [1]})
    with pytest.raises(LawError) as info:
        load_matrix(matrix_path)
    assert str(info.value) == f"{alg_path}: {message}"


def _pair_logic(edit):
    """The two-valued-pair logic's file with `edit` applied to its second matrix."""
    data = logic_to_json(build("two-valued-pair").logic)
    edit(data["matrices"][1])
    return data


@pytest.mark.parametrize(
    "data, message",
    [(_pair_logic(lambda m: m.pop("filter")),
      "in item [1] of field 'matrices': missing field 'filter'"),
     (_pair_logic(lambda m: m["algebra"].pop("ops")),
      "in item [1] of field 'matrices': in field 'algebra': missing field 'ops'"),
     (_rules_logic(rules=[{"premises": [], "conclusion": "(→ x x)"},
                          {"premises": ["(→ x y)", "(g x)"], "conclusion": "y"}]),
      "in item [1] of field 'rules': unknown symbol 'g'")],
    ids=["matrix-filter", "matrix-algebra-ops", "rule-term"],
)
def test_a_logic_error_names_the_item_that_holds_it(tmp_path, data, message):
    path = os.path.join(tmp_path, "l.json")
    dump_json(path, data)
    with pytest.raises(LawError) as info:
        load_logic(path)
    assert str(info.value) == f"{path}: {message}"


def test_a_logic_names_the_algebra_file_of_its_matrix_once(tmp_path):
    alg_path = os.path.join(tmp_path, "b.json")
    dump_json(alg_path, {"signature": {"f": 1}, "size": 2})
    path = os.path.join(tmp_path, "l.json")
    dump_json(path, _pair_logic(lambda m: m.update(algebra={"path": "b.json"})))
    with pytest.raises(LawError) as info:
        load_logic(path)
    assert str(info.value) == f"{alg_path}: missing field 'ops'"
