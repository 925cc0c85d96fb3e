"""File formats round-trip and stay canonical."""

import json
import os

import pytest

from law.errors import LawError
from law.gallery import bool2, bool4, build, imp2
from law.logics import matrices_logic
from law.matrices import Matrix
from law.partitions import Partition
from law.serialize import (
    algebra_from_json,
    algebra_to_json,
    canonical_json,
    dump_json,
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


def test_canonical_json_is_sorted_and_stable():
    a = canonical_json({"b": 1, "a": [2, 1]})
    assert a == '{"a":[2,1],"b":1}'


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
     (load_matrix, _reshaped(matrix_to_json(Matrix(bool2(), (1,))), "filter", {"1": True}),
      "field 'filter' must be an array, got an object"),
     (load_logic, _reshaped(logic_to_json(build("nabla").logic), "rules", ["(→ x x)"]),
      "each item of field 'rules' must be an object, got a string"),
     (load_logic, _reshaped(logic_to_json(build("two-valued-pair").logic), "matrices", {}),
      "field 'matrices' must be an array, got an object"),
     (load_translation,
      _reshaped(translation_to_json(Translation.identity(imp2().signature)), "map", []),
      "field 'map' must be an object, got an array")],
    ids=["algebra-document", "algebra-signature", "algebra-size", "matrix-filter",
         "logic-rules", "logic-matrices", "translation-map"],
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
      "operation table must nest to the arity"),
     (load_algebra, {"signature": {"f": 1}, "size": 2, "ops": {"f": [0, 1, 1]}},
      "table for 'f' has 3 cells, expected 2"),
     (load_algebra, {"signature": {"f": 1}, "size": 2, "ops": {"f": [0, 1], "g": [1, 0]}},
      "field 'ops' has a table for 'g', which the signature lacks"),
     (load_algebra, {"signature": {"f": 1}, "size": 2, "ops": {"f": [0, True]}},
      "cell [1] of 'f' in field 'ops' must be an integer, got a boolean"),
     (load_logic, {"signature": {"→": 2}, "kind": "rules",
                   "rules": [{"premises": [], "conclusion": "(→ x)"}]},
      "'→' expects 2 arguments, got 1")],
    ids=["algebra-nesting", "algebra-cells", "algebra-stray-op", "algebra-boolean-cell",
         "logic-conclusion"],
)
def test_loaders_name_the_file_for_a_decoding_error(tmp_path, loader, data, message):
    path = os.path.join(tmp_path, "undecodable.json")
    dump_json(path, data)
    with pytest.raises(LawError) as info:
        loader(path)
    assert str(info.value) == f"{path}: {message}"


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
