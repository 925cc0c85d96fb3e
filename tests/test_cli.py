"""CLI: subcommands, exit codes, deterministic reports, file formats."""

import io
import json
import os
import subprocess
import sys

import pytest

import law
from law.cli import run
from law.gallery import bool2, bool4, build, imp2, pointed_set
from law.serialize import (
    algebra_from_json,
    algebra_to_json,
    dump_json,
    load_logic,
    logic_to_json,
    matrix_to_json,
    translation_to_json,
)
from law.logics import matrices_logic
from law.matrices import Matrix
from law.terms import parse_term, Signature
from law.translations import Translation


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def write(tmp_path, name, data):
    path = os.path.join(tmp_path, name)
    dump_json(path, data)
    return path


@pytest.fixture
def ba_star_f(tmp_path):
    return write(tmp_path, "ba-star-F.json", matrix_to_json(Matrix(bool4(), (1, 3))))


def test_leibniz_report(ba_star_f):
    code, out, err = invoke(["leibniz", "-m", ba_star_f])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["partition"] == [[0, 2], [1, 3]]
    assert ba_star_f in report["inputs"]
    assert "blocks" in err


def test_reports_are_byte_identical(ba_star_f):
    _, first, _ = invoke(["leibniz", "-m", ba_star_f])
    _, second, _ = invoke(["leibniz", "-m", ba_star_f])
    assert first == second


def test_reduce_and_oracle(tmp_path, ba_star_f):
    code, out, _ = invoke(["reduce", "-m", ba_star_f])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["matrix"]["algebra"]["size"] == 2
    alg_path = write(tmp_path, "b4.json", algebra_to_json(bool4()))
    code, out, _ = invoke(["oracle", "congruences", "-a", alg_path])
    assert code == 0
    assert len(json.loads(out)["result"]["congruences"]) == 4


def test_filters_and_suszko(tmp_path):
    logic_path = write(tmp_path, "pair.json", logic_to_json(build("two-valued-pair").logic))
    alg_path = write(tmp_path, "b2.json", algebra_to_json(bool2()))
    code, out, _ = invoke(["filters", "-l", logic_path, "-a", alg_path])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["filters"] == [[], [0], [1], [0, 1]]
    assert report["result"]["bounds"]["filter_notion"] == "bounded"
    code, out, _ = invoke(["suszko", "-l", logic_path, "-a", alg_path, "--filter", "1"])
    assert code == 0
    assert json.loads(out)["result"]["partition"] == [[0], [1]]


def test_product_subcommand(tmp_path):
    m_path = write(tmp_path, "b2one.json", matrix_to_json(Matrix(bool2(), (1,))))
    code, out, _ = invoke(["product", "-m", m_path, "-m", m_path])
    assert code == 0
    assert json.loads(out)["result"]["matrix"]["filter"] == [3]
    l_path = write(
        tmp_path, "b2one.logic.json", logic_to_json(matrices_logic([Matrix(bool2(), (1,))]))
    )
    code, out, _ = invoke(["product", "-l", l_path, "-l", l_path])
    assert code == 0
    assert len(json.loads(out)["result"]["logic"]["matrices"]) == 1


def test_check_subcommand_verdicts(tmp_path):
    logic_path = write(tmp_path, "pair.json", logic_to_json(build("two-valued-pair").logic))
    b2_path = write(tmp_path, "b2.json", algebra_to_json(bool2()))
    code, out, _ = invoke(["check", "truth_minimal", "-l", logic_path, "-i", b2_path])
    assert code == 0
    assert json.loads(out)["result"]["status"] == "holds"
    code, out, _ = invoke(
        ["check", "param_truth_equational", "-l", logic_path, "-i", b2_path, "--recheck"]
    )
    assert code == 1
    report = json.loads(out)
    assert report["result"]["status"] == "fails"
    assert report["result"]["witness"]["family"]["filters"] == [[1]]


def test_check_protoalgebraic_unknown(tmp_path):
    logic_path = write(
        tmp_path, "assertional.json", logic_to_json(build("basic-assertional").logic)
    )
    inv_dir = os.path.join(tmp_path, "pointed")
    os.makedirs(inv_dir)
    for n in (1, 2, 3):
        write(inv_dir, f"p{n}.json", algebra_to_json(pointed_set(n)))
    code, out, _ = invoke(
        ["check", "protoalgebraic", "-l", logic_path, "-i", inv_dir, "--depth", "3"]
    )
    assert code == 1
    assert json.loads(out)["result"]["status"] == "unknown_within_bounds"


def test_check_protoalgebraic_found(tmp_path):
    nabla = build("nabla")
    logic_path = write(tmp_path, "nabla.json", logic_to_json(nabla.logic))
    inv_path = write(tmp_path, "imp2.json", algebra_to_json(imp2()))
    code, out, _ = invoke(
        ["check", "protoalgebraic", "-l", logic_path, "-i", inv_path, "--recheck"]
    )
    assert code == 0
    assert json.loads(out)["result"]["witness"]["terms"] == ["(→ x y)"]


def test_interpret_subcommand(tmp_path):
    pointed_sig = Signature({"⊤": 1})
    imp_sig = imp2().signature
    tau = Translation(pointed_sig, imp_sig, {"⊤": parse_term(imp_sig, "(→ x1 x1)")})
    tau_path = write(tmp_path, "tau.json", translation_to_json(tau))
    src_path = write(tmp_path, "src.json", logic_to_json(build("basic-assertional").logic))
    tgt_path = write(
        tmp_path, "tgt.json", logic_to_json(matrices_logic([Matrix(imp2(), (1,))]))
    )
    inv_path = write(tmp_path, "imp2.json", algebra_to_json(imp2()))
    code, out, _ = invoke(
        ["interpret", "-t", tau_path, "--from", src_path, "--to", tgt_path, "-i", inv_path]
    )
    assert code == 0
    assert json.loads(out)["result"]["status"] == "holds"
    bad = Translation(pointed_sig, imp_sig, {"⊤": parse_term(imp_sig, "x1")})
    bad_path = write(tmp_path, "bad.json", translation_to_json(bad))
    code, out, _ = invoke(
        ["interpret", "-t", bad_path, "--from", src_path, "--to", tgt_path,
         "-i", inv_path, "--recheck"]
    )
    assert code == 1
    assert json.loads(out)["result"]["status"] == "fails"


def test_gallery_subcommand_writes_loadable_files(tmp_path):
    out_dir = os.path.join(tmp_path, "out")
    code, out, _ = invoke(["gallery", "nabla", "--out", out_dir])
    assert code == 0
    written = json.loads(out)["result"]["written"]
    assert "nabla.logic.json" in written and "nabla.manifest.json" in written
    logic = load_logic(os.path.join(out_dir, "nabla.logic.json"))
    assert logic.kind == "rules" and len(logic.rules) == 2
    manifest = json.load(open(os.path.join(out_dir, "nabla.manifest.json")))
    assert manifest["name"] == "nabla"
    assert manifest["expectations"]


def test_gallery_param_passthrough(tmp_path):
    out_dir = os.path.join(tmp_path, "out2")
    code, out, _ = invoke(["gallery", "pointed-set", "--param", "n=4", "--out", out_dir])
    assert code == 0
    alg = algebra_from_json(json.load(open(os.path.join(out_dir, "pointed-set.inv0.json"))))
    assert alg.size == 4


def test_error_exits(tmp_path):
    bad = os.path.join(tmp_path, "bad.json")
    with open(bad, "w") as fh:
        fh.write("{not json")
    code, out, _ = invoke(["leibniz", "-m", bad])
    assert code == 2
    assert "error" in json.loads(out)
    missing = os.path.join(tmp_path, "missing.json")
    assert invoke(["leibniz", "-m", missing])[0] == 2
    # arity mismatch in a term
    sig = {"→": 2}
    path = write(
        tmp_path,
        "badlogic.json",
        {"signature": sig, "kind": "rules",
         "rules": [{"premises": [], "conclusion": "(→ x)"}]},
    )
    alg_path = write(tmp_path, "imp2.json", algebra_to_json(imp2()))
    assert invoke(["filters", "-l", path, "-a", alg_path])[0] == 2


def test_config_env_cap(tmp_path, monkeypatch):
    cfg = write(tmp_path, "cfg.json", {"oracle_max": 1})
    monkeypatch.setenv("LAW_CONFIG", cfg)
    alg_path = write(tmp_path, "b4.json", algebra_to_json(bool4()))
    code, out, _ = invoke(["oracle", "congruences", "-a", alg_path])
    assert code == 2
    monkeypatch.delenv("LAW_CONFIG")


def test_config_flag_overrides(tmp_path):
    cfg = write(tmp_path, "cfg.json", {"oracle_max": 2})
    alg_path = write(tmp_path, "b4.json", algebra_to_json(bool4()))
    code, _, _ = invoke(["--config", cfg, "oracle", "congruences", "-a", alg_path])
    assert code == 2


def test_console_entry_point_runs():
    # the child imports law from wherever this process found it, so the run
    # needs neither an install nor PYTHONPATH
    src = os.path.dirname(os.path.dirname(law.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "law", "gallery", "ba-star", "--out", "/tmp/law-ba-star"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["written"]


@pytest.mark.parametrize("depth", ["0", "-3"])
def test_check_rejects_nonpositive_depth(tmp_path, capsys, depth):
    logic_path = write(tmp_path, "nabla.json", logic_to_json(build("nabla").logic))
    inv_path = write(tmp_path, "imp2.json", algebra_to_json(imp2()))
    code, out, _ = invoke(
        ["check", "protoalgebraic", "-l", logic_path, "-i", inv_path, "--depth", depth]
    )
    assert code == 2 and out == ""
    assert "--depth" in capsys.readouterr().err


@pytest.mark.parametrize(
    "data, field",
    [({"oracle_max": 6, "depth_cap": 2}, "depth_cap"),
     ({"oracle_max": -1}, "oracle_max"),
     ({"depth_default": 0}, "depth_default")],
    ids=["unknown-field", "negative-cap", "zero-cap"],
)
def test_config_rejects_bad_fields(tmp_path, monkeypatch, data, field):
    cfg = write(tmp_path, "cfg.json", data)
    monkeypatch.setenv("LAW_CONFIG", cfg)
    alg_path = write(tmp_path, "b2.json", algebra_to_json(bool2()))
    code, out, err = invoke(["oracle", "congruences", "-a", alg_path])
    assert code == 2
    message = json.loads(out)["error"]
    assert cfg in message and repr(field) in message
    assert cfg in err
