"""CLI: subcommands, exit codes, deterministic reports, file formats."""

import importlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import time

import pytest

import law
from law.cli import run
from law.algebra import FiniteAlgebra, direct_product, one_element
from law.gallery import bool2, bool4, build, imp2, pointed_set
from law.serialize import (
    algebra_from_json,
    algebra_to_json,
    dump_json,
    load_json,
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
    code, out, _ = invoke(["check", "param_truth_equational", "-l", logic_path, "-i", b2_path])
    assert code == 1
    report = json.loads(out)
    assert report["result"]["status"] == "fails"
    assert report["result"]["witness"]["family"]["filters"] == [[1]]


def test_check_stops_at_the_first_algebra_that_refutes_the_class(tmp_path, chain7):
    logic_path = write(tmp_path, "pair.json", logic_to_json(build("two-valued-pair").logic))
    b2_path = write(tmp_path, "b2.json", algebra_to_json(bool2()))
    chain_path = write(tmp_path, "chain7.json", algebra_to_json(chain7))
    argv = ["-l", logic_path, "-i", b2_path, "-i", chain_path]
    code, out, _ = invoke(["check", "truth_equational", *argv])
    assert code == 1 and json.loads(out)["result"]["status"] == "fails"
    # truth_minimal holds on B2, so it sweeps the chain, above the carrier cap
    code, _, err = invoke(["check", "truth_minimal", *argv])
    assert code == 2 and "carrier 7 exceeds the filter sweep cap 6" in err


def test_a_repeated_inventory_file_counts_once(tmp_path):
    logic_path = write(tmp_path, "pair.json", logic_to_json(build("two-valued-pair").logic))
    b2_path = write(tmp_path, "b2.json", algebra_to_json(bool2()))
    argv = ["check", "truth_minimal", "-l", logic_path, "-i", b2_path]
    (code, once, _), (code_twice, twice, _) = invoke(argv), invoke(argv + ["-i", b2_path])
    # the report echoes its command; everything else is equal
    once, twice = json.loads(once), json.loads(twice)
    assert twice.pop("command") == once.pop("command") + ["-i", b2_path]
    assert (code_twice, twice) == (code, once)
    assert once["result"]["bounds"]["inventory"] == "049ba4f91b79eaf2"


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
    result = json.loads(out)["result"]
    assert result["status"] == "fails"
    # on the 3-element pointed set the Leibniz operator is not monotone
    w = result["witness"]
    assert (w["algebra"]["size"], w["filter_small"], w["filter_large"]) == (3, [0], [0, 1])
    assert (w["omega_small"], w["omega_large"]) == ([[0], [1, 2]], [[0, 1], [2]])


def test_check_protoalgebraic_found(tmp_path):
    nabla = build("nabla")
    logic_path = write(tmp_path, "nabla.json", logic_to_json(nabla.logic))
    inv_path = write(tmp_path, "imp2.json", algebra_to_json(imp2()))
    code, out, _ = invoke(["check", "protoalgebraic", "-l", logic_path, "-i", inv_path])
    assert code == 0
    assert json.loads(out)["result"]["witness"]["terms"] == ["(→ x y)"]


def test_check_protoalgebraic_bounds_match_other_classes(tmp_path):
    logic_path = write(tmp_path, "nabla.json", logic_to_json(build("nabla").logic))
    inv_path = write(tmp_path, "imp2.json", algebra_to_json(imp2()))
    bounds = {}
    for cls in ("protoalgebraic", "equivalential", "truth_minimal"):
        code, out, _ = invoke(["check", cls, "-l", logic_path, "-i", inv_path])
        assert code == 0
        bounds[cls] = set(json.loads(out)["result"]["bounds"])
    named = {"filter_notion", "variable_budget", "depth", "inventory", "max_set"}
    assert bounds["protoalgebraic"] == bounds["equivalential"] == named
    assert bounds["truth_minimal"] == named - {"max_set"}


def test_check_protoalgebraic_on_ba_star_logic_at_the_default_depth(tmp_path):
    # the depth-3 terms in x, y number 182,712 and fall into 16 classes
    logic = write(tmp_path, "ba.json", logic_to_json(build("ba-star-logic").logic))
    b4 = write(tmp_path, "b4.json", algebra_to_json(bool4()))
    start = time.perf_counter()
    code, out, _ = invoke(["check", "protoalgebraic", "-l", logic, "-i", b4])
    assert time.perf_counter() - start < 0.5
    result = json.loads(out)["result"]
    assert (code, result["status"], result["bounds"]["depth"]) == (1, "unknown_within_bounds", 3)


def test_check_protoalgebraic_exits_2_when_the_budget_stops_the_term_classes(tmp_path):
    # two-valued-pair has no theorem, so no class qualifies; a budget of 40
    # cells admits level 1 of the x, y classes over B2 and refuses level 2
    cfg = write(tmp_path, "cfg.json", {"closure_cell_budget": 40})
    logic = write(tmp_path, "pair.json", logic_to_json(build("two-valued-pair").logic))
    b2 = write(tmp_path, "b2.json", algebra_to_json(bool2()))
    code, out, _ = invoke(["--config", cfg, "check", "protoalgebraic", "-l", logic, "-i", b2])
    assert (code, json.loads(out)["error"]) == (
        2, "CapExceeded: closure cell budget 40 stops the term classes at depth 1 of 3")
    # the theorem search over x reads the same budget: level 2 fits, level 3 not
    code, out, _ = invoke(["--config", cfg, "check", "has_theorems", "-l", logic, "-i", b2])
    assert (code, json.loads(out)["error"]) == (
        2, "CapExceeded: closure cell budget 40 stops the term classes at depth 2 of 3")


def test_check_equivalential_fails_on_pointed_sets(tmp_path):
    logic_path = write(
        tmp_path, "assertional.json", logic_to_json(build("basic-assertional").logic)
    )
    inv_dir = os.path.join(tmp_path, "pointed")
    os.makedirs(inv_dir)
    for n in (1, 2, 3):
        write(inv_dir, f"p{n}.json", algebra_to_json(pointed_set(n)))
    code, out, _ = invoke(["check", "equivalential", "-l", logic_path, "-i", inv_dir])
    assert code == 1
    assert json.loads(out)["result"]["status"] == "fails"


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
        ["interpret", "-t", bad_path, "--from", src_path, "--to", tgt_path, "-i", inv_path]
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
    manifest = load_json(os.path.join(out_dir, "nabla.manifest.json"))
    assert manifest["name"] == "nabla"
    assert manifest["expectations"]


def test_gallery_param_passthrough(tmp_path):
    out_dir = os.path.join(tmp_path, "out2")
    code, out, _ = invoke(["gallery", "pointed-set", "--param", "n=4", "--out", out_dir])
    assert code == 0
    alg = algebra_from_json(load_json(os.path.join(out_dir, "pointed-set.inv0.json")))
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


def _child_env():
    """The environment of a child that imports law from wherever this process
    found it, so the run needs neither an install nor PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(law.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_console_entry_point_runs(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "law", "gallery", "ba-star", "--out", str(tmp_path / "ba-star")],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["written"]


def _cold_imports(tmp_path, argv):
    """The modules a cold `law ARGV` process loads, read from `-X importtime`,
    and its report."""
    write(tmp_path, "m.json", matrix_to_json(Matrix(bool4(), (1, 3))))
    write(tmp_path, "b2.json", algebra_to_json(bool2()))
    write(tmp_path, "pair.json", logic_to_json(build("two-valued-pair").logic))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "law", *argv],
                          capture_output=True, text=True, cwd=tmp_path, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    loaded = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
              if line.startswith("import time:")}
    return loaded, json.loads(proc.stdout)


@pytest.mark.parametrize(
    "argv, unused",
    [(["leibniz", "-m", "m.json"], ["logics", "hierarchy", "gallery"]),
     (["oracle", "congruences", "-a", "b2.json"], ["logics", "hierarchy", "gallery"]),
     (["product", "-l", "pair.json", "-l", "pair.json"], ["hierarchy", "gallery"]),
     (["check", "truth_minimal", "-l", "pair.json", "-i", "b2.json"], ["translations", "gallery"])],
    ids=["leibniz", "oracle", "product", "check"],
)
def test_a_cold_command_imports_only_the_layers_it_runs(tmp_path, argv, unused):
    loaded, report = _cold_imports(tmp_path, argv)
    assert "law.serialize" in loaded
    assert not loaded & {f"law.{layer}" for layer in unused}
    assert report["result"]


def test_a_cold_command_hashes_without_openssl(tmp_path):
    # fingerprints use the interpreter's built-in SHA-256, so `_hashlib`
    # and its OpenSSL load stay out of a cold process
    loaded, report = _cold_imports(tmp_path, ["leibniz", "-m", "m.json"])
    assert "law.serialize" in loaded and report["result"]
    assert not loaded & {"hashlib", "_hashlib"}


@pytest.mark.parametrize(
    "argv",
    [["leibniz", "-m", "m.json"],
     ["check", "truth_minimal", "-l", "pair.json", "-i", "b2.json"],
     ["gallery", "ba-star", "--out", "g1"]],
    ids=["leibniz", "check", "gallery"],
)
def test_a_cold_command_loads_neither_dataclasses_nor_inspect(tmp_path, argv):
    # law writes its value classes by hand: importing `dataclasses` loads
    # `inspect`, and decorating a class compiles generated source
    loaded, report = _cold_imports(tmp_path, argv)
    assert "law.errors" in loaded and report["result"]
    assert not loaded & {"dataclasses", "inspect"}


def test_importing_law_cli_leaves_dataclasses_out():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, law.cli; print('dataclasses' in sys.modules)"],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _tracing():
    """The benchmark's `bench/tracing.py`, loaded as a module."""
    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
    spec = importlib.util.spec_from_file_location("tracing", os.path.join(bench, "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_importing_law_cli_loads_every_traced_layer():
    # the benchmark's tracer imports law.cli, then wraps the functions of
    # every module named in its LAYERS
    tracing = _tracing()
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, law.cli; print(' '.join(m for m in sys.modules if m.startswith('law.')))"],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert {f"law.{layer}" for layer in tracing.LAYERS} <= set(proc.stdout.split())


def test_the_tracer_hooks_bind_the_names_they_read():
    # the hooks bind `deductive_filters`' and `enumerate_algebras`' parameters
    # by name and call `filter_bounds` positionally; only a traced run reads them
    from law import algebra, logics

    tracer = _tracing().Tracer()
    try:
        tracer.install()
        logics.deductive_filters(build("two-valued-pair").logic, bool2())
        for _ in algebra.enumerate_algebras(Signature({"f": 1}), 2):
            pass
    finally:
        tracer.uninstall()
    tracer.closure_saturation()
    assert tracer.counts["logics.deductive_filters.first_busy_s"] > 0
    # B2's closure reaches the default depth, as `filter_bounds` reports
    assert tracer.counts["logics.closure.pairs"] == tracer.counts["logics.closure.saturated"] == 1
    assert tracer.counts["algebra.enumerate_algebras.tried"] == 2 ** 2


def test_every_export_is_its_module_object():
    for name in law.__all__:
        home = law._HOME.get(name)
        if home is None:
            assert getattr(law, name) is importlib.import_module(f"law.{name}")
        else:
            assert getattr(law, name) is getattr(importlib.import_module(f"law.{home}"), name)
    with pytest.raises(AttributeError):
        law.no_such_name


@pytest.mark.parametrize(
    "argv, error",
    [(["check", "nonsense"], "UnknownName: unknown class 'nonsense'; choose from "),
     (["gallery", "nonsense", "--out", "out"],
      "UnknownName: unknown gallery name 'nonsense'; choose from ")],
    ids=["class", "gallery-name"],
)
def test_an_unknown_name_is_an_error_report(tmp_path, argv, error):
    logic_path = write(tmp_path, "nabla.json", logic_to_json(build("nabla").logic))
    inv_path = write(tmp_path, "imp2.json", algebra_to_json(imp2()))
    if argv[0] == "check":
        argv = [*argv, "-l", logic_path, "-i", inv_path]
    else:
        argv = [*argv[:-1], os.path.join(tmp_path, argv[-1])]
    code, out, _ = invoke(argv)
    assert code == 2
    assert json.loads(out)["error"].startswith(error)
    assert not os.path.exists(os.path.join(tmp_path, "out"))


def test_cold_import_leaves_numpy_out():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, law.cli; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_an_empty_inventory_names_its_directories(tmp_path):
    logic_path = write(tmp_path, "nabla.json", logic_to_json(build("nabla").logic))
    first, second = os.path.join(tmp_path, "empty"), os.path.join(tmp_path, "none")
    os.mkdir(first)
    os.mkdir(second)
    code, out, err = invoke(["check", "protoalgebraic", "-l", logic_path, "-i", first,
                             "-i", second])
    assert code == 2
    message = f"LawError: empty inventory: no *.json file in -i {first} -i {second}"
    assert json.loads(out)["error"] == message
    assert first in err and second in err


def test_a_translation_names_the_symbols_it_misses_and_adds(tmp_path):
    imp = imp2().signature
    tau = translation_to_json(Translation(imp, imp, {"→": parse_term(imp, "(→ x1 x2)")}))
    tau["source"] = {"⊤": 1, "⊥": 0}
    tau_path = write(tmp_path, "tau.json", tau)
    logic_path = write(tmp_path, "imp.json", logic_to_json(matrices_logic([Matrix(imp2(), (1,))])))
    inv_path = write(tmp_path, "imp2.json", algebra_to_json(imp2()))
    code, out, _ = invoke(["interpret", "-t", tau_path, "--from", logic_path, "--to", logic_path,
                           "-i", inv_path])
    assert code == 2
    assert json.loads(out)["error"] == (
        f"LawError: {tau_path}: translation must cover exactly the source symbols: "
        "missing ['⊤', '⊥'], extra ['→']")


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
     ({"depth_default": 0}, "depth_default"),
     ({"variable_budget": 4}, "variable_budget")],
    ids=["unknown-field", "negative-cap", "zero-cap", "not-a-config-field"],
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


@pytest.mark.parametrize("max_set", ["0", "-1"])
def test_check_rejects_nonpositive_max_set(tmp_path, capsys, max_set):
    logic_path = write(tmp_path, "nabla.json", logic_to_json(build("nabla").logic))
    inv_path = write(tmp_path, "imp2.json", algebra_to_json(imp2()))
    code, out, _ = invoke(
        ["check", "protoalgebraic", "-l", logic_path, "-i", inv_path, "--max-set", max_set]
    )
    assert code == 2 and out == ""
    assert "--max-set" in capsys.readouterr().err


def test_inventory_file_missing_a_field_is_named(tmp_path):
    # a gallery directory holds the logic and manifest files besides the
    # algebras, so using it as an inventory loads the logic as an algebra
    out_dir = os.path.join(tmp_path, "nabla")
    assert invoke(["gallery", "nabla", "--out", out_dir])[0] == 0
    logic_path = os.path.join(out_dir, "nabla.logic.json")
    code, out, err = invoke(["check", "protoalgebraic", "-l", logic_path, "-i", out_dir])
    assert code == 2
    message = json.loads(out)["error"]
    assert message == f"LawError: {logic_path}: missing field 'size'"
    assert logic_path in err


def test_a_misspelt_logic_field_exits_2(tmp_path):
    # "rule" for "rules": ignored, the logic would have no rules and every
    # subset of B2→ would be a filter
    data = logic_to_json(build("nabla").logic)
    data["rule"] = data.pop("rules")
    typo = write(tmp_path, "typo.json", data)
    b2 = write(tmp_path, "b2.json", algebra_to_json(imp2()))
    for argv in (["filters", "-l", typo, "-a", b2], ["check", "has_theorems", "-l", typo, "-i", b2]):
        code, out, _ = invoke(argv)
        assert code == 2, argv
        assert json.loads(out)["error"] == (
            f"LawError: {typo}: a rules logic has no field 'rule' "
            "(known: kind, name, rules, signature, variable_budget)")


@pytest.mark.parametrize(
    "data, message",
    [([], "the document must be an object, got an array"),
     ({"signature": [["f", 1]], "size": 2, "ops": {}},
      "field 'signature' must be an object, got an array"),
     ({"signature": {"f": 1}, "size": 2, "ops": {"f": [0, 1.5]}},
      "cell [1] of 'f' in field 'ops' must be an integer, got a number"),
     ({"signature": {"f": 1}, "size": 2, "ops": {"f": ["0", "1"]}},
      "cell [0] of 'f' in field 'ops' must be an integer, got a string"),
     ({"signature": {"f": 1}, "size": 2, "ops": {"f": [[0], 1]}},
      "cell [0] of 'f' in field 'ops' must be an integer, got an array"),
     ({"signature": {"f": 2}, "size": 2, "ops": {"f": [[0, 1], [1, None]]}},
      "cell [1][1] of 'f' in field 'ops' must be an integer, got null"),
     ({"signature": {"c": 0}, "size": 2, "ops": {"c": [1]}},
      "nullary op 'c' in field 'ops' must be an integer, got an array"),
     ({"signature": {"f": 2}, "size": 2, "ops": {"f": [[0, 1], {"0": 1}]}},
      "row [1] of 'f' in field 'ops' must be an array, got an object"),
     ({"signature": {"f": 1}, "size": 2, "ops": {"f": 1}},
      "table for 'f' in field 'ops' must be an array, got an integer"),
     ({"signature": {"f": 1, "g": 1}, "size": 2, "ops": {"g": [1, 0]}},
      "field 'ops' has no table for 'f'")],
    ids=["array-document", "array-signature", "number-cell", "string-cells", "array-cell",
         "binary-null-cell", "nullary-array", "object-row", "integer-table", "missing-table"],
)
def test_algebra_of_the_wrong_shape_exits_2_naming_the_file_and_field(tmp_path, data, message):
    alg_path = write(tmp_path, "bad.json", data)
    code, out, err = invoke(["oracle", "congruences", "-a", alg_path])
    assert code == 2
    assert json.loads(out)["error"] == f"LawError: {alg_path}: {message}"
    assert alg_path in err


def test_filters_on_an_algebra_over_256_elements_exit_2(tmp_path):
    sig = Signature({"s": 1})
    big = FiniteAlgebra(sig, 257, {"s": [(x + 1) % 257 for x in range(257)]})
    logic_path = write(tmp_path, "big.logic.json", logic_to_json(matrices_logic([Matrix(big, (0,))])))
    alg_path = write(tmp_path, "one.json", algebra_to_json(one_element(sig)))
    code, out, _ = invoke(["filters", "-l", logic_path, "-a", alg_path])
    assert code == 2
    error = json.loads(out)["error"]
    assert error.startswith("CapExceeded: ") and "257" in error


def test_gallery_refuses_an_unknown_param(tmp_path):
    out_dir = os.path.join(tmp_path, "out")
    code, out, _ = invoke(["gallery", "pointed-set", "--param", "m=5", "--out", out_dir])
    assert code == 2
    assert json.loads(out)["error"] == (
        "UnknownName: gallery entry 'pointed-set' has no parameter 'm'; known: n")
    assert not os.path.exists(out_dir)


def test_gallery_refuses_a_value_below_the_least(tmp_path):
    out_dir = os.path.join(tmp_path, "out")
    code, out, _ = invoke(["gallery", "pointed-set", "--param", "n=0", "--out", out_dir])
    assert code == 2
    assert json.loads(out)["error"] == "LawError: gallery entry 'pointed-set' needs n >= 1, got 0"
    assert not os.path.exists(out_dir)


@pytest.mark.parametrize("item", ["n4", "n=x", "n=2.5"])
def test_gallery_refuses_a_malformed_param(tmp_path, item):
    code, out, err = invoke(["gallery", "pointed-set", "--param", item,
                             "--out", os.path.join(tmp_path, "out")])
    assert code == 2
    error = json.loads(out)["error"]
    assert error.startswith("LawError: bad --param ") and repr(item) in error
    assert repr(item) in err


def _kleene9():
    """A 9-element algebra of the Boolean signature: the square of the
    3-element Kleene chain."""
    k3 = FiniteAlgebra(
        bool2().signature, 3,
        {"and": [min(a, b) for a in range(3) for b in range(3)],
         "or": [max(a, b) for a in range(3) for b in range(3)],
         "not": [2 - a for a in range(3)]},
    )
    return direct_product([k3, k3])


@pytest.mark.parametrize(
    "alg, error",
    [(_kleene9(), "CapExceeded: carrier 9 exceeds the filter sweep cap 6"),
     (pointed_set(2), "SignatureMismatch: algebra signature differs from the logic's")],
    ids=["nine-elements", "pointed-set"],
)
@pytest.mark.parametrize("command", [["filters"], ["suszko", "--filter", "0"]],
                         ids=["filters", "suszko"])
def test_filter_sweep_errors_come_before_the_bounds(tmp_path, alg, error, command):
    logic_path = write(tmp_path, "pair.json", logic_to_json(build("two-valued-pair").logic))
    alg_path = write(tmp_path, "alg.json", algebra_to_json(alg))
    code, out, _ = invoke([command[0], "-l", logic_path, "-a", alg_path, *command[1:]])
    assert code == 2
    assert json.loads(out)["error"] == error


def _imp_chain7():
    """A 7-element →-algebra: the Gödel implication on the chain 0 < .. < 6."""
    return FiniteAlgebra(Signature({"→": 2}), 7,
                         {"→": [6 if a <= b else b for a in range(7) for b in range(7)]})


def test_config_oracle_max_reaches_every_sweep(tmp_path):
    cfg = write(tmp_path, "cfg.json", {"oracle_max": 7})
    nabla = write(tmp_path, "nabla.json", logic_to_json(build("nabla").logic))
    inv = write(tmp_path, "imp7.json", algebra_to_json(_imp_chain7()))
    for cls in ("truth_minimal", "equivalential", "protoalgebraic"):
        code, out, _ = invoke(["--config", cfg, "check", cls, "-l", nabla, "-i", inv])
        assert (code, json.loads(out)["result"]["status"]) == (0, "holds"), cls
    tau = Translation(Signature({"⊤": 1}), imp2().signature,
                      {"⊤": parse_term(imp2().signature, "(→ x1 x1)")})
    imp = write(tmp_path, "imp.json", logic_to_json(matrices_logic([Matrix(imp2(), (1,))])))
    code, out, _ = invoke([
        "--config", cfg, "interpret",
        "-t", write(tmp_path, "tau.json", translation_to_json(tau)),
        "--from", write(tmp_path, "assertional.json",
                        logic_to_json(build("basic-assertional").logic)),
        "--to", imp, "-i", inv,
    ])
    assert (code, json.loads(out)["result"]["status"]) == (0, "holds")
    # the filter bounds read the same lattice, under the same cap
    code, out, _ = invoke(["--config", cfg, "filters", "-l", imp, "-a", inv])
    assert (code, json.loads(out)["result"]["bounds"]["depth_effective"]) == (0, 2)


def test_config_oracle_max_reaches_the_submatrix_sweep(tmp_path):
    # Ł3 × Ł3 has 9 elements: within an oracle_max of 9, above the default
    # subuniverse cap of oracle_max + 2 = 8
    l3 = FiniteAlgebra(Signature({"→": 2}), 3,
                       {"→": [min(2, 2 - a + b) for a in range(3) for b in range(3)]})
    cfg = write(tmp_path, "cfg.json", {"oracle_max": 9})
    nabla = write(tmp_path, "nabla.json", logic_to_json(build("nabla").logic))
    inv = write(tmp_path, "imp9.json", algebra_to_json(direct_product([l3, l3])))
    code, out, _ = invoke(["--config", cfg, "check", "equivalential", "-l", nabla, "-i", inv,
                           "--depth", "2"])
    assert (code, json.loads(out)["result"]["status"]) == (0, "holds")


@pytest.mark.parametrize("cls", ["param_truth_equational", "truth_minimal"])
def test_filter_classes_refuse_an_algebra_above_the_sweep_cap(tmp_path, cls):
    # every inventory algebra is swept, so 7 elements exceed the cap of 6
    nabla = write(tmp_path, "nabla.json", logic_to_json(build("nabla").logic))
    inv = write(tmp_path, "imp7.json", algebra_to_json(_imp_chain7()))
    code, out, _ = invoke(["check", cls, "-l", nabla, "-i", inv])
    assert (code, json.loads(out)["error"]) == (
        2, "CapExceeded: carrier 7 exceeds the filter sweep cap 6")


def test_check_has_theorems_sweeps_no_filters(tmp_path):
    # a theorem search reads no filter, so the 7 elements pass the sweep cap
    # of 6; an inventory of another signature is still refused
    nabla = write(tmp_path, "nabla.json", logic_to_json(build("nabla").logic))
    inv = write(tmp_path, "imp7.json", algebra_to_json(_imp_chain7()))
    code, out, _ = invoke(["check", "has_theorems", "-l", nabla, "-i", inv])
    result = json.loads(out)["result"]
    assert (code, result["status"], result["witness"]) == (0, "holds", "(→ x x)")
    pointed = write(tmp_path, "pointed.json", algebra_to_json(pointed_set(2)))
    code, out, _ = invoke(["check", "has_theorems", "-l", nabla, "-i", pointed])
    assert (code, json.loads(out)["error"]) == (
        2, "SignatureMismatch: algebra signature differs from the logic's")


def test_config_closure_cell_budget_reaches_check_and_interpret(tmp_path):
    # a budget of one cell stops the closure before depth 1, so on B4 every
    # subset counts as a filter of ba-star-logic
    cfg = write(tmp_path, "cfg.json", {"closure_cell_budget": 1})
    logic = write(tmp_path, "ba.json", logic_to_json(build("ba-star-logic").logic))
    b4 = write(tmp_path, "b4.json", algebra_to_json(bool4()))
    code, out, _ = invoke(["--config", cfg, "filters", "-l", logic, "-a", b4])
    result = json.loads(out)["result"]
    assert (len(result["filters"]), result["bounds"]["depth_effective"]) == (16, 0)
    _, default, _ = invoke(["check", "truth_minimal", "-l", logic, "-i", b4])
    assert json.loads(default)["result"]["witness"]["filters"] == [[3], [0, 3]]
    code, out, _ = invoke(["--config", cfg, "check", "truth_minimal", "-l", logic, "-i", b4])
    assert code == 1
    assert json.loads(out)["result"]["witness"]["filters"] == [[0], [0, 1]]

    tau = Translation(Signature({"⊤": 1}), imp2().signature,
                      {"⊤": parse_term(imp2().signature, "(→ x1 x1)")})
    argv = [
        "interpret", "-t", write(tmp_path, "tau.json", translation_to_json(tau)),
        "--from", write(tmp_path, "assertional.json",
                        logic_to_json(build("basic-assertional").logic)),
        "--to", write(tmp_path, "imp.json", logic_to_json(matrices_logic([Matrix(imp2(), (1,))]))),
        "-i", write(tmp_path, "imp2.json", algebra_to_json(imp2())),
    ]
    assert invoke(argv)[0] == 0
    assert invoke(["--config", cfg, *argv])[0] == 1


@pytest.mark.parametrize(
    "value, error",
    [("x", "LawError: bad --filter 'x': invalid literal for int() with base 10: 'x'"),
     ("1,7", "NotAFilter: [1, 7]: element 7 is not in the carrier 0..1")],
    ids=["not-an-integer", "out-of-range"],
)
def test_suszko_names_a_bad_filter_item(tmp_path, value, error):
    logic = write(tmp_path, "pair.json", logic_to_json(build("two-valued-pair").logic))
    alg = write(tmp_path, "b2.json", algebra_to_json(bool2()))
    code, out, err = invoke(["suszko", "-l", logic, "-a", alg, "--filter", value])
    assert code == 2
    assert json.loads(out)["error"] == error
    assert error.split(": ", 1)[1] in err


def test_config_with_a_json_syntax_error_names_the_file(tmp_path):
    cfg = os.path.join(tmp_path, "cfg.json")
    with open(cfg, "w") as fh:
        fh.write("{oops")
    alg = write(tmp_path, "b2.json", algebra_to_json(bool2()))
    code, out, err = invoke(["--config", cfg, "oracle", "congruences", "-a", alg])
    assert code == 2
    error = json.loads(out)["error"]
    assert error.startswith(f"LawError: config {cfg}: Expecting property name")
    assert cfg in err


@pytest.mark.parametrize("filter", [[1, 2], [-1, 0]], ids=["above", "below"])
def test_leibniz_on_a_filter_element_out_of_range_exits_2(tmp_path, filter):
    path = write(tmp_path, "bad-filter.json", {"algebra": algebra_to_json(bool2()), "filter": filter})
    code, out, err = invoke(["leibniz", "-m", path])
    assert code == 2
    assert json.loads(out)["error"] == f"LawError: {path}: filter element out of range"
    assert path in err
