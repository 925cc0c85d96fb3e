"""The frozen value classes: refused assignment, hashes and equality of the
tuple of their compared fields, and pinned reprs."""

import copy
import os
import subprocess
import sys
import types

import pytest

import law
import law.cli
from law.algebra import FiniteAlgebra
from law.config import DEFAULTS, Config
from law.errors import Frozen, Hashed
from law.gallery import GalleryEntry, imp2
from law.hierarchy import WitnessSet
from law.logics import FilterFamily, FilterLattice, Rule, matrices_logic, rules_logic
from law.matrices import Matrix
from law.partitions import Partition
from law.terms import Signature, Var, parse_term
from law.translations import Translation
from law.verdicts import Verdict

IMP = Signature({"→": 2})
X, Y = Var("x"), Var("y")
B2 = imp2()
WITNESS = WitnessSet("terms", (X,), ((X, Y),))
MP = Rule([X, parse_term(IMP, "(→ x y)")], Y)

# (instance, the tuple its hash is the hash of, whether `==` needs the exact
# class) per class; None for a class compared by identity
CASES = {
    "Signature": (IMP, lambda s: (s.symbols,), True),
    "Config": (DEFAULTS, lambda c: (6, 64, 3, 1 << 23), True),
    "Partition": (Partition([0, 1, 0]), lambda p: p.block_ids, True),
    "FiniteAlgebra": (B2, lambda a: (a.signature, a.size, a.tables), True),
    "Matrix": (Matrix(B2, [1]), lambda m: (m.algebra, m.filter), True),
    "Rule": (MP, lambda r: (r.premises, r.conclusion), True),
    "LogicPresentation": (
        rules_logic(IMP, [MP], name="mp"),
        lambda g: (g.signature, g.kind, g.rules, g.matrices, g.variable_budget), True),
    "FilterFamily": (FilterFamily(B2, [[1], [0, 1]]), lambda f: (f.algebra, f.filters), True),
    "FilterLattice": (FilterLattice(B2, ((1,), (0, 1)), 2), None, True),
    "WitnessSet": (WITNESS, lambda w: (w.kind, w.terms, w.equations), True),
    "Translation": (Translation.identity(IMP), lambda t: (t.source, t.target, t.mapping), True),
    "Verdict": (Verdict("holds", WITNESS, {"depth": 3}),
                lambda v: (v.status, v.witness, v.bounds), True),
    "GalleryEntry": (
        GalleryEntry("e", (("k", 1),), logic=matrices_logic([Matrix(B2, [1])]),
                     inventory=(B2,), expectations=(), provenance="p"),
        lambda e: (e.name, e.params, e.logic, e.matrices, e.inventory, e.expectations,
                   e.provenance), True),
}

REPRS = {
    "Signature": "Signature({→:2})",
    "Config": "Config(oracle_max=6, product_max=64, depth_default=3, closure_cell_budget=8388608)",
    "Partition": "Partition[0,2 | 1]",
    "WitnessSet": "WitnessSet(kind='terms', terms=(x,), equations=((x, y),))",
    "Verdict": "<Verdict holds witness=WitnessSet(kind='terms', terms=(x,), equations=((x, y),))>",
    "FilterFamily": "FilterFamily(algebra=<B2→ size=2 sig=Signature({→:2})>, "
                    "filters=((0, 1), (1,)))",
    "FilterLattice": "FilterLattice(algebra=<B2→ size=2 sig=Signature({→:2})>, "
                     "filters=((1,), (0, 1)), depth_effective=2)",
    "Translation": "Translation(source=Signature({→:2}), target=Signature({→:2}), "
                   "mapping=(('→', (→ x1 x2)),))",
}


def _slots(x):
    return [name for cls in type(x).__mro__ for name in getattr(cls, "__slots__", ())]


def _twin(x, cls):
    """An instance of `cls` whose slots hold the values of `x`'s."""
    twin = object.__new__(cls)
    for name in _slots(x):
        object.__setattr__(twin, name, getattr(x, name))
    return twin


def _subclasses(cls):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("law."):  # not a test's throwaway subclass
            yield sub
            yield from _subclasses(sub)


def test_every_value_class_has_a_case():
    # law.cli imports every layer, so every value class is defined
    names = {cls.__name__ for cls in _subclasses(Frozen)} - {"Hashed", "Term", "Var", "App"}
    assert names == set(CASES)
    assert {cls.__name__ for cls in _subclasses(Hashed)} == {
        "Signature", "Partition", "FiniteAlgebra", "Matrix", "Rule", "LogicPresentation"}


@pytest.mark.parametrize("name", CASES)
def test_a_value_refuses_assignment_and_deletion(name):
    x = CASES[name][0]
    assert type(x).__name__ == name and isinstance(x, Frozen)
    assert not hasattr(x, "__dict__")
    for field in _slots(x):
        before = getattr(x, field)
        with pytest.raises(AttributeError):
            setattr(x, field, None)
        with pytest.raises(AttributeError):
            delattr(x, field)
        assert getattr(x, field) is before


@pytest.mark.parametrize("name", CASES)
def test_a_value_hashes_and_compares_its_fields(name):
    x, key, exact = CASES[name]
    if key is None:
        assert hash(x) == object.__hash__(x)
        assert x == x and x != copy.copy(x)
    else:
        assert hash(x) == hash(key(x))
        assert x == copy.deepcopy(x) and hash(copy.deepcopy(x)) == hash(x)
    lookalike = types.SimpleNamespace(**{field: getattr(x, field) for field in _slots(x)})
    assert x != lookalike and not x == lookalike
    subclass = type("Twin", (type(x),), {"__slots__": ()})
    assert (x == _twin(x, subclass)) is (key is not None and not exact)


@pytest.mark.parametrize("name", REPRS)
def test_a_value_repr_is_pinned(name):
    x = CASES[name][0]
    assert repr(x) == REPRS[name]
    assert repr(copy.deepcopy(x)) == REPRS[name]


DUMP = """
import pickle, sys
from law.logics import rules_logic
from law.terms import Signature
sig = Signature({"f": 1})
sys.stdout.buffer.write(pickle.dumps((sig, rules_logic(sig, [], name="L"))))
"""

LOAD = """
import pickle, sys
from law.logics import rules_logic
from law.terms import Signature
sig, logic = pickle.loads(sys.stdin.buffer.read())
print(hash(sig) == hash(Signature({"f": 1})), hash(logic) == hash(rules_logic(sig, [])))
"""


def test_a_kept_hash_is_computed_anew_when_unpickled_in_another_process():
    # string hashes differ between processes unless PYTHONHASHSEED fixes them
    src = os.path.dirname(os.path.dirname(law.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    dumped = subprocess.run([sys.executable, "-c", DUMP], capture_output=True, check=True,
                            env=dict(env, PYTHONHASHSEED="1")).stdout
    loaded = subprocess.run([sys.executable, "-c", LOAD], input=dumped, capture_output=True,
                            check=True, env=dict(env, PYTHONHASHSEED="2")).stdout
    assert loaded.split() == [b"True", b"True"]


DUMP_VALUES = """
import pickle, sys
from law.gallery import bool2
from law.logics import Rule
from law.matrices import Matrix
from law.terms import Signature, parse_term
alg = bool2()
rule = Rule([parse_term(alg.signature, "x")], parse_term(alg.signature, "(or x y)"))
sys.stdout.buffer.write(pickle.dumps((alg, Matrix(alg, [1]), rule)))
"""

LOAD_VALUES = """
import pickle, sys
from law.gallery import bool2
from law.logics import Rule
from law.matrices import Matrix
from law.terms import parse_term
alg, matrix, rule = pickle.loads(sys.stdin.buffer.read())
b2 = bool2()
want = Rule([parse_term(b2.signature, "x")], parse_term(b2.signature, "(or x y)"))
print(alg == b2, hash(alg) == hash(b2), alg.name == b2.name,
      matrix == Matrix(b2, [1]), hash(matrix) == hash(Matrix(b2, [1])),
      rule == want, hash(rule) == hash(want))
"""


def test_an_algebra_matrix_and_rule_are_hashed_anew_when_unpickled_in_another_process():
    src = os.path.dirname(os.path.dirname(law.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    dumped = subprocess.run([sys.executable, "-c", DUMP_VALUES], capture_output=True,
                            check=True, env=dict(env, PYTHONHASHSEED="1")).stdout
    loaded = subprocess.run([sys.executable, "-c", LOAD_VALUES], input=dumped,
                            capture_output=True, check=True,
                            env=dict(env, PYTHONHASHSEED="2")).stdout
    assert loaded.split() == [b"True"] * 7


@pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy])
def test_a_copied_algebra_matrix_and_rule_rebuild_through_their_constructors(copier):
    alg = FiniteAlgebra(IMP, 2, {"→": (1, 1, 0, 1)}, name="B2→")
    alg.neighbours()  # a filled cache is not carried over
    twin = copier(alg)
    assert twin == alg and hash(twin) == hash(alg) and twin.name == "B2→"
    assert twin._neighbours is None and twin.neighbours() == alg.neighbours()
    matrix = copier(Matrix(alg, [1]))
    assert matrix == Matrix(alg, [1]) and hash(matrix) == hash(Matrix(alg, [1]))
    rule = copier(MP)
    assert rule == MP and hash(rule) == hash(MP) and rule.premises == MP.premises


def test_config_override_gives_a_fresh_frozen_config():
    deeper = Config().override(depth_default=4)
    assert type(deeper) is Config and deeper is not DEFAULTS
    assert (deeper.oracle_max, deeper.product_max, deeper.depth_default,
            deeper.closure_cell_budget) == (6, 64, 4, 1 << 23)
    assert DEFAULTS.depth_default == 3 and DEFAULTS.override(depth_default=None) is DEFAULTS
    with pytest.raises(AttributeError):
        deeper.depth_default = 5
    with pytest.raises(TypeError):
        DEFAULTS.override(depth_cap=2)


def test_gallery_entry_fields_after_params_are_keyword_only():
    with pytest.raises(TypeError):
        GalleryEntry("e", (), None, (), (B2,), (), "p")
