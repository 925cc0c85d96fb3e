"""Terms: parsing, enumeration order, substitution, the node contract."""

import copy
import itertools
import pickle

import pytest

from law.errors import TermError
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

IMP = Signature({"→": 2})
POINTED = Signature({"⊤": 1})


def brute_terms(sig, names, max_depth):
    """Independent oracle: build term sets level by level from the raw
    definition and deduplicate, ignoring enumeration order."""
    terms = {Var(v) for v in names}
    for _ in range(max_depth):
        fresh = set(terms)
        for sym, arity in sig.symbols:
            if arity == 0:
                fresh.add(App(sym, ()))
                continue
            for args in itertools.product(sorted(terms, key=to_sexpr), repeat=arity):
                fresh.add(App(sym, args))
        terms = fresh
    return {t for t in terms if depth(t) <= max_depth}


def product_filter_terms(sig, names, max_depth):
    """Reference for the enumeration order: every symbol applied to the full
    product of the terms seen so far, keeping the applications whose deepest
    argument lies on the level just below."""
    level = [Var(v) for v in names]
    seen = list(level)
    yield from level
    for d in range(1, max_depth + 1):
        nxt = []
        for sym, arity in sorted(sig.symbols):
            if arity == 0:
                if d == 1:
                    nxt.append(App(sym, ()))
                continue
            for args in itertools.product(seen, repeat=arity):
                if max(depth(a) for a in args) == d - 1:
                    nxt.append(App(sym, args))
        yield from nxt
        seen.extend(nxt)
        if not nxt:
            break


def recursive_depth(t):
    return 0 if isinstance(t, Var) else 1 + max((recursive_depth(a) for a in t.args), default=0)


def recursive_variables(t):
    if isinstance(t, Var):
        return {t.name}
    return set().union(*(recursive_variables(a) for a in t.args))


def test_parse_roundtrip():
    t = parse_term(IMP, "(→ (→ x y) x)")
    assert to_sexpr(t) == "(→ (→ x y) x)"
    assert variables(t) == {"x", "y"}
    assert depth(t) == 2


def test_parse_rejects_arity_and_clashes():
    with pytest.raises(TermError):
        parse_term(IMP, "(→ x)")
    with pytest.raises(TermError):
        parse_term(IMP, "(⊥ x y)")
    with pytest.raises(TermError):
        list(enumerate_terms(POINTED, ["⊤"], 1))


def test_nullary_symbol_parses_bare_and_wrapped():
    sig = Signature({"c": 0, "f": 1})
    assert parse_term(sig, "c") == App("c", ())
    assert parse_term(sig, "(c)") == App("c", ())
    assert parse_term(sig, "(f c)") == App("f", (App("c", ()),))


def test_enumerate_small_exact_order():
    assert [to_sexpr(t) for t in enumerate_terms(IMP, ["x"], 1)] == ["x", "(→ x x)"]
    assert [to_sexpr(t) for t in enumerate_terms(POINTED, ["x", "y"], 1)] == [
        "x",
        "y",
        "(⊤ x)",
        "(⊤ y)",
    ]


def test_enumerate_depth2_matches_bruteforce():
    stream = list(enumerate_terms(IMP, ["x", "y"], 2))
    assert len(stream) == len(set(stream)), "duplicates in the stream"
    oracle = brute_terms(IMP, ["x", "y"], 2)
    assert set(stream) == oracle
    # 2 variables, 4 depth-1 implications, 32 fresh depth-2 implications
    assert len(stream) == 38


def test_enumerate_prefix_closed():
    shallow = list(enumerate_terms(IMP, ["x", "y"], 1))
    deeper = list(enumerate_terms(IMP, ["x", "y"], 2))
    assert deeper[: len(shallow)] == shallow


def test_substitute():
    t = parse_term(IMP, "(→ x (→ y x))")
    s = substitute(t, {"x": parse_term(IMP, "(→ y y)")})
    assert to_sexpr(s) == "(→ (→ y y) (→ y (→ y y)))"


def test_hash_equality_structural():
    a = parse_term(IMP, "(→ x y)")
    b = App("→", (Var("x"), Var("y")))
    assert a == b and hash(a) == hash(b)
    assert a != parse_term(IMP, "(→ y x)")


@pytest.mark.parametrize(
    "sig, max_depth",
    [(IMP, 3), (Signature({"c": 0, "f": 1, "g": 2, "h": 3}), 2)],
    ids=["imp-depth3", "mixed-arities-depth2"],
)
def test_enumeration_order_matches_product_filter(sig, max_depth):
    stream = [to_sexpr(t) for t in enumerate_terms(sig, ["x", "y"], max_depth)]
    assert stream == [to_sexpr(t) for t in product_filter_terms(sig, ["x", "y"], max_depth)]


def test_term_nodes_are_immutable_and_slotted():
    t = App("→", (Var("x"), Var("y")))
    for field in ("sym", "args", "depth"):
        with pytest.raises(AttributeError):
            setattr(t, field, getattr(t, field))
    with pytest.raises(AttributeError):
        Var("x").name = "y"
    assert not hasattr(t, "__dict__")
    assert not hasattr(Var("x"), "__dict__")


def test_independently_built_terms_are_equal():
    parsed = parse_term(IMP, "(→ (→ x y) (→ y y))")
    built = App("→", (App("→", (Var("x"), Var("y"))), App("→", (Var("y"), Var("y")))))
    substituted = substitute(
        parse_term(IMP, "(→ z (→ y y))"), {"z": parse_term(IMP, "(→ x y)")}
    )
    copied = pickle.loads(pickle.dumps(parsed))
    for t in (built, substituted, copied, copy.deepcopy(parsed)):
        assert t is not parsed
        assert t == parsed and hash(t) == hash(parsed)


def test_cached_depth_and_variables_match_recursion():
    for t in enumerate_terms(IMP, ["x", "y"], 3):
        assert depth(t) == recursive_depth(t)
        assert variables(t) == recursive_variables(t)
    t = parse_term(IMP, "(→ (→ x y) (→ y x))")
    assert variables(t) is variables(t.args[0]), "equal variable sets are shared"
