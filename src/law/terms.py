"""Signatures and terms: the syntactic layer underneath everything else.

Terms are immutable trees of two node types, `Var` and `App`. Nodes are
slotted (no ``__dict__``) and refuse assignment. An `App` caches its hash and
depth when built and its variable set on first use; nodes share variable-set
objects with their subterms where the sets are equal. Equality is structural,
with the cached hashes compared first. There is no intern table: equal terms
built apart are distinct objects, and nothing holds a term beyond its users.

The s-expression syntax used in files is ``(sym arg ...)`` with bare
identifiers for variables; a bare identifier that names a nullary symbol
denotes that constant.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import Frozen, Hashed, TermError


class Signature(Hashed):
    """Symbol names with arities. Stored sorted so signatures hash and compare."""

    _fields = ("symbols",)
    __slots__ = _fields + ("_hash",)

    def __init__(self, symbols: Mapping[str, int] | Iterable[tuple[str, int]]):
        items = tuple(sorted(dict(symbols).items()))
        for name, arity in items:
            if not name:
                raise TermError("empty symbol name")
            if arity < 0:
                raise TermError(f"negative arity for {name!r}")
        self._assign(items, hash((items,)))

    def arity(self, name: str) -> int:
        for sym, ar in self.symbols:
            if sym == name:
                return ar
        raise TermError(f"unknown symbol {name!r}")

    def __contains__(self, name: str) -> bool:
        return any(sym == name for sym, _ in self.symbols)

    def names(self) -> tuple[str, ...]:
        return tuple(sym for sym, _ in self.symbols)

    def as_dict(self) -> dict[str, int]:
        return dict(self.symbols)

    def __repr__(self) -> str:
        inner = ", ".join(f"{s}:{a}" for s, a in self.symbols)
        return f"Signature({{{inner}}})"


class Term(Frozen):
    """Base class; instances are Var or App.

    `_vars` holds the node's variable set once `variables` has computed it.
    """

    __slots__ = ("_vars",)


_new = object.__new__
_set_vars = Term._vars.__set__


class Var(Term):
    __slots__ = ("name", "_hash")

    depth = 0  # read by App.__new__ and `depth` without a type test

    def __new__(cls, name: str):
        self = _new(cls)
        _set_name(self, name)
        _set_var_hash(self, hash(("v", name)))
        return self

    def __reduce__(self):
        # pickle and copy rebuild through the constructor: assignment is refused
        return (Var, (self.name,))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return isinstance(other, Var) and self.name == other.name

    def __repr__(self) -> str:
        return self.name


_set_name = Var.name.__set__
_set_var_hash = Var._hash.__set__


class App(Term):
    """The application of `sym` to `args`. `__new__` writes the slots through
    their descriptors, since assignment is refused."""

    __slots__ = ("sym", "args", "_hash", "depth")

    def __new__(cls, sym: str, args: tuple[Term, ...]):
        self = _new(cls)
        d = 0
        for a in args:
            ad = a.depth
            if ad > d:
                d = ad
        _set_sym(self, sym)
        _set_args(self, args)
        _set_app_hash(self, hash(("a", sym, args)))
        _set_depth(self, d + 1)
        return self

    def __reduce__(self):
        return (App, (self.sym, self.args))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, App)
            and self._hash == other._hash
            and self.sym == other.sym
            and self.args == other.args
        )

    def __repr__(self) -> str:
        return to_sexpr(self)


_set_sym = App.sym.__set__
_set_args = App.args.__set__
_set_app_hash = App._hash.__set__
_set_depth = App.depth.__set__

_NO_VARS: frozenset[str] = frozenset()


def depth(t: Term) -> int:
    """Variables have depth 0; an application adds one level."""
    return t.depth


def variables(t: Term) -> frozenset[str]:
    """The variable names in `t`, cached on every node it visits."""
    try:
        return t._vars
    except AttributeError:
        return _fill_variables(t)


def _fill_variables(t: Term) -> frozenset[str]:
    # A node reuses a child's set object whenever that set already holds all
    # of the node's variables, so most nodes share their set with a subterm.
    if isinstance(t, Var):
        out = frozenset((t.name,))
    else:
        out = _NO_VARS
        for a in t.args:
            try:
                s = a._vars
            except AttributeError:
                s = _fill_variables(a)
            if s is not out and not s <= out:
                out = s if out <= s else out | s
    _set_vars(t, out)
    return out


def variables_of(terms: Iterable[Term]) -> frozenset[str]:
    out: frozenset[str] = frozenset()
    for t in terms:
        out |= variables(t)
    return out


def substitute(t: Term, mapping: Mapping[str, Term]) -> Term:
    if isinstance(t, Var):
        return mapping.get(t.name, t)
    return _substitute_app(t, mapping)


def _substitute_app(t: App, mapping: Mapping[str, Term]) -> App:
    # variable arguments are looked up in place: no call per leaf
    args = []
    for a in t.args:
        if isinstance(a, Var):
            args.append(mapping.get(a.name, a))
        else:
            args.append(_substitute_app(a, mapping))
    return App(t.sym, tuple(args))


def check_term(sig: Signature, t: Term) -> None:
    """Validate arities and the symbol/variable name separation."""
    if isinstance(t, Var):
        if t.name in sig:
            raise TermError(f"variable {t.name!r} clashes with a symbol name")
        return
    if t.sym not in sig:
        raise TermError(f"unknown symbol {t.sym!r}")
    if len(t.args) != sig.arity(t.sym):
        raise TermError(f"{t.sym!r} expects {sig.arity(t.sym)} arguments, got {len(t.args)}")
    for a in t.args:
        check_term(sig, a)


def to_sexpr(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if not t.args:
        return f"({t.sym})"
    return "(" + " ".join([t.sym] + [to_sexpr(a) for a in t.args]) + ")"


def _tokenize(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def parse_term(sig: Signature, text: str) -> Term:
    tokens = _tokenize(text)
    if not tokens:
        raise TermError("empty term")
    term, rest = _parse(sig, tokens)
    if rest:
        raise TermError(f"trailing input after term: {' '.join(rest)}")
    check_term(sig, term)
    return term


def _parse(sig: Signature, tokens: list[str]) -> tuple[Term, list[str]]:
    tok, rest = tokens[0], tokens[1:]
    if tok == ")":
        raise TermError("unexpected ')'")
    if tok != "(":
        if tok in sig:
            if sig.arity(tok) != 0:
                raise TermError(f"symbol {tok!r} needs arguments")
            return App(tok, ()), rest
        return Var(tok), rest
    if not rest:
        raise TermError("unterminated '('")
    sym, rest = rest[0], rest[1:]
    if sym in ("(", ")"):
        raise TermError("expected a symbol after '('")
    args: list[Term] = []
    while True:
        if not rest:
            raise TermError("unterminated '('")
        if rest[0] == ")":
            return App(sym, tuple(args)), rest[1:]
        arg, rest = _parse(sig, rest)
        args.append(arg)


def enumerate_terms(sig: Signature, variables: Sequence[str], max_depth: int) -> Iterator[Term]:
    """All terms over `sig` with variables among `variables`, depth <= max_depth.

    Deterministic depth-lexicographic order: variables in the given order,
    then per level every symbol (sorted by name) applied to the argument
    tuples of ``itertools.product(seen, repeat=arity)``, where `seen` lists
    the terms of earlier levels, keeping those with an argument from the
    level just below, so each term appears exactly once. Only those tuples
    are built (`_touching_segments`), and the deepest level is streamed
    rather than stored.
    """
    for v in variables:
        if v in sig:
            raise TermError(f"variable {v!r} clashes with a symbol name")
    level: list[Term] = [Var(v) for v in variables]
    seen: list[Term] = list(level)
    yield from level
    syms = sorted(sig.symbols)
    for d in range(1, max_depth + 1):
        fresh = _level_terms(syms, seen, level, d)
        if d == max_depth:
            yield from fresh
            return
        level = list(fresh)
        yield from level
        seen.extend(level)
        if not level:
            return


def _level_terms(
    syms: list[tuple[str, int]], seen: list[Term], below: list[Term], d: int
) -> Iterator[Term]:
    """The terms of depth `d`, given `seen` (every term of depth < d, ending
    with `below`, those of depth d - 1), in `enumerate_terms` order."""
    old = seen[: len(seen) - len(below)]
    for sym, arity in syms:
        if arity == 0:
            if d == 1:
                yield App(sym, ())
            continue
        for pools in _touching_segments(old, below, seen, arity):
            yield from map(App, itertools.repeat(sym), itertools.product(*pools))


def _touching_segments(
    old: list[Term], new: list[Term], seen: list[Term], arity: int
) -> list[tuple[list[Term], ...]]:
    """The tuples of ``product(seen, repeat=arity)`` with at least one entry
    from `new`, in product order, as consecutive products of pools.

    `seen` is `old` followed by `new`. In product order the first entry
    varies slowest: a first entry from `new` may be followed by anything,
    one from `old` must be followed by a tail that itself touches `new`.
    """
    if arity == 1:
        return [(new,)]
    tails = _touching_segments(old, new, seen, arity - 1)
    heads = [([t],) + tail for t in old for tail in tails]
    return heads + [(new,) + (seen,) * (arity - 1)]
