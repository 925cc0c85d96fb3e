"""Arity-preserving translations between signatures, term reducts, and
bounded interpretation checking between logics."""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .algebra import FiniteAlgebra, distinct, term_values
from .config import DEFAULTS, Config
from .errors import Frozen, SignatureMismatch, TermError
from .logics import LogicPresentation, filter_lattice, filter_notion
from .matrices import Matrix
from .serialize import inventory_fingerprint
from .terms import App, Signature, Term, Var, check_term, substitute, variables
from .verdicts import Verdict, fails, holds


def placeholder_vars(arity: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(arity))


class Translation(Frozen):
    """Per source symbol of arity n, a target term over x1..xn."""

    __slots__ = _fields = ("source", "target", "mapping")

    def __init__(
        self,
        source: Signature,
        target: Signature,
        mapping: Mapping[str, Term] | Iterable[tuple[str, Term]],
    ):
        table = dict(mapping)
        names = set(source.names())
        if set(table) != names:
            raise SignatureMismatch(
                f"translation must cover exactly the source symbols: missing "
                f"{sorted(names - set(table))}, extra {sorted(set(table) - names)}")
        for sym, arity in source.symbols:
            image = table[sym]
            check_term(target, image)
            allowed = set(placeholder_vars(arity))
            extra = variables(image) - allowed
            if extra:
                raise TermError(
                    f"image of {sym!r} uses {sorted(extra)}; only {sorted(allowed)} allowed"
                )
        self._assign(source, target, tuple(sorted(table.items())))

    def image(self, sym: str) -> Term:
        for name, term in self.mapping:
            if name == sym:
                return term
        raise TermError(f"unknown source symbol {sym!r}")

    @staticmethod
    def identity(sig: Signature) -> "Translation":
        table = {
            sym: App(sym, tuple(Var(v) for v in placeholder_vars(arity)))
            for sym, arity in sig.symbols
        }
        return Translation(sig, sig, table)


def translate_term(tau: Translation, t: Term) -> Term:
    """Homomorphic substitution of every source symbol by its image."""
    if isinstance(t, Var):
        return t
    args = [translate_term(tau, a) for a in t.args]
    image = tau.image(t.sym)
    return substitute(image, dict(zip(placeholder_vars(len(args)), args)))


def tau_reduct(tau: Translation, alg: FiniteAlgebra) -> FiniteAlgebra:
    """Same carrier; each source symbol's table is its image term evaluated."""
    if alg.signature != tau.target:
        raise SignatureMismatch("reduct needs an algebra over the target signature")
    tables = {
        sym: term_values(alg, tau.image(sym), placeholder_vars(arity))
        for sym, arity in tau.source.symbols
    }
    return FiniteAlgebra(tau.source, alg.size, tables, name=f"{alg.name}^tau" if alg.name else "")


def check_interpretation_bounded(
    tau: Translation,
    source_logic: LogicPresentation,
    target_logic: LogicPresentation,
    inventory: Sequence[FiniteAlgebra],
    config: Config = DEFAULTS,
) -> Verdict:
    """Bounded test that reducts of reduced target models are reduced source
    models over the inventory.

    Only the direct reduct condition is checked; interpretability through a
    term-equivalent compatible expansion is out of scope and unknowable here.
    """
    if tau.source != source_logic.signature:
        raise SignatureMismatch("translation source differs from the source logic")
    if tau.target != target_logic.signature:
        raise SignatureMismatch("translation target differs from the target logic")
    bounds = {
        "depth_cap": config.depth_default,
        "inventory": inventory_fingerprint(inventory),
        "filter_notion": f"{filter_notion(source_logic)}/{filter_notion(target_logic)}",
        "variable_budget": target_logic.variable_budget,
    }
    caps = config.caps()
    inv = distinct(inventory)
    if any(alg.signature != target_logic.signature for alg in inv):
        raise SignatureMismatch("algebra signature differs from the logic's")
    # algebra by algebra, so the first refuting model ends the walk
    for alg in inv:
        models = filter_lattice(target_logic, alg, **caps).reduced()
        if not models:
            continue
        reduct = tau_reduct(tau, alg)
        lattice = filter_lattice(source_logic, reduct, **caps)
        for f in models:
            if f not in lattice.filters:
                reason = "reduct filter is not a source filter"
            elif f not in lattice.reduced():
                reason = "reduct is not Suszko-reduced for the source logic"
            else:
                continue
            return fails({"reason": reason, "model": Matrix(alg, f), "reduct": reduct},
                         **bounds)
    return holds(**bounds)
