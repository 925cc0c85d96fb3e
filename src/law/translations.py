"""Arity-preserving translations between signatures, term reducts, and
bounded interpretation checking between logics."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .algebra import FiniteAlgebra, eval_term
from .config import DEFAULTS
from .errors import SignatureMismatch, TermError
from .logics import (
    LogicPresentation,
    RULES,
    Rule,
    deductive_filters,
    filter_notion,
    is_model,
    reduced_filters_on,
    suszko_congruence,
)
from .matrices import Matrix
from .terms import App, Signature, Term, Var, check_term, substitute, variables
from .verdicts import Verdict, fails, holds


def placeholder_vars(arity: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(arity))


@dataclass(frozen=True)
class Translation:
    """Per source symbol of arity n, a target term over x1..xn."""

    source: Signature
    target: Signature
    mapping: tuple[tuple[str, Term], ...]

    def __init__(
        self,
        source: Signature,
        target: Signature,
        mapping: Mapping[str, Term] | Iterable[tuple[str, Term]],
    ):
        table = dict(mapping)
        if set(table) != set(source.names()):
            raise SignatureMismatch("translation must cover exactly the source symbols")
        for sym, arity in source.symbols:
            image = table[sym]
            check_term(target, image)
            allowed = set(placeholder_vars(arity))
            extra = variables(image) - allowed
            if extra:
                raise TermError(
                    f"image of {sym!r} uses {sorted(extra)}; only {sorted(allowed)} allowed"
                )
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "mapping", tuple(sorted(table.items())))

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
    n = alg.size
    tables = {}
    for sym, arity in tau.source.symbols:
        image = tau.image(sym)
        names = placeholder_vars(arity)
        cells = []
        for args in itertools.product(range(n), repeat=arity):
            cells.append(eval_term(alg, image, dict(zip(names, args))))
        tables[sym] = tuple(cells)
    return FiniteAlgebra(tau.source, n, tables, name=f"{alg.name}^tau" if alg.name else "")


def check_interpretation_bounded(
    tau: Translation,
    source_logic: LogicPresentation,
    target_logic: LogicPresentation,
    inventory: Sequence[FiniteAlgebra],
    depth_cap: int = DEFAULTS.depth_default,
) -> Verdict:
    """Bounded test that reducts of reduced target models are reduced source
    models over the inventory.

    The rule-soundness pre-pass (translated source rules hold in every
    reduced target model) runs first; since it is evaluated on inventory
    models, a failure there is already a genuine counterexample. Only the
    direct reduct condition is checked; interpretability through a
    term-equivalent compatible expansion is out of scope and unknowable here.
    """
    if tau.source != source_logic.signature:
        raise SignatureMismatch("translation source differs from the source logic")
    if tau.target != target_logic.signature:
        raise SignatureMismatch("translation target differs from the target logic")
    inv = sorted(inventory, key=lambda a: a.sort_key())
    bounds = {
        "depth_cap": depth_cap,
        "inventory": inventory_fingerprint(inv),
        "filter_notion": f"{filter_notion(source_logic)}/{filter_notion(target_logic)}",
        "variable_budget": target_logic.variable_budget,
    }
    reduced: list[Matrix] = []
    for alg in inv:
        reduced.extend(reduced_filters_on(target_logic, alg, depth_cap=depth_cap))

    if source_logic.kind == RULES:
        for model in reduced:
            for rule in source_logic.rules:
                translated = Rule(
                    [translate_term(tau, p) for p in rule.premises],
                    translate_term(tau, rule.conclusion),
                )
                if not is_model(model, translated):
                    return fails(
                        {"reason": "translated rule fails on a reduced target model",
                         "model": model, "rule": rule},
                        **bounds,
                    )

    for model in reduced:
        reduct = tau_reduct(tau, model.algebra)
        source_filters = deductive_filters(source_logic, reduct, depth_cap=depth_cap)
        if model.filter not in source_filters:
            return fails(
                {"reason": "reduct filter is not a source filter",
                 "model": model, "reduct": reduct},
                **bounds,
            )
        if not suszko_congruence(
            source_logic, reduct, model.filter, depth_cap=depth_cap
        ).is_identity():
            return fails(
                {"reason": "reduct is not Suszko-reduced for the source logic",
                 "model": model, "reduct": reduct},
                **bounds,
            )
    return holds(**bounds)


def inventory_fingerprint(inventory: Sequence[FiniteAlgebra]) -> str:
    from .serialize import algebra_fingerprint

    return "+".join(algebra_fingerprint(a) for a in sorted(inventory, key=lambda a: a.sort_key()))
