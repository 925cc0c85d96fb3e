"""Bounded membership checks and witness searches for Leibniz-style classes.

Every check here is inventory-relative and three-valued. A missing witness
inside the search bounds is reported as unknown, never as a refutation; a
Fails verdict always carries a finite witness that re-verifies. Reduced
models over a finite inventory stand in for the class of all reduced models,
and every verdict records that through its bounds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .algebra import FiniteAlgebra, eval_term
from .config import DEFAULTS
from .errors import UnknownName
from .logics import (
    FilterFamily,
    LogicPresentation,
    MATRICES,
    RULES,
    Rule,
    deductive_filters,
    entails,
    filter_notion,
    models_presentation,
    reduced_filters_on,
)
from .matrices import Matrix, leibniz_congruence, submatrices
from .partitions import Partition
from .terms import App, Signature, Term, Var, depth, enumerate_terms, substitute, to_sexpr, variables
from .translations import inventory_fingerprint
from .verdicts import Verdict, fails, holds, unknown

X, Y = Var("x"), Var("y")

CLASS_NAMES = (
    "assertional",
    "truth_equational",
    "truth_minimal",
    "param_truth_equational",
    "equivalential",
    "has_theorems",
)


@dataclass(frozen=True)
class WitnessSet:
    """A named bundle of terms (and optionally equations) certifying a class."""

    kind: str
    terms: tuple[Term, ...] = ()
    equations: tuple[tuple[Term, Term], ...] = ()

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind, "terms": [to_sexpr(t) for t in self.terms]}
        if self.equations:
            out["equations"] = [[to_sexpr(a), to_sexpr(b)] for a, b in self.equations]
        return out


# ---------------------------------------------------------------------------
# bounded forward chaining for rule presentations


def _match(pattern: Term, term: Term, binding: dict[str, Term]) -> Optional[dict[str, Term]]:
    if isinstance(pattern, Var):
        bound = binding.get(pattern.name)
        if bound is None:
            out = dict(binding)
            out[pattern.name] = term
            return out
        return binding if bound == term else None
    if not isinstance(term, App) or term.sym != pattern.sym or len(term.args) != len(pattern.args):
        return None
    for p, t in zip(pattern.args, term.args):
        binding = _match(p, t, binding)
        if binding is None:
            return None
    return binding


def _occurrence_depths(t: Term, at: int = 0, acc: Optional[dict[str, int]] = None) -> dict[str, int]:
    """Deepest occurrence of each variable, measured from the root."""
    if acc is None:
        acc = {}
    if isinstance(t, Var):
        acc[t.name] = max(acc.get(t.name, 0), at)
    else:
        for a in t.args:
            _occurrence_depths(a, at + 1, acc)
    return acc


def _depth_prefixes(sig: Signature, pool: Sequence[str], cap: int) -> list[list[Term]]:
    """prefixes[d] lists every pool term of depth <= d, sharing one stream."""
    ordered = list(enumerate_terms(sig, pool, cap))
    prefixes: list[list[Term]] = []
    for d in range(cap + 1):
        prefixes.append([t for t in ordered if depth(t) <= d])
    return prefixes


def _axiom_instances(rule: Rule, prefixes: list[list[Term]], cap: int) -> Iterable[Term]:
    occ = _occurrence_depths(rule.conclusion)
    names = sorted(occ)
    choices = [prefixes[max(cap - occ[v], 0)] for v in names]
    for images in itertools.product(*choices):
        t = substitute(rule.conclusion, dict(zip(names, images)))
        if depth(t) <= cap:
            yield t


def derive_theorems(
    logic: LogicPresentation,
    pool: Sequence[str] = ("x", "y"),
    depth_cap: int = DEFAULTS.depth_default,
) -> frozenset[Term]:
    """Theorems of a rule presentation among terms of bounded depth over a
    fixed pool, by saturation. Sound; complete only relative to the caps
    (derivations that pass through deeper terms are missed)."""
    if logic.kind != RULES:
        raise ValueError("forward chaining needs a rule presentation")
    prefixes = _depth_prefixes(logic.signature, pool, _axiom_pool_depth(logic, depth_cap))
    derived: set[Term] = set()
    for rule in logic.rules:
        if not rule.premises:
            derived.update(_axiom_instances(rule, prefixes, depth_cap))
    proper = [r for r in logic.rules if r.premises]
    changed = True
    while changed:
        changed = False
        for rule in proper:
            fresh: set[Term] = set()
            for binding in _premise_matches(rule, derived):
                free = sorted(variables(rule.conclusion) - set(binding))
                for images in itertools.product(
                    [Var(v) for v in pool], repeat=len(free)
                ):
                    full = dict(binding)
                    full.update(zip(free, images))
                    t = substitute(rule.conclusion, full)
                    if depth(t) <= depth_cap and t not in derived and t not in fresh:
                        fresh.add(t)
            if fresh:
                derived.update(fresh)
                changed = True
    return frozenset(derived)


def _axiom_pool_depth(logic: LogicPresentation, cap: int) -> int:
    """Deepest substitution image any axiom instantiation can use."""
    needed = 0
    for rule in logic.rules:
        if rule.premises:
            continue
        occ = _occurrence_depths(rule.conclusion)
        for k in occ.values():
            needed = max(needed, cap - k)
    return max(needed, 0)


def _premise_matches(rule: Rule, pool: set[Term]) -> Iterable[dict[str, Term]]:
    # structured premises first: they bind variables fastest; patterns are
    # matched unsubstituted so object variables inside bindings stay inert
    premises = sorted(rule.premises, key=lambda p: (isinstance(p, Var), to_sexpr(p)))

    def rec(i: int, binding: dict[str, Term]) -> Iterable[dict[str, Term]]:
        if i == len(premises):
            yield binding
            return
        p = premises[i]
        if variables(p) <= set(binding):
            if substitute(p, binding) in pool:
                yield from rec(i + 1, binding)
            return
        for t in pool:
            nxt = _match(p, t, binding)
            if nxt is not None:
                yield from rec(i + 1, nxt)

    yield from rec(0, dict())


def chain_entails(
    logic: LogicPresentation,
    gamma: Iterable[Term],
    phi: Term,
    pool: Sequence[str] = ("x", "y"),
    depth_cap: int = DEFAULTS.depth_default,
) -> bool:
    """Bounded forward chaining from `gamma`; True means derivable."""
    if logic.kind != RULES:
        raise ValueError("forward chaining needs a rule presentation")
    prefixes = _depth_prefixes(logic.signature, pool, _axiom_pool_depth(logic, depth_cap))
    derived: set[Term] = set(gamma)
    for rule in logic.rules:
        if not rule.premises:
            derived.update(_axiom_instances(rule, prefixes, depth_cap))
    if phi in derived:
        return True
    proper = [r for r in logic.rules if r.premises]
    changed = True
    while changed:
        changed = False
        for rule in proper:
            fresh: set[Term] = set()
            for binding in _premise_matches(rule, derived):
                if variables(rule.conclusion) - set(binding):
                    continue
                t = substitute(rule.conclusion, binding)
                if depth(t) <= depth_cap + 1 and t not in derived and t not in fresh:
                    if t == phi:
                        return True
                    fresh.add(t)
            if fresh:
                derived.update(fresh)
                changed = True
    return phi in derived


# ---------------------------------------------------------------------------
# consequence plumbing shared by the checks


def consequence_presentation(
    logic: LogicPresentation,
    inventory: Optional[Sequence[FiniteAlgebra]],
    depth_cap: int,
) -> LogicPresentation:
    """Matrix presentation deciding consequence for `logic`.

    Matrix presentations decide themselves; rule presentations are replaced
    by their reduced models over the inventory, making every downstream
    verdict bounded by that inventory.
    """
    if logic.kind == MATRICES:
        return logic
    if inventory is None:
        raise ValueError("a rule presentation needs an inventory to decide consequence")
    return models_presentation(logic, inventory, depth_cap=depth_cap)


def standard_bounds(
    logic: LogicPresentation,
    inventory: Optional[Sequence[FiniteAlgebra]],
    depth_cap: int,
    **extra,
) -> dict:
    out = {
        "filter_notion": filter_notion(logic),
        "variable_budget": logic.variable_budget,
        "depth": depth_cap,
    }
    if inventory is not None:
        out["inventory"] = inventory_fingerprint(list(inventory))
    out.update(extra)
    return out


def theorem_search(
    logic: LogicPresentation,
    depth_cap: int = DEFAULTS.depth_default,
    pool: Sequence[str] = ("x",),
) -> Optional[Term]:
    """First depth-bounded theorem in enumeration order, if any."""
    if logic.kind == RULES:
        theorems = derive_theorems(logic, pool, depth_cap)
        for t in enumerate_terms(logic.signature, pool, depth_cap):
            if t in theorems:
                return t
        return None
    for t in enumerate_terms(logic.signature, pool, depth_cap):
        if entails(logic, (), t):
            return t
    return None


# ---------------------------------------------------------------------------
# protoalgebraicity


def verify_protoalgebraic_witness(
    consequence: LogicPresentation, terms: Sequence[Term]
) -> bool:
    """Both defining conditions, decided by the given matrix presentation:
    every member holds diagonally with no premises, and together with x the
    set yields y."""
    if not terms:
        return False
    diag = [substitute(t, {"y": X}) for t in terms]
    if not all(entails(consequence, (), d) for d in diag):
        return False
    return entails(consequence, (X, *terms), Y)


def find_protoalgebraic_witness(
    logic: LogicPresentation,
    depth: int = 2,
    max_set: int = 2,
    inventory: Optional[Sequence[FiniteAlgebra]] = None,
    depth_cap: int = DEFAULTS.depth_default,
) -> Optional[WitnessSet]:
    """Search for a set of terms in x, y certifying protoalgebraicity.

    Singletons first, then larger sets, in enumeration order; the first hit
    is returned. Absence within the bounds is not a disproof.
    """
    consequence = consequence_presentation(logic, inventory, depth_cap)
    candidates = [
        t for t in enumerate_terms(logic.signature, ("x", "y"), depth)
    ]
    for size in range(1, max_set + 1):
        for combo in itertools.combinations(candidates, size):
            if verify_protoalgebraic_witness(consequence, combo):
                return WitnessSet("protoalgebraic", tuple(combo))
    return None


def congruence_formulas_with_params(
    nabla: WitnessSet,
    sig: Signature,
    depth: int = 2,
    params: Sequence[str] = ("z1",),
) -> list[Term]:
    """All instances phi(psi(x, zs), psi(y, zs)) with phi in the witness set
    and psi ranging over bounded-depth terms in x and the parameters."""
    if nabla.kind != "protoalgebraic":
        raise ValueError("need a protoalgebraic witness set")
    psis = list(enumerate_terms(sig, ("x", *params), depth))
    out: list[Term] = []
    seen: set[Term] = set()
    for phi in nabla.terms:
        for psi in psis:
            inst = substitute(phi, {"x": psi, "y": substitute(psi, {"x": Y})})
            if inst not in seen:
                seen.add(inst)
                out.append(inst)
    return out


def monotonicity_probe_on_filters(
    alg: FiniteAlgebra, filters: Sequence[Sequence[int]], **bounds
) -> Verdict:
    """Compare Leibniz congruences along inclusions within a given filter list."""
    filt = sorted(tuple(sorted(set(f))) for f in filters)
    omegas = {f: leibniz_congruence(Matrix(alg, f)) for f in filt}
    for small, large in itertools.product(filt, repeat=2):
        if small == large or not set(small) <= set(large):
            continue
        if not omegas[small].refines(omegas[large]):
            return fails(
                {"algebra": alg, "filter_small": small, "filter_large": large,
                 "omega_small": omegas[small], "omega_large": omegas[large]},
                **bounds,
            )
    return holds(**bounds)


def leibniz_monotonicity_probe(
    logic: LogicPresentation,
    inventory: Sequence[FiniteAlgebra],
    depth_cap: int = DEFAULTS.depth_default,
    oracle_max: int = DEFAULTS.oracle_max,
) -> Verdict:
    """Fails when some inventory algebra carries filters F within G whose
    Leibniz congruences are not ordered by refinement; a necessary condition
    for protoalgebraicity, so a failure is conclusive."""
    bounds = standard_bounds(logic, inventory, depth_cap)
    out = holds(**bounds)
    for alg in sorted(inventory, key=lambda a: a.sort_key()):
        filters = deductive_filters(logic, alg, depth_cap=depth_cap, oracle_max=oracle_max)
        verdict = monotonicity_probe_on_filters(alg, filters, **bounds)
        if verdict.fails:
            return verdict
    return out


# ---------------------------------------------------------------------------
# class checks


def check_class(
    class_name: str,
    logic: LogicPresentation,
    inventory: Sequence[FiniteAlgebra],
    depth: int = DEFAULTS.depth_default,
    max_set: int = 2,
    family_size_cap: int = 5,
    oracle_max: int = DEFAULTS.oracle_max,
) -> Verdict:
    """Bounded, inventory-relative test for one hierarchy class."""
    if class_name not in CLASS_NAMES:
        raise UnknownName(f"unknown class {class_name!r}; choose from {CLASS_NAMES}")
    inv = sorted(inventory, key=lambda a: a.sort_key())
    bounds = standard_bounds(logic, inv, depth)
    reduced = {
        alg: reduced_filters_on(logic, alg, depth_cap=depth, oracle_max=oracle_max)
        for alg in inv
    }

    if class_name == "has_theorems":
        t = theorem_search(logic, depth)
        return holds(t, **bounds) if t is not None else unknown(**bounds)

    if class_name == "assertional":
        for alg in inv:
            for m in reduced[alg]:
                if len(m.filter) != 1:
                    return fails({"reason": "non-singleton reduced filter", "model": m}, **bounds)
        t = theorem_search(logic, depth)
        if t is None:
            return unknown(**bounds)
        return holds(t, **bounds)

    if class_name == "truth_equational":
        # uniqueness of the nonempty reduced truth set per algebra
        for alg in inv:
            nonempty = [m for m in reduced[alg] if m.filter]
            if len(nonempty) >= 2:
                return fails(
                    {"reason": "two reduced filters on one algebra",
                     "algebra": alg,
                     "filters": (nonempty[0].filter, nonempty[1].filter)},
                    **bounds,
                )
        return holds(**bounds)

    if class_name == "truth_minimal":
        for alg in inv:
            mats = reduced[alg]
            for small, large in itertools.product(mats, repeat=2):
                if (
                    small.filter
                    and small.filter != large.filter
                    and set(small.filter) < set(large.filter)
                ):
                    return fails(
                        {"reason": "reduced filter properly inside another",
                         "algebra": alg, "filters": (small.filter, large.filter)},
                        **bounds,
                    )
        return holds(**bounds)

    if class_name == "param_truth_equational":
        skipped = [a for a in inv if a.size > family_size_cap]
        for alg in inv:
            if alg.size > family_size_cap:
                continue
            filters = [
                f
                for f in deductive_filters(logic, alg, depth_cap=depth, oracle_max=oracle_max)
                if f
            ]
            omegas = {f: leibniz_congruence(Matrix(alg, f)) for f in filters}
            for f in filters:
                omega_f = omegas[f]
                for k in range(1, len(filters) + 1):
                    for family in itertools.combinations(filters, k):
                        meet = Partition.total(alg.size)
                        for g in family:
                            meet = meet.meet(omegas[g])
                        if not meet.refines(omega_f):
                            continue
                        common = set(range(alg.size))
                        for g in family:
                            common &= set(g)
                        if not common <= set(f):
                            return fails(
                                {"reason": "family congruences meet below the filter's "
                                           "congruence but the intersection escapes it",
                                 "family": FilterFamily(alg, family),
                                 "filter": f},
                                **bounds,
                            )
        if skipped:
            return holds(**dict(bounds, skipped_algebras=len(skipped)))
        return holds(**bounds)

    if class_name == "equivalential":
        witness = find_protoalgebraic_witness(
            logic, depth=depth, max_set=max_set, inventory=inv, depth_cap=depth
        )
        if witness is None:
            return unknown(**bounds)
        for alg in inv:
            for m in reduced[alg]:
                for sub in submatrices(m):
                    others = reduced_filters_on(logic, sub.algebra, depth_cap=depth)
                    if sub not in others:
                        return fails(
                            {"reason": "submatrix of a reduced model is not reduced",
                             "model": m, "submatrix": sub, "witness": witness},
                            **bounds,
                        )
        return holds(witness, **bounds)

    raise UnknownName(class_name)


# ---------------------------------------------------------------------------
# injective theorems, order-algebraizability witnesses, admissibility


def find_injective_theorem(
    logic: LogicPresentation,
    inventory: Sequence[FiniteAlgebra],
    depth: int = 2,
    depth_cap: int = DEFAULTS.depth_default,
) -> Optional[Term]:
    """First depth-bounded theorem in x whose term function is injective on
    every reduced inventory model."""
    inv = sorted(inventory, key=lambda a: a.sort_key())
    models = [m for alg in inv for m in reduced_filters_on(logic, alg, depth_cap=depth_cap)]
    if logic.kind == RULES:
        theorems = derive_theorems(logic, ("x",), max(depth, depth_cap))
        is_theorem: Callable[[Term], bool] = lambda t: t in theorems
    else:
        is_theorem = lambda t: entails(logic, (), t)
    for t in enumerate_terms(logic.signature, ("x",), depth):
        if not is_theorem(t):
            continue
        if all(_injective_on(m.algebra, t) for m in models):
            return t
    return None


def _injective_on(alg: FiniteAlgebra, t: Term) -> bool:
    values = [eval_term(alg, t, {"x": a}) for a in range(alg.size)]
    return len(set(values)) == alg.size


def verify_order_alg_witness(
    logic: LogicPresentation,
    delta: Sequence[Term],
    inequalities: Sequence[tuple[Term, Term]],
    inventory: Sequence[FiniteAlgebra],
    depth_cap: int = DEFAULTS.depth_default,
) -> Verdict:
    """Check that the delta-induced relation is a partial order on every
    reduced inventory model and that filter membership matches the
    inequalities under that order."""
    inv = sorted(inventory, key=lambda a: a.sort_key())
    bounds = standard_bounds(logic, inv, depth_cap)
    for alg in inv:
        for m in reduced_filters_on(logic, alg, depth_cap=depth_cap):
            des = m.filter_set()
            n = alg.size
            rel = [
                [
                    all(eval_term(alg, d, {"x": a, "y": b}) in des for d in delta)
                    for b in range(n)
                ]
                for a in range(n)
            ]
            for a in range(n):
                if not rel[a][a]:
                    return fails({"reason": "not reflexive", "model": m, "pair": (a, a)}, **bounds)
            for a, b in itertools.product(range(n), repeat=2):
                if rel[a][b] and rel[b][a] and a != b:
                    return fails({"reason": "not antisymmetric", "model": m, "pair": (a, b)}, **bounds)
            for a, b, c in itertools.product(range(n), repeat=3):
                if rel[a][b] and rel[b][c] and not rel[a][c]:
                    return fails({"reason": "not transitive", "model": m, "pair": (a, c)}, **bounds)
            for a in range(n):
                sat = all(
                    rel[eval_term(alg, lhs, {"x": a})][eval_term(alg, rhs, {"x": a})]
                    for lhs, rhs in inequalities
                )
                if sat != (a in des):
                    return fails(
                        {"reason": "membership disagrees with the inequalities",
                         "model": m, "element": a},
                        **bounds,
                    )
    return holds(**bounds)


def check_admissibility_bounded(
    logic: LogicPresentation,
    rule: Rule,
    subst_depth: int = 2,
    theorem_oracle: Optional[Callable[[Term], bool]] = None,
    pool: Sequence[str] = ("x", "y", "z1"),
    chain_depth: int = 4,
) -> Verdict:
    """For every substitution of bounded depth: if all premise instances are
    theorems, the conclusion instance must be one. Fails carries the
    substitution. Theoremhood comes from the supplied oracle or, for rule
    presentations, bounded forward chaining."""
    if theorem_oracle is None:
        if logic.kind != RULES:
            raise ValueError("need a theorem oracle or a rule presentation")
        theorems = derive_theorems(logic, pool, chain_depth)
        theorem_oracle = lambda t: t in theorems
    bounds = {
        "subst_depth": subst_depth,
        "variable_budget": logic.variable_budget,
        "filter_notion": filter_notion(logic),
    }
    rule_vars = sorted(rule.variables())
    pool_terms = list(enumerate_terms(logic.signature, pool, subst_depth))
    # Each premise is checked once, on the level that binds its last
    # variable: schedule[i] lists, in premise order, the premises whose
    # variables lie in rule_vars[:i] and in no shorter prefix.
    level_of = {v: i + 1 for i, v in enumerate(rule_vars)}
    schedule: list[list[Term]] = [[] for _ in range(len(rule_vars) + 1)]
    for p in rule.premises:
        schedule[max((level_of[v] for v in variables(p)), default=0)].append(p)

    def rec(i: int, binding: dict[str, Term]) -> Optional[dict[str, Term]]:
        for p in schedule[i]:
            if not theorem_oracle(substitute(p, binding)):
                return None
        if i == len(rule_vars):
            conclusion = substitute(rule.conclusion, binding)
            if not theorem_oracle(conclusion):
                return dict(binding)
            return None
        var = rule_vars[i]
        for t in pool_terms:
            binding[var] = t
            found = rec(i + 1, binding)
            if found is not None:
                return found
        binding.pop(var, None)
        return None

    witness = rec(0, {})
    if witness is None:
        return holds(**bounds)
    return fails(
        {"reason": "every premise instance is a theorem but the conclusion instance is not",
         "substitution": {v: to_sexpr(t) for v, t in sorted(witness.items())},
         "rule": rule},
        **bounds,
    )


def nabla_theorem_oracle(t: Term) -> bool:
    """Exact theorem test for the two-rule implication logic: a term is a
    theorem iff it is an implication with equal sides."""
    return isinstance(t, App) and t.sym == "→" and len(t.args) == 2 and t.args[0] == t.args[1]
