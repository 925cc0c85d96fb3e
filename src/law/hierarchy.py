"""Bounded membership checks and witness searches for Leibniz-style classes.

Every check here is inventory-relative and three-valued. A missing witness
inside the search bounds is reported as unknown, never as a refutation; a
Fails verdict always carries a finite witness that re-verifies. Reduced
models over a finite inventory stand in for the class of all reduced models,
and every verdict records that through its bounds. Every check and search
takes one `Config` and runs its filter sweeps, consequence matrices and term
classes under that config's caps; a search's own `depth` is its argument.

`theorem_search` and `find_injective_theorem` read one stream of theorems
in x (`_theorems`), each with a reader of its values on an algebra. The
witness searches over matrices (theorems and injective theorems of a
matrix presentation, protoalgebraic sets of any presentation through its
consequence matrices) read one stream of term classes from
`clone.term_classes`, the closure of their algebras over x (n = 1), or x
and y (n = 2), that every search and filter sweep over those algebras
shares: terms with equal values in every matrix are interchangeable in
entailment, and each class stands for its first term, so the first class
that qualifies gives the same term as a search over terms. A class is
decided by its designation mask, never by evaluating a term. The stream
grows only as far as a search reads; when the closure cell budget stops it
short of the search depth before a hit, the search raises CapExceeded,
also on a closure that another reader has already grown further. Both
searches check that x and y are not symbols before they read a class. A
rule presentation's theorems come from forward chaining, which is
syntactic, so its theorem searches test the enumerated terms.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .algebra import FiniteAlgebra, distinct, term_values
from .clone import term_classes
from .config import DEFAULTS, Config
from .errors import CapExceeded, Frozen, SignatureMismatch, UnknownName
from .logics import (
    FilterFamily,
    FilterLattice,
    LogicPresentation,
    MATRICES,
    RULES,
    Rule,
    entails,
    filter_lattice,
    filter_notion,
    matrices_logic,
    reduced_models,
)
from .matrices import Matrix, submatrices
from .serialize import inventory_fingerprint
from .terms import (App, Signature, Term, Var, check_term, depth, enumerate_terms, substitute,
                    to_sexpr, variables)
from .verdicts import Verdict, fails, holds, unknown

X, Y = Var("x"), Var("y")

CLASS_NAMES = (
    "assertional",
    "truth_equational",
    "truth_minimal",
    "param_truth_equational",
    "protoalgebraic",
    "equivalential",
    "has_theorems",
)


class WitnessSet(Frozen):
    """A named bundle of terms (and optionally equations) certifying a class."""

    __slots__ = _fields = ("kind", "terms", "equations")

    def __init__(self, kind: str, terms: tuple[Term, ...] = (),
                 equations: tuple[tuple[Term, Term], ...] = ()):
        self._assign(kind, terms, equations)

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


def _axiom_instances(rule: Rule, sig: Signature, pool: Sequence[str], cap: int) -> Iterable[Term]:
    """The instances of an axiom of depth <= `cap` over pool terms: each
    variable ranges over the pool terms that fit below its deepest
    occurrence."""
    occ = _occurrence_depths(rule.conclusion)
    names = sorted(occ)
    choices = [enumerate_terms(sig, pool, max(cap - occ[v], 0)) for v in names]
    for images in itertools.product(*choices):
        t = substitute(rule.conclusion, dict(zip(names, images)))
        if depth(t) <= cap:
            yield t


def _saturate(
    logic: LogicPresentation,
    gamma: Iterable[Term],
    pool: Sequence[str],
    cap: int,
    goal: Optional[Term] = None,
) -> set[Term]:
    """`gamma` and every term of depth <= `cap` derivable from it through
    such terms (see `chain_entails`). Stops once `goal` is derived."""
    if logic.kind != RULES:
        raise ValueError("forward chaining needs a rule presentation")
    derived: set[Term] = set(gamma)
    for rule in logic.rules:
        if not rule.premises:
            derived.update(_axiom_instances(rule, logic.signature, pool, cap))
    if goal in derived:
        return derived
    proper = [r for r in logic.rules if r.premises]
    changed = True
    while changed:
        changed = False
        for rule in proper:
            fresh: set[Term] = set()
            needed = variables(rule.conclusion)
            for binding in _premise_matches(rule, derived):
                if binding.keys() >= needed:
                    bindings = (binding,)
                else:
                    names = sorted(needed - binding.keys())
                    bindings = [
                        {**binding, **dict(zip(names, images))}
                        for images in itertools.product(map(Var, pool), repeat=len(names))
                    ]
                for full in bindings:
                    t = substitute(rule.conclusion, full)
                    if depth(t) <= cap and t not in derived and t not in fresh:
                        if t == goal:
                            derived.add(t)
                            return derived
                        fresh.add(t)
            if fresh:
                derived.update(fresh)
                changed = True
    return derived


def derive_theorems(
    logic: LogicPresentation,
    pool: Sequence[str] = ("x", "y"),
    depth_cap: int = DEFAULTS.depth_default,
) -> frozenset[Term]:
    """Theorems of a rule presentation among terms of bounded depth over a
    fixed pool, by saturation. Sound; complete only relative to the caps
    (derivations that pass through deeper terms are missed)."""
    return frozenset(_saturate(logic, (), pool, depth_cap))


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
    """Bounded forward chaining from `gamma`; True means derivable.

    The saturation of `derive_theorems`, under the same caps: axioms are
    instantiated with pool terms, every derived term has depth <=
    `depth_cap`, and conclusion variables that no premise binds range over
    `pool`. So with no premises it agrees with ``phi in derive_theorems(logic,
    pool, depth_cap)``. False is not a refutation: derivations that pass
    through deeper terms are missed.
    """
    return phi in _saturate(logic, gamma, pool, depth_cap, goal=phi)


# ---------------------------------------------------------------------------
# consequence plumbing shared by the checks


def consequence_presentation(
    logic: LogicPresentation,
    inventory: Optional[Sequence[FiniteAlgebra]],
    config: Config = DEFAULTS,
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
    mats = reduced_models(logic, inventory, config)
    if not mats:
        raise ValueError("inventory produced no reduced models")
    return matrices_logic(mats, name=f"reduced models of {logic.name or logic.kind}",
                          variable_budget=logic.variable_budget)


def standard_bounds(logic: LogicPresentation, inventory: Sequence[FiniteAlgebra],
                    depth: int) -> dict:
    return {
        "filter_notion": filter_notion(logic),
        "variable_budget": logic.variable_budget,
        "depth": depth,
        "inventory": inventory_fingerprint(inventory),
    }


def _theorems(
    logic: LogicPresentation,
    depth: int,
    chain_cap: int,
    config: Config,
    algebras: Iterable[FiniteAlgebra] = (),
) -> Iterator[tuple[Term, Callable[[FiniteAlgebra], Sequence[int]]]]:
    """The theorems in x of depth <= `depth`, in enumeration order, each with
    a reader of its values on an algebra at every value of x. A rule
    presentation's are the enumerated terms among its theorems by saturation
    up to depth `chain_cap`, read by evaluation on any algebra; a matrix
    presentation's are the term classes designated in every matrix column,
    read off the closure on a defining algebra or one of `algebras`."""
    check_term(logic.signature, X)
    if logic.kind == RULES:
        theorems = derive_theorems(logic, ("x",), chain_cap)
        return ((t, functools.partial(term_values, t=t, variables=("x",)))
                for t in enumerate_terms(logic.signature, ("x",), depth) if t in theorems)
    closure = term_classes(logic.signature,
                           frozenset(m.algebra for m in logic.matrices).union(algebras), 1)
    return ((closure.term(i, ("x",)), functools.partial(closure.values, i))
            for i in closure.theorems(logic.matrices, depth, config.closure_cell_budget))


def theorem_search(
    logic: LogicPresentation,
    depth: int = DEFAULTS.depth_default,
    config: Config = DEFAULTS,
) -> Optional[Term]:
    """First theorem in x of depth <= `depth`, in enumeration order, if any:
    by saturation up to depth `depth` for a rule presentation, else the first
    term class designated in every matrix column."""
    return next((t for t, _ in _theorems(logic, depth, depth, config)), None)


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
    config: Config = DEFAULTS,
) -> Optional[WitnessSet]:
    """Search for a set of terms in x, y certifying protoalgebraicity.

    The candidates are the classes of terms of depth <= `depth` over the
    consequence matrices, each standing for its first term. A set qualifies
    when each member's diagonal is designated at every column, and no column
    designates x and every member but not y: the two conditions of
    `verify_protoalgebraic_witness`, read off designation masks. Singletons
    first, growing the classes only as far as needed, then larger sets in
    combination order; the first hit is the first hit of the same search
    over terms. Absence within the bounds is not a disproof.
    """
    consequence = consequence_presentation(logic, inventory, config)
    if consequence.variable_budget < 2:
        raise CapExceeded(f"2 variables exceed the budget {consequence.variable_budget}")
    for v in (X, Y):
        check_term(logic.signature, v)
    mats = consequence.matrices
    closure = term_classes(logic.signature, frozenset(m.algebra for m in mats), 2)
    mask = closure.designation(mats)
    diagonal = closure.lanes(mats, lambda d, col: col[0] == col[1])
    escape = closure.lanes(mats, lambda d, col: col[0] in d and col[1] not in d)
    members = []  # (class, mask) of every class with a designated diagonal
    for i in closure.classes(depth, config.closure_cell_budget):
        m = mask(i)
        if m & diagonal == diagonal:
            if not escape & m:
                return WitnessSet("protoalgebraic", (closure.term(i, ("x", "y")),))
            members.append((i, m))
    for size in range(2, max_set + 1):
        for combo in itertools.combinations(members, size):
            if not functools.reduce(operator.and_, (m for _, m in combo), escape):
                return WitnessSet("protoalgebraic",
                                  tuple(closure.term(i, ("x", "y")) for i, _ in combo))
    return None


def monotonicity_probe_on_filters(alg: FiniteAlgebra, filters: Sequence[Sequence[int]]) -> Verdict:
    """Compare Leibniz congruences along inclusions within a given filter list."""
    filt = tuple(tuple(sorted(set(f))) for f in filters)
    return _monotonicity_probe([FilterLattice(alg, filt)], {})


def _monotonicity_probe(lattices: Iterable[FilterLattice], bounds: dict) -> Verdict:
    """Fails at the first lattice, in order, with filters F within G whose
    Leibniz congruences are not ordered by refinement; reads each lattice
    only once the ones before it hold."""
    for lattice in lattices:
        filt = sorted(lattice.filters)
        for small, large in itertools.product(filt, repeat=2):
            if small == large or not set(small) <= set(large):
                continue
            omega_small, omega_large = lattice.omega(small), lattice.omega(large)
            if not omega_small.refines(omega_large):
                return fails(
                    {"algebra": lattice.algebra, "filter_small": small, "filter_large": large,
                     "omega_small": omega_small, "omega_large": omega_large},
                    **bounds,
                )
    return holds(**bounds)


def leibniz_monotonicity_probe(
    logic: LogicPresentation,
    inventory: Sequence[FiniteAlgebra],
    config: Config = DEFAULTS,
) -> Verdict:
    """Fails when some inventory algebra carries filters F within G whose
    Leibniz congruences are not ordered by refinement; a necessary condition
    for protoalgebraicity, so a failure on exact filters is conclusive."""
    caps = config.caps()
    inv = distinct(inventory)
    return _monotonicity_probe((filter_lattice(logic, alg, **caps) for alg in inv),
                               standard_bounds(logic, inv, config.depth_default))


# ---------------------------------------------------------------------------
# class checks


def check_class(
    class_name: str,
    logic: LogicPresentation,
    inventory: Sequence[FiniteAlgebra],
    max_set: int = 2,
    config: Config = DEFAULTS,
) -> Verdict:
    """Bounded, inventory-relative test for one hierarchy class, at the
    config's default depth."""
    if class_name not in CLASS_NAMES:
        raise UnknownName(f"unknown class {class_name!r}; choose from {CLASS_NAMES}")
    inv = distinct(inventory)
    depth = config.depth_default
    bounds = standard_bounds(logic, inv, depth)
    caps = config.caps()
    if any(alg.signature != logic.signature for alg in inv):
        raise SignatureMismatch("algebra signature differs from the logic's")

    if class_name == "assertional":
        for alg in inv:
            for f in filter_lattice(logic, alg, **caps).reduced():
                if len(f) != 1:
                    return fails({"reason": "non-singleton reduced filter",
                                  "model": Matrix(alg, f)}, **bounds)
    if class_name in ("assertional", "has_theorems"):
        t = theorem_search(logic, depth, config)
        return holds(t, **bounds) if t is not None else unknown(**bounds)

    if class_name == "param_truth_equational":
        # Fails iff the Suszko congruence of {a} refines Ω(f) for a nonempty
        # filter f and some a outside it: a family whose intersection escapes
        # f lies inside G_a, the filters holding a, which has the finest meet
        # of them. The witness is G_a made minimal: from the last member
        # back, each is dropped if the meet of the rest still refines Ω(f).
        for alg in inv:
            lattice = filter_lattice(logic, alg, **caps)
            above = [lattice.suszko((a,)) for a in range(alg.size)]
            for f in filter(None, lattice.filters):
                omega_f = lattice.omega(f)
                for a in range(alg.size):
                    if a in f or not above[a].refines(omega_f):
                        continue
                    family = [g for g in lattice.filters if a in g]
                    for g in family[::-1]:
                        rest = [h for h in family if h != g]
                        if rest and lattice.meet(rest).refines(omega_f):
                            family = rest
                    return fails(
                        {"reason": "family congruences meet below the filter's "
                                   "congruence but the intersection escapes it",
                         "family": FilterFamily(alg, family),
                         "filter": f},
                        **bounds,
                    )
        return holds(**bounds)

    if class_name in ("protoalgebraic", "equivalential"):
        # equivalential is protoalgebraic plus the submatrix loop below
        bounds["max_set"] = max_set
        if logic.kind == RULES:
            # protoalgebraic iff Ω is monotone on the filters (Blok and
            # Pigozzi); only exact filters make a non-monotone pair conclusive
            probe = _monotonicity_probe((filter_lattice(logic, alg, **caps) for alg in inv), bounds)
            if probe.fails:
                return probe
        witness = find_protoalgebraic_witness(logic, depth, max_set, inv, config)
        if witness is None:
            return unknown(**bounds)
        if class_name == "protoalgebraic":
            return holds(witness, **bounds)
        for alg in inv:
            for f in filter_lattice(logic, alg, **caps).reduced():
                m = Matrix(alg, f)
                for sub in submatrices(m, cap=config.oracle_max + 2):
                    if sub.filter not in filter_lattice(logic, sub.algebra, **caps).reduced():
                        return fails(
                            {"reason": "submatrix of a reduced model is not reduced",
                             "model": m, "submatrix": sub, "witness": witness},
                            **bounds,
                        )
        return holds(witness, **bounds)

    # truth_equational and truth_minimal compare the reduced filters on each algebra
    for alg in inv:
        filters = filter_lattice(logic, alg, **caps).reduced()
        if class_name == "truth_equational":
            # uniqueness of the nonempty reduced truth set per algebra
            nonempty = [f for f in filters if f]
            if len(nonempty) >= 2:
                return fails(
                    {"reason": "two reduced filters on one algebra",
                     "algebra": alg, "filters": tuple(nonempty[:2])},
                    **bounds,
                )
            continue
        for small, large in itertools.product(filters, repeat=2):
            if small and set(small) < set(large):
                return fails(
                    {"reason": "reduced filter properly inside another",
                     "algebra": alg, "filters": (small, large)},
                    **bounds,
                )
    return holds(**bounds)


# ---------------------------------------------------------------------------
# injective theorems, admissibility


def find_injective_theorem(
    logic: LogicPresentation,
    inventory: Sequence[FiniteAlgebra],
    depth: int = 2,
    config: Config = DEFAULTS,
) -> Optional[Term]:
    """First depth-bounded theorem in x whose term function is injective on
    every reduced inventory model: for a matrix presentation, the first
    theorem class whose slice on each model's algebra has no repeated
    value."""
    algs = distinct(m.algebra for m in reduced_models(logic, inventory, config))
    return next((t for t, values in _theorems(logic, depth, max(depth, config.depth_default),
                                              config, algs)
                 if all(len(set(values(a))) == a.size for a in algs)), None)


def check_admissibility_bounded(
    logic: LogicPresentation,
    rule: Rule,
    subst_depth: int = 2,
    theorem_oracle: Optional[Callable[[Term], bool]] = None,
) -> Verdict:
    """For every substitution of bounded depth: if all premise instances are
    theorems, the conclusion instance must be one. Fails carries the
    substitution. Theoremhood comes from the supplied oracle or, for rule
    presentations, forward chaining to depth 4 over the substitutions' pool."""
    pool = ("x", "y", "z1")  # the variables of the substituted terms
    if theorem_oracle is None:
        if logic.kind != RULES:
            raise ValueError("need a theorem oracle or a rule presentation")
        theorems = derive_theorems(logic, pool, 4)
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
