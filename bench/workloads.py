"""The benchmark's workloads: seeded job lists with independent output checks.

Every workload is a closed loop with one client: the runner calls one job,
waits for it, checks its output, then calls the next. `setup` builds the job
list from the seed (gallery builds, input generation, input-file writing);
the runner times only the jobs. Jobs call law through module attributes, so
the wrappers a traced run installs see them. Why each workload exists, and
which input properties vary across them, is in NOTES.md.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

import law.algebra as algebra
import law.gallery as gallery
import law.hierarchy as hierarchy
import law.logics as logics
import law.matrices as matrices
import law.serialize as serialize
import law.terms as terms
import law.translations as translations
from law.algebra import FiniteAlgebra
from law.logics import Rule
from law.matrices import Matrix
from law.partitions import Partition
from law.terms import App, Signature, Var

# Reference implementations are taken before any tracing wrapper is
# installed, so checking outputs adds nothing to the traced layers.
NABLA_ORACLE = hierarchy.nabla_theorem_oracle
TERM_DEPTH = terms.depth
TO_SEXPR = terms.to_sexpr
ENUMERATE_TERMS = terms.enumerate_terms
CONGRUENCES_BRUTEFORCE = algebra.congruences_bruteforce

X, Y = Var("x"), Var("y")
IMP = Signature({"→": 2})
POINTED = Signature({"⊤": 1})
BOOL = Signature({"and": 2, "or": 2, "not": 1})


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]


def expect(got, want, what: str) -> Optional[str]:
    return None if got == want else f"{what}: got {got!r}, want {want!r}"


def first_problem(*problems: Optional[str]) -> Optional[str]:
    return next((p for p in problems if p), None)


# ---------------------------------------------------------------------------
# syntax: criteria 3, 4, 10 and 11


SYNTAX_SIZES = {
    # enumeration depth, terms enumerated, theorems among them, admissibility
    # substitution depth, depth of the chain_entails query terms, queries
    "full": dict(enum_depth=4, enum_terms=2090918, enum_theorems=1446,
                 subst_depth=2, query_depth=3, queries=1446, derive_depths=(2, 3, 4)),
    "tiny": dict(enum_depth=3, enum_terms=1446, enum_theorems=38,
                 subst_depth=1, query_depth=2, queries=38, derive_depths=(2, 3)),
}

# Theorems derive_theorems finds over {x, y}, by gallery logic and depth.
# basic-equiv stops at depth 3: depth 4 takes 43 s (a known cliff, NOTES.md).
DERIVED_THEOREMS = {
    "basic-assertional": {2: 4, 3: 6, 4: 8},
    "basic-proto": {2: 8, 3: 74, 4: 5552},
    "basic-equiv": {2: 6, 3: 38},
    "nabla": {2: 6, 3: 38, 4: 1446},
    "delta": {2: 6, 3: 38, 4: 1446},
}

CHAIN_DEPTH_CAP = 2  # the default cap of 3 did not finish in 300 s (NOTES.md)
# Each ~0.1 ms query runs this many times at shuffled points of the pass, and
# counts at the median: the only pass is too long to repeat within a run.
CHAIN_COPIES = 30
# Which of the six nabla-hat rules (criterion 11) are checked: each takes
# 2-3 s, and all six would not fit the benchmark's time budget (NOTES.md).
ADMISSIBILITY_CHECKED = (0, 2, 4)


def syntax_setup(size: str, seed: int, tracer, workdir: str) -> list[Job]:
    p = SYNTAX_SIZES[size]
    entries = {name: gallery.build(name) for name in DERIVED_THEOREMS}
    nabla = entries["nabla"].logic
    oracle = NABLA_ORACLE
    if tracer is not None:
        oracle = tracer.counting("hierarchy.admissibility.oracle_calls", NABLA_ORACLE)
    jobs: list[Job] = []

    def enumerate_and_compare(depth=p["enum_depth"]):
        theorems = hierarchy.derive_theorems(nabla, ("x", "y"), depth)
        seen = disagree = 0
        for t in terms.enumerate_terms(IMP, ["x", "y"], depth):
            seen += 1
            disagree += (t in theorems) != NABLA_ORACLE(t)
        return seen, len(theorems), disagree

    enumeration = Job(
        f"enumerate_terms depth {p['enum_depth']}",
        enumerate_and_compare,
        lambda out: expect(out, (p["enum_terms"], p["enum_theorems"], 0),
                           "(terms, theorems, oracle disagreements)"),
    )

    hat = gallery.nabla_hat(2)
    premises = [terms.substitute(q, {"x": App("→", (X, X)), "y": App("→", (Y, Y))})
                for q in hat]
    rules = [(Rule(premises, hat[i]), "holds") for i in ADMISSIBILITY_CHECKED]
    rules.append((Rule((), X), "fails"))
    for rule, want in rules:
        jobs.append(Job(
            f"admissibility {TO_SEXPR(rule.conclusion)}",
            lambda rule=rule: hierarchy.check_admissibility_bounded(
                nabla, rule, subst_depth=p["subst_depth"], theorem_oracle=oracle),
            lambda v, want=want: first_problem(
                expect(v.status, want, "verdict"),
                expect(v.witness["substitution"], {"x": "x"}, "witness")
                if want == "fails" else None),
        ))

    for name, by_depth in DERIVED_THEOREMS.items():
        for depth in p["derive_depths"]:
            if depth not in by_depth:
                continue
            jobs.append(Job(
                f"derive_theorems {name} depth {depth}",
                lambda logic=entries[name].logic, depth=depth:
                    hierarchy.derive_theorems(logic, ("x", "y"), depth),
                lambda th, name=name, depth=depth: first_problem(
                    expect(len(th), DERIVED_THEOREMS[name][depth], "theorems"),
                    nabla_theorems_problem(th, depth) if name == "nabla" else None),
            ))

    proto = entries["basic-proto"]
    pointed = [gallery.pointed_set(n) for n in (1, 2, 3)]
    assertional = entries["basic-assertional"].logic
    delta = entries["delta"]
    witness_jobs = [
        ("protoalgebraic witness nabla",
         lambda: hierarchy.find_protoalgebraic_witness(
             nabla, depth=2, inventory=entries["nabla"].inventory), ["(→ x y)"]),
        ("protoalgebraic witness basic-proto",
         lambda: hierarchy.find_protoalgebraic_witness(
             proto.logic, depth=2, inventory=proto.inventory), ["(⊸0 x y)"]),
        ("protoalgebraic witness basic-assertional",
         lambda: hierarchy.find_protoalgebraic_witness(
             assertional, depth=3, inventory=pointed), None),
        ("injective theorem delta",
         lambda: hierarchy.find_injective_theorem(delta.logic, delta.inventory, depth=2),
         "(→ x x)"),
        ("injective theorem basic-assertional",
         lambda: hierarchy.find_injective_theorem(
             assertional, [gallery.pointed_set(2), gallery.pointed_set(3)], depth=2), None),
    ]
    for name, run, want in witness_jobs:
        jobs.append(Job(name, run, lambda w, want=want: expect(sexprs(w), want, "witness")))

    queries = list(ENUMERATE_TERMS(IMP, ["x", "y"], p["query_depth"]))
    if len(queries) != p["queries"]:
        raise RuntimeError(f"{len(queries)} chain_entails queries, want {p['queries']}")
    chain_jobs = []
    for t in queries:
        # within the cap, the theorems derivable are the self-implications
        # of depth <= CHAIN_DEPTH_CAP
        want = NABLA_ORACLE(t) and TERM_DEPTH(t) <= CHAIN_DEPTH_CAP
        chain_jobs.append(Job(
            f"chain_entails {TO_SEXPR(t)}",
            lambda t=t: hierarchy.chain_entails(nabla, (), t, depth_cap=CHAIN_DEPTH_CAP),
            lambda got, want=want: expect(got, want, "derivable"),
        ))
    jobs += chain_jobs * CHAIN_COPIES
    random.Random(seed).shuffle(jobs)
    # Small jobs run up to 40% slower after the enumeration has built and
    # freed its 2M terms (NOTES.md), so it runs last: otherwise the seed's
    # job order would decide how many jobs pay for that.
    return jobs + [enumeration]


def sexprs(witness):
    if witness is None:
        return None
    if hasattr(witness, "terms"):
        return [TO_SEXPR(t) for t in witness.terms]
    return TO_SEXPR(witness)


def nabla_theorems_problem(theorems, depth: int) -> Optional[str]:
    """With the pinned count, this makes the derived set exactly the
    oracle's theorems of depth <= `depth`."""
    if all(NABLA_ORACLE(t) and TERM_DEPTH(t) <= depth for t in theorems):
        return None
    return "a derived theorem is not a theorem by the oracle"


# ---------------------------------------------------------------------------
# semantics: criteria 1 and 2, widened to the matrices layer


SEMANTICS_PLANS = {
    "full": [(POINTED, 4), (IMP, 3), (BOOL, 2)],  # 3900 iso classes
    "tiny": [(POINTED, 3), (IMP, 2), (BOOL, 1)],
}


def semantics_setup(size: str, seed: int, tracer, workdir: str) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for sig, max_n in SEMANTICS_PLANS[size]:
        for n in range(1, max_n + 1):
            for alg in algebra.enumerate_algebras(sig, n, iso_prune=True):
                perm = list(range(n))
                rng.shuffle(perm)
                subset = tuple(x for x in range(n) if rng.random() < 0.5)
                copy = relabel(alg, perm)
                copy_subset = [perm[x] for x in subset]
                jobs.append(Job(
                    f"semantics {sig!r} n={n} #{len(jobs)}",
                    lambda alg=alg, subset=subset, copy=copy, copy_subset=copy_subset:
                        semantics_job(alg, subset, copy, copy_subset),
                    lambda out, alg=alg, subset=subset, copy=copy, perm=perm:
                        semantics_problem(out, alg, subset, copy, perm),
                ))
    rng.shuffle(jobs)
    return jobs


def relabel(alg: FiniteAlgebra, perm: list[int]) -> FiniteAlgebra:
    """The copy of `alg` in which element x is renamed perm[x]."""
    n = alg.size
    tables = {}
    for sym, arity in alg.signature.symbols:
        table = alg.table(sym)
        cells = [0] * len(table)
        for idx, args in enumerate(itertools.product(range(n), repeat=arity)):
            cells[flat_index([perm[a] for a in args], n)] = perm[table[idx]]
        tables[sym] = cells
    return FiniteAlgebra(alg.signature, n, tables)


def flat_index(args, n: int) -> int:
    idx = 0
    for a in args:
        idx = idx * n + a
    return idx


def semantics_job(alg, subset, copy, copy_subset):
    n = alg.size
    congruences = algebra.congruences_bruteforce(alg)
    leibniz = []
    for k in range(n + 1):
        for f in itertools.combinations(range(n), k):
            seed = Partition.seed_from_subset(n, f)
            below = [c for c in congruences if c.refines(seed)]
            joined = below[0]
            for c in below[1:]:
                joined = joined.join(c)
            leibniz.append((f, matrices.leibniz_congruence(Matrix(alg, f)), joined))
    m = Matrix(alg, subset)
    return (
        congruences,
        leibniz,
        matrices.subuniverses(alg),
        matrices.submatrices(m),
        matrices.reduce_matrix(m),
        matrices.find_isomorphism(m, Matrix(copy, copy_subset)),
    )


def semantics_problem(out, alg, subset, copy, perm) -> Optional[str]:
    congruences, leibniz, subs, subms, (reduced, omega), iso = out
    n = alg.size
    for f, got, joined in leibniz:
        want = largest_compatible([c.block_ids for c in congruences], f)
        if got.block_ids != want or joined.block_ids != want:
            return f"Leibniz congruence of {f} is {got!r} (join {joined!r}), want {want}"
    want_subs = closed_subsets(alg)
    if subs != want_subs:
        return f"subuniverses {subs}, want {want_subs}"
    if [sm.algebra.size for sm in subms] != [len(s) for s in want_subs]:
        return "submatrices do not follow the subuniverses"
    want_omega = largest_compatible([c.block_ids for c in congruences], subset)
    if omega.block_ids != want_omega or reduced.algebra.size != len(set(want_omega)):
        return f"reduce_matrix used {omega!r}, want {want_omega}"
    if iso is None:
        return "no isomorphism to a relabelled copy"
    if sorted(iso) != list(range(n)):
        return f"isomorphism {iso} is not a bijection"
    for sym, arity in alg.signature.symbols:
        src, dst = alg.table(sym), copy.table(sym)
        for idx, args in enumerate(itertools.product(range(n), repeat=arity)):
            if dst[flat_index([iso[a] for a in args], n)] != iso[src[idx]]:
                return f"isomorphism {iso} breaks {sym} at {args}"
    if {iso[x] for x in subset} != {perm[x] for x in subset}:
        return f"isomorphism {iso} does not map the filter onto the filter"
    return None


def refines(a, b) -> bool:
    image = {}
    return all(image.setdefault(x, y) == y for x, y in zip(a, b))


def largest_compatible(congruences, subset):
    """Block ids of the coarsest congruence under which `subset` is a union
    of blocks; it is the one with the fewest blocks."""
    seed = tuple(0 if x in subset else 1 for x in range(len(congruences[0])))
    return min((c for c in congruences if refines(c, seed)), key=lambda c: len(set(c)))


def closed_subsets(alg) -> list[tuple[int, ...]]:
    n = alg.size
    out = []
    for k in range(1, n + 1):
        for s in itertools.combinations(range(n), k):
            inside = set(s)
            if all(alg.table(sym)[flat_index(args, n)] in inside
                   for sym, arity in alg.signature.symbols
                   for args in itertools.product(s, repeat=arity)):
                out.append(s)
    return out


# ---------------------------------------------------------------------------
# filters: criteria 5-9 and the bounded filter sweep


FILTER_SAMPLE = {"full": 120, "tiny": 4}
SAMPLE_SIZES = (1, 2, 2, 3, 3, 3, 3, 3, 3, 3)  # carrier sizes drawn for the sample

B4_FILTERS = [(3,), (0, 3), (1, 3), (2, 3), (0, 1, 3), (0, 2, 3), (1, 2, 3), (0, 1, 2, 3)]

CLASS_ENTRIES = ("basic-assertional", "basic-proto", "basic-equiv", "nabla", "delta",
                 "ba-star-logic", "two-valued-pair")
H, F, U = "holds", "fails", "unknown_within_bounds"
# check_class verdicts per class, in CLASS_ENTRIES order
CLASS_VERDICTS = {
    "assertional": (H, H, H, H, H, F, F),
    "truth_equational": (H, H, H, H, H, F, F),
    "truth_minimal": (H, H, H, H, H, F, H),
    "param_truth_equational": (H, H, H, H, H, F, F),
    "has_theorems": (H, H, H, H, H, H, U),
}


def lukasiewicz3() -> FiniteAlgebra:
    """Three-valued Łukasiewicz implication on 0 < 1/2 < 1, encoded 0 < 1 < 2."""
    return FiniteAlgebra(IMP, 3, {"→": [min(2, 2 - a + b) for a in range(3) for b in range(3)]},
                         name="Ł3→")


def sample_implication_algebras(rng: random.Random, count: int) -> list[FiniteAlgebra]:
    seen, out = set(), []
    while len(out) < count:
        n = rng.choice(SAMPLE_SIZES)
        table = tuple(rng.randrange(n) for _ in range(n * n))
        if (n, table) not in seen:
            seen.add((n, table))
            out.append(FiniteAlgebra(IMP, n, {"→": table}))
    return out


def filters_setup(size: str, seed: int, tracer, workdir: str) -> list[Job]:
    rng = random.Random(seed)
    luk = logics.matrices_logic([Matrix(lukasiewicz3(), (2,))], name="Ł3")
    jobs = []
    for alg in sample_implication_algebras(rng, FILTER_SAMPLE[size]):
        pick = rng.randrange(1 << 16)
        jobs.append(Job(
            f"filters Ł3 on {alg.tables}",
            lambda alg=alg, pick=pick: sample_job(luk, alg, pick),
            lambda out, alg=alg: sample_problem(out, luk, alg),
        ))

    entries = {name: gallery.build(name) for name in gallery.GALLERY_NAMES}
    ba_logic = entries["ba-star-logic"].logic
    b4 = gallery.bool4()
    jobs.append(Job(
        "filters ba-star-logic on B4",
        lambda: (logics.deductive_filters(ba_logic, b4),
                 logics.filter_bounds(ba_logic, b4)["depth_effective"]),
        lambda out: first_problem(
            expect(out, (B4_FILTERS, 2), "(filters, depth_effective)"),
            expect(homomorphic_filters(ba_logic, b4), B4_FILTERS, "oracle filters")),
    ))
    b2one = logics.matrices_logic([Matrix(gallery.bool2(), (1,))], name="b2one")
    prod = gallery.product_of_logics(b2one, b2one)
    jobs.append(Job(
        "filters criterion-8 product",
        lambda: (logics.deductive_filters(prod, prod.matrices[0].algebra),
                 logics.deductive_filters(b2one, gallery.bool2()),
                 logics.filter_bounds(prod, prod.matrices[0].algebra)["depth_effective"]),
        lambda out: product_problem(out, prod),
    ))

    for cls, verdicts in CLASS_VERDICTS.items():
        for name, want in zip(CLASS_ENTRIES, verdicts):
            entry = entries[name]
            jobs.append(Job(
                f"check_class {cls} {name}",
                lambda cls=cls, entry=entry: hierarchy.check_class(
                    cls, entry.logic, entry.inventory),
                lambda v, want=want, key=(cls, name): first_problem(
                    expect(v.status, want, "verdict"), class_witness_problem(key, v)),
            ))

    assertional = entries["basic-assertional"].logic
    imp_logic = logics.matrices_logic([Matrix(gallery.imp2(), (1,))], name="b2-implication")
    inventory = [matrices.restrict_to_subuniverse(gallery.imp2(), s)
                 for s in matrices.subuniverses(gallery.imp2())]
    good = translations.Translation(POINTED, IMP, {"⊤": App("→", (Var("x1"), Var("x1")))})
    bad = translations.Translation(POINTED, IMP, {"⊤": Var("x1")})
    for label, tau, want in (("good", good, "holds"), ("bad", bad, "fails")):
        jobs.append(Job(
            f"interpretation {label}",
            lambda tau=tau: translations.check_interpretation_bounded(
                tau, assertional, imp_logic, inventory),
            lambda v, want=want: first_problem(
                expect(v.status, want, "verdict"),
                "no model in the witness" if v.fails and v.witness["model"] is None else None),
        ))

    for name, entry in entries.items():
        jobs.append(Job(f"verify_entry {name}", lambda entry=entry: gallery.verify_entry(entry),
                        lambda problems: expect(problems, [], "problems")))
    rng.shuffle(jobs)
    return jobs


def sample_job(logic, alg, pick):
    found = logics.deductive_filters(logic, alg)
    reduced = logics.reduced_filters_on(logic, alg)
    chosen = found[pick % len(found)]
    return found, [m.filter for m in reduced], chosen, logics.suszko_congruence(logic, alg, chosen)


def sample_problem(out, logic, alg) -> Optional[str]:
    """Every closure on the sampled algebras saturates, so the bounded sweep
    must equal the exact filter family of homomorphic preimages."""
    found, reduced, chosen, suszko = out
    want = homomorphic_filters(logic, alg)
    if found != want:
        return f"filters {found}, want {want}"
    congruences = [c.block_ids for c in CONGRUENCES_BRUTEFORCE(alg)]
    omegas = {g: largest_compatible(congruences, g) for g in want}
    want_reduced = [g for g in want if len(set(suszko_ids(omegas, g, alg.size))) == alg.size]
    return first_problem(
        expect(reduced, want_reduced, "reduced filters"),
        expect(suszko.block_ids, suszko_ids(omegas, chosen, alg.size), "Suszko congruence"))


def suszko_ids(omegas, g, n):
    meet = [()] * n
    for h, ids in omegas.items():
        if set(g) <= set(h):
            meet = [m + (b,) for m, b in zip(meet, ids)]
    return canonical(meet)


def canonical(ids) -> tuple[int, ...]:
    relabel_: dict = {}
    return tuple(relabel_.setdefault(b, len(relabel_)) for b in ids)


def homomorphic_filters(logic, alg) -> list[tuple[int, ...]]:
    """Exact filters of a finitely presented matrix logic on `alg`: every
    intersection of preimages h^-1(D), h ranging over the homomorphisms from
    `alg` into a defining matrix <B, D>."""
    n = alg.size
    ops = [(alg.table(sym), arity, sym) for sym, arity in alg.signature.symbols]
    family = {tuple(range(n))}
    for m in logic.matrices:
        target = m.algebra
        for h in itertools.product(range(target.size), repeat=n):
            if all(target.table(sym)[flat_index([h[a] for a in args], target.size)]
                   == h[table[idx]]
                   for table, arity, sym in ops
                   for idx, args in enumerate(itertools.product(range(n), repeat=arity))):
                family.add(tuple(x for x in range(n) if h[x] in m.filter))
    grown = True
    while grown:
        grown = False
        for a, b in itertools.combinations(sorted(family), 2):
            meet = tuple(sorted(set(a) & set(b)))
            if meet not in family:
                family.add(meet)
                grown = True
    return sorted(family, key=lambda s: (len(s), s))


def product_problem(out, prod) -> Optional[str]:
    filters, component, depth_effective = out
    for g in filters:
        if not g:
            continue
        left = tuple(sorted({x // 2 for x in g}))
        right = tuple(sorted({x % 2 for x in g}))
        if {a * 2 + b for a in left for b in right} != set(g):
            return f"product filter {g} is not a rectangle"
        if left not in component or right not in component:
            return f"product filter {g} has a factor outside the component filters"
    return first_problem(
        expect(filters, [(3,), (0, 1, 2, 3)], "product filters"),
        expect(depth_effective, 2, "depth_effective"),
        None if set(homomorphic_filters(prod, prod.matrices[0].algebra)) <= set(filters)
        else "an exact filter is missing from the sweep")


def class_witness_problem(key, verdict) -> Optional[str]:
    if key == ("param_truth_equational", "two-valued-pair"):
        return first_problem(
            expect([list(f) for f in verdict.witness["family"].filters], [[1]], "family"),
            expect(list(verdict.witness["filter"]), [0], "filter"))
    if key == ("truth_equational", "two-valued-pair"):
        return expect(verdict.witness["filters"], ((0,), (1,)), "filters")
    return None


# ---------------------------------------------------------------------------
# cli-cold: criterion 12 as cold processes


def cli_inputs(workdir: str) -> None:
    """Write the input files the CLI calls name, relative to `workdir`."""
    files = {
        "ba-star-F.json": serialize.matrix_to_json(Matrix(gallery.bool4(), (1, 3))),
        "pair.json": serialize.logic_to_json(gallery.build("two-valued-pair").logic),
        "b2.json": serialize.algebra_to_json(gallery.bool2()),
        "assertional.json": serialize.logic_to_json(gallery.build("basic-assertional").logic),
        "nabla.json": serialize.logic_to_json(gallery.build("nabla").logic),
        "imp2.json": serialize.algebra_to_json(gallery.imp2()),
        "tau.json": serialize.translation_to_json(translations.Translation(
            POINTED, IMP, {"⊤": App("→", (Var("x1"), Var("x1")))})),
        "imp-logic.json": serialize.logic_to_json(
            logics.matrices_logic([Matrix(gallery.imp2(), (1,))])),
        "ba-star-logic.json": serialize.logic_to_json(gallery.build("ba-star-logic").logic),
        "b4.json": serialize.algebra_to_json(gallery.bool4()),
    }
    for n in (1, 2, 3):
        files[os.path.join("pointed", f"p{n}.json")] = serialize.algebra_to_json(
            gallery.pointed_set(n))
    os.makedirs(os.path.join(workdir, "pointed"), exist_ok=True)
    for rel, data in files.items():
        serialize.dump_json(os.path.join(workdir, rel), data)


CLI_CALLS = [
    # the 13 criterion-12 invocations
    (["leibniz", "-m", "ba-star-F.json"], 0),
    (["reduce", "-m", "ba-star-F.json"], 0),
    (["filters", "-l", "pair.json", "-a", "b2.json"], 0),
    (["suszko", "-l", "pair.json", "-a", "b2.json", "--filter", "1"], 0),
    (["check", "truth_minimal", "-l", "pair.json", "-i", "b2.json"], 0),
    (["check", "truth_equational", "-l", "pair.json", "-i", "b2.json"], 1),
    (["check", "param_truth_equational", "-l", "pair.json", "-i", "b2.json"], 1),
    (["check", "protoalgebraic", "-l", "assertional.json", "-i", "pointed", "--depth", "3"], 1),
    (["check", "protoalgebraic", "-l", "nabla.json", "-i", "imp2.json"], 0),
    (["check", "assertional", "-l", "assertional.json", "-i", "pointed"], 0),
    (["interpret", "-t", "tau.json", "--from", "assertional.json", "--to", "imp-logic.json",
      "-i", "imp2.json"], 0),
    (["oracle", "congruences", "-a", "b2.json"], 0),
    (["gallery", "ba-star", "--out", "g1"], 0),
    # ba-star-logic on B4, whose closure stops at depth_effective 2, and a product
    (["filters", "-l", "ba-star-logic.json", "-a", "b4.json"], 0),
    (["suszko", "-l", "ba-star-logic.json", "-a", "b4.json", "--filter", "3"], 0),
    (["check", "truth_minimal", "-l", "ba-star-logic.json", "-i", "b4.json"], 1),
    (["product", "-l", "pair.json", "-l", "pair.json"], 0),
]
CLI_SIZES = {"full": len(CLI_CALLS), "tiny": 4}


class CliCold:
    """Runs each call as a fresh `python -m law` process, one at a time.

    Stdout must be byte-identical to the first output of the same call in
    the run, traced calls included, and the exit code the expected one.
    """

    def __init__(self, root: str):
        self.root = root
        self.first_stdout: dict[tuple, bytes] = {}
        self.children: list[dict] = []  # traced children: trace snapshot and wall time
        self.calls = 0
        env = dict(os.environ)
        env.pop("LAW_CONFIG", None)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env

    def setup(self, size: str, seed: int, tracer, workdir: str) -> list[Job]:
        cli_inputs(workdir)
        jobs = []
        for argv, code in CLI_CALLS[:CLI_SIZES[size]]:
            jobs.append(Job(
                "law " + " ".join(argv),
                lambda argv=argv: self.call(argv, workdir, tracer is not None),
                lambda out, argv=argv, code=code: self.problem(out, tuple(argv), code),
            ))
        random.Random(seed).shuffle(jobs)
        return jobs

    def call(self, argv, workdir: str, traced: bool):
        """One child, on the same CPU as this process, so that the speed
        probes this process runs while it waits (speed.py) measure the CPU
        the child runs on; calls alternate between the CPUs."""
        cpus = sorted(os.sched_getaffinity(0))
        self.calls += 1
        os.sched_setaffinity(0, {cpus[self.calls % len(cpus)]})
        try:
            return self.run_child(argv, workdir, traced)
        finally:
            os.sched_setaffinity(0, cpus)

    def run_child(self, argv, workdir: str, traced: bool):
        if not traced:
            cmd = [sys.executable, "-m", "law", *argv]
            proc = subprocess.run(cmd, cwd=workdir, env=self.env, capture_output=True,
                                  timeout=150)
            return proc.returncode, proc.stdout
        trace_path = os.path.join(workdir, "child-trace.json")
        launcher = os.path.join(self.root, "bench", "launch.py")
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, launcher, trace_path, *argv], cwd=workdir,
                              env=self.env, capture_output=True, timeout=150)
        wall = time.perf_counter() - start
        with open(trace_path, encoding="utf-8") as fh:
            child = json.load(fh)
        os.remove(trace_path)
        child["wall_s"] = wall
        self.children.append(child)
        return proc.returncode, proc.stdout

    def problem(self, out, key, code) -> Optional[str]:
        got_code, stdout = out
        if got_code != code:
            return f"exit code {got_code}, want {code}"
        first = self.first_stdout.setdefault(key, stdout)
        if stdout != first:
            return "stdout differs from the first run of the same call"
        try:
            json.loads(stdout)
        except ValueError:
            return "stdout is not one JSON document"
        return None


def parameters(workload: str, size: str) -> dict:
    """The workload parameters a run records with its environment."""
    if workload == "syntax":
        return dict(SYNTAX_SIZES[size], chain_depth_cap=CHAIN_DEPTH_CAP,
                    chain_copies=CHAIN_COPIES, admissibility_checked=ADMISSIBILITY_CHECKED)
    if workload == "semantics":
        return {"plans": [[repr(sig), n] for sig, n in SEMANTICS_PLANS[size]]}
    if workload == "filters":
        return {"sample": FILTER_SAMPLE[size], "sample_sizes": SAMPLE_SIZES}
    return {"calls": CLI_SIZES[size]}


IN_PROCESS = {
    "syntax": syntax_setup,
    "semantics": semantics_setup,
    "filters": filters_setup,
}
