"""Finite algebras over {0..n-1}: evaluation, products, quotients, congruences.

Operation tables are flat tuples in row-major order with the first argument
most significant. Product carriers use the same encoding: the index of
(a1, .., ak) is a1*n2*..*nk + .. + ak, first factor most significant.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Iterable, Iterator, Mapping, Sequence

from .config import DEFAULTS, ENUM_CELL_BUDGET
from .errors import CapExceeded, Hashed, NotACongruence, SignatureMismatch, TermError
from .partitions import Partition, all_partitions
from .terms import App, Signature, Term, Var, check_term


class FiniteAlgebra(Hashed):
    """A total interpretation of a signature on the carrier {0..size-1}. The
    name is not compared, but pickle and copy keep it."""

    _fields = ("signature", "size", "tables")
    _args = _fields + ("name",)
    __slots__ = _args + ("_hash", "_ops", "_neighbours", "_subuniverses")

    def __init__(
        self,
        signature: Signature,
        size: int,
        tables: Mapping[str, Sequence[int]] | Iterable[tuple[str, Sequence[int]]],
        name: str = "",
    ):
        if size < 1:
            raise ValueError("carrier must be nonempty")
        tab = {sym: tuple(cells) for sym, cells in dict(tables).items()}
        if set(tab) != set(signature.names()):
            raise SignatureMismatch("tables do not match the signature's symbols")
        for sym, arity in signature.symbols:
            cells = tab[sym]
            if len(cells) != size**arity:
                raise ValueError(f"table for {sym!r} has {len(cells)} cells, expected {size**arity}")
            if min(cells) < 0 or max(cells) >= size:
                raise ValueError(f"table for {sym!r} has out-of-range entries")
        self._fill(signature, size, tuple(sorted(tab.items())), name)

    def _fill(self, signature: Signature, size: int, tables: tuple, name: str = "") -> None:
        """Set every field from `tables`, already validated and sorted by
        symbol name; the caches start empty."""
        _set_signature(self, signature)
        _set_size(self, size)
        _set_tables(self, tables)
        _set_name(self, name)
        _set_hash(self, hash((signature, size, tables)))
        _set_ops(self, dict(tables))
        _set_neighbours(self, None)
        _set_subuniverses(self, None)

    def table(self, sym: str) -> tuple[int, ...]:
        return self._ops[sym]

    def apply(self, sym: str, args: Sequence[int]) -> int:
        idx = 0
        for a in args:
            idx = idx * self.size + a
        return self._ops[sym][idx]

    def neighbours(self) -> tuple[int, ...]:
        """Every element's row of neighbours, rows concatenated in element
        order. Row a holds a, then every value a reaches through one symbol
        at one argument position in one context of the other arguments, in
        (symbol, position, context) order, so equal offsets in two rows are
        the same operation applied at the same place. Built on first use and
        kept with the algebra."""
        if self._neighbours is None:
            n = self.size
            rows = [[a] for a in range(n)]
            for sym, arity in self.signature.symbols:
                table = self._ops[sym]
                for pos in range(arity):
                    # the cells whose argument at `pos` is a: runs of `own`
                    # cells, one run in every stride of n * own
                    own = n ** (arity - 1 - pos)
                    for a, row in enumerate(rows):
                        for start in range(a * own, len(table), n * own):
                            row.extend(table[start : start + own])
            _set_neighbours(self, tuple(itertools.chain.from_iterable(rows)))
        return self._neighbours

    def sort_key(self):
        return (self.size, self.signature.symbols, self.tables)

    def __repr__(self) -> str:
        label = self.name or "FiniteAlgebra"
        return f"<{label} size={self.size} sig={self.signature!r}>"


# the slots' own setters, which `_fill` calls since assignment is refused
_set_signature = FiniteAlgebra.signature.__set__
_set_size = FiniteAlgebra.size.__set__
_set_tables = FiniteAlgebra.tables.__set__
_set_name = FiniteAlgebra.name.__set__
_set_hash = FiniteAlgebra._hash.__set__
_set_ops = FiniteAlgebra._ops.__set__
_set_neighbours = FiniteAlgebra._neighbours.__set__
_set_subuniverses = FiniteAlgebra._subuniverses.__set__


def distinct(algebras: Iterable[FiniteAlgebra]) -> list[FiniteAlgebra]:
    """The distinct algebras in `sort_key` order, each as it first occurs:
    an inventory is a set, and this is the one order every check, search,
    fingerprint and closure reads it in."""
    return sorted(dict.fromkeys(algebras), key=FiniteAlgebra.sort_key)


def eval_term(alg: FiniteAlgebra, t: Term, valuation: Mapping[str, int]) -> int:
    """Evaluate `t` in `alg` under `valuation` by structural recursion."""
    if isinstance(t, Var):
        if t.name in alg.signature:
            raise TermError(f"variable {t.name!r} clashes with a symbol name")
        if t.name not in valuation:
            raise TermError(f"unbound variable {t.name!r}")
        v = valuation[t.name]
        if not 0 <= v < alg.size:
            raise TermError(f"valuation sends {t.name!r} out of range")
        return v
    assert isinstance(t, App)
    arity = alg.signature.arity(t.sym)
    if len(t.args) != arity:
        raise TermError(f"{t.sym!r} expects {arity} arguments, got {len(t.args)}")
    return alg.apply(t.sym, [eval_term(alg, a, valuation) for a in t.args])


def term_values(alg: FiniteAlgebra, t: Term, variables: Sequence[str]) -> list[int]:
    """The values of `t` in `alg` at every assignment of `variables`, in
    ``itertools.product`` order: the first variable varies slowest, so the
    values of a term over placeholders ``x1..xn`` form its table in the
    row-major layout of operation tables."""
    check_term(alg.signature, t)
    return _values(alg, t, *_columns(alg, variables))


def _columns(alg: FiniteAlgebra, variables: Sequence[str]) -> tuple[dict[str, list[int]], int]:
    """Each variable's values at every assignment of `variables`, in
    ``itertools.product`` order, and the number of assignments."""
    assignments = list(itertools.product(range(alg.size), repeat=len(variables)))
    return {v: list(col) for v, col in zip(variables, zip(*assignments))}, len(assignments)


def _values(alg: FiniteAlgebra, t: Term, columns: dict[str, list[int]], count: int) -> list[int]:
    if isinstance(t, Var):
        if t.name not in columns:
            raise TermError(f"unbound variable {t.name!r}")
        return columns[t.name]
    return _apply(alg, t.sym, [_values(alg, a, columns, count) for a in t.args], count)


def _apply(alg: FiniteAlgebra, sym: str, args: Sequence[list[int]], count: int) -> list[int]:
    """`sym` applied at each of `count` assignments to its arguments' values
    there, read from the table: the first argument's values are the index of
    a unary cell, and each further one shifts the index by the carrier."""
    table = alg.table(sym)
    if not args:
        return [table[0]] * count
    idx = args[0]
    n = alg.size
    for values in args[1:]:
        idx = [i * n + v for i, v in zip(idx, values)]
    return list(map(table.__getitem__, idx))


# ---------------------------------------------------------------------------
# products and quotients


def product_encode(indices: Sequence[int], sizes: Sequence[int]) -> int:
    idx = 0
    for a, n in zip(indices, sizes):
        idx = idx * n + a
    return idx


def product_decode(idx: int, sizes: Sequence[int]) -> tuple[int, ...]:
    out = []
    for n in reversed(sizes):
        out.append(idx % n)
        idx //= n
    return tuple(reversed(out))


def direct_product(algs: Sequence[FiniteAlgebra], cap: int = DEFAULTS.product_max) -> FiniteAlgebra:
    """Componentwise product of same-signature algebras."""
    if not algs:
        raise ValueError("need at least one factor")
    sig = algs[0].signature
    for a in algs[1:]:
        if a.signature != sig:
            raise SignatureMismatch("direct product factors must share a signature")
    sizes = [a.size for a in algs]
    total = 1
    for n in sizes:
        total *= n
    if total > cap:
        raise CapExceeded(f"product size {total} exceeds cap {cap}")
    tables = {}
    for sym, arity in sig.symbols:
        cells = []
        for args in itertools.product(range(total), repeat=arity):
            cols = [product_decode(a, sizes) for a in args]
            value = tuple(alg.apply(sym, [col[i] for col in cols]) for i, alg in enumerate(algs))
            cells.append(product_encode(value, sizes))
        tables[sym] = tuple(cells)
    return FiniteAlgebra(sig, total, tables)


def pair_symbol(f: str, g: str) -> str:
    return f"{f}⊗{g}"


def nonindexed_product(
    a1: FiniteAlgebra, a2: FiniteAlgebra, cap: int = DEFAULTS.product_max
) -> FiniteAlgebra:
    """Product over the pair signature: ``f⊗g`` acts as f on the left
    coordinates and as g on the right coordinates. It is the direct product
    of the left factor, where ``f⊗g`` has the table of f in `a1`, and the
    right factor, where it has the table of g in `a2`."""
    pairs = {
        pair_symbol(f, g): (n, f, g)
        for f, n in a1.signature.symbols
        for g, m in a2.signature.symbols
        if n == m
    }
    sig = Signature({fg: n for fg, (n, _, _) in pairs.items()})
    left = FiniteAlgebra(sig, a1.size, {fg: a1.table(f) for fg, (_, f, _) in pairs.items()})
    right = FiniteAlgebra(sig, a2.size, {fg: a2.table(g) for fg, (_, _, g) in pairs.items()})
    return direct_product([left, right], cap=cap)


def is_congruence(alg: FiniteAlgebra, theta: Partition) -> bool:
    """Single-coordinate replacement test: one pass of the refinement engine
    splits no block. Equivalent to the full condition for equivalence
    relations by chaining one coordinate at a time."""
    if theta.size != alg.size:
        raise ValueError("partition carrier mismatch")
    return _split(_row_keys(alg), theta.block_ids)[1] == theta.num_blocks


def quotient(alg: FiniteAlgebra, theta: Partition) -> FiniteAlgebra:
    """Algebra on the blocks of a congruence; raises if theta is not one."""
    if not is_congruence(alg, theta):
        raise NotACongruence("partition is not a congruence of the algebra")
    reps = [b[0] for b in theta.blocks()]
    return _induced(alg, reps, theta.block_ids.__getitem__)


def _induced(alg: FiniteAlgebra, elems: Sequence[int], relabel) -> FiniteAlgebra:
    """The algebra on {0..len(elems)-1} whose f at (i1, .., ik) is
    relabel(f(elems[i1], .., elems[ik])), read from the tables directly.
    The caller vouches that `relabel` maps every such value into the new
    carrier, so the tables skip the constructor's checks."""
    tables = []
    for sym, arity in alg.signature.symbols:
        cells = _cells(alg.size, elems, arity)
        tables.append((sym, tuple(map(relabel, map(alg.table(sym).__getitem__, cells)))))
    out = object.__new__(FiniteAlgebra)
    out._fill(alg.signature, len(elems), tuple(tables))
    return out


def _cells(n: int, elems: Sequence[int], arity: int) -> list[int]:
    """The flat table indices, on a carrier of size n, of the argument tuples
    over `elems` in lexicographic order; [0] for arity 0."""
    cells = [0]
    for _ in range(arity):
        cells = [i * n + e for i in cells for e in elems]
    return cells


# ---------------------------------------------------------------------------
# congruence computations


def congruences_bruteforce(alg: FiniteAlgebra, cap: int = DEFAULTS.oracle_max) -> list[Partition]:
    """Testing oracle: check the full congruence condition on every partition.

    For every symbol, the block of f(xs) must be a function of the blocks of
    all of xs at once: pairing each argument tuple's block tuple with the
    block of its value gives no more pairs than there are block tuples,
    blocks ** arity. This
    reads the operation tables directly, not the single-coordinate shortcut
    or the neighbour rows of the refinement engine, so the engine has an
    independent cross-check.
    """
    if alg.size > cap:
        raise CapExceeded(f"carrier {alg.size} exceeds oracle cap {cap}")
    out = []
    for p in all_partitions(alg.size):
        ids, blocks = p.block_ids, p.num_blocks
        for sym, arity in alg.signature.symbols:
            # every block is nonempty, so every one of the blocks ** arity
            # block tuples occurs among the argument tuples
            pairs = zip(itertools.product(ids, repeat=arity), map(ids.__getitem__, alg.table(sym)))
            if len(set(pairs)) != blocks**arity:
                break
        else:
            out.append(p)
    return sorted(out, key=lambda q: q.block_ids)


# a cache, not a slot of the algebra: keys for the last 256 algebras read,
# not for every algebra alive
@functools.lru_cache(maxsize=256)
def _row_keys(alg: FiniteAlgebra) -> list[operator.itemgetter]:
    """One `operator.itemgetter` per element over its row of
    `alg.neighbours()`: called on block ids, it reads the row as blocks in
    one C call. Where the rows have width 1 (no symbol of positive arity)
    it returns the element's block id itself, not a 1-tuple. A caller that
    stays on one algebra (a lattice's filters, a matrix's subsets) builds
    them once; the list is shared, so read-only."""
    rows = alg.neighbours()
    width = len(rows) // alg.size
    return [operator.itemgetter(*rows[i : i + width]) for i in range(0, len(rows), width)]


def _split(keys: list[operator.itemgetter], ids: Sequence[int]) -> tuple[list[int], int]:
    """One refinement pass: renumber the elements by their rows (`_row_keys`)
    read through `ids`, in first-occurrence order, and count the blocks.
    Each row starts with the element's own block, so the result refines
    `ids`."""
    numbering: dict = {}
    fresh = [numbering.setdefault(key(ids), len(numbering)) for key in keys]
    return fresh, len(numbering)


def largest_congruence_below(alg: FiniteAlgebra, p: Partition) -> Partition:
    """Coarsest congruence refining `p`, by iterated signature splitting.

    Each pass tags every element with its row of neighbours (`neighbours`,
    built once per algebra) read as blocks through `_row_keys`, cached for
    the last 256 algebras, so a caller that stays on one algebra builds its
    itemgetters once; then it splits blocks whose members disagree. Passes
    only refine, so a pass that keeps the block count is the fixpoint:
    single-coordinate replacement stays inside blocks, which chains to the
    full congruence property. Every pass stays coarser than or equal to the
    answer, so one that reaches the identity (`alg.size` blocks) is the
    answer at once, and so is an identity `p`. A total `p` is the answer too,
    since the total partition is always a congruence.
    """
    n = alg.size
    if p.size != n:
        raise ValueError("partition carrier mismatch")
    ids, count = p.block_ids, p.num_blocks
    if count == n or count == 1:
        return p
    keys = _row_keys(alg)
    while True:
        ids, fresh_count = _split(keys, ids)
        if fresh_count == count or fresh_count == n:
            return Partition._of_canonical(tuple(ids), fresh_count)
        count = fresh_count


# ---------------------------------------------------------------------------
# enumeration


def _relabellings(sig: Signature, n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(src, inv) for every permutation of {0..n-1} but the identity, in
    `itertools.permutations` order. Relabelling a flat table (all symbols'
    cells concatenated in signature order) by the permutation gives the
    table whose cell j is inv[flat[src[j]]]."""
    maps = []
    for perm in itertools.islice(itertools.permutations(range(n)), 1, None):
        inv = [0] * n
        for i, x in enumerate(perm):
            inv[x] = i
        src = []
        offset = 0
        for _, arity in sig.symbols:
            sizes = (n,) * arity
            for args in itertools.product(perm, repeat=arity):
                src.append(offset + product_encode(args, sizes))
            offset += n**arity
        maps.append((tuple(src), tuple(inv)))
    return maps


def _is_least(flat: tuple[int, ...], relabellings) -> bool:
    """No relabelling of `flat` is lexicographically smaller: each one is
    decided at the first cell where it differs from `flat`."""
    for src, inv in relabellings:
        for j, s in enumerate(src):
            c = inv[flat[s]]
            if c != flat[j]:
                if c < flat[j]:
                    return False
                break
    return True


def enumerate_algebras(
    sig: Signature,
    n: int,
    cell_budget: int = ENUM_CELL_BUDGET,
    iso_prune: bool = False,
) -> Iterator[FiniteAlgebra]:
    """All algebras of size n over `sig`, tables in row-major counter order.

    The budget bounds the total number of table cells across the whole
    stream (count of algebras times cells per algebra). With `iso_prune`
    only the lexicographically least member of each isomorphism class is
    produced, i.e. exactly the algebras whose tables are the least of their
    relabellings by carrier permutations, in the same order. The relabelling maps of every
    non-identity permutation are built once per call; each flat table is
    compared with its relabellings cell by cell, the first differing cell
    deciding, and an algebra is built only for a table that no relabelling
    undercuts.
    """
    cells_per = sum(n**arity for _, arity in sig.symbols)
    count = 1
    for _, arity in sig.symbols:
        count *= n ** (n**arity)
        if count * cells_per > cell_budget:
            raise CapExceeded(f"enumeration needs more than {cell_budget} table cells")
    syms = sig.symbols
    spans = [n**arity for _, arity in syms]
    relabellings = _relabellings(sig, n) if iso_prune else None
    for flat in itertools.product(range(n), repeat=sum(spans)):
        if iso_prune and not _is_least(flat, relabellings):
            continue
        tables = {}
        offset = 0
        for (sym, _), span in zip(syms, spans):
            tables[sym] = flat[offset : offset + span]
            offset += span
        yield FiniteAlgebra(sig, n, tables)


def one_element(sig: Signature) -> FiniteAlgebra:
    return FiniteAlgebra(sig, 1, {sym: (0,) * 1 for sym, _ in sig.symbols})
