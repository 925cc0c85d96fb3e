"""Partitions of {0..n-1} in canonical first-occurrence form.

Partitions double as equivalence relations; congruence computations compare
them by refinement and intersect them, so both live here.
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator, Sequence

from .errors import Hashed


def _canonical(ids: Sequence[int]) -> tuple[int, ...]:
    relabel: dict[int, int] = {}
    out = []
    for b in ids:
        if b not in relabel:
            relabel[b] = len(relabel)
        out.append(relabel[b])
    return tuple(out)


class Partition(Hashed):
    """Block-id array, block ids numbered by first occurrence. `size` (the
    carrier's) and `num_blocks` are set with the ids, not compared."""

    _fields = ("block_ids",)
    __slots__ = _fields + ("_hash", "size", "num_blocks")

    def __init__(self, block_ids: Sequence[int]):
        ids = _canonical(block_ids)
        _set_block_ids(self, ids)
        _set_hash(self, hash(ids))
        _set_size(self, len(ids))
        _set_num_blocks(self, max(ids, default=-1) + 1)

    @classmethod
    def _of_canonical(cls, ids: tuple[int, ...], num_blocks: int) -> "Partition":
        """The partition whose block ids are `ids`, which must already be in
        first-occurrence form (``ids == _canonical(ids)``), with `num_blocks`
        distinct ids, which the caller knows; skips the relabelling pass of
        the constructor."""
        p = object.__new__(cls)
        _set_block_ids(p, ids)
        _set_hash(p, hash(ids))
        _set_size(p, len(ids))
        _set_num_blocks(p, num_blocks)
        return p

    @staticmethod
    def identity(n: int) -> "Partition":
        return Partition._of_canonical(tuple(range(n)), n)

    @staticmethod
    def total(n: int) -> "Partition":
        return Partition._of_canonical((0,) * n, min(n, 1))

    @staticmethod
    def from_blocks(n: int, blocks: Iterable[Iterable[int]]) -> "Partition":
        ids = [-1] * n
        for b, block in enumerate(blocks):
            for x in block:
                if not 0 <= x < n:
                    raise ValueError(f"element {x} out of range")
                if ids[x] != -1:
                    raise ValueError(f"element {x} in two blocks")
                ids[x] = b
        if -1 in ids:
            raise ValueError("blocks do not cover the carrier")
        return Partition(ids)

    @staticmethod
    def seed_from_subset(n: int, subset: Iterable[int]) -> "Partition":
        """Two blocks, the subset and its complement; total if either is empty.
        One partition per (n, subset), kept in `_seed` (a tuple subset is the
        key as it is, any other iterable its tuple)."""
        return _seed(n, subset if isinstance(subset, tuple) else tuple(subset))

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.num_blocks)]
        for i, b in enumerate(self.block_ids):
            out[b].append(i)
        return tuple(tuple(b) for b in out)

    def block_of(self, x: int) -> int:
        return self.block_ids[x]

    def related(self, a: int, b: int) -> bool:
        return self.block_ids[a] == self.block_ids[b]

    def is_identity(self) -> bool:
        return self.num_blocks == self.size

    def is_total(self) -> bool:
        return self.num_blocks <= 1

    def refines(self, other: "Partition") -> bool:
        """True iff every block of self lies inside a block of other."""
        if self.size != other.size:
            raise ValueError("partitions over different carriers")
        # each block of self meets exactly one block of other
        return len(set(zip(self.block_ids, other.block_ids))) == self.num_blocks

    def meet(self, other: "Partition") -> "Partition":
        """Intersection of the equivalence relations."""
        if self.size != other.size:
            raise ValueError("partitions over different carriers")
        return Partition(tuple(zip(self.block_ids, other.block_ids)))  # type: ignore[arg-type]

    def join(self, other: "Partition") -> "Partition":
        """Transitive closure of the union of the relations."""
        if self.size != other.size:
            raise ValueError("partitions over different carriers")
        parent = list(range(self.size))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for ids in (self.block_ids, other.block_ids):
            first: dict[int, int] = {}
            for i, b in enumerate(ids):
                if b in first:
                    parent[find(i)] = find(first[b])
                else:
                    first[b] = i
        return Partition(tuple(find(i) for i in range(self.size)))

    def __repr__(self) -> str:
        inner = " | ".join(",".join(map(str, b)) for b in self.blocks())
        return f"Partition[{inner}]"


# the slots' own setters, which the constructors call since assignment is refused
_set_block_ids = Partition.block_ids.__set__
_set_hash = Partition._hash.__set__
_set_size = Partition.size.__set__
_set_num_blocks = Partition.num_blocks.__set__


# the seeds of one pass over a matrix's filters repeat a few (n, subset) keys
@functools.lru_cache(maxsize=1024)
def _seed(n: int, subset: tuple[int, ...]) -> Partition:
    inside = set(subset)
    first = 0 in inside  # element 0's side is block 0
    ids = tuple([0 if (i in inside) == first else 1 for i in range(n)])
    return Partition._of_canonical(ids, min(n, 1) + (1 in ids))


def all_partitions(n: int) -> Iterator[Partition]:
    """Every partition of {0..n-1}, in lexicographic restricted-growth order."""
    if n == 0:
        yield Partition._of_canonical((), 0)
        return

    def rec(prefix: list[int], blocks: int) -> Iterator[Partition]:
        """Every completion of `prefix`, which uses ids 0..blocks-1."""
        if len(prefix) == n:
            yield Partition._of_canonical(tuple(prefix), blocks)
            return
        for b in range(blocks + 1):  # an old block, then a new one
            prefix.append(b)
            yield from rec(prefix, blocks + (b == blocks))
            prefix.pop()

    yield from rec([0], 1)
