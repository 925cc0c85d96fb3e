"""Partitions of {0..n-1} in canonical first-occurrence form.

Partitions double as equivalence relations; congruence computations compare
them by refinement and intersect them, so both live here.
"""

from __future__ import annotations

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
    """Block-id array, block ids numbered by first occurrence."""

    _fields = ("block_ids",)
    __slots__ = _fields + ("_hash",)

    def __init__(self, block_ids: Sequence[int]):
        ids = _canonical(block_ids)
        _set_block_ids(self, ids)
        _set_hash(self, hash(ids))

    @classmethod
    def _of_canonical(cls, ids: tuple[int, ...]) -> "Partition":
        """The partition whose block ids are `ids`, which must already be in
        first-occurrence form (``ids == _canonical(ids)``); skips the
        relabelling pass of the constructor."""
        p = object.__new__(cls)
        _set_block_ids(p, ids)
        _set_hash(p, hash(ids))
        return p

    @property
    def size(self) -> int:
        return len(self.block_ids)

    @property
    def num_blocks(self) -> int:
        return max(self.block_ids, default=-1) + 1

    @staticmethod
    def identity(n: int) -> "Partition":
        return Partition._of_canonical(tuple(range(n)))

    @staticmethod
    def total(n: int) -> "Partition":
        return Partition._of_canonical((0,) * n)

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
        """Two blocks, the subset and its complement; total if either is empty."""
        inside = set(subset)
        first = 0 in inside  # element 0's side is block 0
        ids = tuple([0 if (i in inside) == first else 1 for i in range(n)])
        return Partition._of_canonical(ids)

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
        image: dict[int, int] = {}
        for mine, theirs in zip(self.block_ids, other.block_ids):
            if image.setdefault(mine, theirs) != theirs:
                return False
        return True

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


def all_partitions(n: int) -> Iterator[Partition]:
    """Every partition of {0..n-1}, in lexicographic restricted-growth order."""
    if n == 0:
        yield Partition._of_canonical(())
        return

    def rec(prefix: list[int], top: int) -> Iterator[Partition]:
        if len(prefix) == n:
            yield Partition._of_canonical(tuple(prefix))
            return
        for b in range(top + 2):
            prefix.append(b)
            yield from rec(prefix, max(top, b))
            prefix.pop()

    yield from rec([0], 0)
