"""Partitions: canonical form, refinement, lattice operations."""

import copy
import itertools
import pickle

import pytest

from law import algebra
from law.algebra import FiniteAlgebra, enumerate_algebras, largest_congruence_below
from law.gallery import bool4
from law.matrices import Matrix, leibniz_congruence
from law.partitions import Partition, _canonical, all_partitions
from law.terms import Signature


def relation(p):
    return {(a, b) for a in range(p.size) for b in range(p.size) if p.related(a, b)}


def test_canonical_first_occurrence():
    assert Partition((5, 5, 2, 5)).block_ids == (0, 0, 1, 0)
    assert Partition.from_blocks(4, [[3, 1], [0, 2]]).block_ids == (0, 1, 0, 1)


def test_identity_total():
    assert Partition.identity(3).blocks() == ((0,), (1,), (2,))
    assert Partition.total(3).blocks() == ((0, 1, 2),)
    assert Partition.identity(1) == Partition.total(1)


def test_seed_from_subset():
    assert Partition.seed_from_subset(4, [1, 3]).blocks() == ((0, 2), (1, 3))
    assert Partition.seed_from_subset(3, []).is_total()
    assert Partition.seed_from_subset(3, [0, 1, 2]).is_total()


def test_refines():
    fine = Partition((0, 1, 0, 1))
    coarse = Partition.total(4)
    assert fine.refines(coarse)
    assert not coarse.refines(fine)
    assert fine.refines(fine)
    assert Partition.identity(4).refines(fine)


def test_meet_join_against_relation_oracle():
    for p, q in itertools.product(all_partitions(4), repeat=2):
        meet = p.meet(q)
        assert relation(meet) == relation(p) & relation(q)
        join = p.join(q)
        # join is the least equivalence containing both relations
        assert relation(join) >= relation(p) | relation(q)
        for r in all_partitions(4):
            if relation(r) >= relation(p) | relation(q):
                assert relation(join) <= relation(r)


def test_all_partitions_bell_numbers():
    for n, bell in [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52)]:
        parts = list(all_partitions(n))
        assert len(parts) == bell
        assert len(set(parts)) == bell


def test_from_blocks_validation():
    with pytest.raises(ValueError):
        Partition.from_blocks(3, [[0, 1]])
    with pytest.raises(ValueError):
        Partition.from_blocks(3, [[0, 1], [1, 2]])


def assert_canonical(p, ids):
    """`p`, built on the fast path, has canonical ids and is the partition
    the relabelling constructor builds from `ids`."""
    assert p.block_ids == _canonical(p.block_ids)
    slow = Partition(ids)
    assert p == slow and hash(p) == hash(slow)


def test_fast_path_constructors_build_canonical_ids():
    for n in range(7):
        for p in all_partitions(n):
            assert_canonical(p, p.block_ids)
        assert_canonical(Partition.identity(n), range(n))
        assert_canonical(Partition.total(n), [7] * n)
    for n in range(6):
        for k in range(n + 1):
            for subset in itertools.combinations(range(n), k):
                p = Partition.seed_from_subset(n, subset)
                assert_canonical(p, [0 if i in subset else 1 for i in range(n)])


@pytest.mark.parametrize(
    "sig, max_n", [(Signature({"→": 2}), 3), (Signature({"f": 1}), 4)], ids=["implication", "unary"]
)
def test_largest_congruence_below_builds_canonical_ids(sig, max_n):
    for n in range(1, max_n + 1):
        seeds = list(all_partitions(n))
        for alg in enumerate_algebras(sig, n, iso_prune=True):
            for seed in seeds:
                p = largest_congruence_below(alg, seed)
                assert_canonical(p, p.block_ids)


def refines_by_image(p, q):
    """Oracle: p refines q iff the map from p's blocks to q's is a function."""
    image = {}
    for mine, theirs in zip(p.block_ids, q.block_ids):
        if image.setdefault(mine, theirs) != theirs:
            return False
    return True


def test_refines_agrees_with_the_block_image_oracle():
    for n in range(6):
        parts = list(all_partitions(n))
        for p, q in itertools.product(parts, repeat=2):
            assert p.refines(q) == refines_by_image(p, q), (p, q)
    for p, q in ((Partition.identity(3), Partition.total(4)), (Partition.total(0), Partition.total(1))):
        with pytest.raises(ValueError, match="different carriers"):
            p.refines(q)


def assert_counts(p):
    assert p.size == len(p.block_ids)
    assert p.num_blocks == max(p.block_ids, default=-1) + 1


def test_size_and_block_count_are_set_by_every_constructor():
    built = [Partition((5, 5, 2, 5)), Partition((3, 1, 4, 1, 5, 9, 2, 6)), Partition(()),
             Partition._of_canonical((0, 1, 0, 2), 3), Partition._of_canonical((), 0),
             Partition.from_blocks(5, [[4], [3, 1], [0, 2]])]
    parts = list(all_partitions(4))
    built += [p.meet(q) for p, q in itertools.product(parts[::3], repeat=2)]
    built += [p.join(q) for p, q in itertools.product(parts[::3], repeat=2)]
    for p in built:
        assert_counts(p)
        for again in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
            assert again == p and hash(again) == hash(p)
            assert (again.size, again.num_blocks) == (p.size, p.num_blocks)
            assert_counts(again)


def test_every_constructor_path_counts_the_distinct_block_ids(fresh_caches):
    # the block count comes from what each path knows, never from the ids
    unary = Signature({"f": 1})
    for n in range(6):
        parts = list(all_partitions(n))
        built = parts + [Partition.identity(n), Partition.total(n)]
        built += [Partition.seed_from_subset(n, s) for k in range(n + 1)
                  for s in itertools.combinations(range(n), k)]
        built += [Partition(p.block_ids[::-1]) for p in parts]
        built += [Partition.from_blocks(n, p.blocks()) for p in parts]
        built += [p.meet(q) for p, q in zip(parts, reversed(parts))]
        built += [p.join(q) for p, q in zip(parts, reversed(parts))]
        if n:
            for f in ([(a + 1) % n for a in range(n)], [a // 2 for a in range(n)], [0] * n):
                alg = FiniteAlgebra(unary, n, {"f": f})
                built += [largest_congruence_below(alg, p) for p in parts]
        for p in built:
            assert p.num_blocks == len(set(p.block_ids)), (n, p)


def uncached_seed(n, subset):
    inside = set(subset)
    return Partition([0 if i in inside else 1 for i in range(n)])


def test_seed_from_subset_reads_any_iterable_and_keeps_one_partition_per_key():
    n = 5
    for subset in [(1, 3), (3, 1), [3, 1], {1, 3}, (1, 3, 3, 1), (1, 3, 7), (), (0, 1, 2, 3, 4),
                   [0, 2, 9]]:
        assert Partition.seed_from_subset(n, subset) == uncached_seed(n, subset), subset
    assert Partition.seed_from_subset(n, (x for x in (3, 1))) == uncached_seed(n, (1, 3))
    assert Partition.seed_from_subset(4, (0, 2)) is Partition.seed_from_subset(4, (0, 2))


def test_row_keys_are_built_once_over_every_filter_of_one_algebra(fresh_caches):
    alg = bool4()
    for k in range(alg.size + 1):
        for f in itertools.combinations(range(alg.size), k):
            leibniz_congruence(Matrix(alg, f))
    # the empty and the full filter seed the total partition, a congruence
    # returned without a read of the rows
    info = algebra._row_keys.cache_info()
    assert (info.misses, info.hits) == (1, 2 ** alg.size - 3)
