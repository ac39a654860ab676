"""Permutations and the special elements of the doubled symmetric group.

Oracles: hand-checked small cases, counting arguments (orders of the
subgroups generated), and algebraic identities among embed_pair, epsilon,
and theta that each route verifies element by element.
"""

import tracemalloc
from itertools import combinations, permutations
from math import factorial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import interval
from immom.characters import class_size
from immom.partitions import Partition, partition_index, partition_list
from immom.symgroup import (
    _KEY_BLOCK,
    Permutation,
    all_permutations,
    all_subsets,
    cycle_keyer,
    embed_pair,
    epsilon,
    marked_orbits,
    permutation_table,
    theta,
)


def perm_strategy(max_m=7):
    return st.integers(min_value=1, max_value=max_m).flatmap(
        lambda m: st.permutations(list(range(m)))
    ).map(Permutation)


# ---------------------------------------------------------------------------
# Permutation basics


def test_one_line_round_trip():
    p = Permutation.one_line([2, 3, 1])
    assert p.to_one_line() == (2, 3, 1)
    assert p(1) == 2 and p(2) == 3 and p(3) == 1
    assert p.degree == 3


def test_rejects_non_permutation():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))
    with pytest.raises(ValueError):
        Permutation((1, 2, 3))  # 0-indexed images required


def test_identity_and_composition_convention():
    e = Permutation.identity(4)
    a = Permutation.one_line([2, 3, 1, 4])  # 3-cycle (1 2 3)
    b = Permutation.one_line([2, 1, 3, 4])  # transposition (1 2)
    assert a * e == a and e * a == a
    # (a o b)(i) = a(b(i)): apply b first
    ab = a * b
    assert [ab(i) for i in (1, 2, 3, 4)] == [a(b(i)) for i in (1, 2, 3, 4)]
    assert ab.to_one_line() == (3, 2, 1, 4)


def test_inverse():
    for p in all_permutations(4):
        assert p * p.inverse() == Permutation.identity(4)
        assert p.inverse() * p == Permutation.identity(4)


@given(perm_strategy(), perm_strategy(), perm_strategy())
def test_composition_associative(a, b, c):
    m = max(a.degree, b.degree, c.degree)

    def pad(p):
        return Permutation(tuple(p.img) + tuple(range(p.degree, m)))

    a, b, c = pad(a), pad(b), pad(c)
    assert (a * b) * c == a * (b * c)


def test_cycle_type_examples():
    assert Permutation.identity(4).cycle_type() == Partition((1, 1, 1, 1))
    assert Permutation.one_line([2, 3, 1]).cycle_type() == Partition((3,))
    assert Permutation.one_line([2, 1, 4, 3]).cycle_type() == Partition((2, 2))
    assert Permutation.one_line([2, 3, 4, 5, 1]).cycle_type() == Partition((5,))


def test_cycle_type_class_invariant():
    # conjugation preserves the cycle type
    for p in all_permutations(4):
        for g in all_permutations(4):
            assert (g * p * g.inverse()).cycle_type() == p.cycle_type()


def test_sign_examples_and_homomorphism():
    assert Permutation.identity(5).sign() == 1
    assert Permutation.one_line([2, 1, 3]).sign() == -1
    assert Permutation.one_line([2, 3, 1]).sign() == 1
    for a in all_permutations(4):
        for b in all_permutations(4):
            assert (a * b).sign() == a.sign() * b.sign()


def test_all_permutations_order_and_count():
    perms = list(all_permutations(3))
    assert [p.to_one_line() for p in perms] == [
        (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1),
    ]
    for m in range(6):
        assert len(list(all_permutations(m))) == factorial(m)


def test_permutation_table_matches_itertools_order():
    for m in range(9):
        want = np.array(list(permutations(range(m))), dtype=np.uint8)
        want = want.reshape(factorial(m), m)
        got = permutation_table(m)
        assert got.dtype == np.uint8
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def test_cycle_keyer_matches_scalar_cycle_type():
    for m in (1, 2, 3, 4, 6, 8):
        classify = cycle_keyer(m)
        perms = list(all_permutations(m))
        imgs = np.array([p.img for p in perms], dtype=np.uint8)
        keys = classify(imgs)
        index = partition_index(m)
        expect = np.array([index[p.cycle_type().parts] for p in perms])
        np.testing.assert_array_equal(keys, expect)


def test_cycle_keyer_blocks_match_scalar_cycle_type():
    # batch sizes around the block boundary, and a non-contiguous view
    m = 7
    classify = cycle_keyer(m)
    index = partition_index(m)
    rng = np.random.default_rng(5)
    for count in (0, 1, _KEY_BLOCK - 1, _KEY_BLOCK, _KEY_BLOCK + 1,
                  3 * _KEY_BLOCK + 5):
        batch = np.argsort(rng.random((count, m)), axis=1).astype(np.uint8)
        want = [index[Permutation(row).cycle_type().parts] for row in batch.tolist()]
        got = classify(batch)
        assert got.dtype == np.uint8 and got.shape == (count,)
        assert got.tolist() == want, count
    view = np.argsort(rng.random((2 * _KEY_BLOCK + 6, m)), axis=1).astype(np.uint8)[::2]
    assert not view.flags.c_contiguous
    want = [index[Permutation(row).cycle_type().parts] for row in view.tolist()]
    assert classify(view).tolist() == want


def test_cycle_keyer_memory_is_bounded_by_the_block():
    # 300 000 degree-12 rows in one piece peaked at 11.6 MiB
    rng = np.random.default_rng(6)
    batch = np.argsort(rng.random((300_000, 12)), axis=1).astype(np.uint8)
    classify = cycle_keyer(12)
    classify(batch[:1])
    tracemalloc.start()
    try:
        classify(batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_marked_orbits_partition_the_group_under_the_pointwise_stabiliser():
    # brute force: conjugate each representative by every permutation that
    # fixes the marked points 0..k-1, and check the orbits tile S_m exactly
    for m in range(7):
        group = set(permutations(range(m)))
        for k in range(m + 1):
            reps, sizes = marked_orbits(m, k)
            assert reps.dtype == np.uint8 and reps.shape == (len(sizes), m)
            assert not reps.flags.writeable and not sizes.flags.writeable
            stab = [tuple(range(k)) + h for h in permutations(range(k, m))]
            seen = set()
            for rep, size in zip(reps.tolist(), sizes.tolist()):
                orbit = set()
                for h in stab:
                    conj = [0] * m
                    for i in range(m):
                        conj[h[i]] = h[rep[i]]  # h rep h^-1
                    orbit.add(tuple(conj))
                assert len(orbit) == size, (m, k, rep)
                assert not orbit & seen, (m, k, rep)
                seen |= orbit
            assert seen == group, (m, k)


def test_marked_orbits_ends():
    reps, sizes = marked_orbits(0, 0)
    assert reps.shape == (1, 0) and sizes.tolist() == [1]
    # no marked point: one orbit per conjugacy class, in canonical order
    reps, sizes = marked_orbits(5, 0)
    assert [Permutation(r).cycle_type() for r in reps.tolist()] == list(partition_list(5))
    assert sizes.tolist() == [class_size(mu) for mu in partition_list(5)]
    # every point marked: the stabiliser is trivial, so every orbit is one element
    reps, sizes = marked_orbits(4, 4)
    assert sorted(map(tuple, reps.tolist())) == sorted(permutations(range(4)))
    assert set(sizes.tolist()) == {1}
    with pytest.raises(ValueError):
        marked_orbits(2, 3)


# ---------------------------------------------------------------------------
# index sets


def test_all_subsets():
    subs = list(all_subsets(3))
    assert len(subs) == 8
    assert len(set(subs)) == 8
    assert subs[0] == frozenset()
    assert subs[-1] == {1, 2, 3}
    for n in range(6):
        assert len(list(all_subsets(n))) == 2 ** n


# ---------------------------------------------------------------------------
# block-diagonal embedding


def test_embed_pair_identity():
    n = 3
    e = Permutation.identity(n)
    assert embed_pair(e, e) == Permutation.identity(2 * n)


def test_embed_pair_blocks():
    p = Permutation.one_line([2, 1])          # swap in the plus block
    q = Permutation.identity(2)
    pe = embed_pair(p, q)
    assert pe.to_one_line() == (2, 1, 3, 4)
    qe = embed_pair(q, p)
    assert qe.to_one_line() == (1, 2, 4, 3)
    with pytest.raises(ValueError):
        embed_pair(p, Permutation.identity(3))


def test_embed_pair_is_homomorphism():
    for n in (2, 3):
        perms = list(all_permutations(n))
        for p1 in perms:
            for q1 in perms:
                for p2 in perms:
                    for q2 in perms:
                        assert embed_pair(p1 * p2, q1 * q2) == (
                            embed_pair(p1, q1) * embed_pair(p2, q2)
                        )


def test_embed_pair_cycle_type_is_multiset_union():
    for n in (2, 3, 4):
        for p in all_permutations(n):
            for q in all_permutations(n):
                merged = sorted(
                    p.cycle_type().parts + q.cycle_type().parts, reverse=True
                )
                assert embed_pair(p, q).cycle_type() == Partition(merged)


def test_embedded_subgroup_order():
    # the embedded copies of S_n x S_n inside S_2n are (n!)^2 distinct
    # elements for every n up to 6
    for n in range(1, 7):
        images = {
            embed_pair(p, q).img
            for p in all_permutations(n)
            for q in all_permutations(n)
        }
        assert len(images) == factorial(n) ** 2


# ---------------------------------------------------------------------------
# epsilon


def test_epsilon_examples():
    n = 3
    assert epsilon(frozenset(), n) == Permutation.identity(2 * n)
    e1 = epsilon({1}, n)
    assert e1.to_one_line() == (4, 2, 3, 1, 5, 6)
    e13 = epsilon({1, 3}, n)
    assert e13.to_one_line() == (4, 2, 6, 1, 5, 3)
    with pytest.raises(ValueError):
        epsilon({4}, 3)
    with pytest.raises(ValueError):
        epsilon({0}, 3)


def test_epsilon_cycle_type():
    # epsilon(A) is a product of |A| disjoint transpositions in S_2n
    n = 6
    A = {2, 3, 5}
    expect = Partition([2] * len(A) + [1] * (2 * n - 2 * len(A)))
    assert epsilon(A, n).cycle_type() == expect


def test_epsilon_involution_and_symmetric_difference():
    for n in range(1, 5):
        subs = list(all_subsets(n))
        eps = {A: epsilon(A, n) for A in subs}
        for A in subs:
            assert eps[A] * eps[A] == Permutation.identity(2 * n)
            for B in subs:
                assert eps[A] * eps[B] == eps[frozenset(A ^ B)]


def test_epsilon_conjugation_relabels_the_subset():
    # conjugating epsilon(A) by the doubled alpha gives epsilon(alpha(A))
    for n in (2, 3, 4):
        subs = list(all_subsets(n))
        for alpha in all_permutations(n):
            g = embed_pair(alpha, alpha)
            for A in subs:
                image = frozenset(alpha(i) for i in A)
                assert g * epsilon(A, n) * g.inverse() == epsilon(image, n)


# ---------------------------------------------------------------------------
# theta


def test_theta_examples():
    assert theta(0, 0, 4) == Permutation.identity(4)
    assert theta(2, 0, 5) == Permutation.identity(5)
    # l=2, k=1: swap {1} with {3}
    assert theta(2, 1, 4).to_one_line() == (3, 2, 1, 4)
    # l=2, k=2: swap {1,2} with {3,4}
    assert theta(2, 2, 4).to_one_line() == (3, 4, 1, 2)
    assert theta(3, 2, 6).to_one_line() == (4, 5, 3, 1, 2, 6)


def test_theta_validates():
    with pytest.raises(ValueError):
        theta(1, 2, 4)  # k > l
    with pytest.raises(ValueError):
        theta(3, 2, 4)  # l + k > n
    with pytest.raises(ValueError):
        theta(2, -1, 4)


def test_theta_involution_and_cycle_type():
    for n in range(1, 7):
        for l in range(n + 1):
            for k in range(0, min(l, n - l) + 1):
                t = theta(l, k, n)
                assert t * t == Permutation.identity(n)
                expect = Partition([2] * k + [1] * (n - 2 * k))
                assert t.cycle_type() == expect


def test_theta_moves_exactly_the_two_windows():
    n, l, k = 7, 3, 2
    t = theta(l, k, n)
    moved = {i for i in range(1, n + 1) if t(i) != i}
    assert moved == interval(k) | interval(l + k, l)
