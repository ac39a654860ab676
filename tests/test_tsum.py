"""Internals of the vectorized pair-sum engine.

The end-to-end contract (histograms equal to brute-force enumeration,
shard additivity through the public interface) is covered with the moment
tests; these pin the building blocks against the scalar permutation code.
"""

from math import comb, factorial

import numpy as np
import pytest

from immom import tsum
from immom.characters import character_table
from immom.moments import representatives
from immom.partitions import hook_product, partition_index, partition_list
from immom.symgroup import Permutation, all_permutations, all_subsets, cycle_keyer
from immom.tsum import histogram_shard_sizes, perm_data, t_histogram_vec


def test_cycle_keyer_matches_scalar_cycle_type():
    for m in (1, 2, 3, 4, 6, 8):
        classify = cycle_keyer(m)
        perms = list(all_permutations(m))
        imgs = np.array([p.img for p in perms], dtype=np.uint8)
        keys = classify(imgs)
        index = partition_index(m)
        expect = np.array([index[p.cycle_type().parts] for p in perms])
        np.testing.assert_array_equal(keys, expect)


def test_perm_data_tables():
    pd = perm_data(4)
    assert pd.size == factorial(4)
    perms = list(all_permutations(4))
    # composition table: MT[a, b] ranks "apply b first, then a"
    for a in (0, 5, 17, 23):
        for b in (1, 8, 22):
            composed = perms[a] * perms[b]
            assert tuple(pd.P[pd.MT[a, b]]) == composed.img
    # inverse table
    for a in range(pd.size):
        assert tuple(pd.P[pd.INV[a]]) == perms[a].inverse().img
    # class labels
    index = partition_index(4)
    for a in range(pd.size):
        assert pd.cls_of[a] == index[perms[a].cycle_type().parts]


def test_perm_data_cached_and_bounded():
    assert perm_data(3) is perm_data(3)
    with pytest.raises(ValueError):
        perm_data(7)


def test_shard_axis_size_closed_form():
    # the shardable axis is the square of the number of minimal coset
    # representatives, which counts the images of B: choose(n, |B|), so a
    # single row when B is empty and K is all of V
    for n in (1, 2, 3, 4):
        for B in all_subsets(n):
            assert histogram_shard_sizes(n, B) == comb(n, len(B)) ** 2


def test_vec_histogram_vector_layout_and_shard_additivity():
    lam = (2, 1)
    A, B = frozenset({1}), frozenset({2, 3})
    whole = t_histogram_vec(lam, A, B)
    assert whole.dtype == np.int64
    assert whole.shape == (len(partition_list(6)),)
    summed = np.zeros_like(whole)
    for shard in range(4):
        summed += t_histogram_vec(lam, A, B, shards=4, shard=shard)
    np.testing.assert_array_equal(summed, whole)


def test_vec_histogram_validates():
    with pytest.raises(ValueError):
        t_histogram_vec((2, 1), frozenset({4}), frozenset())
    with pytest.raises(ValueError):
        t_histogram_vec((2, 1), frozenset(), frozenset(), shards=2, shard=2)


def _histograms(lam, reps):
    """Whole histogram and the sum of three shards for every (A, B)."""
    return {
        (A, B): (
            t_histogram_vec(lam, A, B),
            sum(t_histogram_vec(lam, A, B, shards=3, shard=s) for s in range(3)),
        )
        for _, A, B in reps
    }


@pytest.mark.parametrize(
    "cache_limit", [tsum._KEY_CACHE_LIMIT, 0], ids=["cached", "on_the_fly"]
)
def test_multi_block_path_matches_single_block(monkeypatch, cache_limit):
    # at n <= 5 every call fits in one block; a width of 5 does not divide
    # 4! = 24, so the last block is ragged.  A zero cache limit also runs
    # the path that classifies composites block by block.
    monkeypatch.setattr(tsum, "_KEY_CACHE", {})
    reps = representatives(4)
    expect = {lam: _histograms(lam, reps) for lam in partition_list(4)}
    tsum._KEY_CACHE.clear()
    monkeypatch.setattr(tsum, "_KEY_CACHE_LIMIT", cache_limit)
    monkeypatch.setattr(tsum, "_block_size", lambda *args: 5)
    for lam in partition_list(4):
        got = _histograms(lam, reps)
        for key, (whole, sharded) in expect[lam].items():
            np.testing.assert_array_equal(got[key][0], whole)
            np.testing.assert_array_equal(got[key][1], sharded)
    if not cache_limit:
        assert not tsum._KEY_CACHE


def test_empty_swap_sets_are_the_self_convolution(monkeypatch):
    monkeypatch.setattr(tsum, "_KEY_CACHE", {})
    # with sigma = rho = identity the pi sum is the self-convolution of an
    # irreducible character, so each product u of V carries H(lam)^2 hatchi(u)
    for n in (1, 2, 3, 4):
        pd = perm_data(n)
        pairs = np.concatenate(
            [np.repeat(pd.P, pd.size, axis=0), np.tile(pd.P, (pd.size, 1)) + n], axis=1
        )
        keys = cycle_keyer(2 * n)(pairs)
        for lam in partition_list(n):
            chi = character_table(n).row(lam)[pd.cls_of].astype(np.int64)
            expect = np.zeros(len(partition_list(2 * n)), dtype=np.int64)
            np.add.at(expect, keys, hook_product(lam) ** 2 * np.outer(chi, chi).ravel())
            got = t_histogram_vec(lam, frozenset(), frozenset())
            np.testing.assert_array_equal(got, expect)


def test_key_cache_holds_one_degree(monkeypatch):
    monkeypatch.setattr(tsum, "_KEY_CACHE", {})
    reps = representatives(4)
    before = _histograms((2, 1, 1), reps)
    assert {key[0] for key in tsum._KEY_CACHE} == {4}
    t_histogram_vec((3, 2), frozenset({1}), frozenset({2}))
    assert {key[0] for key in tsum._KEY_CACHE} == {5}
    after = _histograms((2, 1, 1), reps)
    for key, (whole, sharded) in before.items():
        np.testing.assert_array_equal(after[key][0], whole)
        np.testing.assert_array_equal(after[key][1], sharded)
    assert {key[0] for key in tsum._KEY_CACHE} == {4}


def test_block_planner_bounds_memory_and_exactness_at_n6():
    # pure arithmetic: for every n = 6 representative the kernel decomposes
    # by the larger set B, K is S_B x S_(n-B) on each side (|K| = m^2 and m
    # distinct second components) and there are choose(6, |B|)^2 rows
    n, size = 6, factorial(6)
    chimax = int(np.abs(character_table(n).values).max())
    for _, A, B in representatives(n):
        b = max(len(A), len(B))
        m = factorial(b) * factorial(n - b)
        max_term = m * m * chimax**4
        assert max_term < 2**53
        for rows in {-(-comb(n, b) ** 2 // shards) for shards in (1, 2, 3, 7)}:
            for key_bytes in (1, 6 * n + 16):
                block = tsum._block_size(rows, m, size, max_term, key_bytes)
                assert 1 <= block <= size
                nbytes = rows * block * (8 * m + (8 + key_bytes) * size)
                assert nbytes <= tsum._BLOCK_BYTES
                assert rows * block * size * max_term <= 2**52
