"""Per-swap-pair histograms recovered from the per-pair irrep coefficients.

Agreement with brute-force enumeration, the symmetries and the reference
sum over representatives are covered with the moment tests; these pin the
column-orthogonality step against an independent convolution and check
its guards.
"""

import numpy as np
import pytest

from immom import tsum
from immom.characters import character_table
from immom.partitions import hook_product, partition_list
from immom.symgroup import cycle_keyer, permutation_table
from immom.tsum import t_histogram


def test_empty_swap_sets_are_the_self_convolution():
    # with sigma = rho = identity the pi sum is the self-convolution of an
    # irreducible character, so each product u of V carries H(lam)^2 hatchi(u)
    for n in (1, 2, 3, 4):
        P = permutation_table(n)
        size = len(P)
        pairs = np.concatenate(
            [np.repeat(P, size, axis=0), np.tile(P, (size, 1)) + n], axis=1
        )
        keys = cycle_keyer(2 * n)(pairs)
        cls_of = cycle_keyer(n)(P)
        classes = partition_list(2 * n)
        for lam in partition_list(n):
            chi = character_table(n).row(lam)[cls_of].astype(np.int64)
            expect = np.zeros(len(classes), dtype=np.int64)
            np.add.at(expect, keys, hook_product(lam) ** 2 * np.outer(chi, chi).ravel())
            want = {classes[i]: int(v) for i, v in enumerate(expect) if v}
            assert t_histogram(lam, frozenset(), frozenset()) == want, lam


def test_histogram_rejects_swap_points_outside_one_to_n():
    with pytest.raises(ValueError):
        t_histogram((2, 1), frozenset({4}), frozenset())
    with pytest.raises(ValueError):
        t_histogram((2, 1), frozenset(), frozenset({0}))


def test_histogram_refuses_a_class_sum_that_does_not_divide(monkeypatch):
    # one unit off in a single coefficient leaves a remainder modulo (2n)!
    exact = tsum.pair_coefficient

    def off_by_one(lam, xi, A, B):
        return exact(lam, xi, A, B) + (xi.parts == (4,))

    monkeypatch.setattr(tsum, "pair_coefficient", off_by_one)
    with pytest.raises(ArithmeticError, match="multiple"):
        t_histogram((2,), frozenset({1}), frozenset())
