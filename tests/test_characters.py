"""Irreducible characters of symmetric groups.

Oracles: the hand table for three symbols (2, 0, -1 for the mixed shape),
the trivial and sign rows in closed form, first/second orthogonality,
the convolution identity verified by brute force over group elements,
and dimension consistency with the hook formula.
"""

import time
from math import factorial

import numpy as np
import pytest

from immom.characters import (
    CharacterTable,
    character,
    character_of,
    character_row,
    character_table,
    class_size,
)
from immom.partitions import (
    Partition,
    conjugate,
    dim_symmetric,
    partition_list,
)
from immom.symgroup import Permutation, all_permutations, embed_pair


# ---------------------------------------------------------------------------
# hand values and closed-form rows


def test_mixed_shape_of_three():
    assert character((2, 1), (1, 1, 1)) == 2
    assert character((2, 1), (2, 1)) == 0
    assert character((2, 1), (3,)) == -1


def test_trivial_row_is_all_ones():
    for m in range(1, 8):
        for mu in partition_list(m):
            assert character((m,), mu) == 1


def test_sign_row():
    for m in range(1, 8):
        for mu in partition_list(m):
            sign = (-1) ** (m - len(mu.parts))
            assert character((1,) * m, mu) == sign


def test_identity_column_is_dimension():
    for m in range(1, 9):
        e = (1,) * m
        for lam in partition_list(m):
            assert character(lam, e) == dim_symmetric(lam)


def test_degree_mismatch_rejected():
    with pytest.raises(ValueError):
        character((2, 1), (2, 2))


def test_known_table_of_four():
    # classes in canonical order: (4), (3,1), (2,2), (2,1,1), (1,1,1,1)
    expected = {
        (4,): [1, 1, 1, 1, 1],
        (3, 1): [-1, 0, -1, 1, 3],
        (2, 2): [0, -1, 2, 0, 2],
        (2, 1, 1): [1, 0, -1, -1, 3],
        (1, 1, 1, 1): [-1, 1, 1, -1, 1],
    }
    t = character_table(4)
    for lam, row in expected.items():
        assert list(t.row(Partition(lam))) == row


# ---------------------------------------------------------------------------
# character_of


def test_character_of_permutation():
    p = Permutation.one_line([2, 3, 1])  # 3-cycle
    assert character_of((2, 1), p) == -1
    assert character_of((3,), p) == 1
    assert character_of((1, 1, 1), p) == 1


# ---------------------------------------------------------------------------
# class sizes


def test_class_size_examples():
    assert class_size((1, 1, 1)) == 1
    assert class_size((2, 1)) == 3
    assert class_size((3,)) == 2
    assert class_size((2, 2)) == 3
    for m in range(1, 9):
        assert class_size((m,)) == factorial(m - 1)


def test_class_sizes_sum_to_group_order():
    for m in range(1, 10):
        assert sum(class_size(mu) for mu in partition_list(m)) == factorial(m)


def test_class_size_counts_actual_elements():
    for m in range(1, 6):
        counts = {}
        for p in all_permutations(m):
            key = p.cycle_type().parts
            counts[key] = counts.get(key, 0) + 1
        for mu in partition_list(m):
            assert class_size(mu) == counts[mu.parts]


# ---------------------------------------------------------------------------
# orthogonality


def test_row_orthogonality():
    for m in range(1, 9):
        t = character_table(m)
        rows = t.values.astype(object)
        sizes = np.array(t.class_sizes, dtype=object)
        gram = (rows * sizes) @ rows.T
        expect = factorial(m) * np.eye(len(rows), dtype=object)
        assert (gram == expect).all()


def test_column_orthogonality():
    for m in range(1, 9):
        t = character_table(m)
        cols = t.values.T.astype(object)
        order = factorial(m)
        for i, mu in enumerate(partition_list(m)):
            for j in range(len(cols)):
                inner = int((cols[i] * cols[j]).sum())
                if i == j:
                    assert inner * class_size(mu) == order
                else:
                    assert inner == 0


def test_conjugate_shape_twists_by_sign():
    for m in range(1, 9):
        for lam in partition_list(m):
            lam_c = conjugate(lam)
            for mu in partition_list(m):
                sign = (-1) ** (m - len(mu.parts))
                assert character(lam_c, mu) == sign * character(lam, mu)


def test_convolution_identity():
    # sum over pairs (pi, gamma) of chi_lam(pi) chi_lam(gamma)
    # chi_xi(pi gamma^{-1}) equals delta(xi, lam) (m!)^2 / dim(xi)
    for m in range(1, 6):
        perms = list(all_permutations(m))
        order = len(perms)
        index = {p.img: i for i, p in enumerate(perms)}
        prod_inv = np.empty((order, order), dtype=np.int64)
        for a, pa in enumerate(perms):
            for b, pb in enumerate(perms):
                prod_inv[a, b] = index[(pa * pb.inverse()).img]
        t = character_table(m)
        col_index = {mu.parts: i for i, mu in enumerate(partition_list(m))}
        class_of = np.array([col_index[p.cycle_type().parts] for p in perms])
        for lam in partition_list(m):
            v = t.row(lam)[class_of].astype(np.int64)
            for xi in partition_list(m):
                w = t.row(xi)[class_of].astype(np.int64)
                total = int(v @ w[prod_inv] @ v)
                if xi == lam:
                    assert total * dim_symmetric(xi) == factorial(m) ** 2
                else:
                    assert total == 0


def test_character_multiplied_by_class_size_is_integral_column_sum():
    # sum over a full column weighted by dimensions recovers the regular
    # character: m! at the identity, 0 elsewhere
    for m in range(1, 8):
        t = character_table(m)
        dims = np.array([dim_symmetric(lam) for lam in partition_list(m)], dtype=object)
        for j, mu in enumerate(partition_list(m)):
            total = int((dims * t.values[:, j].astype(object)).sum())
            if mu.parts == (1,) * m:
                assert total == factorial(m)
            else:
                assert total == 0


# ---------------------------------------------------------------------------
# the table object


def test_table_layout_and_lookup():
    t = character_table(5)
    ps = partition_list(5)
    assert t.values.shape == (len(ps), len(ps))
    assert t.values.dtype == np.int64
    # identity class is the last column in canonical order
    assert ps[-1].parts == (1, 1, 1, 1, 1)
    np.testing.assert_array_equal(
        t.values[:, -1], [dim_symmetric(lam) for lam in ps]
    )
    for lam in ps:
        for j, mu in enumerate(ps):
            assert t.value(lam, mu) == t.row(lam)[j]


def test_table_values_frozen():
    t = character_table(4)
    with pytest.raises(ValueError):
        t.values[0, 0] = 99


def test_table_cached():
    assert character_table(6) is character_table(6)


def test_character_row_is_the_table_row():
    for m in range(10):
        table = character_table(m)
        for lam in partition_list(m):
            row = character_row(lam)
            assert row.dtype == np.int64 and not row.flags.writeable
            assert np.array_equal(row, table.row(lam)), lam
            # built once per shape, whatever form the shape is given in
            assert character_row(lam) is row
            assert character_row(list(lam.parts)) is row


def test_large_table_builds_quickly():
    # the table for eighteen symbols (385 shapes) must build in well under
    # a minute; it typically takes about a second
    t0 = time.perf_counter()
    t = character_table(18)
    elapsed = time.perf_counter() - t0
    assert t.values.shape == (385, 385)
    assert elapsed < 60.0
    # spot checks: trivial row, sign row, dimension column
    assert (t.row(Partition((18,))) == 1).all()
    assert t.value(Partition((1,) * 18), Partition((18,))) == -1
    assert t.value(Partition((17, 1)), Partition((1,) * 18)) == 17
