"""Weingarten calculus.

Oracles: closed forms for one, two, and three symbols derived by hand from
the character-sum definition (the two-symbol pair comes from inverting the
2x2 Gram matrix of the permutation operators, the three-symbol triple from
the analogous 6x6 system); entry-moment values checkable against direct
parametrization of small unitary groups; a Monte Carlo cross-check; and
the per-pair Weingarten double sum over scalar Permutations, against which
the cycle-type grouping of monomial_integral is compared.
"""

from fractions import Fraction
from itertools import permutations as iter_permutations, product
from math import factorial

import numpy as np
import pytest

from immom.ratfun import RationalFunction as R
from immom.sampler import estimate_monomial
from immom.symgroup import all_permutations
from immom.weingarten import monomial_integral, weingarten


# ---------------------------------------------------------------------------
# closed forms, hand-derived


CLOSED_FORMS = {
    (): "1",
    (1,): "1 / d",
    (1, 1): "1 / ((d - 1)*(d + 1))",
    (2,): "-1 / ((d - 1)*d*(d + 1))",
    (1, 1, 1): "(d^2 - 2) / ((d - 2)*(d - 1)*d*(d + 1)*(d + 2))",
    (2, 1): "-1 / ((d - 2)*(d - 1)*(d + 1)*(d + 2))",
    (3,): "2 / ((d - 2)*(d - 1)*d*(d + 1)*(d + 2))",
}


def test_closed_forms_up_to_three_symbols():
    for rho, s in CLOSED_FORMS.items():
        assert weingarten(rho) == R.parse(s), rho


def test_values_at_small_dimension():
    assert weingarten((1,), 1) == 1
    assert weingarten((1,), 4) == Fraction(1, 4)
    assert weingarten((1, 1), 2) == Fraction(1, 3)
    assert weingarten((2,), 2) == Fraction(-1, 6)
    assert weingarten((2,), 3) == Fraction(-1, 24)


def test_pole_below_symbol_count_raises():
    # the rational form continues analytically below d = m, but exact
    # evaluation at its poles must refuse
    with pytest.raises((ZeroDivisionError, ValueError)):
        weingarten((1, 1), 1)
    with pytest.raises((ZeroDivisionError, ValueError)):
        weingarten((3,), 2)


def test_character_sum_structure_at_four_symbols():
    # independent route for one value: the sum over the five shapes of
    # chi(rho)/(H * N) with hand dimensions at rho = identity of S_4
    from immom.partitions import hook_product, partition_list, unitary_numerator

    d = 7
    total = Fraction(0)
    for xi in partition_list(4):
        from immom.characters import character

        chi = character(xi, (1, 1, 1, 1))
        num = Fraction(1)
        for off, mult in unitary_numerator(xi).items():
            num *= Fraction(d + off) ** mult
        total += Fraction(chi) / (hook_product(xi) * num)
    assert weingarten((1, 1, 1, 1), d) == total


# ---------------------------------------------------------------------------
# entry moments


def test_single_entry_second_moment():
    assert monomial_integral([1], [1], [1], [1]) == R.parse("1 / d")


def test_two_entry_moments():
    # E U11 U22 conj(U11) conj(U22)
    assert monomial_integral([1, 2], [1, 2], [1, 2], [1, 2]) == R.parse(
        "1 / ((d - 1)*(d + 1))"
    )
    # E U11 U12 conj(U11) conj(U12): shared row, distinct columns
    assert monomial_integral([1, 1], [1, 2], [1, 1], [1, 2]) == R.parse(
        "1 / (d*(d + 1))"
    )
    # E |U11|^4
    assert monomial_integral([1, 1], [1, 1], [1, 1], [1, 1]) == R.parse(
        "2 / (d*(d + 1))"
    )
    # E U11 U22 conj(U12) conj(U21): the exchange term
    assert monomial_integral([1, 2], [1, 2], [1, 2], [2, 1]) == R.parse(
        "-1 / ((d - 1)*d*(d + 1))"
    )


def test_three_entry_moment():
    assert monomial_integral([1] * 3, [1] * 3, [1] * 3, [1] * 3) == R.parse(
        "6 / (d*(d + 1)*(d + 2))"
    )


def test_unbalanced_monomials_vanish():
    assert monomial_integral([1], [1], [2], [2]).is_zero()
    assert monomial_integral([1, 1], [1, 2], [1, 1], [1, 1]).is_zero()
    assert monomial_integral([1, 2], [1, 1], [1, 3], [1, 1]).is_zero()


def test_empty_monomial_is_one():
    assert monomial_integral([], [], [], []) == R(1)


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        monomial_integral([1, 2], [1], [1, 2], [1, 2])


def test_unitarity_row_sum():
    # summing E |U_1j|^2 over a full row of any fixed dimension gives 1
    for d in range(1, 7):
        total = sum(
            monomial_integral([1], [j], [1], [j], d) for j in range(1, d + 1)
        )
        assert total == 1


def test_orthogonality_of_rows():
    # E of sum_j U_1j conj(U_2j) is 0 entry by entry
    for j in (1, 2, 3):
        assert monomial_integral([1], [j], [2], [j]).is_zero()


def test_slot_permutation_invariance():
    rng = np.random.default_rng(7)
    for m in (2, 3):
        for _ in range(6):
            rows = list(rng.integers(1, 4, m))
            cols = list(rng.integers(1, 4, m))
            crows = list(rng.permutation(rows))
            ccols = list(rng.permutation(cols))
            base = monomial_integral(rows, cols, crows, ccols)
            for perm in iter_permutations(range(m)):
                r = [rows[i] for i in perm]
                c = [cols[i] for i in perm]
                assert monomial_integral(r, c, crows, ccols) == base
            for perm in iter_permutations(range(m)):
                cr = [crows[i] for i in perm]
                cc = [ccols[i] for i in perm]
                assert monomial_integral(rows, cols, cr, cc) == base


def test_global_relabeling_invariance():
    # renaming matrix indices by any injection leaves the integral unchanged
    rows, cols = [1, 2], [1, 1]
    crows, ccols = [2, 1], [1, 1]
    base = monomial_integral(rows, cols, crows, ccols)
    relabel = {1: 5, 2: 3}
    assert monomial_integral(
        [relabel[i] for i in rows],
        cols,
        [relabel[i] for i in crows],
        ccols,
    ) == base


def test_monte_carlo_agreement():
    # sampled moments match the exact integrals within five standard errors
    cases = [
        ([1], [1], [1], [1], 3),
        ([1, 2], [1, 2], [1, 2], [1, 2], 4),
        ([1, 1], [1, 2], [1, 1], [1, 2], 5),
        ([1, 1, 1], [1, 1, 1], [1, 1, 1], [1, 1, 1], 6),
        ([1, 2], [1, 2], [1, 2], [2, 1], 2),
    ]
    for k, (r, c, cr, cc, d) in enumerate(cases):
        exact = float(monomial_integral(r, c, cr, cc, d))
        est = estimate_monomial(r, c, cr, cc, d, samples=10**5, seed=900 + k)
        assert abs(est.estimate.real - exact) <= 5 * est.stderr
        assert abs(est.estimate.imag) <= 5 * est.stderr


# ---------------------------------------------------------------------------
# the cycle-type grouping against the per-pair double sum


def per_pair_integral(rows, cols, conj_rows, conj_cols, d=None):
    """The Weingarten double sum one pair at a time: W of the cycle type of
    sigma tau^-1 added once per pairing pair, built from scalar
    Permutations."""
    m = len(rows)

    def matchers(left, right):
        return [p for p in all_permutations(m)
                if all(left[s] == right[p.img[s]] for s in range(m))]

    total = R(0)
    for sigma in matchers(rows, conj_rows):
        for tau in matchers(cols, conj_cols):
            total += weingarten((sigma * tau.inverse()).cycle_type())
    return total if d is None else total.evaluate(d)


def test_grouped_sum_matches_per_pair_sum_on_every_small_pattern():
    for m in range(3):
        for rows, cols, crows, ccols in product(product((1, 2), repeat=m), repeat=4):
            assert monomial_integral(rows, cols, crows, ccols) == per_pair_integral(
                rows, cols, crows, ccols), (rows, cols, crows, ccols)


def test_grouped_sum_matches_per_pair_sum_on_random_patterns():
    rng = np.random.default_rng(37)
    vanishing = 0
    for _ in range(200):
        m = int(rng.integers(3, 6))
        rows, cols = rng.integers(1, 4, m).tolist(), rng.integers(1, 4, m).tolist()
        # one pattern in four draws its conjugate rows afresh, so that the
        # row multisets usually differ and the integral vanishes
        crows = (rng.integers(1, 4, m) if rng.random() < 0.25
                 else rng.permutation(rows)).tolist()
        ccols = rng.permutation(cols).tolist()
        expected = per_pair_integral(rows, cols, crows, ccols)
        assert monomial_integral(rows, cols, crows, ccols) == expected, (
            rows, cols, crows, ccols)
        vanishing += expected.is_zero()
    assert 10 <= vanishing < 200


def test_grouped_sum_matches_per_pair_sum_at_integer_dimension():
    empty = ([], [], [], [])
    assert monomial_integral(*empty, 3) == per_pair_integral(*empty, 3) == 1
    for pattern in (([1, 1, 2], [1, 2, 2], [2, 1, 1], [2, 1, 2]),
                    ([1, 2, 3], [1, 1, 1], [3, 2, 1], [1, 1, 1]),
                    ([1, 1, 2, 2], [1, 2, 1, 2], [1, 2, 1, 2], [2, 2, 1, 1])):
        assert monomial_integral(*pattern, 7) == per_pair_integral(*pattern, 7), pattern


def entry_moment(m):
    """E |U11|^(2m) = m! / (d (d + 1) ... (d + m - 1)), as a RationalFunction."""
    return R.parse(f"{factorial(m)} / (" + "*".join(
        ["d"] + [f"(d + {k})" for k in range(1, m)]) + ")")


def test_all_equal_indices_give_the_entry_moment_up_to_six():
    for m in range(1, 7):
        assert monomial_integral([1] * m, [1] * m, [1] * m, [1] * m) == entry_moment(m), m


@pytest.mark.slow
def test_all_equal_indices_give_the_entry_moment_at_seven():
    assert monomial_integral([1] * 7, [1] * 7, [1] * 7, [1] * 7) == entry_moment(7)
