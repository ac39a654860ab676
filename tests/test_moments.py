"""Exact moment formulas: means, fourth moments, leading coefficients.

Oracles, in increasing strength:
  * hand values for one and two symbols (E|U11|^2 = 1/d, E|U11|^4 = 2/(d(d+1)));
  * a fully independent entry-level route that expands the immanant and
    integrates monomials with the Weingarten engine (two and four factors);
  * the brute double-coset histogram route (t_histogram_direct,
    second_moment_direct, leading_coefficient_direct), enumerated without
    any of the representative-reduction machinery;
  * classical determinant moments and cross-identities between the
    determinant, permanent, and general routes.
"""

import json
import logging
import re
from fractions import Fraction
from functools import cache
from itertools import permutations
from math import comb, factorial
from pathlib import Path

import pytest

from conftest import interval
from immom import moments, seminormal
from immom.characters import character, character_of
from immom.moments import (
    LEADING_LIMIT,
    SECOND_MOMENT_LIMIT,
    _class_coefficients,
    det_moment,
    j_pair,
    j_pair_direct,
    leading_coefficient,
    leading_coefficient_direct,
    mean,
    mean_dominance_check,
    perm_fourth_conjecture,
    permanent_coefficients,
    second_moment,
    second_moment_direct,
    t_histogram_direct,
)
from immom.partitions import (
    Partition,
    conjugate,
    dim_symmetric,
    hook_product,
    partition_list,
    unitary_numerator,
)
from immom.ratfun import RationalFunction as R
from immom.symgroup import Permutation, all_permutations, all_subsets, theta
from immom.tsum import t_histogram
from immom.weingarten import irreducible_sum, monomial_integral


# ---------------------------------------------------------------------------
# means


def test_mean_hand_values():
    assert mean((1,)) == R.parse("1 / d")
    assert mean((2,)) == R.parse("2 / (d*(d + 1))")
    assert mean((1, 1)) == R.parse("2 / ((d - 1)*d)")
    assert mean((2, 1)) == R.parse("6 / ((d - 1)*d*(d + 1))")


def test_mean_row_and_column_closed_forms():
    for n in range(1, 8):
        row = R.ratio(factorial(n), {i: 1 for i in range(n)})
        col = R.ratio(factorial(n), {-i: 1 for i in range(n)})
        assert mean((n,)) == row
        assert mean((1,) * n) == col


def test_mean_against_entry_level_integration():
    # expand |Imm|^2 into entry monomials and integrate each with the
    # independent Weingarten route
    for n in range(1, 4):
        perms = list(all_permutations(n))
        rows = list(range(1, n + 1))
        for lam in partition_list(n):
            total = R(0)
            for sigma in perms:
                chi_s = character_of(lam, sigma)
                if chi_s == 0:
                    continue
                for tau in perms:
                    chi_t = character_of(lam, tau)
                    if chi_t == 0:
                        continue
                    integral = monomial_integral(
                        rows,
                        list(sigma.to_one_line()),
                        rows,
                        list(tau.to_one_line()),
                    )
                    total += chi_s * chi_t * integral
            assert total == mean(lam), lam


def test_mean_asymptotics():
    for n in range(1, 9):
        for lam in partition_list(n):
            assert mean(lam).leading_asymptotics() == (Fraction(factorial(n)), n)


def test_mean_conjugation_flips_offsets():
    # the column partition's denominator is the row partition's with d -> -d
    # mirrored offsets; spot the general pattern via evaluation
    for n in range(1, 7):
        for lam in partition_list(n):
            f, g = mean(lam), mean(conjugate(lam))
            for d in (n + 1, n + 3, n + 7):
                lhs = f.evaluate(d)
                # reflect: N(lam', d) = |N(lam, -d)|
                rhs = abs(g.evaluate(-d))
                assert lhs == rhs


# ---------------------------------------------------------------------------
# determinant and permanent specials


def test_det_moment_examples():
    assert det_moment(1, 1) == R.parse("1 / d")
    assert det_moment(2, 2) == R.parse("12 / (d^2*(d^2 - 1))")
    assert det_moment(3, 0) == R(1)


def test_det_moment_power_two_matches_column_mean():
    for n in range(1, 7):
        assert det_moment(n, 1) == mean((1,) * n)


def test_det_moment_power_four_matches_general_route():
    for n in range(1, 5):
        assert det_moment(n, 2) == second_moment((1,) * n)


def test_det_moment_sixth_power_value():
    # E|det M|^6 for n = 1 is the sixth entry moment 6/(d(d+1)(d+2))
    assert det_moment(1, 3) == R.parse("6 / (d*(d + 1)*(d + 2))")


def test_det_moment_validates():
    with pytest.raises(ValueError):
        det_moment(0, 1)
    with pytest.raises(ValueError):
        det_moment(2, -1)


def test_perm_conjecture_matches_proven_cases():
    # the closed form is a theorem (permanent_coefficients); the general
    # engine checks it exactly for n <= 5 here and at 6, 7 (and 8, slow) below
    for n in range(1, 6):
        assert perm_fourth_conjecture(n) == second_moment((n,))


def test_perm_conjecture_validates():
    for n in (-1, 0):
        with pytest.raises(ValueError, match=r"^need n >= 1$"):
            perm_fourth_conjecture(n)
        with pytest.raises(ValueError, match=r"^need n >= 1$"):
            permanent_coefficients(n)


def test_permanent_coefficients_match_the_corpus():
    # the Johnson-scheme sum against the engine's recorded integers, n <= 6
    corpus = json.loads(
        (Path(__file__).resolve().parent / "data" / "class_coefficients.json").read_text())
    for n in range(1, 7):
        got = {str(xi): str(a) for xi, a in permanent_coefficients(n).items()}
        assert list(got.items()) == list(corpus[str(n)].items()), n


def test_permanent_coefficients_match_the_engine_at_seven():
    assert irreducible_sum(permanent_coefficients(7)) == second_moment((7,), limit=7)


def test_permanent_coefficients_prove_the_conjecture_through_forty():
    # step 3 of the proof: Gauss's second summation theorem gives each
    # two-row coefficient in closed form, and the odd ones vanish; assembled,
    # the coefficients are perm_fourth_conjecture(n)
    for n in range(1, 41):
        coeffs = permanent_coefficients(n)
        assert list(coeffs) == [Partition((2 * n - 2 * m, 2 * m) if m else (2 * n,))
                                for m in range(n // 2 + 1)], n
        for m, a in enumerate(coeffs.values()):
            root = Fraction(2**n * factorial(n - m) * factorial(2 * m),
                            factorial(n) * 4**m * factorial(m))
            assert a == factorial(n) ** 4 * root**2, (n, m)
        assert irreducible_sum(coeffs) == perm_fourth_conjecture(n), n


def test_perm_conjecture_leading_coefficient():
    for n in range(1, 10):
        assert perm_fourth_conjecture(n).leading_asymptotics() == (
            Fraction(leading_coefficient((n,))),
            2 * n,
        )


# ---------------------------------------------------------------------------
# the double-coset histogram


def test_histogram_matches_direct_route_two_symbols():
    for lam in partition_list(2):
        for A in all_subsets(2):
            for B in all_subsets(2):
                assert t_histogram(lam, A, B) == t_histogram_direct(lam, A, B)


def test_histogram_matches_direct_route_three_symbols_sampled():
    lam_list = partition_list(3)
    pairs = [
        (frozenset(), frozenset()),
        (frozenset({1}), frozenset()),
        (frozenset({1}), frozenset({1})),
        (frozenset({1}), frozenset({2})),
        (frozenset({1, 2}), frozenset({3})),
        (frozenset({1, 2, 3}), frozenset({1, 2, 3})),
    ]
    for lam in lam_list:
        for A, B in pairs:
            assert t_histogram(lam, A, B) == t_histogram_direct(lam, A, B)


def test_histogram_symmetries():
    full = frozenset({1, 2, 3})
    relabel = {1: 2, 2: 3, 3: 1}
    for lam in partition_list(3):
        for A in (frozenset({1}), frozenset({1, 2})):
            for B in (frozenset(), frozenset({2}), frozenset({2, 3})):
                h = t_histogram(lam, A, B)
                assert h == t_histogram(lam, B, A)
                assert h == t_histogram(
                    lam,
                    frozenset(relabel[i] for i in A),
                    frozenset(relabel[i] for i in B),
                )
                assert h == t_histogram(lam, full - A, full - B)


def test_histogram_keys_are_cycle_types_of_doubled_degree():
    lam = Partition((3,))
    h = t_histogram(lam, frozenset({1}), frozenset({2, 3}))
    for mu in h:
        assert mu.n == 2 * lam.n


# ---------------------------------------------------------------------------
# fourth moments


def test_second_moment_single_entry():
    assert second_moment((1,)) == R.parse("2 / (d*(d + 1))")


def test_second_moment_against_entry_level_integration_two_symbols():
    # the strongest independent route: expand |Imm|^4 into four-factor
    # entry monomials and integrate each one
    n = 2
    perms = list(all_permutations(n))
    rows = list(range(1, n + 1))
    for lam in partition_list(n):
        total = R(0)
        for s1 in perms:
            for s2 in perms:
                c_plus = character_of(lam, s1) * character_of(lam, s2)
                if c_plus == 0:
                    continue
                for t1 in perms:
                    for t2 in perms:
                        c = c_plus * character_of(lam, t1) * character_of(lam, t2)
                        if c == 0:
                            continue
                        total += c * monomial_integral(
                            rows + rows,
                            list(s1.to_one_line()) + list(s2.to_one_line()),
                            rows + rows,
                            list(t1.to_one_line()) + list(t2.to_one_line()),
                        )
        assert total == second_moment(lam), lam


def test_second_moment_matches_direct_route():
    for n in range(1, 4):
        for lam in partition_list(n):
            assert second_moment(lam) == second_moment_direct(lam)


def test_second_moment_of_the_empty_shape_is_one():
    # the empty block has immanant 1; the engine reaches one xi = () with
    # no letters and no pairs
    assert second_moment(()) == second_moment_direct(()) == R(1)


def test_second_moment_worker_count_is_immaterial():
    lam = (2, 1)
    assert second_moment(lam, workers=2) == second_moment(lam, workers=1)


def test_second_moment_cauchy_schwarz():
    # E|X|^4 >= (E|X|^2)^2 for every shape and dimension
    for n in range(1, 5):
        for lam in partition_list(n):
            f, g = second_moment(lam), mean(lam)
            for d in (2 * n, 2 * n + 1, 3 * n + 2):
                assert f.evaluate(d) >= g.evaluate(d) ** 2


def test_second_moment_positive_on_valid_range():
    for n in range(1, 5):
        for lam in partition_list(n):
            f = second_moment(lam)
            for d in range(2 * n, 4 * n + 1):
                assert f.evaluate(d) > 0


def test_second_moment_asymptotics_match_leading_coefficient():
    for n in range(1, 6):
        for lam in partition_list(n):
            assert second_moment(lam).leading_asymptotics() == (
                Fraction(leading_coefficient(lam)),
                2 * n,
            )


def test_class_coefficients_recombine_to_second_moment():
    # sum over xi of A_xi / (H(xi) N(xi, d)), recombined here by hand
    for lam in ((2, 1), (2, 2)):
        total = R(0)
        for xi, coeff in seminormal.class_coefficients(lam).items():
            total += R.ratio(coeff, unitary_numerator(xi), den_scalar=hook_product(xi))
        assert total == second_moment(lam), lam


def test_second_moment_limit_guard():
    with pytest.raises(ValueError, match="limit"):
        second_moment((1,) * (SECOND_MOMENT_LIMIT + 1))
    # an explicit limit unlocks nothing dangerous at small sizes
    assert second_moment((2,), limit=SECOND_MOMENT_LIMIT) == second_moment((2,))
    # the cache holds one entry per shape, whatever the limit
    assert second_moment((2, 2)) is second_moment((2, 2), limit=6)


def test_second_moment_column_of_six_is_the_determinant_moment():
    assert second_moment((1,) * 6, limit=6) == det_moment(6, 2)


def test_second_moment_row_of_six_is_the_permanent_conjecture():
    assert second_moment((6,), limit=6) == perm_fourth_conjecture(6)


def test_second_moment_row_of_seven_is_the_permanent_conjecture():
    assert second_moment((7,), limit=7) == perm_fourth_conjecture(7)


def test_second_moment_columns_of_seven_and_eight_are_determinant_moments():
    for n in (7, 8):
        assert second_moment((1,) * n, limit=n) == det_moment(n, 2), n


@pytest.mark.slow
def test_second_moment_row_of_eight_is_the_permanent_conjecture():
    assert second_moment((8,), limit=8) == perm_fourth_conjecture(8)


# ---------------------------------------------------------------------------
# the character-side engine against its per-swap-pair form


def representatives(n):
    """The (multiplicity, A, B) list replacing the full swap-pair double sum.

    A = {1..l} and B = {l-j+1..l+k}; the multiplicity counts how many of
    the 4^n swap pairs the representative stands for.
    """
    reps = []
    for l in range(n + 1):
        for j in range(l + 1):
            for k in range(min(n - l - j, l - j) + 1):
                zeta = 4 // ((1 + (k == n - l - j)) * (1 + (k == l - j)))
                mult = comb(n, l) * comb(l, j) * comb(n - l, k) * zeta
                reps.append((mult, interval(l), interval(l + k, l - j)))
    assert sum(m for m, _, _ in reps) == 4**n
    return reps


@cache
def _summed_pair_coefficients(lam):
    """A_xi as the multiplicity-weighted sum of the per-pair A_xi(A, B)
    over the swap-pair representatives."""
    n = sum(lam)
    coeffs = {}
    for xi in partition_list(2 * n):
        a = sum(mult * seminormal.pair_coefficient(lam, xi, A, B)
                for mult, A, B in representatives(n))
        if a:
            coeffs[xi] = a
    return coeffs


def test_class_coefficients_match_the_enumeration_kernel():
    # the reference enumerates the representatives of the 4^n swap pairs
    for n in range(1, 5):
        for lam in partition_list(n):
            assert _class_coefficients(lam) == _summed_pair_coefficients(lam), lam


def test_fourth_moment_is_the_sum_over_irreps_with_at_most_d_rows():
    # the Weingarten sum over l(xi) <= d is exact at every d (Collins and
    # Sniady); the per-pair route screens no xi by its length, and below
    # d = 2n the restricted sum still equals the closed form
    for n in range(1, 5):
        for lam in partition_list(n):
            coeffs = _summed_pair_coefficients(lam)
            for d in range(n, 2 * n):
                want = sum(R.ratio(a, unitary_numerator(xi), den_scalar=hook_product(xi))
                           .evaluate(d) for xi, a in coeffs.items() if len(xi) <= d)
                assert second_moment(lam).evaluate(d) == want, (lam, d)


def _every_xi_evaluated(monkeypatch):
    """Make the rank screen pass every xi, so the engine evaluates each one."""
    monkeypatch.setattr(seminormal, "projection_rank", lambda lam, xi: 1)


def test_irreps_skipped_for_a_zero_projection_rank_contribute_nothing(monkeypatch):
    shapes = [lam for n in range(1, 5) for lam in partition_list(n)] + [Partition((3, 2))]
    screened = {lam: _class_coefficients(lam) for lam in shapes}
    _every_xi_evaluated(monkeypatch)
    for lam in shapes:
        assert _class_coefficients(lam) == screened[lam], lam


def test_pair_coefficients_skipped_for_a_zero_projection_rank_vanish(monkeypatch):
    cases = [(lam, xi, A, B) for lam in ((2, 1), (2, 2))
             for xi in partition_list(2 * sum(lam))
             for _, A, B in representatives(sum(lam))]
    screened = [seminormal.pair_coefficient(*case) for case in cases]
    _every_xi_evaluated(monkeypatch)
    assert [seminormal.pair_coefficient(*case) for case in cases] == screened


def test_pair_coefficient_can_be_negative():
    # the signed lift: this residue lies in the upper half of the modulus
    assert seminormal.pair_coefficient((2,), (2, 2), frozenset(), frozenset({1})) == -8


def test_engine_refuses_when_the_primes_run_out(monkeypatch):
    lam = (1, 1, 1, 1)
    p = seminormal.PRIMES[0]
    c = (factorial(4) // dim_symmetric(lam)) ** 2
    assert 4**4 * c * c > p  # one prime is below the bound of every xi with q > 0
    # and the per-pair bound, on an xi that passes the projection-rank screen
    column, xi = (1,) * 5, (2, 2, 2, 2, 2)
    assert seminormal.projection_rank(column, xi) > 0
    assert 2 * factorial(5) ** 4 * len(seminormal.tableaux(xi)) > p
    monkeypatch.setattr(seminormal, "PRIMES", (p,))
    with pytest.raises(ArithmeticError, match="bound"):
        _class_coefficients(lam)
    with pytest.raises(ArithmeticError, match="bound"):
        seminormal.pair_coefficient(column, xi, frozenset(), frozenset({1}))


def test_engine_refuses_when_the_corners_miss_the_fixed_rank(monkeypatch):
    rank = seminormal.fixed_rank
    monkeypatch.setattr(seminormal, "fixed_rank", lambda xi, n: rank(xi, n) + 1)
    with pytest.raises(ArithmeticError, match="corner"):
        seminormal.coefficient((2,), (3, 1))


def test_engine_logs_positive_headroom_per_xi(caplog):
    # (2, 2) needs one prime for some xi and two for others
    counts = set()
    for lam in ((2, 1), (2, 2)):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="immom.seminormal"):
            coeffs = _class_coefficients(lam)
        n = sum(lam)
        c = (factorial(n) // dim_symmetric(lam)) ** 2
        lines = [r.getMessage() for r in caplog.records if r.name == "immom.seminormal"]
        assert len(lines) >= len(coeffs)
        for line in lines:
            fields = dict(re.findall(r"(\w+)=(\S+)", line))
            assert {"xi", "f", "q", "primes", "headroom_bits",
                    "seconds"} <= set(fields)
            assert float(fields["headroom_bits"]) > 0
            assert float(fields["seconds"]) >= 0
            # the least number of leading primes whose product exceeds the
            # bound, so no prime was skipped
            bound = 4**n * c * c * int(fields["q"])
            least, modulus = 0, 1
            while modulus <= bound:
                modulus *= seminormal.PRIMES[least]
                least += 1
            assert int(fields["primes"]) == least, line
            counts.add(least)
    assert counts == {1, 2}


def test_engine_logs_why_each_xi_was_skipped(caplog):
    counts = {}
    for lam in ((2, 2), (3, 2)):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="immom.seminormal"):
            coeffs = _class_coefficients(lam)
        lines = [r.getMessage() for r in caplog.records
                 if r.name == "immom.seminormal.shapes"]
        assert len(lines) == 1, lines
        fields = dict(re.findall(r"(\w+)=(\S+)", lines[0]))
        assert fields.pop("lam") == ",".join(map(str, lam))
        assert float(fields.pop("seconds")) >= 0
        residues = int(fields.pop("residues"))
        stages = {k: int(v) for k, v in fields.items()}
        assert set(stages) == {"evaluated", "skipped_contains", "skipped_lr", "skipped_q"}
        assert sum(stages.values()) == len(partition_list(2 * sum(lam)))
        assert stages["evaluated"] >= len(coeffs)
        per_xi = [r.getMessage() for r in caplog.records if r.name == "immom.seminormal"]
        assert len(per_xi) == stages["evaluated"]
        # one residue per prime of each evaluated xi
        assert residues == sum(int(re.search(r"primes=(\d+)", line)[1]) for line in per_xi)
        counts[lam] = stages
    # of the 28 irreps of S_10 that contain (3, 2), 13 have c = 0 (9 of
    # them with q > 0), so 15 are evaluated instead of 24
    assert counts[(3, 2)] == {"evaluated": 15, "skipped_contains": 14,
                              "skipped_lr": 13, "skipped_q": 0}


# ---------------------------------------------------------------------------
# representative reduction bookkeeping


def test_representative_multiplicities_sum_to_four_to_the_n():
    for n in range(1, 7):
        reps = representatives(n)
        assert sum(mult for mult, _, _ in reps) == 4 ** n
        for mult, A, B in reps:
            assert mult > 0
            assert A <= interval(n) and B <= interval(n)


def test_representatives_cover_every_orbit_two_symbols():
    # every (A, B) pair's histogram appears among the representatives'
    n = 2
    reps = representatives(n)
    for lam in partition_list(n):
        rep_hists = [t_histogram(lam, A, B) for _, A, B in reps]
        for A in all_subsets(n):
            for B in all_subsets(n):
                assert t_histogram(lam, A, B) in rep_hists


# ---------------------------------------------------------------------------
# leading coefficients


def test_j_pair_base_case():
    assert j_pair((1,), 0, 0) == 1
    # the empty shape: one orbit pair, the empty permutation, chi = 1
    assert j_pair((), 0, 0) == 1


def test_j_pair_matches_direct_membership_route():
    for n in range(5):
        for lam in partition_list(n):
            for l in range(n + 1):
                for k in range(0, min(l, n - l) + 1):
                    A = interval(l)
                    B = frozenset(theta(l, k, n)(i) for i in A)
                    assert j_pair(lam, l, k) == j_pair_direct(lam, A, B), (
                        lam, l, k,
                    )


@cache
def _composite_types(n, l, k):
    # cycle type of theta(l, k) o (x (+) y) for every x in S_l, y in S_(n-l)
    th = theta(l, k, n)
    return [[(th * Permutation(x + tuple(l + j for j in y))).cycle_type()
             for y in permutations(range(n - l))] for x in permutations(range(l))]


def _j_pair_full_gram(lam, l, k):
    # the unreduced route: F over every (x, y) pair, no orbits, G = F F^T
    # on the smaller side (tr (F F^T)^2 = tr (F^T F)^2)
    F = [[character(lam, ct) for ct in row] for row in _composite_types(lam.n, l, k)]
    if l > lam.n - l:
        F = list(zip(*F))
    total = 0
    for row_p in F:
        for row_m in F:
            total += sum(a * b for a, b in zip(row_p, row_m)) ** 2
    return total


def test_j_pair_matches_the_full_gram_over_every_pair():
    for n in range(7):
        for lam in partition_list(n):
            for l in range(n + 1):
                for k in range(min(l, n - l) + 1):
                    assert j_pair(lam, l, k) == _j_pair_full_gram(lam, l, k), (
                        lam, l, k,
                    )


def test_j_pair_full_swap_is_the_square_of_the_group_order():
    # l = n or l = 0 (k = 0) leaves F[x] = chi(x), whose Gram entry is
    # sum chi^2 = n!; leading_coefficient takes the l = 0 term from this
    shapes = [lam for n in range(1, 8) for lam in partition_list(n)]
    for lam in shapes + [Partition((1,) * 8)]:
        for l in (lam.n, 0):
            assert j_pair(lam, l, 0) == factorial(lam.n) ** 2, (lam, l)


def _cold_j_pair(lam, l, k):
    moments._classes.cache_clear()
    return j_pair(lam, l, k)


def test_j_pair_class_cache_matches_cold_calls_across_degrees():
    calls = [((3, 2), 2, 1), ((2, 2, 1), 2, 1), ((4, 2), 3, 2), ((3, 2, 1), 2, 0),
             ((3, 2), 2, 1), ((1,) * 5, 1, 1), ((2, 2, 1), 2, 1)]
    cold = [_cold_j_pair(*c) for c in calls]
    moments._classes.cache_clear()
    assert [j_pair(*c) for c in calls] == cold


def test_j_pair_class_cache_is_read_only():
    j_pair((4, 2), 2, 1)
    j_pair((3, 2), 1, 0)
    j_pair((2, 2, 1), 3, 2)
    for key in ((6, 2, 1), (5, 1, 0), (5, 2, 2)):
        cls = moments._classes(*key)
        assert not cls.flags.writeable
        with pytest.raises(ValueError):
            cls[0, 0] = 0


def test_j_pair_python_integer_gram_matches_int64(monkeypatch):
    # the int64 Gram and weighted sum against Python integers throughout
    shapes = [lam for n in range(1, 8) for lam in partition_list(n)]
    args = [(lam, l, k) for lam in shapes for l in range(lam.n + 1)
            for k in range(min(l, lam.n - l) + 1)]
    fast = [j_pair(*a) for a in args]
    monkeypatch.setattr(moments, "_INT64_LIMIT", 1)  # every bound is >= 1
    assert [j_pair(*a) for a in args] == fast


def test_j_pair_logs_positive_headroom(caplog):
    with caplog.at_level(logging.DEBUG, logger="immom.moments"):
        leading_coefficient((3, 2, 1))
    lines = [r.getMessage() for r in caplog.records if r.name == "immom.moments"]
    assert len(lines) == sum(l + 1 for l in range(1, 4))  # one per l >= 1 call
    for line in lines:
        fields = dict(re.findall(r"(\w+)=(\S+)", line))
        assert {"lam", "n", "l", "k", "orbits", "contraction",
                "headroom_bits", "seconds"} <= set(fields)
        assert float(fields["seconds"]) >= 0
        assert int(fields["n"]) == 6 and int(fields["l"]) >= 1
        rows, cols = map(int, fields["orbits"].split("x"))
        assert 1 <= rows <= cols
        assert float(fields["headroom_bits"]) > 0


def test_leading_coefficient_matches_direct_route():
    for n in range(1, 5):
        for lam in partition_list(n):
            assert leading_coefficient(lam) == leading_coefficient_direct(lam)


def test_leading_coefficient_column_closed_form():
    for n in range(1, 8):
        assert leading_coefficient((1,) * n) == factorial(n) * factorial(n + 1)


def test_leading_coefficient_conjugation_invariant():
    for n in range(1, 7):
        for lam in partition_list(n):
            assert leading_coefficient(lam) == leading_coefficient(conjugate(lam))


def test_leading_coefficient_past_the_guard_at_eleven():
    assert leading_coefficient((1,) * 11, limit=11) == factorial(11) * factorial(12)
    for lam in [Partition((5, 4, 2)), Partition((4, 3, 2, 1, 1))]:
        assert leading_coefficient(lam, limit=11) == leading_coefficient(
            conjugate(lam), limit=11
        )


@pytest.mark.slow
def test_leading_coefficient_column_of_twelve():
    assert leading_coefficient((1,) * 12, limit=12) == factorial(12) * factorial(13)


def test_leading_coefficient_positive_even():
    for n in range(1, 7):
        for lam in partition_list(n):
            j = leading_coefficient(lam)
            assert j > 0
            assert j % 2 == 0


def test_leading_limit_guard():
    with pytest.raises(ValueError, match="limit"):
        leading_coefficient((1,) * (LEADING_LIMIT + 1))
    assert leading_coefficient((2, 1), limit=3) == leading_coefficient((2, 1))


# ---------------------------------------------------------------------------
# dominance comparison of means


def test_mean_dominance_no_violations():
    for n in range(2, 6):
        for d in range(n, n + 6):
            assert mean_dominance_check(n, d) == []


def test_mean_dominance_two_symbols_values():
    # at n = d = 2 the means are 1/3 for the row and 1 for the column
    assert mean((2,)).evaluate(2) == Fraction(1, 3)
    assert mean((1, 1)).evaluate(2) == 1
    assert mean_dominance_check(2, 2) == []


# ---------------------------------------------------------------------------
# package surface


def test_every_exported_name_resolves():
    import immom

    for name in immom.__all__:
        assert hasattr(immom, name), name
