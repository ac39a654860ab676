"""Acceptance gate: the eleven primary criteria, one test per criterion.

Each test prints exactly one [PASS]/[FAIL] line (bypassing capture, so the
line survives into piped logs) and then asserts.  Criterion 2 compares the
engine against the published reference table verbatim; two of the thirteen
published fourth-moment rows carry documented misprints, so that criterion
fails honestly, with the full diagnosis in the failure message and the
machine-checkable misprint relations asserted green in the companion test.

The long-running optional check (the n = 10 Monte Carlo permanent run)
carries the `slow` marker and is excluded from the default run.
"""

import json
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from importlib import resources
from math import factorial

import numpy as np
import pytest

from immom.characters import character_table
from immom.moments import (
    det_moment,
    j_pair_direct,
    leading_coefficient,
    leading_coefficient_direct,
    mean,
    mean_dominance_check,
    perm_fourth_conjecture,
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
)
from immom.ratfun import RationalFunction as R
from immom.sampler import estimate_moment, estimate_monomial, moment_scan
from immom.symgroup import all_subsets
from immom.tsum import t_histogram
from immom.weingarten import monomial_integral, weingarten


ANNOUNCED = []


def announce(num, name, ok, detail=""):
    tail = f"  ({detail})" if detail else ""
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name}{tail}"
    # collected by the terminal-summary hook in conftest.py, which replays
    # the lines after capture ends so they always reach the run log
    ANNOUNCED.append(line)
    print(line, file=sys.__stdout__, flush=True)


@contextmanager
def criterion(num, name):
    """Guarantee exactly one [PASS]/[FAIL] line however the body exits."""
    info = {"detail": ""}
    try:
        yield info
    except BaseException:
        announce(num, name, False, info["detail"])
        raise
    announce(num, name, True, info["detail"])


GOLDEN = json.loads(
    resources.files("immom.data").joinpath("golden_tables.json").read_text()
)

_SECOND_MEMO = {}


def cached_second_moment(lam):
    """second_moment, memoized across the criteria of this module."""
    key = Partition(lam) if not isinstance(lam, Partition) else lam
    if key.parts not in _SECOND_MEMO:
        _SECOND_MEMO[key.parts] = second_moment(key)
    return _SECOND_MEMO[key.parts]


# ---------------------------------------------------------------------------
# criterion 1: reference means


def test_criterion_01_table1_means():
    with criterion(1, "reference means, 13 rows exact") as info:
        t0 = time.perf_counter()
        bad = [
            str(Partition(row["lambda"]))
            for row in GOLDEN["table1"]
            if mean(Partition(row["lambda"])) != R.parse(row["mean"])
        ]
        elapsed = time.perf_counter() - t0
        info["detail"] = f"{13 - len(bad)}/13 match, {elapsed:.3f} s"
        assert not bad, f"mean mismatches at {bad}"
        assert elapsed < 1.0, f"means took {elapsed:.3f} s, budget is 1 s"


# ---------------------------------------------------------------------------
# criterion 2: reference fourth moments (exact comparison with the
# published rows; two of them are misprints, so this fails honestly)


def test_criterion_02_table1_fourth_moments():
    name = "reference fourth moments, 13 rows exact vs published"
    with criterion(2, name) as info:
        t_small = t_five = 0.0
        mismatches = []
        for row in GOLDEN["table1"]:
            lam = Partition(row["lambda"])
            t0 = time.perf_counter()
            got = cached_second_moment(lam)
            dt = time.perf_counter() - t0
            if lam.n == 5:
                t_five += dt
            else:
                t_small += dt
            published = R.parse(row["fourth"])
            if got != published:
                mismatches.append((lam, got, published, row))
        info["detail"] = (
            f"{13 - len(mismatches)}/13 match, "
            f"n<=4 in {t_small:.1f} s, n=5 in {t_five:.1f} s"
            + ("" if not mismatches
               else "; mismatching rows are documented misprints: "
               + ", ".join(f"({m[0]})" for m in mismatches))
        )
        assert t_small < 300, f"n <= 4 rows took {t_small:.1f} s, budget 300 s"
        assert t_five < 14400, f"n = 5 rows took {t_five:.1f} s, budget 4 h"
        if mismatches:
            report = [
                "The engine disagrees with exactly two published "
                "fourth-moment rows, and in both cases the published entry "
                "is a misprint; the computed value is correct.  Evidence, "
                "all machine-checked in this suite and the module tests:",
            ]
            for lam, got, published, row in mismatches:
                corrected = row.get("fourth_erratum", {}).get("corrected")
                report.append(f"\n  row ({lam}):")
                report.append(f"    computed : {got.to_machine()}")
                report.append(f"    published: {published.to_machine()}")
                if corrected:
                    assert got == R.parse(corrected), (
                        "computed value must equal the stored correction"
                    )
                    report.append(
                        "    the stored correction equals the computed value"
                    )
                if lam.parts == (2, 1, 1):
                    report.append(
                        "    relation: computed = published * 2 (the "
                        "published prefactor is 24 where the computed row "
                        "has 48); the "
                        "published row's large-d coefficient would be 1752, "
                        "but the published leading-coefficient table gives "
                        "3504 = 2 * 1752 for this shape, matching the "
                        "computed row"
                    )
                if lam.parts == (4, 1):
                    report.append(
                        "    relation: computed * (d - 1) = published (one "
                        "(d - 1) factor dropped from the published "
                        "denominator); the published row decays like d^-9 "
                        "while every fourth moment of a 5-symbol shape must "
                        "decay like d^-10, and the computed row's large-d "
                        "coefficient 96000 matches the published "
                        "leading-coefficient table"
                    )
            report.append(
                "\n  Both computed rows also pass the brute-force route "
                "equality (criterion 7 methodology), conjugation "
                "consistency of leading coefficients, and Monte Carlo spot "
                "checks (about 1 sigma from the computed values versus 31 "
                "sigma and 243 sigma from the published rows at 2*10^5 "
                "samples)."
            )
            pytest.fail("\n".join(report))


def test_criterion_02_companion_misprint_relations():
    # the two documented misprints, as exact machine-checkable relations
    by_lam = {tuple(r["lambda"]): r for r in GOLDEN["table1"]}

    row = by_lam[(2, 1, 1)]
    published = R.parse(row["fourth"])
    corrected = R.parse(row["fourth_erratum"]["corrected"])
    assert cached_second_moment((2, 1, 1)) == corrected
    assert corrected == published * R(2)
    assert corrected.leading_asymptotics() == (Fraction(3504), 8)
    assert published.leading_asymptotics() == (Fraction(1752), 8)
    assert leading_coefficient((2, 1, 1)) == 3504

    row = by_lam[(4, 1)]
    published = R.parse(row["fourth"])
    corrected = R.parse(row["fourth_erratum"]["corrected"])
    assert cached_second_moment((4, 1)) == corrected
    assert corrected * R.parse("d - 1") == published
    assert corrected.leading_asymptotics() == (Fraction(96000), 10)
    assert published.leading_asymptotics() == (Fraction(96000), 9)
    assert leading_coefficient((4, 1)) == 96000

    # every other published fourth-moment row is exact
    for parts, row in by_lam.items():
        if parts in ((2, 1, 1), (4, 1)):
            continue
        assert cached_second_moment(parts) == R.parse(row["fourth"]), parts


# ---------------------------------------------------------------------------
# criterion 3: reference leading coefficients


def test_criterion_03_table2_leading_coefficients():
    with criterion(3, "reference leading coefficients, n <= 7") as info:
        bad, slow, worst = [], [], 0.0
        count = 0
        for row in GOLDEN["table2"]:
            lam = Partition(row["lambda"])
            if lam.n > 7:
                continue
            count += 1
            t0 = time.perf_counter()
            j = leading_coefficient(lam)
            dt = time.perf_counter() - t0
            worst = max(worst, dt)
            if dt >= 600:
                slow.append((str(lam), dt))
            if j != row["j"]:
                bad.append(str(lam))
        info["detail"] = (
            f"{count - len(bad)}/{count} match, slowest {worst:.2f} s"
        )
        assert not bad, f"leading-coefficient mismatches at {bad}"
        assert not slow, f"per-shape budget 600 s exceeded: {slow}"


def test_criterion_03_long_table2_n8_n9():
    with criterion("3 (long)", "leading coefficients n = 8, 9") as info:
        bad, slow, worst9 = [], [], 0.0
        count = 0
        for row in GOLDEN["table2"]:
            lam = Partition(row["lambda"])
            if lam.n < 8:
                continue
            count += 1
            t0 = time.perf_counter()
            j = leading_coefficient(lam)
            dt = time.perf_counter() - t0
            if lam.n == 9:
                worst9 = max(worst9, dt)
                if dt >= 190:
                    slow.append((str(lam), dt))
            if j != row["j"]:
                bad.append(str(lam))
        info["detail"] = (
            f"{count - len(bad)}/{count} match, "
            f"slowest 9-symbol shape {worst9:.2f} s (bar: 190 s)"
        )
        assert not bad, f"leading-coefficient mismatches at {bad}"
        assert not slow, (
            f"the 190 s per-shape reference timing must be beaten: {slow}"
        )


def test_criterion_03_long_extra_ten_symbol_value():
    # a ten-symbol value quoted in the reference source
    assert leading_coefficient((4, 3, 2, 1), limit=10) == 664930149811200


# ---------------------------------------------------------------------------
# criterion 4: closed-form cross-checks


def test_criterion_04_closed_form_cross_checks():
    with criterion(4, "closed-form cross-checks") as info:
        for n in range(1, 5):
            assert det_moment(n, 2) == cached_second_moment((1,) * n), n
        for n in range(1, 6):
            assert perm_fourth_conjecture(n) == cached_second_moment((n,)), n
        for n in range(1, 8):
            assert leading_coefficient((1,) * n) == (
                factorial(n) * factorial(n + 1)
            ), n
        # J(lam) = J(lam') holds term by term in j_pair's formula: for lam'
        # each entry of F gains sgn(theta) sgn(x) sgn(y), so G' = S G S with S
        # the diagonal of the row orbits' signs, and G' * G' = G * G.  So this
        # is weak evidence against a j_pair defect; the corpus and the
        # permanent route carry the independent weight
        for n in range(1, 7):
            for lam in partition_list(n):
                assert leading_coefficient(lam) == leading_coefficient(
                    conjugate(lam)
                ), lam
        info["detail"] = (
            "determinant n<=4, permanent n<=5, column shapes n<=7, "
            "conjugation n<=6"
        )


# ---------------------------------------------------------------------------
# criterion 5: asymptotic consistency


def test_criterion_05_asymptotic_consistency():
    with criterion(5, "asymptotic consistency") as info:
        for n in range(1, 9):
            for lam in partition_list(n):
                assert mean(lam).leading_asymptotics() == (
                    Fraction(factorial(n)), n,
                ), lam
        for n in range(1, 5):
            for lam in partition_list(n):
                assert cached_second_moment(lam).leading_asymptotics() == (
                    Fraction(leading_coefficient(lam)), 2 * n,
                ), lam
        info["detail"] = "means to n = 8, fourth moments to n = 4"


# ---------------------------------------------------------------------------
# criterion 6: dominance ordering of means


def test_criterion_06_dominance():
    with criterion(6, "dominance ordering of means") as info:
        for n in range(2, 9):
            for d in range(n, n + 11):
                violations = mean_dominance_check(n, d)
                assert violations == [], (n, d, violations)
        info["detail"] = "n = 2..8, d = n..n+10, no violations"


# ---------------------------------------------------------------------------
# criterion 7: brute-force oracle equivalence


def test_criterion_07_brute_force_equivalence():
    with criterion(7, "brute-force oracle equivalence, n <= 3") as info:
        t0 = time.perf_counter()
        for n in range(1, 4):
            for lam in partition_list(n):
                # reduced pipeline against the naive double sum over all
                # 2^n x 2^n swap pairs with pair-enumerated histograms
                assert cached_second_moment(lam) == second_moment_direct(
                    lam
                ), lam
                for A in all_subsets(n):
                    for B in all_subsets(n):
                        assert t_histogram(lam, A, B) == t_histogram_direct(
                            lam, A, B
                        ), (lam, A, B)
                assert leading_coefficient(lam) == leading_coefficient_direct(
                    lam
                ), lam
        info["detail"] = (
            f"all shapes, all swap pairs, {time.perf_counter() - t0:.1f} s"
        )


# ---------------------------------------------------------------------------
# criterion 8: Weingarten sanity


def test_criterion_08_weingarten_sanity():
    with criterion(8, "Weingarten closed forms and entry moments") as info:
        closed = {
            (1,): "1 / d",
            (1, 1): "1 / ((d - 1)*(d + 1))",
            (2,): "-1 / ((d - 1)*d*(d + 1))",
            (1, 1, 1): "(d^2 - 2) / ((d - 2)*(d - 1)*d*(d + 1)*(d + 2))",
            (2, 1): "-1 / ((d - 2)*(d - 1)*(d + 1)*(d + 2))",
            (3,): "2 / ((d - 2)*(d - 1)*d*(d + 1)*(d + 2))",
        }
        for rho, s in closed.items():
            assert weingarten(rho) == R.parse(s), rho

        assert monomial_integral([1], [1], [1], [1]) == R.parse("1 / d")
        assert monomial_integral(
            [1, 1], [1, 1], [1, 1], [1, 1]
        ) == R.parse("2 / (d*(d + 1))")
        assert monomial_integral(
            [1, 2], [1, 2], [1, 2], [1, 2]
        ) == R.parse("1 / ((d - 1)*(d + 1))")
        # both two-factor moments equal 1/3 at d = 2; confirm by Monte
        # Carlo with a million samples each
        assert monomial_integral(
            [1, 1], [1, 1], [1, 1], [1, 1], 2
        ) == Fraction(1, 3)
        assert monomial_integral(
            [1, 2], [1, 2], [1, 2], [1, 2], 2
        ) == Fraction(1, 3)
        zs = []
        for k, (r, c) in enumerate((([1, 1], [1, 1]), ([1, 2], [1, 2]))):
            est = estimate_monomial(r, c, r, c, 2, samples=10**6,
                                    seed=801 + k)
            z = abs(est.estimate.real - 1 / 3) / est.stderr
            zs.append(z)
        info["detail"] = (
            f"m <= 3 exact; d = 2 Monte Carlo z = {zs[0]:.2f} and "
            f"{zs[1]:.2f} at 10^6 samples"
        )
        assert all(z <= 5 for z in zs), zs


# ---------------------------------------------------------------------------
# criterion 9: second-moment grid reproduction


def test_criterion_09_second_moment_grid():
    name = "second-moment grid, shapes of 3, d = 3..20"
    with criterion(9, name) as info:
        t0 = time.perf_counter()
        d_values = list(range(3, 21))
        fractions = []
        for i, lam in enumerate(partition_list(3)):
            exact = mean(lam)
            ests = moment_scan(lam, d_values, 2, samples=10**4,
                               seed=1003 + i)
            n_ok = sum(
                abs(e.real - float(exact.evaluate(e.d))) <= 5 * e.stderr
                for e in ests
            )
            fractions.append(n_ok / len(ests))
        elapsed = time.perf_counter() - t0
        info["detail"] = (
            f"per-shape pass fractions {fractions}, {elapsed:.1f} s"
        )
        assert all(f >= 0.95 for f in fractions), fractions
        assert elapsed < 120, f"grid took {elapsed:.1f} s, budget 120 s"


# ---------------------------------------------------------------------------
# criterion 10: permanent fourth-moment grid reproduction


def test_criterion_10_permanent_fourth_grid():
    name = "permanent fourth-moment grid, n = 5, d = 5..20"
    with criterion(10, name) as info:
        exact = cached_second_moment((5,))
        d_values = list(range(5, 21))
        ests = moment_scan((5,), d_values, 4, samples=10**5, seed=1005)
        n_ok = sum(
            abs(e.real - float(exact.evaluate(e.d))) <= 5 * e.stderr
            for e in ests
        )
        info["detail"] = f"{n_ok}/{len(ests)} points within 5 stderr"
        assert n_ok / len(ests) >= 0.95


@pytest.mark.slow
def test_criterion_10_long_permanent_n10():
    # optional long run: the conjectured closed form at ten symbols
    with criterion("10 (long)", "permanent fourth moment, n = 10") as info:
        exact = perm_fourth_conjecture(10)
        d = 21
        est = estimate_moment((10,), d, 4, samples=10**5, seed=1010)
        z = abs(est.real - float(exact.evaluate(d))) / est.stderr
        info["detail"] = f"z = {z:.2f} at d = {d}"
        assert z <= 5


# ---------------------------------------------------------------------------
# criterion 11: property suites


def test_criterion_11_property_suites():
    with criterion(11, "property suites") as info:
        t0 = time.perf_counter()

        # character orthogonality to eight symbols
        for m in range(1, 9):
            t = character_table(m)
            rows = t.values.astype(object)
            sizes = np.array(t.class_sizes, dtype=object)
            gram = (rows * sizes) @ rows.T
            expect = factorial(m) * np.eye(len(rows), dtype=object)
            assert (gram == expect).all(), m

        # histogram and pair-coefficient symmetries by brute force
        full = frozenset({1, 2, 3})
        relabel = {1: 2, 2: 3, 3: 1}
        for lam in partition_list(3):
            for A in (frozenset({1}), frozenset({1, 2})):
                for B in (frozenset(), frozenset({2, 3})):
                    h = t_histogram_direct(lam, A, B)
                    assert h == t_histogram_direct(lam, B, A)
                    assert h == t_histogram_direct(
                        lam,
                        frozenset(relabel[i] for i in A),
                        frozenset(relabel[i] for i in B),
                    )
                    assert h == t_histogram_direct(lam, full - A, full - B)
                    assert j_pair_direct(lam, A, B) == j_pair_direct(
                        lam, B, A
                    )
                    assert j_pair_direct(lam, A, B) == j_pair_direct(
                        lam, full - A, full - B
                    )

        # partition and hook identities to ten symbols
        for m in range(1, 11):
            assert sum(
                dim_symmetric(p) ** 2 for p in partition_list(m)
            ) == factorial(m)
            for lam in partition_list(m):
                assert conjugate(conjugate(lam)) == lam
                assert factorial(m) % hook_product(lam) == 0
                assert hook_product(lam) == hook_product(conjugate(lam))

        # seed reproducibility of the sampler
        a = estimate_moment((2, 1), 4, 2, samples=5000, seed=42)
        b = estimate_moment((2, 1), 4, 2, samples=5000, seed=42)
        assert a.estimate == b.estimate and a.stderr == b.stderr

        elapsed = time.perf_counter() - t0
        info["detail"] = (
            f"orthogonality, symmetries, hooks, seeds in {elapsed:.1f} s"
        )
        assert elapsed < 300, f"took {elapsed:.1f} s, budget 300 s"
