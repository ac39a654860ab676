"""Weingarten calculus for the unitary group.

The Weingarten function of a cycle type rho of S_m is the exact rational
function of the dimension d

    W(rho, d) = sum over partitions xi of m of chi_xi(rho) / (H(xi) N(xi, d)),

and joint moments of matrix entries of a Haar unitary are delta-weighted
double sums of W over pairing permutations, which monomial_integral groups
by cycle type (cycle_keyer): one rational addition per class, in time
proportional to the pairs classified.  Everything is returned as an exact
RationalFunction in d; values at specific d come from evaluate, and poles
(d below m, where the rational form is the analytic continuation) raise
rather than return garbage.
"""

from __future__ import annotations

from functools import cache
from itertools import permutations

import numpy as np

from .characters import character
from .partitions import as_partition, hook_product, partition_list, unitary_numerator
from .ratfun import RationalFunction
from .symgroup import cycle_keyer


def irreducible_sum(coeffs) -> RationalFunction:
    """The sum over xi of coeffs[xi] / (H(xi) N(xi, d)), in the order of coeffs:
    W(rho) with coeffs chi_xi(rho), and the fourth moment of an immanant
    with coeffs its integers A_xi (see moments)."""
    total = RationalFunction(0)
    for xi, a in coeffs.items():
        total += RationalFunction.ratio(
            a, unitary_numerator(xi), den_scalar=hook_product(xi)
        )
    return total


@cache
def _weingarten_cached(rho_parts: tuple) -> RationalFunction:
    return irreducible_sum({xi: chi for xi in partition_list(sum(rho_parts))
                            if (chi := character(xi, rho_parts))})


def weingarten(rho, d=None):
    """W(rho, d) as a RationalFunction, or its exact value at integer d."""
    rho = as_partition(rho)
    w = _weingarten_cached(rho.parts)
    return w if d is None else w.evaluate(d)


def monomial_integral(rows, cols, conj_rows, conj_cols, d=None):
    """Haar average of prod U[rows, cols] * conj(prod U[conj_rows, conj_cols]).

    All four index lists have the same length m; the result is the double
    sum over pairing permutations sigma (rows to conj_rows) and tau (cols
    to conj_cols) of W(cycle type of sigma tau^-1, d), grouped by class.
    """
    rows, cols = tuple(rows), tuple(cols)
    conj_rows, conj_cols = tuple(conj_rows), tuple(conj_cols)
    m = len(rows)
    if not (len(cols) == len(conj_rows) == len(conj_cols) == m):
        raise ValueError("index lists must share one length")

    def matchers(left, right):
        found = [p for p in permutations(range(m))
                 if all(left[s] == right[p[s]] for s in range(m))]
        return np.array(found, dtype=np.uint8).reshape(len(found), m)

    tau_inverses = np.argsort(matchers(cols, conj_cols), axis=1).astype(np.uint8)
    classes = partition_list(m)
    counts = np.zeros(len(classes), dtype=np.int64)
    for sigma in matchers(rows, conj_rows):  # sigma tau^-1 for every tau at once
        counts += np.bincount(cycle_keyer(m)(sigma[tau_inverses]), minlength=len(classes))
    total = sum((count * _weingarten_cached(rho.parts)
                 for rho, count in zip(classes, counts.tolist()) if count),
                RationalFunction(0))
    return total if d is None else total.evaluate(d)
