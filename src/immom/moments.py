"""Exact moments of immanants of submatrices of Haar unitaries.

For a shape lam of n, the immanant of the top-left n x n block M of a Haar
d x d unitary has mean absolute square n!/N(lam, d), and fourth moment

    sum over xi of 2n:  A_xi(lam) / (H(xi) N(xi, d)),

where the integer coefficient A_xi is the character chi^xi summed against
products eps_A pi eps_B gamma over swap sets A, B and pairs pi, gamma in the
block-diagonal group V, weighted by the product character of lam.  The
production path (second_moment) computes each A_xi inside the irrep xi, in
Young's seminormal form modulo primes, recombined against a proven bound
(see seminormal).  tsum.t_histogram gives the sum for one swap pair as a
cycle-type histogram, recovered from the same engine's per-pair
coefficients by column orthogonality; the *_direct functions do that job
by unreduced enumeration over every swap pair and are kept as oracles for
small n.

Each closed form here is the exact moment at every d >= n, not only at
d >= 2n.  The Weingarten sum over the xi with at most d rows is exact at
every d (Collins and Sniady, CMP 264 (2006) 773-795), and every nonzero
A_xi has at most n rows (seminormal: 0 <= A_xi <= 4^n c^2 q, and by
Young's rule q = rank Q is positive exactly for such xi).  So at d >= n
that sum is the full one, and N(xi, d) has no zero there.  The same holds
for det_moment, whose one shape (t^n) has n rows, and for
perm_fourth_conjecture wherever it equals second_moment((n,)).

The d -> infinity scale of the fourth moment is an integer J(lam), computed
here by its own factored character sum (j_pair / leading_coefficient), which
is an independent check on the rational pipeline.

This module returns exact values only; the JSON reports that carry them are
built in cli (report).
"""

from __future__ import annotations

import logging
from fractions import Fraction
from functools import cache
from math import comb, factorial, log2
from time import perf_counter

import numpy as np

from .characters import character, character_of, character_row
from .partitions import (
    Partition,
    as_partition,
    dominates,
    Dominance,
    hook_product,
    partition_list,
    unitary_numerator,
)
from .ratfun import RationalFunction
from .seminormal import class_coefficients as _class_coefficients
from .symgroup import (
    Permutation,
    all_permutations,
    all_subsets,
    cycle_keyer,
    embed_pair,
    epsilon,
    marked_orbits,
    theta,
)
# the name under which the benchmark tracer wraps the rational assembly
from .weingarten import irreducible_sum as _assemble_rational

SECOND_MOMENT_LIMIT = 5
LEADING_LIMIT = 10

log = logging.getLogger(__name__)


def mean(lam) -> RationalFunction:
    """Mean of |Imm_lam M|^2 over Haar unitaries: n! / N(lam, d)."""
    lam = as_partition(lam)
    return RationalFunction.ratio(factorial(lam.n), unitary_numerator(lam))


def det_moment(n, t) -> RationalFunction:
    """Moment of |det M|^(2t): the reciprocal dimension 1/dim((t^n), d)."""
    if t < 0 or n < 1:
        raise ValueError("need n >= 1 and t >= 0")
    if t == 0:
        return RationalFunction(1)
    block = Partition((t,) * n)
    return RationalFunction.ratio(hook_product(block), unitary_numerator(block))


def perm_fourth_conjecture(n) -> RationalFunction:
    """The paper's closed form for the fourth moment of the permanent, a
    theorem for every n >= 1.

    The paper states it as a conjecture.  permanent_coefficients proves it:
    its steps 1 and 2 give the permanent's A_xi((n)) as a sum over the
    Johnson scheme J(2n, n), and its step 3 evaluates that sum by Gauss's
    second summation theorem.  A_xi((n)) is zero unless xi = (2n - 2k, 2k),
    where its square root is n! 2^(n - 2k) (n - k)! (2k)! / k!, which is
    n! 2^(n - 2k) coeff H(xi) for the coeff of the k-th term below.  So each
    term below is A_xi((n)) / (H(xi) N(xi, d)), and the sum is the fourth
    moment's Weingarten sum.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    total = RationalFunction(0)
    for k in range(n // 2 + 1):
        shape = Partition((2 * n - 2 * k, 2 * k) if k else (2 * n,))
        coeff = Fraction(
            (2 * n - 4 * k + 1) * factorial(n - k),
            factorial(k) * factorial(2 * n - 2 * k + 1),
        )
        scale = Fraction(factorial(n)) ** 2 * 4 ** (n - 2 * k) * coeff**2
        total += scale * RationalFunction.ratio(
            hook_product(shape), unitary_numerator(shape)
        )
    return total


def permanent_coefficients(n) -> dict[Partition, int]:
    """The nonzero A_xi((n)) of the permanent's fourth moment, in canonical
    xi order, from the spherical functions of the Johnson scheme J(2n, n).

    This route shares no code with seminormal.  It rests on three steps,
    with A_xi = 4^n c^2 tr(QPQP) and c = (n!)^2 as in seminormal:

    1. Rank one.  For lam = (n), chi^lam is trivial, so P projects onto the
       S_n x S_n-invariant vectors of xi.  By Pieri's rule there is one such
       line when xi = (2n - k, k) has two rows and none otherwise, so
       P = u u^T for a unit vector u and tr(QPQP) = (u^T Q u)^2.
    2. Spherical functions.  (S_2n, S_n x S_n) is a Gelfand pair, and
       <u, rho(g) u> is its spherical function for xi, constant on double
       cosets.  These are the Hahn polynomials of the Johnson scheme,

           omega_k(j) = sum_i (-1)^i C(k,i) C(2n+1-k,i) C(j,i) / C(n,i)^2

       at Johnson distance j (Delsarte, Philips Res. Rep. Suppl. 10 (1973);
       Dunkl, SIAM J. Math. Anal. 9 (1978) 627-637), and eps_A lies in the
       double coset of distance |A|.  So u^T Q u = 2^-n sum_j C(n,j)
       omega_k(j), and A_(2n-k,k) = (n!)^4 (sum_j C(n,j) omega_k(j))^2.
    3. Summation.  Swapping the sums gives sum_j C(n,j) omega_k(j) =
       2^n 2F1(-k, k-2n-1; -n; 1/2), whose lower parameter is (a+b+1)/2, so
       Gauss's second summation theorem applies, as a limit since the series
       ends at i = k <= n before any zero denominator.  The sum is 0 for odd
       k and 2^n (n-m)! (2m)! / (n! 4^m m!) for k = 2m, the coefficient of
       perm_fourth_conjecture, which is therefore a theorem.

    Step 2's normalisation is taken from the literature; the tests confirm
    it against the engine's coefficients for n <= 7.  This function sums
    step 2 in exact rationals and does not use step 3.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    out = {}
    for k in range(n + 1):
        # sum over j of C(n, j) omega_k(j)
        total = sum(Fraction((-1) ** i * comb(n, j) * comb(k, i) * comb(2 * n + 1 - k, i)
                             * comb(j, i), comb(n, i) ** 2)
                    for j in range(n + 1) for i in range(min(j, k) + 1))
        a = factorial(n) ** 4 * total**2
        if a.denominator != 1:
            raise ArithmeticError(f"A_xi((n)) is not an integer at n = {n}, k = {k}")
        if a:
            out[Partition((2 * n - k, k) if k else (2 * n,))] = a.numerator
    return out


# ---------------------------------------------------------------------------
# fourth moment


@cache
def _fourth_moment(parts):
    return _assemble_rational(_class_coefficients(Partition(parts)))


def second_moment(lam, workers=1, limit=None) -> RationalFunction:
    """Fourth moment of |Imm_lam M| as an exact rational function of d.

    The default size guard stops at n = SECOND_MOMENT_LIMIT; pass a larger
    limit explicitly to go beyond it.  Values are cached per shape, whatever
    the limit.  workers is accepted for API compatibility and ignored (the
    engine is serial).
    """
    lam = as_partition(lam)
    cap = SECOND_MOMENT_LIMIT if limit is None else limit
    if lam.n > cap:
        raise ValueError(
            f"|lam| = {lam.n} exceeds the fourth-moment guard ({cap}); "
            f"pass a larger limit to override"
        )
    return _fourth_moment(lam.parts)


# ---------------------------------------------------------------------------
# unreduced oracles (small n only; deliberately dumb)

_DIRECT_LIMIT = 3


@cache
def _weighted_pairs(lam):
    """Every (p (+) q, chi(p) chi(q)) for p, q in S_n, built once per shape."""
    n = lam.n
    out = []
    for p in all_permutations(n):
        cp = character_of(lam, p)
        for q in all_permutations(n):
            w = cp * character_of(lam, q)
            out.append((embed_pair(p, q), w))
    return tuple(out)


def t_histogram_direct(lam, A, B):
    """The histogram by brute enumeration of every (pi, gamma) pair."""
    lam = as_partition(lam)
    n = lam.n
    if n > _DIRECT_LIMIT:
        raise ValueError("direct enumeration is for n <= 3")
    sigma, rho = epsilon(A, n), epsilon(B, n)
    pairs = _weighted_pairs(lam)
    acc: dict[Partition, int] = {}
    for pi, w1 in pairs:
        left = sigma * pi * rho
        for gamma, w2 in pairs:
            if not w1 * w2:
                continue
            ct = (left * gamma).cycle_type()
            acc[ct] = acc.get(ct, 0) + w1 * w2
    return {ct: v for ct, v in acc.items() if v}


def second_moment_direct(lam) -> RationalFunction:
    """Fourth moment by summing every swap pair with direct histograms."""
    lam = as_partition(lam)
    n = lam.n
    if n > _DIRECT_LIMIT:
        raise ValueError("direct enumeration is for n <= 3")
    total: dict[Partition, int] = {}
    for A in all_subsets(n):
        for B in all_subsets(n):
            for ct, v in t_histogram_direct(lam, A, B).items():
                total[ct] = total.get(ct, 0) + v
    coeffs = {}
    for xi in partition_list(2 * n):
        a = sum(v * character(xi, ct) for ct, v in total.items())
        if a:
            coeffs[xi] = a
    return _assemble_rational(coeffs)


# ---------------------------------------------------------------------------
# leading coefficients


# j_pair's G = (F v) F^T and w (G * G) w run in int64 when their bounds are below this
_INT64_LIMIT = 2**63


@cache
def _classes(n, l, k):
    """Class index of theta(l, k) composed with a (+) c, for a and c the
    orbit representatives of marked_orbits(l, k) and marked_orbits(n - l, k)
    (the k marked points are the ones theta moves on each side), as a
    read-only uint8 array with S_l's side on rows.  It has one
    entry per pair of orbits, not per pair of permutations: 1 x 67 at
    n = 10, l = 1, k = 1 where all of S_1 x S_9 has 362880 pairs.

    The array does not depend on lam, so it is built once per (n, l, k) and
    kept, like marked_orbits and cycle_keyer: the arrays for every (l, k)
    through n = 10 total about 60 KB.  It is classified by the module-level
    cycle_keyer, looked up at build time, which the benchmark tracer wraps.
    """
    th = np.array(theta(l, k, n).img, dtype=np.uint8)
    x_side = marked_orbits(l, k)[0]
    y_side = marked_orbits(n - l, k)[0] + np.uint8(l)
    combined = np.empty((len(x_side), len(y_side), n), dtype=np.uint8)
    combined[:, :, :l] = x_side[:, None, :]
    combined[:, :, l:] = y_side[None, :, :]
    cls = cycle_keyer(n)(th[combined].reshape(len(x_side) * len(y_side), n))
    cls = cls.reshape(len(x_side), len(y_side))
    cls.flags.writeable = False
    return cls


def j_pair(lam, l, k) -> int:
    """Paired character sum for swap sizes (l, k).

    Equals the sum over x+, x- in S_l and y+, y- in S_(n-l) of the product
    F[x+,y+] F[x-,y-] F[x-,y+] F[x+,y-] with F[x,y] the character of
    theta(l,k) composed with the block permutation x (+) y.  Collapsing the
    sums over the larger side first turns it into the sum of squares of an
    integer Gram matrix on the smaller side (the two sums of squares are
    equal).  Relabelling the points so that the two blocks trade places
    turns theta(l, k) into theta(n - l, k) and transposes F, so j_pair is
    the same at l and n - l; l is reduced to min(l, n - l) on entry, which
    puts the smaller side S_l on rows.

    If h in S_l and g in S_(n-l) fix the k points theta moves on their
    sides, h (+) g commutes with theta, so F[h x h^-1, y] = F[x, g y g^-1]
    = F[x, y]: F is constant on the orbits of marked_orbits on each side,
    independently.  With row orbits a, b of sizes w and column orbits c of
    sizes v this gives

        j_pair = sum over a, b of w_a w_b G_ab^2,  G = (F v) F^T,

    where F is the orbit-by-orbit table (see _classes), cached
    per (n, l, k); only the character gather and G depend on lam.  Every
    entry of G, and every partial sum of it, is at most the contracted
    group's order times max|chi|^2 in absolute value (the sizes v sum to
    it), so G is computed in int64 when that bound is below 2^63 and in
    Python integers otherwise.  The sizes w sum to l!, so every partial sum
    of w (G * G) w lies in [0, (l! bound)^2], and the same rule picks its
    arithmetic.  Either way it is exact.  F is gathered from one character
    row (characters.character_row), not the whole table.  A DEBUG log line,
    written after the Gram, reports the orbit table's shape, the bits of
    headroom under that last bound (the one that proves the result) and the
    call's seconds.
    """
    t0 = perf_counter()
    lam = as_partition(lam)
    n = lam.n
    l = min(l, n - l)
    cls = _classes(n, l, k)
    w, v = marked_orbits(l, k)[1], marked_orbits(n - l, k)[1]
    chi_row = character_row(lam)
    chimax = int(np.abs(chi_row).max())
    contraction = factorial(n - l)
    bound = contraction * chimax * chimax
    sum_bound = (factorial(l) * bound) ** 2
    F = chi_row[cls]
    if bound >= _INT64_LIMIT:
        F, v = F.astype(object), v.astype(object)
    G = (F * v) @ F.T
    if log.isEnabledFor(logging.DEBUG):
        log.debug("lam=%s n=%d l=%d k=%d orbits=%dx%d contraction=%d "
                  "headroom_bits=%.1f seconds=%.4f", lam, n, l, k, *cls.shape,
                  contraction, log2(_INT64_LIMIT) - log2(sum_bound),
                  perf_counter() - t0)
    if sum_bound >= _INT64_LIMIT:
        G, w = G.astype(object), w.astype(object)
    return int(w @ (G * G) @ w)


def leading_coefficient(lam, limit=None) -> int:
    """The integer J(lam) scaling the fourth moment's d^(-2n) tail.

    J is a sum of j_pair(lam, l, k) over 0 <= l <= n/2 (the l > n/2 terms
    mirror these).  The l = 0 term needs no enumeration: there F is the row
    chi^lam over S_n, so G = sum chi^2 = n! by the first orthogonality
    relation and j_pair(lam, 0, 0) = (n!)^2; it is counted twice (l = 0
    and l = n) except when n = 0.
    """
    lam = as_partition(lam)
    n = lam.n
    cap = LEADING_LIMIT if limit is None else limit
    if n > cap:
        raise ValueError(
            f"|lam| = {n} exceeds the leading-coefficient guard ({cap}); "
            f"pass a larger limit to override"
        )
    total = (1 if n == 0 else 2) * factorial(n) ** 2
    for l in range(1, n // 2 + 1):
        double = 1 if 2 * l == n else 2
        inner = sum(
            comb(l, k) * comb(n - l, k) * j_pair(lam, l, k) for k in range(l + 1)
        )
        total += double * comb(n, l) * inner
    return total


def j_pair_direct(lam, A, B) -> int:
    """Membership-test evaluation of the paired sum for eps_A, eps_B."""
    lam = as_partition(lam)
    n = lam.n
    if n > 4:
        raise ValueError("direct pair enumeration is for n <= 4")
    sigma, rho = epsilon(A, n), epsilon(B, n)
    total = 0
    for pi, w in _weighted_pairs(lam):
        if not w:
            continue
        g = (sigma * pi * rho).inverse()
        if all(v < n for v in g.img[:n]):
            gp = Permutation(g.img[:n])
            gm = Permutation(v - n for v in g.img[n:])
            total += w * character_of(lam, gp) * character_of(lam, gm)
    return total


def leading_coefficient_direct(lam) -> int:
    """J(lam) by brute force over every swap pair (n <= 4)."""
    lam = as_partition(lam)
    n = lam.n
    total = 0
    for A in all_subsets(n):
        for B in all_subsets(n):
            total += j_pair_direct(lam, A, B)
    return total


# ---------------------------------------------------------------------------
# dominance ordering of means


def mean_dominance_check(n, d):
    """Violations of 'higher in dominance order => smaller mean' at d.

    Returns a list of (lam, mu) pairs with lam strictly dominating mu but
    mean(lam)(d) > mean(mu)(d); empty means the ordering holds.

    It is empty for every n and every d >= n, by a theorem.  mean(lam)(d) is
    n! / prod over boxes of (d + c(box)), c the content.  lam covers mu in
    dominance order exactly when lam comes from mu by moving one box from
    row j up to row i < j, where j = i + 1 or mu_i = mu_j (Brylawski,
    Discrete Math. 6 (1973) 201-219).  The moved box's content goes from
    c_old = mu_j - j to c_new = mu_i + 1 - i (1-based rows), which is
    larger, and every other box keeps its content.  Every content is at
    least 1 - n, so each factor d + c is positive at d >= n, and
    mean(lam)/mean(mu) = (d + c_old)/(d + c_new) < 1 along every cover;
    along a chain of covers, mean(lam)(d) < mean(mu)(d) whenever lam
    strictly dominates mu.  The check here still compares every pair.
    """
    parts = partition_list(n)
    values = {lam: mean(lam).evaluate(d) for lam in parts}
    bad = []
    for lam in parts:
        for mu in parts:
            if dominates(lam, mu) is Dominance.GREATER and values[lam] > values[mu]:
                bad.append((lam, mu))
    return bad
