"""Exact fourth-moment coefficients inside one irrep of S_2n at a time.

For a shape lam of n, the fourth moment's coefficient on the irrep xi of
S_2n is

    A_xi(lam) = sum over swap sets A, B and pi, gamma in V of
                hatchi(pi) hatchi(gamma) chi^xi(eps_A pi eps_B gamma)
              = 4^n c^2 tr(QPQP),

where rho is the representation xi and:

  * sum_A rho(eps_A) = 2^n Q, with Q = prod_i (1 + rho(s_i))/2 the
    projection onto the vectors fixed by every s_i = (i, n+i);
  * sum_(pi in V) hatchi(pi) rho(pi) = c P, with c = (n!/f_lam)^2 and P the
    projection onto the lam x lam isotypic part of xi restricted to V;
  * P = P1 W P1 W, with W = rho(eps_[n]) and P1 the diagonal selector of
    the standard tableaux whose letters 1..n fill lam.

P has rank r = f_lam^2 c^xi_(lam lam), where the Littlewood-Richardson
coefficient c^xi_(lam lam) is the multiplicity of lam x lam in xi
restricted to S_n x S_n.  When it is 0 the isotypic part is empty, so
P = 0 and A_xi(lam) = 0.  The engine therefore screens each xi before any
tableau work: xi must contain lam, then r > 0 (projection_rank, from
characters of S_n and S_2n alone), then q = rank Q > 0 (fixed_rank).  For
lam = (3,2) the r = 0 test removes 9 of the 24 irreps that pass the other
two, and for (2,1,1,1) 10 of 16.

Since W Q = Q, tr(QPQP) = tr((G^-1 H)^2) with B a basis of the range of Q,
G = B^T D B and H = B^T D P1 W P1 B, where D is the diagonal form that
makes rho orthogonal.

All of the work is adjacent transpositions s_k acting on f_xi x q blocks
(two terms per row) and q x q products.  The interleaving g, with
g(2i) = i and g(2i+1) = n+i, conjugates s_(2i) to (i, n+i).  So
B = rho(g) C spans the range of Q when C spans that of Q' = prod_i
(1 + rho(s_(2i)))/2.  Likewise W = rho(g) rho(E) rho(g)^-1 with
E = prod_i s_(2i).  This needs n(n+1) letters instead of the n(2n-1) of
the palindromes (i, n+i) = s_i ... s_(n+i-1) ... s_i plus the n^2 of a
reduced word of eps_[n].

Everything is computed in Young's seminormal form, modulo primes just below
2**25, and recombined by the Chinese remainder theorem.  With r the axial
distance c_T(k+1) - c_T(k) of letters k, k+1 in the tableau T,

    rho(s_k) v_T = (1/r) v_T + alpha_T v_(s_k T),
    alpha_T = 1 if r > 0 else 1 - 1/r^2,

and there is no partner tableau when |r| = 1 (the action is then +-1).
Every denominator is a nonzero r or r^2 - 1 with |r| < 2n, so no entry
vanishes modulo such a prime.  A letter updates each row of an int64
block in place to diag x[T] + off x[s_k T], a sum of two products of
residues and so below 2 p^2 < 2**51, and reduces it as x - (x // p) p:
exact, and cheaper than %, since numpy divides by a scalar with a
precomputed multiplier.  Exactness of the result rests on a bound proven before any
arithmetic: in the orthogonal form Q and P are orthogonal projections, so
tr(QPQP) = ||QPQ||_F^2 <= rank Q = q, and 0 <= A_xi <= 4^n c^2 q.  The
leading primes are taken until their product exceeds that bound; when they
run out the engine raises ArithmeticError rather than return an unchecked
integer.

C is spanned by corner tableaux.  The s_(2i) commute, and rho(s_(2i))
mixes v_T only with v_(s_(2i) T), with coefficients set by the axial
distance r_i of the pair 2i, 2i+1, which the other s_(2j) leave alone.  So
the tableaux split into cubes on which Q' acts pair by pair: as 0 when
r_i = -1 (one column), 1 when r_i = 1 (one row), and a rank-one projection
otherwise.  Each cube with no r_i = -1 holds one corner, the tableau with
every r_i > 0, and C = prod_i (1 + rho(s_(2i))) applied to the corners is a
basis of the range of Q'; so q is the number of corners (checked against
fixed_rank).  Cubes have disjoint supports, so G = C^T D C is diagonal, with
g_T = d_T times 4 per r_i = 1 and 2 (r_i + 1)/r_i per other pair: a unit
modulo every prime, and tr((G^-1 H)^2) = sum_ij H_ij H_ji / (g_i g_j).
Column T of C therefore has at most 2^n nonzero entries, one per vertex of
its cube, each a product of per-pair factors (1 + 1/r_i where the tableau
stays, the partner's coefficient where it moves).  They are built in n
vectorised steps and scattered into C, and G is summed from the same
entries, with no dense f_xi x q product.

The tables of each xi (row words, contents, partners and axial distances
per adjacent transposition, and the exponents of the invariant form) are
built with numpy and cached; nothing that depends on lam or on the prime is
cached.  References: Okounkov and Vershik, Selecta Math.
2 (1996) 581-605, for the Young bases; Collins and Sniady, CMP 264 (2006)
773-795, for the Weingarten sum this replaces.
"""

from __future__ import annotations

import logging
from collections import Counter
from functools import cache
from math import comb, factorial, log2
from time import perf_counter

import numpy as np

from .characters import _chi, character, character_table
from .partitions import Partition, as_partition, dim_symmetric, partition_list

log = logging.getLogger(__name__)
# one summary line per shape, apart from the per-xi lines of log
shape_log = logging.getLogger(__name__ + ".shapes")

_INT64_MAX = (1 << 63) - 1
# the 16 largest primes below 2**25, in descending order (a test re-derives
# them by trial division)
_PRIMES = (33554393, 33554383, 33554371, 33554347, 33554341, 33554317, 33554291,
           33554273, 33554267, 33554249, 33554239, 33554221, 33554201, 33554167,
           33554159, 33554137)


def primes() -> tuple[int, ...]:
    """The moduli: the largest primes below 2**25, in descending order."""
    return _PRIMES


class Tableaux:
    """The standard Young tableaux of one shape, in lexicographic order of
    their row words, with the data of the seminormal action.

    words[T, k] is the row of letter k (0-based), contents[T, k] its
    content col - row; partner[k, T] is the index of s_k T, or T itself
    when s_k T is not standard, and axial[k, T] = c_T(k+1) - c_T(k).
    exponents[T, a] is the number of letters i < j with c_T(i) - c_T(j) = a
    (zero for a < 2), the exponent of alpha(a) in the invariant form.
    """

    def __init__(self, shape):
        self.shape = as_partition(shape)
        m = self.shape.n
        words = _row_words(self.shape.parts)
        rows = len(self.shape.parts)
        powers = rows ** np.arange(m - 1, -1, -1, dtype=np.int64)
        codes = words.astype(np.int64) @ powers
        order = np.argsort(codes)
        words, codes = words[order], codes[order]
        cols = np.zeros(words.shape, dtype=np.int64)
        for r in range(rows):
            in_row = words == r
            cols[in_row] = (np.cumsum(in_row, axis=1) - 1)[in_row]
        contents = cols - words
        size = len(words)
        partner = np.empty((max(m - 1, 0), size), dtype=np.int64)
        axial = np.empty((max(m - 1, 0), size), dtype=np.int64)
        own = np.arange(size)
        for k in range(m - 1):
            axial[k] = contents[:, k + 1] - contents[:, k]
            swappable = (words[:, k] != words[:, k + 1]) & (cols[:, k] != cols[:, k + 1])
            step = (words[:, k + 1].astype(np.int64) - words[:, k]) * (
                powers[k] - powers[k + 1])
            partner[k] = np.where(
                swappable, np.searchsorted(codes, codes + step), own)
        i, j = np.triu_indices(m, 1)
        drop = contents[:, i] - contents[:, j]
        exponents = np.zeros((size, m), dtype=np.min_scalar_type(comb(m, 2)))
        for a in range(2, m):
            exponents[:, a] = (drop == a).sum(axis=1)
        self.words = words
        self.contents = contents
        self.partner = partner
        self.axial = axial
        self.exponents = exponents

    def __len__(self):
        return len(self.words)

    def filling(self, lam) -> np.ndarray:
        """Indices of the tableaux whose letters 1..|lam| fill lam."""
        lam = as_partition(lam)
        head = self.words[:, :lam.n]
        keep = np.ones(len(self), dtype=bool)
        for r in range(len(self.shape.parts)):
            part = lam.parts[r] if r < len(lam.parts) else 0
            keep &= (head == r).sum(axis=1) == part
        return np.flatnonzero(keep)

    def form(self, p) -> np.ndarray:
        """The diagonal invariant form modulo p.

        d_T is the product of alpha(a) = 1 - 1/a^2 over the letters i < j
        with c_T(i) - c_T(j) = a >= 2, that is prod_a alpha(a)^exponents[T, a].
        Swapping k, k+1 turns the pair's c_T(k+1) - c_T(k) = r into -r and
        permutes the other pairs, so d_(sT) alpha_T = d_T alpha_(sT) on every
        edge and rho(g)^T D rho(g) = D.
        """
        m = self.shape.n
        _, alpha = _fractions(m, p)
        d = np.ones(len(self), dtype=np.int64)
        for a in range(2, m):
            count = self.exponents[:, a]
            powers = [pow(int(alpha[a + m]), e, p) for e in range(int(count.max()) + 1)]
            d = d * np.array(powers, dtype=np.int64)[count] % p
        return d

    def action(self, p):
        """Per adjacent transposition s_k, the coefficients (diag, off) of
        the row update new[T] = diag[T] x[T] + off[T] x[s_k T] modulo p, as
        (m - 1, f, 1) arrays."""
        m = self.shape.n
        r = self.axial
        inverse, alpha = _fractions(m, p)
        # the coefficient on x[s_k T] is alpha of the partner, whose axial
        # distance is -r: 1 when r < 0, alpha(r) when r > 0
        off = np.where(r < 0, 1, alpha[r + m])
        off[self.partner == np.arange(len(self))] = 0
        # a trailing axis, so each letter scales the rows of an f x q block
        return inverse[r + m][:, :, None], off[:, :, None]


@cache
def tableaux(shape) -> Tableaux:
    """The cached tables of one shape (a tuple of parts)."""
    return Tableaux(shape)


def _row_words(parts):
    """Row words of all standard tableaux of the shape, unsorted: those of
    the shape less each corner box, each followed by that corner's row."""
    memo = {}

    def words(shape):
        if shape not in memo:
            blocks = [np.zeros((1, 0), dtype=np.uint8)] if not shape else []
            for r, part in enumerate(shape):
                if r + 1 < len(shape) and shape[r + 1] == part:
                    continue
                # a last box alone in its row leaves the shape's first r rows
                smaller = words(shape[:r] + (part - 1,) + shape[r + 1:] if part > 1
                                else shape[:r])
                blocks.append(np.concatenate(
                    [smaller, np.full((len(smaller), 1), r, dtype=np.uint8)], axis=1))
            memo[shape] = np.concatenate(blocks)
        return memo[shape]

    return words(tuple(parts))


def _fractions(m, p):
    """Tables of 1/a and alpha(a) = 1 - 1/a^2 modulo p, indexed by a + m for
    -m <= a <= m (a = 0 never occurs; alpha is read only where |a| >= 2)."""
    inverse = np.zeros(2 * m + 1, dtype=np.int64)
    alpha = np.zeros(2 * m + 1, dtype=np.int64)
    for a in range(-m, m + 1):
        if a:
            inverse[a + m] = pow(a, -1, p)
            alpha[a + m] = (a * a - 1) * pow(a * a, -1, p) % p
    return inverse, alpha


def _apply(word, x, action, partner, p):
    """rho(s_(word[0]) s_(word[1]) ...) x modulo p: the last letter acts first.

    x is a block of residues and is left unchanged.  Each letter updates a
    copy of it in place through one scratch block: every new entry is
    diag x[T] + off x[s_k T], a sum of two products of residues below
    2 p^2 < 2**51, so the int64 arithmetic is exact, and it is reduced as
    x - (x // p) p, since floor division by a scalar is cheaper than %.
    """
    diag, off = action
    x = np.array(x, dtype=np.int64)
    y = np.empty_like(x)
    for k in reversed(word):
        np.take(x, partner[k], axis=0, out=y)
        y *= off[k]
        x *= diag[k]
        x += y
        np.floor_divide(x, p, out=y)
        y *= p
        x -= y
    return x


def _gram(x, y, p):
    """x^T y modulo p.  Products of residues are below (p-1)^2, so the
    contraction over rows is chunked to keep every int64 partial sum at
    most 2**63 - 1."""
    chunk = _INT64_MAX // (p - 1) ** 2
    if chunk < 1:
        raise ArithmeticError(f"modulus {p} too large for int64 products")
    out = np.zeros((x.shape[1], y.shape[1]), dtype=np.int64)
    for s in range(0, len(x), chunk):
        out += np.einsum("ki,kj->ij", x[s:s + chunk], y[s:s + chunk]) % p
        out %= p
    return out


def reduced_word(img):
    """A reduced word of the permutation with 0-based images img: the list
    w with img = s_(w[0]) o s_(w[1]) o ... (o composes right to left)."""
    img = list(img)
    swaps = []
    for end in range(len(img) - 1, 0, -1):
        for k in range(end):
            if img[k] > img[k + 1]:
                img[k], img[k + 1] = img[k + 1], img[k]
                swaps.append(k)
    # each swap composed img with s_k on the right until it became the identity
    return swaps[::-1]


def interleave(n):
    """The g with g(2i) = i and g(2i+1) = n+i, so that conjugating by g
    turns s_(2i) = (2i, 2i+1) into (i, n+i), as 0-based images."""
    img = [0] * (2 * n)
    for i in range(n):
        img[2 * i], img[2 * i + 1] = i, n + i
    return img


def fixed_rank(xi, n) -> int:
    """q = rank of Q in xi: 2^-n sum_k C(n, k) chi^xi(2^k 1^(2n-2k))."""
    total = sum(comb(n, k) * character(xi, (2,) * k + (1,) * (2 * n - 2 * k))
                for k in range(n + 1))
    return total >> n


def projection_rank(lam, xi) -> int:
    """r = rank of P in xi: f_lam^2 times the Littlewood-Richardson
    coefficient c^xi_(lam lam), the multiplicity of lam x lam in xi
    restricted to S_n x S_n,

        c = (n!)^-2 sum_(a, b) |C_a| |C_b| chi^lam(a) chi^lam(b) chi^xi(a u b)

    over the classes a, b of S_n where chi^lam does not vanish."""
    lam, xi = as_partition(lam), as_partition(xi)
    n = lam.n
    if xi.n != 2 * n:
        raise ValueError("xi must partition twice |lam|")
    table = character_table(n)
    weighted = [(size * int(chi), mu.parts) for size, chi, mu in
                zip(table.class_sizes, table.row(lam), table.partitions) if chi]
    total = 0
    for wa, a in weighted:
        for wb, b in weighted:
            total += wa * wb * _chi(xi.parts, tuple(sorted(a + b, reverse=True)))
    c, rest = divmod(total, factorial(n) ** 2)
    if rest:
        raise ArithmeticError(f"{xi}: the class sum {total} for {lam} x {lam} "
                              f"is not a multiple of (n!)^2")
    return dim_symmetric(lam) ** 2 * c


def corners(tab, n) -> np.ndarray:
    """Indices of the corner tableaux of xi = tab.shape: axial distance
    c_T(2i+1) - c_T(2i) > 0 at every pair i < n."""
    return np.flatnonzero((tab.axial[0:2 * n:2] > 0).all(axis=0))


def _corner_entries(tab, n, action, p):
    """The nonzero entries (rows, cols, vals) of C = prod_i (1 + rho(s_(2i)))
    applied to the unit vectors of the corners, modulo p.

    Column j starts at its corner T_j; each s_(2i) acts on its own letter
    pair, whose axial distance r_i > 0 the other s_(2k) leave alone, so
    (1 + rho(s_(2i))) keeps every entry with factor 1 + 1/r_i and, when the
    partner tableau exists, adds one there with that partner's off.  The
    cubes of the corners are disjoint, so no two entries share a row.
    """
    diag, off = action
    rows = corners(tab, n)
    cols = np.arange(len(rows))
    vals = np.ones(len(rows), dtype=np.int64)
    for k in range(0, 2 * n, 2):
        moved = tab.partner[k][rows]
        has = moved != rows
        moved = moved[has]
        rows, cols, vals = (
            np.concatenate([rows, moved]),
            np.concatenate([cols, cols[has]]),
            np.concatenate([vals * (1 + diag[k, rows, 0]) % p,
                            vals[has] * off[k, moved, 0] % p]))
    return rows, cols, vals


def fixed_basis(tab, n, action, p):
    """C = prod_i (1 + rho(s_(2i))) applied to the unit vectors of the
    corners, modulo p: a basis of the range of Q'."""
    rows, cols, vals = _corner_entries(tab, n, action, p)
    basis = np.zeros((len(tab), len(corners(tab, n))), dtype=np.int64)
    basis[rows, cols] = vals
    return basis


def _residue(tab, fill, n, scale, p):
    """A_xi(lam) modulo p."""
    action = tab.action(p)
    d = tab.form(p)
    g_word = reduced_word(interleave(n))
    # B = rho(g) C spans the range of Q = rho(g) Q' rho(g)^-1, and G = C^T D C
    # is diagonal (rho(g) preserves D; the scalar 2^-n drops out of
    # tr((G^-1 H)^2)), so both come from the sparse entries of C
    rows, cols, vals = _corner_entries(tab, n, action, p)
    low = np.zeros((len(tab), len(corners(tab, n))), dtype=np.int64)
    low[rows, cols] = vals
    g = np.zeros(low.shape[1], dtype=np.int64)
    np.add.at(g, cols, d[rows] * vals % p * vals % p)
    basis = _apply(g_word, low, action, tab.partner, p)
    selected = np.zeros_like(basis)
    selected[fill] = basis[fill]
    # W = rho(g) rho(E) rho(g)^-1 with E = prod_i s_(2i), so with
    # Y = rho(g)^-1 P1 B, H = B^T D P1 W P1 B = Y^T D rho(E) Y
    back = _apply(g_word[::-1], selected, action, tab.partner, p)
    image = _apply(range(0, 2 * n, 2), back, action, tab.partner, p)
    h = _gram(back, d[:, None] * image % p, p)
    x = h * np.array([pow(int(v), -1, p) for v in g % p])[:, None] % p
    trace = int((x * x.T % p).sum()) % p
    return scale % p * trace % p


def _contains(lam, xi) -> bool:
    """Whether xi, a partition of 2|lam|, contains lam; A_xi vanishes if not."""
    if xi.n != 2 * lam.n:
        raise ValueError("xi must partition twice |lam|")
    return len(lam) <= len(xi) and all(a <= b for a, b in zip(lam, xi))


def _crt(residue, bound, label):
    """(v, M, used): v modulo M from residue(p) over the first `used` primes,
    whose product M exceeds bound; ArithmeticError if they run out first."""
    value, modulus, used = 0, 1, 0
    for p in primes():
        if modulus > bound:
            break
        r = residue(p)
        value += modulus * ((r - value) * pow(modulus, -1, p) % p)
        modulus *= p
        used += 1
    if modulus <= bound:
        raise ArithmeticError(f"{label}: the primes multiply to {modulus}, "
                              f"not above the proven bound {bound}")
    return value, modulus, used


def coefficient(lam, xi) -> int:
    """A_xi(lam) as an exact integer."""
    return _coefficient(as_partition(lam), as_partition(xi))[0]


def _coefficient(lam, xi):
    """(A_xi(lam), stage, residues): the stage is the first test that proves
    A_xi = 0 ("contains", "lr" for r = 0, "q" for q = 0) or "evaluated", and
    residues the number of primes A_xi was computed modulo."""
    t0 = perf_counter()
    n = lam.n
    if not _contains(lam, xi):
        return 0, "contains", 0
    r = projection_rank(lam, xi)
    if r == 0:
        return 0, "lr", 0
    q = fixed_rank(xi, n)
    if q == 0:
        return 0, "q", 0
    tab = tableaux(xi.parts)
    if len(corners(tab, n)) != q:
        raise ArithmeticError(f"{xi}: the corner tableaux miss the fixed rank {q}")
    fill = tab.filling(lam)
    c = (factorial(n) // dim_symmetric(lam)) ** 2
    scale = 4**n * c * c
    bound = scale * q
    value, modulus, used = _crt(
        lambda p: _residue(tab, fill, n, scale, p), bound, f"A_{xi}({lam})")
    if log.isEnabledFor(logging.DEBUG):
        log.debug("xi=%s f=%d q=%d r=%d primes=%d headroom_bits=%.1f seconds=%.4f",
                  xi, len(tab), q, r, used, log2(modulus) - log2(bound),
                  perf_counter() - t0)
    return value, "evaluated", used


def pair_coefficient(lam, xi, A, B) -> int:
    """A_xi(A, B): chi^xi summed against hatchi(pi) hatchi(gamma) over the
    products eps_A pi eps_B gamma, for 1-based swap sets A, B in 1..n.

    It equals c^2 tr(rho(eps_A) P rho(eps_B) P).  In the orthogonal form
    the rho(eps) are orthogonal and P an orthogonal projection, so
    |tr(X P Y P)| <= rank P <= f_xi; the value may be negative, and it is
    lifted from residues modulo primes multiplying past 2 c^2 f_xi.
    """
    lam, xi = as_partition(lam), as_partition(xi)
    n = lam.n
    every = set(range(1, n + 1))
    if not set(A) | set(B) <= every:
        raise ValueError("swap sets must lie inside 1..n")
    if not _contains(lam, xi) or projection_rank(lam, xi) == 0:
        return 0
    tab = tableaux(xi.parts)
    fill = tab.filling(lam)
    # with S the selector of P1's range and A' the complement of A,
    # W rho(eps_A) = rho(eps_A') turns the trace into tr(Y_A' M Y_B' M),
    # where M = S^T W S and Y_A = S^T rho(eps_A) S
    select = (np.arange(len(tab))[:, None] == fill).astype(np.int64)
    g_word = reduced_word(interleave(n))
    scale = (factorial(n) // dim_symmetric(lam)) ** 4

    def residue(p):
        action = tab.action(p)

        def block(points):
            # rho(eps) = rho(g) rho(prod_(i in points) s_(2i-2)) rho(g)^-1
            word = g_word + [2 * i - 2 for i in points] + g_word[::-1]
            return _apply(word, select, action, tab.partner, p)[fill]

        m = block(every)
        left = _gram(block(every - set(A)).T, m, p)
        right = _gram(block(every - set(B)).T, m, p)
        trace = int((left * right.T % p).sum()) % p
        return scale % p * trace % p

    value, modulus, _ = _crt(residue, 2 * scale * len(tab),
                             f"A_{xi}({lam}; {sorted(A)}, {sorted(B)})")
    return value - modulus if 2 * value > modulus else value


def class_coefficients(lam) -> dict[Partition, int]:
    """The nonzero A_xi(lam) for every partition xi of 2n, in canonical order."""
    t0 = perf_counter()
    lam = as_partition(lam)
    coeffs = {}
    stages = Counter()
    residues = 0
    for xi in partition_list(2 * lam.n):
        a, stage, used = _coefficient(lam, xi)
        stages[stage] += 1
        residues += used
        if a:
            coeffs[xi] = a
    if shape_log.isEnabledFor(logging.DEBUG):
        shape_log.debug("lam=%s evaluated=%d skipped_contains=%d skipped_lr=%d "
                        "skipped_q=%d residues=%d seconds=%.4f", lam,
                        stages["evaluated"], stages["contains"], stages["lr"],
                        stages["q"], residues, perf_counter() - t0)
    return coeffs
