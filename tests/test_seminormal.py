"""Young's seminormal form modulo a prime, as used by the fourth-moment engine.

The engine's coefficients are checked against the enumeration kernel in
test_moments; these tests check the pieces they rest on: the tableau
tables, that the two-term row updates define a representation with the
stated character and invariant form, the corner basis of the fixed space
of Q, the rank of P that screens out irreps before any tableau work, and
the adjacent-transposition words.  The fast kernels (the in-place row
update, the sparse corner basis, the tabulated form and the recursive row
words) are each checked against a plain dense or letter-by-letter
reference kept here.
"""

from itertools import combinations
from math import comb, isqrt
from random import Random

import numpy as np

from immom.characters import character
from immom.partitions import conjugate, dim_symmetric, partition_list
from immom.seminormal import (
    _apply,
    _fractions,
    _gram,
    corners,
    fixed_basis,
    fixed_rank,
    interleave,
    primes,
    projection_rank,
    reduced_word,
    tableaux,
)
from immom.symgroup import Permutation

P = primes()[0]


def _matrices(xi):
    """Dense rho(s_k) modulo P for every adjacent transposition of xi."""
    tab = tableaux(xi.parts)
    eye = np.eye(len(tab), dtype=np.int64)
    action = tab.action(P)
    return tab, [_apply([k], eye, action, tab.partner, P) for k in range(xi.n - 1)]


def test_primes_are_the_largest_sixteen_below_2_to_the_25():
    def is_prime(c):
        return c > 1 and all(c % d for d in range(2, isqrt(c) + 1))

    ps = primes()
    assert len(ps) == 16 and list(ps) == sorted(ps, reverse=True)
    assert all(is_prime(p) for p in ps)
    # every odd number between the entries and up to 2^25 is composite
    assert [c for c in range(ps[-1], 1 << 25, 2) if is_prime(c)] == sorted(ps)


def test_tables_enumerate_each_standard_tableau_once():
    for m in range(1, 9):
        for xi in partition_list(m):
            tab = tableaux(xi.parts)
            assert len(tab) == dim_symmetric(xi), xi
            assert len({w.tobytes() for w in tab.words}) == len(tab)
            for k in range(m - 1):
                back = tab.partner[k][tab.partner[k]]
                assert np.array_equal(back, np.arange(len(tab)))


def test_action_is_a_representation_with_the_invariant_form():
    for m in (5, 6):
        for xi in partition_list(m):
            tab, rho = _matrices(xi)
            d = tab.form(P)
            eye = np.eye(len(tab), dtype=np.int64)
            for k, s in enumerate(rho):
                assert np.array_equal(s @ s % P, eye), (xi, k)
                assert np.array_equal(s.T @ (d[:, None] * s % P) % P, np.diag(d)), (xi, k)
            for a, b in combinations(range(m - 1), 2):
                ab = rho[a] @ rho[b] % P
                power = 3 if b == a + 1 else 2
                prod = eye
                for _ in range(power):
                    prod = prod @ ab % P
                assert np.array_equal(prod, eye), (xi, a, b)


def test_traces_are_the_characters():
    for m in (4, 6, 7):
        for xi in partition_list(m):
            _, rho = _matrices(xi)
            cycle = rho[0]
            for length in range(2, m + 1):
                mu = (length,) + (1,) * (m - length)
                assert int(np.trace(cycle)) % P == character(xi, mu) % P, (xi, mu)
                if length < m:
                    cycle = cycle @ rho[length - 1] % P


def test_corner_tableaux_span_the_fixed_space_with_a_diagonal_gram():
    for n in range(1, 7):
        for xi in partition_list(2 * n):
            tab = tableaux(xi.parts)
            assert len(corners(tab, n)) == fixed_rank(xi, n), xi
            action = tab.action(P)
            basis = fixed_basis(tab, n, action, P)
            for k in range(0, 2 * n, 2):
                fixed = _apply([k], basis, action, tab.partner, P)
                assert np.array_equal(fixed, basis), (xi, k)
            d = tab.form(P)
            gram = _gram(basis, d[:, None] * basis % P, P)
            g = np.diag(gram)
            assert np.array_equal(gram, np.diag(g)), xi
            assert np.all(g), xi


def _lr(lam, xi):
    """c^xi_(lam lam) from the rank r = f_lam^2 c."""
    f2 = dim_symmetric(lam) ** 2
    r = projection_rank(lam, xi)
    assert r % f2 == 0, (lam, xi)
    return r // f2


def test_projection_rank_hand_values():
    # s_(2,1)^2 = s_42 + s_411 + s_33 + 2 s_321 + s_3111 + s_222 + s_2211
    square = {(4, 2): 1, (4, 1, 1): 1, (3, 3): 1, (3, 2, 1): 2,
              (3, 1, 1, 1): 1, (2, 2, 2): 1, (2, 2, 1, 1): 1}
    for xi in partition_list(6):
        assert _lr((2, 1), xi) == square.get(xi.parts, 0), xi
    assert projection_rank((2, 1), (3, 2, 1)) == 8


def test_projection_ranks_fill_the_induced_representation():
    # sum over xi of c^xi_(lam lam) f_xi is the dimension C(2n, n) f_lam^2 of
    # lam x lam induced from S_n x S_n; c is invariant under conjugating
    # lam and xi together, and c > 0 only when xi contains lam
    for n in range(1, 7):
        for lam in partition_list(n):
            total = 0
            for xi in partition_list(2 * n):
                c = _lr(lam, xi)
                total += c * dim_symmetric(xi)
                assert c == _lr(conjugate(lam), conjugate(xi)), (lam, xi)
                inside = len(lam) <= len(xi) and all(a <= b for a, b in zip(lam, xi))
                assert c == 0 or inside, (lam, xi)
            assert total == comb(2 * n, n) * dim_symmetric(lam) ** 2, lam


def test_reduced_words_spell_their_permutations():
    for n in range(1, 6):
        block_swap = list(range(n, 2 * n)) + list(range(n))
        for img in (block_swap, interleave(n)):
            word = reduced_word(img)
            product = Permutation.identity(2 * n)
            for k in word:
                s = list(range(2 * n))
                s[k], s[k + 1] = k + 1, k
                product = product * Permutation(s)
            assert product == Permutation(img)
            inversions = sum(img[i] > img[j] for i, j in combinations(range(2 * n), 2))
            assert len(word) == inversions
        assert len(reduced_word(block_swap)) == n * n


# ---------------------------------------------------------------------------
# the fast kernels against plain references


def _dense_letter(tab, action, k):
    """rho(s_k) as a dense object matrix: diag on the diagonal and off at
    the partner's column, read off the action tables."""
    diag, off = action
    rho = np.zeros((len(tab), len(tab)), dtype=object)
    for t in range(len(tab)):
        rho[t, t] += int(diag[k, t, 0])
        rho[t, tab.partner[k, t]] += int(off[k, t, 0])
    return rho


def test_apply_is_the_product_of_dense_letters_and_keeps_its_input():
    draw = Random(5)
    for xi in ((3, 2), (2, 2, 1, 1), (4, 2, 1), (3, 2, 2, 1)):
        tab = tableaux(xi)
        m = sum(xi)
        action = tab.action(P)
        letters = [_dense_letter(tab, action, k) for k in range(m - 1)]
        x = np.array([[draw.randrange(P) for _ in range(3)] for _ in range(len(tab))],
                     dtype=np.int64)
        kept = x.copy()
        word = [draw.randrange(m - 1) for _ in range(12)]
        want = x.astype(object)
        for k in reversed(word):
            want = letters[k].dot(want) % P
        got = _apply(word, x, action, tab.partner, P)
        assert np.array_equal(x, kept), xi
        assert np.array_equal(got, want.astype(np.int64)), xi


def test_fixed_basis_is_the_letter_by_letter_product():
    for n in range(1, 6):
        for xi in partition_list(2 * n):
            tab = tableaux(xi.parts)
            action = tab.action(P)
            want = (np.arange(len(tab))[:, None] == corners(tab, n)).astype(np.int64)
            for k in range(0, 2 * n, 2):
                want = (want + _apply([k], want, action, tab.partner, P)) % P
            assert np.array_equal(fixed_basis(tab, n, action, P), want), xi


def test_form_is_the_pairwise_product():
    # d_T = prod over letters i < j with a = c_T(j) - c_T(i) <= -2 of
    # alpha(a), one pair at a time
    for p in primes()[:2]:
        for m in range(1, 11):
            _, alpha = _fractions(m, p)
            for xi in partition_list(m):
                tab = tableaux(xi.parts)
                want = np.ones(len(tab), dtype=np.int64)
                for i, j in combinations(range(m), 2):
                    a = tab.contents[:, j] - tab.contents[:, i]
                    want = want * np.where(a <= -2, alpha[a + m], 1) % p
                assert np.array_equal(tab.form(p), want), (p, xi)


def _letter_by_letter_words(parts):
    """Row words of the standard tableaux, grown one letter at a time."""
    words = [()]
    for _ in range(sum(parts)):
        words = [w + (r,) for w in words for r in range(len(parts))
                 if w.count(r) < parts[r] and (r == 0 or w.count(r - 1) > w.count(r))]
    return words


def test_words_are_the_letter_by_letter_build_in_order():
    for m in range(11):
        for xi in partition_list(m):
            tab = tableaux(xi.parts)
            want = sorted(_letter_by_letter_words(xi.parts))
            assert [tuple(w) for w in tab.words.tolist()] == want, xi
